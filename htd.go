// Package htd computes hypertree decompositions (HDs) of hypergraphs,
// conjunctive queries and constraint networks. It is a from-scratch Go
// implementation of log-k-decomp, the parallel decomposition algorithm
// with logarithmic recursion depth of
//
//	Gottlob, Lanzinger, Okulmus, Pichler:
//	"Fast Parallel Hypertree Decompositions in Logarithmic Recursion
//	Depth", PODS 2022 (arXiv:2104.13793),
//
// together with the systems that paper evaluates against: det-k-decomp
// (NewDetKDecomp) and a GHD solver standing in for BalancedGo.
// DecomposeOptimal computes the exact width by deciding widths in
// ascending order.
//
// # Quick start
//
//	h, _ := htd.ParseString("r1(x,y), r2(y,z), r3(z,x).")
//	d, ok, err := htd.Decompose(ctx, h, htd.Options{K: 2, Workers: 4})
//	if ok {
//	    fmt.Print(d)               // the decomposition tree
//	    fmt.Println(d.Width())     // 2
//	}
//
// Solvers accept a context for cancellation and timeouts; every returned
// decomposition can be re-verified with Validate / ValidateGHD.
package htd

import (
	"context"
	"io"

	"repro/internal/dataset"
	"repro/internal/decomp"
	"repro/internal/detk"
	"repro/internal/hypergraph"
	"repro/internal/join"
	"repro/internal/logk"
	"repro/internal/query"
	"repro/internal/service"
	"repro/internal/store"
	"repro/internal/tenant"
)

// Hypergraph is an immutable hypergraph; construct one with a Builder or
// by parsing the HyperBench text format.
type Hypergraph = hypergraph.Hypergraph

// Builder accumulates named edges and produces a Hypergraph.
type Builder = hypergraph.Builder

// Decomposition is a rooted (generalized) hypertree decomposition.
type Decomposition = decomp.Decomp

// Node is one node of a decomposition tree.
type Node = decomp.Node

// Options configures the log-k-decomp solver; see the field docs in the
// underlying type for the parallelism and hybridisation knobs.
type Options = logk.Options

// HybridMetric selects the subproblem metric for the hybrid solver.
type HybridMetric = logk.HybridMetric

// Hybrid metric values.
const (
	HybridNone          = logk.HybridNone
	HybridEdgeCount     = logk.HybridEdgeCount
	HybridWeightedCount = logk.HybridWeightedCount
)

// SolverStats reports search-effort counters of a log-k-decomp run.
type SolverStats = logk.Stats

// Parse reads a hypergraph in HyperBench syntax: comma-separated
// name(vertex,...) terms, optionally ending with a period; '%' starts a
// line comment.
func Parse(r io.Reader) (*Hypergraph, error) { return hypergraph.Parse(r) }

// ParseString is Parse over a string.
func ParseString(s string) (*Hypergraph, error) { return hypergraph.ParseString(s) }

// Decompose checks hw(H) ≤ opts.K with log-k-decomp and returns a valid
// HD of width ≤ K when one exists. It is the main entry point of this
// library.
func Decompose(ctx context.Context, h *Hypergraph, opts Options) (*Decomposition, bool, error) {
	return logk.New(h, opts).Decompose(ctx)
}

// DecomposeStats is Decompose but additionally returns the solver's
// effort counters (candidate counts, observed recursion depth, …).
func DecomposeStats(ctx context.Context, h *Hypergraph, opts Options) (*Decomposition, bool, SolverStats, error) {
	s := logk.New(h, opts)
	d, ok, err := s.Decompose(ctx)
	return d, ok, s.Stats(), err
}

// DecomposeK is Decompose with default options and width bound k.
func DecomposeK(ctx context.Context, h *Hypergraph, k int) (*Decomposition, bool, error) {
	return Decompose(ctx, h, Options{K: k})
}

// DecomposeDetK runs the sequential det-k-decomp baseline (Gottlob &
// Samer 2008), useful for small hypergraphs and as a cross-check.
func DecomposeDetK(ctx context.Context, h *Hypergraph, k int) (*Decomposition, bool, error) {
	return detk.New(h, k).Decompose(ctx)
}

// DecomposeGHD searches for a generalized hypertree decomposition of
// width ≤ k: det-k-decomp on the hypergraph augmented with its subedges
// e ∩ (e₁ ∪ … ∪ e_j) for j ≤ k, with each subedge in a λ-label charged
// back to the edge e it was cut from.
func DecomposeGHD(ctx context.Context, h *Hypergraph, k int) (*Decomposition, bool, error) {
	return detk.NewGHD(h, k).Decompose(ctx)
}

// OptimalOptions configures DecomposeOptimal: the log-k-decomp search
// of every width (Search; its K is set per width), the width ceiling
// KMax and a lower bound the caller has already proven; see the field
// docs of the underlying type.
type OptimalOptions = logk.OptimalConfig

// DecomposeOptimal computes hw(H) exactly with log-k-decomp. It raises
// opts.LowerBound to the hypergraph's structural lower bound
// (Hypergraph.WidthLowerBound), then decides each width from there up
// to opts.KMax and stops at the first that admits an HD, so every
// smaller width is refuted. The parallelism is inside each width's
// search (opts.Search.Workers). ok is false when hw(H) > opts.KMax.
func DecomposeOptimal(ctx context.Context, h *Hypergraph, opts OptimalOptions) (int, *Decomposition, bool, error) {
	res, err := logk.OptimalFromBound(ctx, h, opts)
	return res.Width, res.Decomp, res.Found, err
}

// Service runs decompositions as a managed concurrent service: jobs
// submitted from any number of goroutines share one global worker-token
// budget, pass admission control with per-job timeouts, and read
// through a unified cross-request store keyed by hypergraph content
// hash (an exact LRU of ServiceConfig.MemoMaxGraphs hypergraphs under
// one lock) — cached results are returned re-validated without a
// solver run, concurrent identical requests coalesce onto one solver,
// and with ServiceConfig.StoreDir (OpenService) the store persists to
// disk for warm restarts. Create one with NewService or OpenService;
// see ServiceConfig for sizing and ServiceConfig.Store for custom
// backends.
type Service = service.Service

// ServiceConfig sizes a Service; the zero value picks sensible defaults.
type ServiceConfig = service.Config

// DefaultMaxRows is the query row ceiling a ServiceConfig with MaxRows 0
// applies.
const DefaultMaxRows = service.DefaultMaxRows

// ServiceRequest is one decomposition job for a Service.
type ServiceRequest = service.Request

// ServiceResult is the outcome of one Service job.
type ServiceResult = service.Result

// ServiceStats is a snapshot of Service-wide counters.
type ServiceStats = service.Stats

// Service job modes.
const (
	// ModeDecide answers hw(H) ≤ K (the default).
	ModeDecide = service.ModeDecide
	// ModeOptimal computes hw(H) exactly over widths 1..K with the
	// width ladder of DecomposeOptimal, from the larger of the
	// structural and the cached lower bound.
	ModeOptimal = service.ModeOptimal
)

// Service sentinel errors.
var (
	// ErrOverloaded: the job was rejected by admission control.
	ErrOverloaded = service.ErrOverloaded
	// ErrServiceClosed: the job was submitted after Close.
	ErrServiceClosed = service.ErrClosed
)

// NewService returns a decomposition service. Close it when done.
// ServiceConfig.StoreDir is ignored here — use OpenService for a
// disk-backed service, whose store can fail to open.
func NewService(cfg ServiceConfig) *Service { return service.New(cfg) }

// OpenService is NewService honouring ServiceConfig.StoreDir: when set
// (and no Store is injected) the service persists through a disk-backed
// tiered store in that directory — the in-memory LRU backend as the
// working set over a crash-safe append-only log — and a restart on
// the same directory serves the whole cached history warm, with zero
// solver runs for repeat submissions. The closed directory is also the
// export format: a byte copy of it warm-starts a service elsewhere. The
// service owns that backend and flushes and closes it on Close.
func OpenService(cfg ServiceConfig) (*Service, error) { return service.Open(cfg) }

// TenantConfig sizes the multi-tenant admission wall in front of a
// Service's global admission control (ServiceConfig.Tenants):
// per-tenant token-bucket rate limits, in-flight caps and bounded wait
// queues, and an optional fair-share spare pool that reflows unused
// per-tenant budget. The zero value enforces nothing but still
// accounts per-tenant counters and streaming p50/p99 latency.
type TenantConfig = tenant.Config

// TenantStats is one tenant's admission snapshot (ServiceStats.Tenants).
type TenantStats = tenant.Stats

// TenantLimitError is a per-tenant admission rejection, carrying the
// tenant id, the gate that rejected ("rate" or "load") and a RetryAfter
// hint sized from the actual token deficit.
type TenantLimitError = tenant.LimitError

// ErrTenantLimited identifies per-tenant admission rejections:
// errors.Is(err, ErrTenantLimited) holds for every TenantLimitError,
// whichever gate rejected.
var ErrTenantLimited = tenant.ErrLimited

// StoreEntryInfo describes one cached hypergraph (Backend.Info).
type StoreEntryInfo = store.EntryInfo

// DiskStoreStats is the disk tier's corner of a store backend's
// counters (the Disk field, nil for purely in-memory backends).
type DiskStoreStats = store.DiskStats

// CQ is a conjunctive query: a conjunction of atoms over shared
// variables. Its hypergraph (CQ.Hypergraph) is what gets decomposed.
type CQ = join.Query

// Relation is a set of integer tuples over named attributes — the
// storage unit of the in-memory relational engine.
type Relation = join.Relation

// Database maps relation names to their data.
type Database = join.Database

// ErrRowBudget is wrapped by query evaluations that exceed their
// per-query row budget (QueryRequest.MaxRows).
var ErrRowBudget = join.ErrRowBudget

// ErrAggregateOverflow is wrapped by aggregate evaluations whose COUNT
// or SUM, or one of the SUM's partial sums, leaves the int64 range.
var ErrAggregateOverflow = join.ErrAggregateOverflow

// ErrNoQueryPlan is wrapped when a query's hypertree width exceeds the
// requested ceiling: no width-bounded plan exists.
var ErrNoQueryPlan = query.ErrNoPlan

// NewRelation returns an empty relation with the given attribute names.
func NewRelation(attrs ...string) *Relation { return join.NewRelation(attrs...) }

// ParseCQ reads a conjunctive query in Datalog-ish syntax:
// "R(x,y), S(y,z), T(z,x)." with an optional ignored head.
func ParseCQ(src string) (CQ, error) { return join.ParseQuery(src) }

// ParseRelations reads a database alone: rel blocks with no query line
// (the wire form of the HTTP /query "database" field).
func ParseRelations(src string) (Database, error) { return join.ParseRelations(src) }

// QueryPlanner answers conjunctive queries through a decomposition
// Service: the query's hypergraph is decomposed via the service's
// content-addressed plan cache (a repeat query reuses the cached plan
// with zero solver runs) and Yannakakis' algorithm executes over the
// bags under per-query row and time budgets. Create one per Service
// with NewQueryPlanner and share it between goroutines.
type QueryPlanner = query.Planner

// QueryRequest is one conjunctive query to answer, over an inline
// database or a named dataset, as rows or as an aggregate, under
// optional row, width and time limits.
type QueryRequest = query.Request

// QueryResult is the outcome of one answered query: canonical rows,
// plan width, cache provenance, plan/execution timings, and the
// executor's effort counters.
type QueryResult = query.Result

// QueryStats is a snapshot of a QueryPlanner's counters, including the
// executor effort (indexes built and reused, tuples probed, bags
// reused) summed over every execution, aborted ones included.
type QueryStats = query.Stats

// QueryExecStats is one query's executor effort: hash indexes built and
// reused, tuples probed, bags reused and relational operations run
// (QueryResult.Exec).
type QueryExecStats = join.ExecStats

// NewQueryPlanner returns a planner executing queries over svc.
func NewQueryPlanner(svc *Service) *QueryPlanner { return query.NewPlanner(svc) }

// DatasetConfig bounds the named-dataset registry behind a Service
// (ServiceConfig.Datasets; reach it with Service.Datasets()): dataset
// count, per-dataset tuples and retained pinnable versions. Datasets
// are tenant-namespaced, server-resident, versioned databases whose
// relations carry delta-maintained hash indexes: upload once, query
// many times by name (QueryRequest.Dataset) — repeat queries skip
// parsing and index building — and mutate with tuple deltas that
// advance the version in O(delta) instead of rebuilding.
type DatasetConfig = dataset.Config

// Dataset is one named, versioned database. Mutation batches advance
// its version by exactly one; every version publishes an immutable
// copy-on-write snapshot, so in-flight queries read a consistent
// version while writers advance.
type Dataset = dataset.Dataset

// DatasetMutation is one delta line of a mutation batch: insert or
// delete of a tuple batch against one relation (POST /data/{name}/mutate).
type DatasetMutation = dataset.Mutation

// DecodeDatasetBatch reads a mutation batch in its NDJSON wire form.
func DecodeDatasetBatch(r io.Reader) ([]DatasetMutation, error) { return dataset.DecodeBatch(r) }

// DatasetStats aggregates registry-wide counters (for /stats).
type DatasetStats = dataset.Stats

// Dataset sentinel errors.
var (
	// ErrDatasetNotFound: no dataset with that name for the tenant.
	ErrDatasetNotFound = dataset.ErrNotFound
	// ErrDatasetVersionGone: the pinned version fell out of the
	// retention window (or the dataset was replaced).
	ErrDatasetVersionGone = dataset.ErrVersionGone
	// ErrDatasetFutureVersion: the pinned version does not exist yet.
	ErrDatasetFutureVersion = dataset.ErrFutureVersion
	// ErrDatasetLimit: a registry or per-dataset tuple cap would be
	// exceeded.
	ErrDatasetLimit = dataset.ErrLimit
)

// AggregateSpec is one aggregate head over a conjunctive query's
// answers: COUNT, COUNT DISTINCT over a projection, or SUM/MIN/MAX of
// one variable — each optionally per GROUP BY group. Set
// QueryRequest.Aggregate to answer the aggregate by pushdown over the
// join tree instead of materialising rows.
type AggregateSpec = join.AggSpec

// Aggregate kinds, the operations of an AggregateSpec.
const (
	AggCount         = join.AggCount
	AggCountDistinct = join.AggCountDistinct
	AggSum           = join.AggSum
	AggMin           = join.AggMin
	AggMax           = join.AggMax
)

// AggregateResult is one answered aggregate in canonical form: group
// columns in sorted variable order, group rows sorted, values parallel
// to the groups. Value() returns the scalar answer of a no-GROUP-BY
// spec.
type AggregateResult = join.AggResult

// ParseAggregate reads an aggregate head: "count",
// "count distinct(x,y)", "sum(x)", "min(x)", "max(x)", each optionally
// prefixed "group g1,g2:". See docs/QUERY_FORMAT.md.
func ParseAggregate(src string) (AggregateSpec, error) { return join.ParseAggregate(src) }

// FormatAggregate renders an aggregate head in the syntax
// ParseAggregate reads.
func FormatAggregate(spec AggregateSpec) string { return join.FormatAggregate(spec) }

// AggregateRows folds an already-materialised full-query result — the
// definitional (and naive) semantics the pushdown engine reproduces
// without materialisation.
func AggregateRows(rel *Relation, spec AggregateSpec) (AggregateResult, error) {
	return join.AggregateRows(rel, spec)
}

// EvalQuery answers one conjunctive query end to end over svc — the
// paper's §1 motivating application as a single call: hash the query's
// hypergraph, fetch or compute a minimum-width decomposition through
// the service's plan cache, and run Yannakakis over the bags. Callers
// issuing many queries should hold a NewQueryPlanner instead, which
// additionally accumulates QueryStats across calls.
func EvalQuery(ctx context.Context, svc *Service, req QueryRequest) (QueryResult, error) {
	return query.NewPlanner(svc).Eval(ctx, req)
}

// EvalQueryNaive answers the query by the exponential left-to-right
// cross join — the correctness baseline the differential tests compare
// the decomposition pipeline against.
func EvalQueryNaive(q CQ, db Database) (*Relation, error) { return join.EvaluateNaive(q, db) }

// CanonicalRows returns a full-query result with its columns in sorted
// attribute order and its distinct tuples sorted, the form in which two
// evaluations of the same query are comparable (and repeat HTTP answers
// byte-identical).
func CanonicalRows(rel *Relation) (*Relation, error) { return query.Canonical(rel) }

// Validate checks the four HD conditions (including the special
// condition) and returns nil iff d is a valid hypertree decomposition
// of its hypergraph.
func Validate(d *Decomposition) error { return decomp.CheckHD(d) }

// ValidateGHD checks validity as a generalized hypertree decomposition
// (no special condition).
func ValidateGHD(d *Decomposition) error { return decomp.CheckGHD(d) }

// ValidateWidth verifies width(d) ≤ k.
func ValidateWidth(d *Decomposition, k int) error { return decomp.CheckWidth(d, k) }
