package query

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/join"
	"repro/internal/service"
	"repro/internal/tenant"
)

// ErrNoPlan is returned when the query's hypertree width exceeds the
// request's width ceiling: no tractable plan exists within the bound.
var ErrNoPlan = errors.New("query: no decomposition within the width ceiling")

// Request is one conjunctive query to answer.
type Request struct {
	// Query is the CQ to answer (required). It runs over exactly one of
	// Dataset (a named server-resident database) or DB (inline).
	Query join.Query
	// Dataset names a registered dataset to run over; the query reads a
	// consistent snapshot of it (current version, or AtVersion if set)
	// whose relations carry delta-maintained indexes, so repeat queries
	// skip parsing and index building entirely. Mutually exclusive with
	// DB.
	Dataset string
	// AtVersion pins the query to a specific dataset version (0 =
	// current). Requires Dataset; versions outside the retained window
	// fail with a clear error rather than wrong rows.
	AtVersion uint64
	// DB is the inline compatibility path: a database shipped with the
	// request itself. Prefer Dataset — inline databases are re-validated
	// per request and any indexes built for them live only as long as
	// the caller keeps the Database value alive.
	DB join.Database
	// MaxWidth is the decomposition width ceiling. 0 defaults to the
	// number of atoms (a plan then always exists: hw ≤ |atoms|); values
	// above the atom count are clamped to it.
	MaxWidth int
	// MaxRows caps every join result and the answer of the execution
	// (join.EvalOptions.MaxRows); exceeding it aborts with
	// join.ErrRowBudget. It follows the service's rule
	// (service.Service.RowCap): 0 inherits the service's MaxRows
	// ceiling, and larger values are clamped to it.
	MaxRows int
	// Timeout bounds the whole query — planning and execution — by the
	// service's rule (service.Service.WithTimeout): 0 inherits the
	// service's DefaultTimeout, and larger values are clamped to it.
	Timeout time.Duration
	// Aggregate, when non-nil, answers this aggregate over the query's
	// result set instead of the rows themselves, pushed down the join
	// tree: no answer row is ever materialised, so queries whose result
	// set would blow MaxRows still aggregate cheaply. The plan (and the
	// plan cache entry) is the same one a row query uses.
	Aggregate *join.AggSpec
	// Tenant attributes the query to a caller for per-tenant admission
	// control; empty means tenant.Default. The whole query — planning
	// and execution — is admitted through the service's tenant wall as
	// one request, so per-tenant p50/p99 measure end-to-end query
	// latency.
	Tenant string
}

// Result is the outcome of one answered query.
type Result struct {
	// Rows is the full answer relation in canonical form: attributes in
	// sorted variable order, tuples in sorted order. Canonical form makes
	// repeat answers byte-identical regardless of which plan produced
	// them. Nil for aggregate requests.
	Rows *join.Relation
	// Agg is the aggregate answer of an aggregate request (canonical:
	// group columns and rows sorted); nil for row requests.
	Agg *join.AggResult
	// Width is the hypertree width of the plan that was executed.
	Width int
	// PlanCacheHit reports that the decomposition came from the store's
	// positive result cache — no solver ran for this query.
	PlanCacheHit bool
	// PlanCoalesced reports that the plan was shared with a concurrent
	// identical query's solver run.
	PlanCoalesced bool
	// PlanElapsed and ExecElapsed split the query's wall time into the
	// decomposition (or cache lookup) and the Yannakakis execution.
	PlanElapsed time.Duration
	ExecElapsed time.Duration
	// DatasetVersion is the dataset version the query actually read
	// (the snapshot it resolved); 0 for inline-DB requests.
	DatasetVersion uint64
	// Exec reports the executor's per-query effort: indexes built and
	// reused, tuples probed, bags reused, operations run.
	Exec join.ExecStats
}

// Stats is a snapshot of planner-wide counters.
type Stats struct {
	Queries        int64 // queries submitted to Eval
	Answered       int64 // queries that returned a result
	PlanCacheHits  int64 // plans served from the store, zero solver runs
	PlanCoalesced  int64 // plans shared with a concurrent identical query
	PlanFailures   int64 // planning errors (no plan in bound, solve errors)
	ExecFailures   int64 // execution errors (row budget, cancellation)
	TenantLimited  int64 // queries rejected by the per-tenant admission wall
	RowsReturned   int64 // total answer tuples across all row queries
	AggQueries     int64 // answered aggregate (row-free) queries
	AggGroups      int64 // total groups returned across aggregate queries
	DatasetQueries int64 // queries that ran over a named dataset snapshot

	// Executor counters, summed over every execution, aborted ones
	// included (see record).
	ExecIndexBuilds int64 // hash indexes built
	ExecIndexReuses int64 // hash index builds skipped via maintained/captured indexes
	ExecIndexProbes int64 // tuples probed against an index
	ExecBagReuses   int64 // bags served from a dataset snapshot's bag cache
}

// Planner answers conjunctive queries through a decomposition service.
// It is safe for concurrent use; create one per service and share it.
type Planner struct {
	svc *service.Service

	mu    sync.Mutex
	stats Stats // counted once per query, by record
}

// NewPlanner returns a Planner executing queries over svc.
func NewPlanner(svc *service.Service) *Planner {
	return &Planner{svc: svc}
}

// outcome is where a query ended, as Stats counts it.
type outcome int

const (
	answered outcome = iota
	planFailed
	execFailed
	tenantLimited
)

// Eval answers one conjunctive query: validate, admit through the
// per-tenant wall, plan (through the service's plan cache), execute
// Yannakakis, canonicalise the rows.
func (p *Planner) Eval(ctx context.Context, req Request) (Result, error) {
	var res Result
	out, err := planFailed, validate(req)
	if err == nil {
		// One lease covers planning and execution, so the tenant is
		// rate-charged once per query and the wall's latency histogram
		// sees the query end to end. The inner Submit is marked
		// pre-admitted.
		var lease *tenant.Lease
		if lease, err = p.svc.Tenants().Admit(ctx, req.Tenant); errors.Is(err, tenant.ErrLimited) {
			out = tenantLimited
		} else if err == nil {
			res, out, err = p.eval(ctx, req)
			lease.Done(err != nil)
		}
	}
	p.record(res, out)
	if err != nil {
		return Result{}, err
	}
	return res, nil
}

// record counts one query: its outcome, and whatever of the dataset
// resolve, the plan and the execution it got through, as res reports
// them. A failed execution still reports its effort in res.Exec, so
// aborted queries — often the most expensive ones the server ran —
// show in /stats.
func (p *Planner) record(res Result, out outcome) {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := &p.stats
	st.Queries++
	switch out {
	case answered:
		st.Answered++
	case planFailed:
		st.PlanFailures++
	case execFailed:
		st.ExecFailures++
	case tenantLimited:
		st.TenantLimited++
	}
	if res.DatasetVersion > 0 {
		st.DatasetQueries++
	}
	if res.PlanCacheHit {
		st.PlanCacheHits++
	}
	if res.PlanCoalesced {
		st.PlanCoalesced++
	}
	st.ExecIndexBuilds += res.Exec.IndexBuilds
	st.ExecIndexReuses += res.Exec.IndexReuses
	st.ExecIndexProbes += res.Exec.IndexProbes
	st.ExecBagReuses += res.Exec.BagReuses
	if res.Rows != nil {
		st.RowsReturned += int64(res.Rows.Size())
	}
	if res.Agg != nil {
		st.AggQueries++
		st.AggGroups += int64(len(res.Agg.Groups))
	}
}

// eval is Eval past the tenant wall. On failure it still returns as
// much of the Result as the query got through (the resolved dataset
// version, the plan's provenance, the executor's effort) and says
// which stage failed.
func (p *Planner) eval(ctx context.Context, req Request) (Result, outcome, error) {
	var res Result
	var bags *join.BagCache
	if req.Dataset != "" {
		// Resolve the named dataset to an immutable snapshot. The
		// snapshot is pinned for the whole query: mutations committed
		// after this point advance the dataset without touching the
		// rows (or maintained indexes) this query reads.
		snap, err := p.svc.Datasets().Resolve(req.Tenant, req.Dataset, req.AtVersion)
		if err != nil {
			return res, planFailed, fmt.Errorf("query: dataset %q: %w", req.Dataset, err)
		}
		req.DB = snap.DB
		bags = snap.Bags
		res.DatasetVersion = snap.Version
		if err := checkAtoms(req.Query, req.DB); err != nil {
			return res, planFailed, err
		}
	}
	h, err := req.Query.Hypergraph()
	if err != nil {
		return res, planFailed, err
	}
	maxW := req.MaxWidth
	if maxW <= 0 || maxW > h.NumEdges() {
		// hw(H) ≤ |E(H)| always (one bag covering everything), so a
		// ceiling above the atom count only wastes width probes.
		maxW = h.NumEdges()
	}
	ctx, cancel := p.svc.WithTimeout(ctx, req.Timeout)
	defer cancel()

	// Plan: a ModeOptimal job yields the minimum-width decomposition —
	// the plan with the tightest N^width execution guarantee — and banks
	// exact bounds plus the witness tree in the store, so the identical
	// query planned again is answered from the cache without a solver.
	planStart := time.Now()
	plan := p.svc.Submit(ctx, service.Request{
		H:              h,
		Mode:           service.ModeOptimal,
		K:              maxW,
		Timeout:        req.Timeout,
		Tenant:         req.Tenant,
		TenantAdmitted: true,
	})
	res.PlanElapsed = time.Since(planStart)
	if plan.Err != nil {
		return res, planFailed, fmt.Errorf("query: planning failed: %w", plan.Err)
	}
	if !plan.OK {
		return res, planFailed, fmt.Errorf("%w: hypertree width exceeds %d (proven lower bound %d)",
			ErrNoPlan, maxW, plan.LowerBound)
	}
	res.Width = plan.Decomp.Width()
	res.PlanCacheHit = plan.CacheHit
	res.PlanCoalesced = plan.Coalesced

	execStart := time.Now()
	opts := join.EvalOptions{
		MaxRows: p.svc.RowCap(req.MaxRows),
		Stats:   &res.Exec, // filled even when execution fails
		Bags:    bags,
	}
	if req.Aggregate != nil {
		// Aggregate pushdown: the same plan, the same budgeted kernel,
		// but per-bag partial aggregates instead of a materialised result
		// — MaxRows then bounds the number of groups, not the (possibly
		// enormous) number of answers.
		var agg join.AggResult
		if agg, err = join.AggregateCtx(ctx, req.Query, req.DB, plan.Decomp, *req.Aggregate, opts); err == nil {
			res.Agg = &agg
		}
	} else {
		var rel *join.Relation
		if rel, err = join.EvaluateCtx(ctx, req.Query, req.DB, plan.Decomp, opts); err == nil {
			res.Rows, err = Canonical(rel)
		}
	}
	if err != nil {
		return res, execFailed, fmt.Errorf("query: execution failed: %w", err)
	}
	res.ExecElapsed = time.Since(execStart)
	return res, answered, nil
}

// validate rejects malformed requests before any planning effort —
// cheap shape checks, so a typo fails in microseconds instead of after
// a decomposition run. Inline databases are checked here; a named
// dataset's snapshot is checked in eval, after resolution.
func validate(req Request) error {
	if len(req.Query.Atoms) == 0 {
		return errors.New("query: empty query")
	}
	if req.MaxRows < 0 {
		return errors.New("query: MaxRows must be >= 0")
	}
	// The executor names each atom's columns by its variables, so R(x,x)
	// cannot run; refuse it before it costs a solver run. A nested loop,
	// as atoms are short, keeps the check allocation-free.
	for i, a := range req.Query.Atoms {
		for j, v := range a.Vars {
			for _, w := range a.Vars[:j] {
				if v == w {
					return fmt.Errorf("query: atom %d: repeated variable %q in %s", i, v, a.Relation)
				}
			}
		}
	}
	if req.Dataset != "" {
		if req.DB != nil {
			return errors.New("query: set exactly one of Dataset or DB, not both")
		}
	} else {
		if req.AtVersion != 0 {
			return errors.New("query: AtVersion requires Dataset")
		}
		if err := checkAtoms(req.Query, req.DB); err != nil {
			return err
		}
	}
	if req.Aggregate != nil {
		if err := req.Aggregate.Validate(req.Query); err != nil {
			return fmt.Errorf("query: %w", err)
		}
	}
	return nil
}

// checkAtoms verifies every atom's relation exists in db with a
// matching arity.
func checkAtoms(q join.Query, db join.Database) error {
	for i, a := range q.Atoms {
		rel, ok := db[a.Relation]
		if !ok {
			return fmt.Errorf("query: atom %d: relation %q not in database", i, a.Relation)
		}
		if len(rel.Attrs) != len(a.Vars) {
			return fmt.Errorf("query: atom %d: %s has %d vars but relation has %d columns",
				i, a.Relation, len(a.Vars), len(rel.Attrs))
		}
	}
	return nil
}

// Canonical returns a full-query result's tuple set in canonical form:
// columns in sorted attribute order, rows sorted, each once (see
// join.Relation.Canonical). Two evaluations of the same query —
// whatever plan, whatever tuple order the passes produced — have equal
// canonical forms, which is what makes repeat HTTP answers
// byte-identical and differential comparisons exact.
func Canonical(rel *join.Relation) (*join.Relation, error) {
	return rel.Canonical(), nil
}

// Stats returns a snapshot of the planner counters.
func (p *Planner) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}
