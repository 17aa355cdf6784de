package service

import (
	"context"
	"errors"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dataset"
	"repro/internal/decomp"
	"repro/internal/hypergraph"
	"repro/internal/logk"
	"repro/internal/store"
	"repro/internal/tenant"
)

// Mode selects what a job computes.
type Mode int

const (
	// ModeDecide answers the decision problem hw(H) ≤ K and returns a
	// witness on yes — the original service behaviour.
	ModeDecide Mode = iota
	// ModeOptimal computes hw(H) exactly (searching widths 1..K) with
	// logk.Optimal's ascending width ladder from the proven lower
	// bound; its refutations feed the cross-request store.
	ModeOptimal
)

func (m Mode) String() string {
	if m == ModeOptimal {
		return "optimal"
	}
	return "decide"
}

// ErrOverloaded is returned when the waiting queue is full and the job
// was rejected by admission control.
var ErrOverloaded = errors.New("service: overloaded, job rejected")

// ErrClosed is returned for jobs submitted after Close.
var ErrClosed = errors.New("service: closed")

// Config sizes the service. The zero value picks sensible defaults.
type Config struct {
	// TokenBudget is the number of extra search workers shared by all
	// jobs (on top of each running job's own goroutine). 0 means the
	// default, GOMAXPROCS-1 (minimum 0); negative means none, so every
	// job searches on its own goroutine alone.
	TokenBudget int
	// MaxConcurrent bounds jobs decomposing simultaneously. Default:
	// GOMAXPROCS, minimum 1.
	MaxConcurrent int
	// MaxQueue bounds jobs waiting for a slot; beyond it Submit fails
	// fast with ErrOverloaded. Default 64.
	MaxQueue int
	// DefaultTimeout applies to jobs and queries that set none, and caps
	// their overrides (WithTimeout). 0 means no timeout.
	DefaultTimeout time.Duration
	// Store injects a cross-request storage backend; nil builds an
	// in-memory backend capped at MemoMaxGraphs. Custom backends are the
	// seam for disk or remote storage.
	Store store.Backend
	// MemoMaxGraphs bounds distinct hypergraphs cached in memory by the
	// default store, in-memory or disk-backed (LRU-evicted beyond it).
	// Default 32.
	MemoMaxGraphs int
	// StoreDir, when set (and Store is nil), makes Open build a
	// disk-backed tiered store: the in-memory backend above
	// becomes the LRU working set over a crash-safe append-only log in
	// this directory, so a restart serves its whole history warm. The
	// closed directory is also the export format: copy it to move a warm
	// cache. The service owns the backend and closes it on Close. New
	// ignores this field — a disk store can fail to open, so
	// it is Open's job.
	StoreDir string
	// StoreFsync is the disk store's durability cadence: 0 fsyncs every
	// append, > 0 fsyncs at most that often (a crash loses at most the
	// unsynced tail).
	StoreFsync time.Duration
	// Tenants configures the per-tenant admission wall layered in
	// front of the global admission above. The zero value enforces
	// nothing but still tracks per-tenant counters and latency; set
	// tenant.Config knobs (rate, burst, in-flight, queue, fair-share)
	// to turn individual gates on.
	Tenants tenant.Config
	// MaxRows is the operator's row ceiling for queries: it is the
	// join.EvalOptions.MaxRows of every query, which caps each relation
	// the execution creates and the answer, but not the server-resident
	// relations it reads. Like DefaultTimeout, it applies to queries
	// that set no cap and bounds those that set a larger one (RowCap).
	// 0 means DefaultMaxRows; negative means no ceiling.
	MaxRows int
	// Datasets sizes the named-dataset registry (server-resident
	// versioned databases with delta-maintained indexes). The zero
	// value picks the dataset package's defaults.
	Datasets dataset.Config
}

func (c Config) withDefaults() Config {
	if c.TokenBudget == 0 {
		c.TokenBudget = max(runtime.GOMAXPROCS(0)-1, 0)
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 64
	}
	if c.MemoMaxGraphs <= 0 {
		c.MemoMaxGraphs = 32
	}
	if c.MaxRows == 0 {
		c.MaxRows = DefaultMaxRows
	}
	return c
}

// DefaultMaxRows is Config.MaxRows' default. The largest answer and the
// largest λ-join of perfbench's query workloads are about 5,000 rows
// each, 50 times below it. On a 2-vCPU x86-64 VM, a 240,100-row answer
// (4 MB of JSON) allocates about 50 MB in 0.08 s, and a cross product
// stopped at the ceiling about 22 MB. Without a ceiling, a query inside
// htdserve's 8 MiB body cap can ask for some 6×10^10 rows and exhaust
// the process's memory. The relations a dataset holds are not counted
// (join.EvalOptions.MaxRows), so datasets larger than the ceiling still
// answer aggregates and selective joins.
const DefaultMaxRows = 250_000

// Request is one decomposition job. It selects the problem, not the
// search: parallelism and probe count are the service's (see run).
type Request struct {
	// H is the hypergraph to decompose (required).
	H *hypergraph.Hypergraph
	// Mode selects the problem: ModeDecide (default) answers hw(H) ≤ K,
	// ModeOptimal computes hw(H) exactly over widths 1..K.
	Mode Mode
	// K is the width bound (required, ≥ 1). In ModeOptimal it is the
	// search ceiling KMax.
	K int
	// Timeout tightens the service's DefaultTimeout for this job, by
	// the rule of WithTimeout.
	Timeout time.Duration
	// Tenant attributes the job to a caller for per-tenant admission
	// control and latency accounting; empty means tenant.Default.
	Tenant string
	// TenantAdmitted marks that a surrounding layer (the query
	// planner, which admits a whole query — plan and execution — as
	// one request) already holds this job's tenant lease; Submit then
	// skips the tenant wall so the caller is admitted and rate-charged
	// exactly once.
	TenantAdmitted bool
}

// Result is the outcome of one job.
type Result struct {
	// Decomp is the decomposition when OK; nil otherwise.
	Decomp *decomp.Decomp
	// OK reports hw(H) ≤ K. It is false both for a definitive "no" and
	// when Err is set.
	OK bool
	// Err is nil for a definitive answer; context errors mean the job
	// timed out or was cancelled, ErrOverloaded that it never ran.
	Err error
	// Stats are the solver's effort counters for this job (zero for
	// cache hits, coalesced jobs and structural refutations: the effort
	// belongs to the run that actually searched).
	Stats logk.Stats
	// Elapsed is wall-clock solve time (excluding queueing).
	Elapsed time.Duration
	// CacheShared reports that the job reused cross-request state: a
	// memo table, cached bounds, or a cached result.
	CacheShared bool
	// CacheHit reports that the job was answered entirely from the
	// store — no solver ran. Positive hits return a re-validated
	// witness decomposition; negative hits return a width-level
	// refutation (OK=false).
	CacheHit bool
	// Coalesced reports that this job shared a concurrent identical
	// request's solver run instead of launching its own.
	Coalesced bool

	// LowerBound is the largest proven bound: all widths < LowerBound
	// are refuted. ModeOptimal jobs set it, even when they time out; a
	// ModeDecide job sets it whenever it answers NO: to K+1 when the
	// structural lower bound or a search refuted K, and to the cached
	// bound, which can exceed K+1, when the store's bounds did.
	LowerBound int
	// LowerBoundFrom is the provenance of LowerBound, named by
	// logk.BoundSource: "structural" (the structural bound, computed by
	// this job), "probe" (refuted by this job's search), "memo" (an
	// earlier job's cached bounds) or "trivial" (the least width).
	LowerBoundFrom string

	// The fields below are populated by ModeOptimal jobs only.

	// Width is the exact hypertree width when OK.
	Width int
	// ProbesLaunched counts the widths the job searched.
	ProbesLaunched int
	// BoundsShared reports that the job started from cached bounds.
	BoundsShared bool

	// ran marks the job that worked on its own hypergraph in a run
	// slot, structural the decide job the structural lower bound
	// answered NO. Like Stats, they stay zero for cache hits and
	// coalesced followers; Submit counts them once.
	ran        bool
	structural bool
}

// Stats is a snapshot of service-wide counters.
type Stats struct {
	Submitted int64 // jobs accepted by Submit (including later failures)
	Completed int64 // jobs that ran to a definitive answer
	Failed    int64 // jobs that errored (timeouts, cancellations)
	Rejected  int64 // jobs refused by admission control
	Running   int64 // jobs decomposing right now
	Waiting   int64 // jobs queued for a slot

	TokenBudget     int64 // size of the shared worker-token pool
	TokensInUse     int64 // tokens currently lent out
	TokensHighWater int64 // max tokens ever simultaneously lent out

	// SolverRuns counts the jobs that worked on the request's own
	// hypergraph in a run slot: a search, or the structural lower bound
	// alone when it answered (StructuralRefutations counts those too).
	SolverRuns int64
	// StructuralRefutations counts the decide jobs answered NO by the
	// structural lower bound, without a search.
	StructuralRefutations int64

	PositiveHits int64 // jobs answered with a cached, re-validated witness
	NegativeHits int64 // jobs answered with a cached width-level refutation
	Coalesced    int64 // jobs that shared a concurrent identical run

	StoreEntries   int64 // hypergraphs cached in the store
	StoreTrees     int64 // cached witness decompositions
	StoreEvictions int64 // entries dropped by the store's LRU cap

	MemoGraphs  int64 // per-width negative-memo tables holding a state
	MemoEntries int64 // memoised dead states across all tables
	CacheReuses int64 // jobs that reused any cross-request state

	OptimalJobs    int64 // ModeOptimal jobs run
	ProbesLaunched int64 // widths searched by optimal jobs
	BoundsGraphs   int64 // graphs with cached width bounds
	BoundsReuses   int64 // optimal jobs that started from cached bounds

	// Solver aggregates per-job solver counters over all finished jobs
	// (sums; MaxDepth is the maximum observed).
	Solver logk.Stats

	// Tenants is the per-tenant admission snapshot: admitted/rejected
	// counts, live in-flight and queue depth, and p50/p99 latency from
	// each tenant's streaming histogram.
	Tenants map[string]tenant.Stats
}

// Service is a concurrent decomposition service. Create one with New,
// share it freely between goroutines, and Close it when done.
type Service struct {
	cfg      Config
	budget   *logk.TokenPool
	store    store.Backend
	flight   *store.Flight
	tenants  *tenant.Wall
	datasets *dataset.Registry
	slots    chan struct{}

	// ownsStore marks a backend Open built itself (not injected via
	// Config.Store): Close closes it, flushing the disk tier.
	ownsStore bool

	mu     sync.Mutex // guards closed, jobs Add and stats
	closed bool
	jobs   sync.WaitGroup
	// stats holds the job counters. Submit counts a job once when it
	// accepts it and once when it returns (record); Stats adds the
	// gauges below and the store's and tenants' snapshots.
	stats Stats

	// running and waiting are live gauges; waiting is also MaxQueue's
	// add-then-test admission gate.
	running atomic.Int64
	waiting atomic.Int64
}

// New returns a Service with the given configuration. It never fails:
// Config.StoreDir is ignored (opening a disk store can fail) — use Open
// for a disk-backed service.
func New(cfg Config) *Service {
	cfg = cfg.withDefaults()
	if cfg.Store == nil {
		cfg.Store = store.NewMemory(cfg.MemoMaxGraphs)
	}
	s := &Service{
		cfg:      cfg,
		budget:   logk.NewTokenPool(cfg.TokenBudget),
		store:    cfg.Store,
		flight:   store.NewFlight(),
		tenants:  tenant.NewWall(cfg.Tenants),
		datasets: dataset.NewRegistry(cfg.Datasets),
		slots:    make(chan struct{}, cfg.MaxConcurrent),
	}
	return s
}

// Open returns a Service like New, additionally honouring
// Config.StoreDir: with no injected Store and a StoreDir set, it opens
// a disk-backed tiered backend there (the in-memory store as
// the LRU working set over a crash-safe append-only log), owned by the
// service and closed by Close. A restart pointed at the same directory
// serves the entire cached history warm — zero solver runs for repeat
// submissions; so does a byte copy of the closed directory.
func Open(cfg Config) (*Service, error) {
	cfg = cfg.withDefaults()
	owns := false
	if cfg.Store == nil && cfg.StoreDir != "" {
		ts, err := store.OpenTiered(store.TieredConfig{
			MaxGraphs: cfg.MemoMaxGraphs,
			Log:       store.LogConfig{Dir: cfg.StoreDir, Fsync: cfg.StoreFsync},
		})
		if err != nil {
			return nil, err
		}
		cfg.Store = ts
		owns = true
	}
	s := New(cfg)
	s.ownsStore = owns
	return s, nil
}

// Budget exposes the shared token pool. No production code reads it; it
// stays only for perfbench's traced replica of the query path.
func (s *Service) Budget() *logk.TokenPool { return s.budget }

// Store exposes the cross-request storage backend, for purges and
// introspection.
func (s *Service) Store() store.Backend { return s.store }

// Tenants exposes the per-tenant admission wall, for layered callers
// (the query planner admits a whole query through it as one lease) and
// for stats.
func (s *Service) Tenants() *tenant.Wall { return s.tenants }

// Datasets exposes the named-dataset registry: server-resident,
// versioned databases with delta-maintained indexes.
func (s *Service) Datasets() *dataset.Registry { return s.datasets }

// Config returns the effective configuration, with defaults resolved.
func (s *Service) Config() Config { return s.cfg }

// flightKey identifies interchangeable requests: equal keys are the same
// problem on the same structure, solved the same way.
func flightKey(hash string, req Request) string {
	return hash + "/" + req.Mode.String() + "/" + strconv.Itoa(req.K)
}

// Submit runs one job, blocking until it finishes, fails, or is
// rejected. It is safe to call from any number of goroutines; the
// per-tenant wall (keyed by Request.Tenant) and the global admission
// control decide which callers wait and which fail fast.
//
// Submissions read through the cross-request store: a request whose
// answer is already cached returns a validated result without running a
// solver (Result.CacheHit), and concurrent identical requests share one
// solver run (Result.Coalesced). Cache hits and coalesced followers do
// not occupy run slots.
func (s *Service) Submit(ctx context.Context, req Request) Result {
	if req.H == nil {
		return Result{Err: errors.New("service: nil hypergraph")}
	}
	if req.K < 1 {
		return Result{Err: errors.New("service: width bound K must be >= 1")}
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return Result{Err: ErrClosed}
	}
	s.jobs.Add(1)
	s.stats.Submitted++
	s.mu.Unlock()
	defer s.jobs.Done()

	// The tenant wall sits in front of the global admission below: a
	// caller over its own rate, in-flight or queue budget is rejected
	// here before it can consume any shared slot, queue space, or
	// solver effort — one hot tenant's overflow cannot starve the rest.
	var res Result
	if req.TenantAdmitted {
		res = s.dispatch(ctx, req)
	} else if lease, err := s.tenants.Admit(ctx, req.Tenant); err != nil {
		res = Result{Err: err}
	} else {
		res = s.dispatch(ctx, req)
		lease.Done(res.Err != nil)
	}
	s.record(req, res)
	return res
}

// record counts one accepted job's outcome, derived from the Result
// its caller gets. Cache hits and the solve's effort count only for
// the job that did the work: a coalesced follower carries no effort
// (adoptShared zeroes it) and counts only as coalesced.
func (s *Service) record(req Request, res Result) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := &s.stats
	switch {
	case res.Err == nil:
		st.Completed++
	case errors.Is(res.Err, ErrOverloaded), errors.Is(res.Err, tenant.ErrLimited):
		st.Rejected++
	default:
		st.Failed++
	}
	switch {
	case res.Coalesced:
		st.Coalesced++
	case res.CacheHit && res.OK:
		st.PositiveHits++
	case res.CacheHit:
		st.NegativeHits++
	}
	if res.BoundsShared && !res.Coalesced {
		st.BoundsReuses++
	}
	if res.ran {
		st.SolverRuns++
	}
	if res.structural {
		st.StructuralRefutations++
	}
	if req.Mode == ModeOptimal && (res.ran || res.CacheHit || res.Coalesced) {
		st.OptimalJobs++
	}
	st.ProbesLaunched += int64(res.ProbesLaunched)
	st.Solver.Add(res.Stats)
}

// dispatch routes an accepted, tenant-admitted job: read-through cache
// lookup, coalescing, then global admission and the solver.
func (s *Service) dispatch(ctx context.Context, req Request) Result {
	hash := req.H.ContentHash()
	if res, ok := s.lookup(req, hash); ok {
		return res
	}
	v, leader, err := s.flight.Do(ctx, flightKey(hash, req), func() any {
		// Re-check the store under the flight: a result banked between
		// the lookup above and this call (a just-finished leader whose
		// key was already forgotten) must answer here, not trigger a
		// second solve — otherwise "N identical concurrent requests run
		// one solver" would hold only probabilistically.
		if res, ok := s.lookup(req, hash); ok {
			return res
		}
		return s.admitAndRun(ctx, req, hash)
	})
	if err != nil {
		// The follower's own context expired while waiting.
		return Result{Err: err}
	}
	if leader {
		return v.(Result)
	}
	res, ok := v.(Result)
	if !ok || (res.Err != nil && ctx.Err() == nil) {
		// The leader died or failed for reasons of its own — its
		// cancellation, timeout, or admission rejection is not this
		// caller's to inherit while its context is still live. Run
		// independently and be judged on our own merits.
		return s.admitAndRun(ctx, req, hash)
	}
	return s.adoptShared(ctx, res, req, hash)
}

// lookup answers a request straight from the store when possible:
// OK=false when the cached lower bound already refutes K, OK=true with
// a re-validated witness when one of width ≤ K is cached. ModeOptimal
// additionally requires the bounds to pin the width exactly.
func (s *Service) lookup(req Request, hash string) (Result, bool) {
	b, ok := s.store.Bounds(hash)
	if !ok {
		return Result{}, false
	}
	if req.Mode == ModeOptimal {
		if b.LB > req.K {
			// Every width up to the ceiling is already refuted.
			return Result{
				CacheHit: true, CacheShared: true, BoundsShared: true,
				LowerBound: b.LB, LowerBoundFrom: logk.BoundInitial.String(),
			}, true
		}
		if b.Exact() && b.UB <= req.K {
			if d, w, ok := s.cachedWitness(req.H, hash, b.UB); ok {
				return Result{
					OK: true, Decomp: d, Width: w,
					CacheHit: true, CacheShared: true, BoundsShared: true,
					LowerBound: b.LB, LowerBoundFrom: logk.BoundInitial.String(),
				}, true
			}
		}
		return Result{}, false
	}
	// ModeDecide.
	if b.LB > req.K {
		return Result{CacheHit: true, CacheShared: true, LowerBound: b.LB, LowerBoundFrom: logk.BoundInitial.String()}, true
	}
	if b.UB > 0 && b.UB <= req.K {
		if d, _, ok := s.cachedWitness(req.H, hash, req.K); ok {
			return Result{OK: true, Decomp: d, CacheHit: true, CacheShared: true}, true
		}
	}
	return Result{}, false
}

// cachedWitness materialises the cached tree for hash against h and
// re-validates it with the independent checkers. An invalid tree (a
// corrupted snapshot, a buggy backend) is dropped and reported as a
// miss — the store can never leak an unvalidated decomposition.
func (s *Service) cachedWitness(h *hypergraph.Hypergraph, hash string, maxW int) (*decomp.Decomp, int, bool) {
	tree, ok := s.store.Decomposition(hash)
	if !ok {
		return nil, 0, false
	}
	w := tree.Width()
	if w == 0 || w > maxW {
		return nil, 0, false
	}
	if d, err := tree.Bind(h); err == nil {
		if decomp.CheckHD(d) == nil && decomp.CheckWidth(d, maxW) == nil {
			return d, w, true
		}
	}
	s.store.DropDecomposition(hash)
	return nil, 0, false
}

// adoptShared shapes a leader's result for a coalesced follower: the
// effort counters belong to the leader, and a decomposition computed
// for a structurally identical but distinct hypergraph is rebound onto
// the follower's.
func (s *Service) adoptShared(ctx context.Context, res Result, req Request, hash string) Result {
	if res.Decomp != nil && res.Decomp.H != req.H {
		d, err := store.EncodeTree(res.Decomp).Bind(req.H)
		if err != nil {
			// Cannot happen for equal content hashes; fall back to an
			// independent run rather than return a foreign decomposition.
			return s.admitAndRun(ctx, req, hash)
		}
		res.Decomp = d
	}
	res.Coalesced = true
	res.CacheShared = true
	// The solve effort — counters, probe accounting, wall time —
	// belongs to the run that actually searched, not to each follower.
	res.Stats = logk.Stats{}
	res.ProbesLaunched = 0
	res.Elapsed = 0
	res.ran = false
	res.structural = false
	return res
}

// admitAndRun takes the job through admission control and executes it.
func (s *Service) admitAndRun(ctx context.Context, req Request, hash string) Result {
	// Admission: take a run slot without waiting if one is free, join
	// the bounded queue otherwise, reject when the queue is full. The
	// queue count is reserved *before* the bound check (add-then-test)
	// so a simultaneous burst cannot slip past MaxQueue.
	select {
	case s.slots <- struct{}{}:
	default:
		if s.waiting.Add(1) > int64(s.cfg.MaxQueue) {
			s.waiting.Add(-1)
			return Result{Err: ErrOverloaded}
		}
		select {
		case s.slots <- struct{}{}:
			s.waiting.Add(-1)
		case <-ctx.Done():
			s.waiting.Add(-1)
			return Result{Err: ctx.Err()}
		}
	}
	defer func() { <-s.slots }()

	s.running.Add(1)
	defer s.running.Add(-1)
	return s.run(ctx, req, hash)
}

// WithTimeout returns ctx under the deadline a request asking for
// timeout runs with: unset (≤ 0) inherits the service's
// DefaultTimeout, and larger values are clamped to it, so a request
// can only tighten the operator's deadline — otherwise any caller
// could opt out of it and pin a run slot indefinitely. Decomposition
// jobs and whole queries (planning and execution) both run under it.
func (s *Service) WithTimeout(ctx context.Context, timeout time.Duration) (context.Context, context.CancelFunc) {
	if timeout = tighten(timeout, s.cfg.DefaultTimeout); timeout == 0 {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, timeout)
}

// RowCap returns the row cap a query asking for maxRows runs with, by
// WithTimeout's rule: unset (≤ 0) inherits Config.MaxRows, and larger
// values are clamped to it, so a request can only tighten the
// operator's ceiling — otherwise any caller could opt out of it and
// materialise an answer that exhausts the process's memory.
func (s *Service) RowCap(maxRows int) int { return tighten(maxRows, s.cfg.MaxRows) }

// tighten is the rule WithTimeout and RowCap share: the value a request
// asking for req runs with under the operator's ceiling. An unset
// request (≤ 0) inherits the ceiling and a larger one is clamped to it;
// a ceiling ≤ 0 means none. 0 is the answer for "no limit".
func tighten[T int | time.Duration](req, ceiling T) T {
	ceiling = max(ceiling, 0)
	if req <= 0 || (ceiling > 0 && req > ceiling) {
		return ceiling
	}
	return req
}

// run executes an admitted job on the caller's goroutine. Every job
// is a width ladder run by Service.ladder: an optimal job's from the
// cached lower bound up to K, a decide job's one rung at K. The ladder
// first computes the hypergraph's structural lower bound under the
// job's deadline; a bound above K leaves no rung, so a decide job
// answers NO without a search or a memo table. Every rung, hence every
// query plan too, follows one rule (logk.ServeLadder): det-k-decomp
// first on a fixed label budget, and only when that neither finds an
// HD nor refutes the width, the paper's hybrid (logk.PaperHybrid at
// logk.PaperHybridThreshold) with TokenBudget+1 workers, drawing the
// extra ones from the shared token pool.
func (s *Service) run(ctx context.Context, req Request, hash string) (res Result) {
	ctx, cancel := s.WithTimeout(ctx, req.Timeout)
	defer cancel()
	start := time.Now()
	defer func() {
		res.Elapsed = time.Since(start)
		res.ran = true
	}()

	if req.Mode == ModeOptimal {
		return s.runOptimal(ctx, req, hash)
	}
	opt, err := s.ladder(ctx, req.H, hash, req.K, req.K, &res)
	if err == nil && opt.Probes == 0 {
		// A NO stands only while the job's deadline does, as a
		// search's would.
		err = ctx.Err()
	}
	res.Err, res.OK, res.Stats = err, opt.Found, opt.Stats
	if err != nil {
		return res
	}

	// The start K is the request's, not a proof: bank only what this
	// answer proves. A witness caps UB (and is cached for repeat
	// submissions); a NO raises LB to K+1 and reports it.
	if res.OK {
		res.Decomp = opt.Decomp
		if t := store.EncodeTree(opt.Decomp); t != nil {
			s.store.PutDecomposition(hash, t)
		}
	} else {
		s.store.MergeBounds(hash, store.Bounds{LB: req.K + 1})
		res.LowerBound, res.LowerBoundFrom = req.K+1, opt.LowerBoundFrom.String()
		res.structural = opt.Probes == 0
	}
	return res
}

// ladder runs a job's width ladder on h from lb to kMax: the one search
// configuration of every job, and each width's memo table from the
// store for the rungs that fall back to the hybrid. A table that
// already held states sets res.CacheShared.
func (s *Service) ladder(ctx context.Context, h *hypergraph.Hypergraph, hash string, lb, kMax int, res *Result) (logk.OptimalResult, error) {
	cfg := logk.OptimalConfig{
		Search: logk.Options{
			Workers:         s.budget.Size() + 1,
			Hybrid:          logk.PaperHybrid,
			HybridThreshold: logk.PaperHybridThreshold,
			Tokens:          s.budget,
		},
		KMax:       kMax,
		LowerBound: lb,
	}
	return logk.ServeLadder(ctx, h, cfg, func(k int) logk.MemoBackend {
		table, existed := s.store.Memo(hash, k)
		res.CacheShared = res.CacheShared || existed
		return table
	})
}

// runOptimal executes an admitted ModeOptimal job: the width ladder
// over widths up to K, starting at the larger of the cached and the
// structural lower bound. Refutations are banked twice — state-level
// in the per-width memo tables, width-level in the store's bounds — so
// later jobs on the same structure start from tighter bounds whether
// they decide or optimise.
func (s *Service) runOptimal(ctx context.Context, req Request, hash string) Result {
	var res Result
	b, ok := s.store.Bounds(hash)
	res.BoundsShared = ok
	opt, err := s.ladder(ctx, req.H, hash, b.LB, req.K, &res)
	if err != nil && opt.Probes == 0 {
		// The structural bound ended on the deadline: nothing started.
		return Result{Err: err}
	}
	res.Err, res.OK, res.Width = err, opt.Found, opt.Width
	res.LowerBound = opt.LowerBound
	res.LowerBoundFrom = opt.LowerBoundFrom.String()
	res.ProbesLaunched = opt.Probes
	res.Stats = opt.Stats

	// Bank what this job proved, even partially on timeout: the lower
	// bound is sound regardless, the width (and its witness) only when
	// found.
	s.store.MergeBounds(hash, store.Bounds{LB: opt.LowerBound, UB: opt.Width})
	if res.OK {
		res.Decomp = opt.Decomp
		if t := store.EncodeTree(opt.Decomp); t != nil {
			s.store.PutDecomposition(hash, t)
		}
	}
	return res
}

// Batch runs all requests and returns results in request order. It
// feeds at most MaxConcurrent jobs into Submit at a time, so a large
// batch makes steady progress instead of tripping its own admission
// control (concurrent external traffic can still cause rejections,
// reported per-result). Duplicate requests inside one batch coalesce
// onto a single solver run like any other concurrent submissions.
func (s *Service) Batch(ctx context.Context, reqs []Request) []Result {
	results := make([]Result, len(reqs))
	limit := s.cfg.MaxConcurrent
	if limit > len(reqs) {
		limit = len(reqs)
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for i := 0; i < limit; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range next {
				results[idx] = s.Submit(ctx, reqs[idx])
			}
		}()
	}
	for i := range reqs {
		next <- i
	}
	close(next)
	wg.Wait()
	return results
}

// Stats returns a snapshot of the service counters.
func (s *Service) Stats() Stats {
	sst := s.store.Stats()
	s.mu.Lock()
	st := s.stats
	s.mu.Unlock()
	st.Running = s.running.Load()
	st.Waiting = s.waiting.Load()
	st.TokenBudget = int64(s.budget.Size())
	st.TokensInUse = int64(s.budget.InUse())
	st.TokensHighWater = int64(s.budget.HighWater())
	st.StoreEntries = sst.Entries
	st.StoreTrees = sst.Trees
	st.StoreEvictions = sst.Evictions
	st.MemoGraphs = sst.MemoTables
	st.MemoEntries = sst.MemoStates
	st.CacheReuses = sst.MemoReuses + st.PositiveHits + st.NegativeHits
	st.BoundsGraphs = sst.BoundsGraphs
	st.Tenants = s.tenants.Stats()
	return st
}

// Close rejects future submissions and waits for in-flight jobs to
// drain. Jobs keep their own contexts; Close does not cancel them. A
// backend the service owns (built by Open from StoreDir) is closed
// after the drain, flushing the disk tier; the returned error is that
// close's. Idempotent.
func (s *Service) Close() error {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.jobs.Wait()
	if s.ownsStore {
		if c, ok := s.store.(interface{ Close() error }); ok {
			return c.Close()
		}
	}
	return nil
}
