// Package logk implements log-k-decomp, the parallel hypertree
// decomposition algorithm of Gottlob, Lanzinger, Okulmus and Pichler
// (PODS 2022). The solver decides hw(H) ≤ k and materialises a width-≤k
// HD on success, with recursion depth logarithmic in |E(H)|
// (Theorem 4.1).
//
// Three variants are provided:
//
//   - Solver (this file, decomp.go, parallel.go): the optimised
//     Algorithm 2 with all Appendix C improvements, parallel search-space
//     splitting (Appendix D.1) and optional hybridisation with
//     det-k-decomp (Appendix D.2);
//   - BasicSolver (basic.go): a faithful transliteration of the basic
//     Algorithm 1, used as a correctness oracle and ablation baseline.
//
// The core recursive step fixes λ-labels for a parent/child node pair
// (p, c) such that c is a balanced separator of the current extended
// subhypergraph: every child subtree of c covers at most half of the
// edges and specials, and the part above c covers strictly less than
// half. Corollary 3.8 lets χ(c) be derived from λ(p) and λ(c) alone, so
// subproblems halve and the recursion stack stays logarithmic.
package logk

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/decomp"
	"repro/internal/detk"
	"repro/internal/ext"
	"repro/internal/hypergraph"
)

// HybridMetric selects the subproblem-complexity metric that decides when
// the hybrid solver hands a subproblem to det-k-decomp (Appendix D.2).
type HybridMetric int

const (
	// HybridNone disables hybridisation: log-k-decomp all the way down.
	HybridNone HybridMetric = iota
	// HybridEdgeCount uses |E(H_i)| as the complexity measure.
	HybridEdgeCount
	// HybridWeightedCount uses |E(H_i)| · k / avg_e |e|, weighting edge
	// count up for high widths and down for large (easily covering) edges.
	HybridWeightedCount
)

func (m HybridMetric) String() string {
	switch m {
	case HybridNone:
		return "none"
	case HybridEdgeCount:
		return "EdgeCount"
	case HybridWeightedCount:
		return "WeightedCount"
	}
	return fmt.Sprintf("HybridMetric(%d)", int(m))
}

// PaperHybrid and PaperHybridThreshold are the paper's headline hybrid
// configuration (§5.2): WeightedCount, with the threshold scaled to the
// HyperBench-sim suite. The paper uses 200–600 on full-size HyperBench.
const (
	PaperHybrid          = HybridWeightedCount
	PaperHybridThreshold = 40
)

// Options configures a Solver.
type Options struct {
	// K is the width bound (required, ≥ 1).
	K int
	// Workers bounds the number of goroutines searching concurrently.
	// 1 (or 0) runs fully sequentially.
	Workers int

	// Hybrid selects the metric for switching to det-k-decomp; threshold
	// is the switch point: subproblems with metric < HybridThreshold are
	// handed over (the paper's best configuration is PaperHybrid at
	// PaperHybridThreshold).
	Hybrid          HybridMetric
	HybridThreshold float64

	// Ablation toggles. All default to false = optimisation enabled;
	// they are spelled negatively so the zero Options value is the fully
	// optimised algorithm.

	// NoAllowedRestriction disables the "allowed edges" parameter A of
	// Algorithm 2 (every recursion searches λ over all edges of H).
	NoAllowedRestriction bool
	// NoParentPoolRestriction disables restricting the λ(p) search to
	// edges intersecting ∪λ(c) (the last optimisation of Appendix C).
	NoParentPoolRestriction bool
	// NoNegativeBaseCase disables the "no edges and ≥2 specials" early
	// rejection.
	NoNegativeBaseCase bool
	// NoCache disables the solver-level negative memoisation of failed
	// (subhypergraph, interface, allowed) states and the per-call reuse
	// of parent-candidate components.
	NoCache bool

	// Tokens, when non-nil, replaces the Solver's private worker-token
	// pool: parallel search splits draw extra workers from it instead.
	// Inject a shared budget to bound total parallelism across many
	// concurrent Solvers. Workers still caps how many extra tokens one
	// split requests.
	Tokens TokenSource

	// Memo, when non-nil, replaces the Solver's private negative memo.
	// Keys are pure content (ext.Graph.MemoKey), so a backend may be
	// shared by all Solvers running the same hypergraph with the same K —
	// the basis for cross-request caching in the service layer. Ignored
	// when NoCache is set.
	Memo MemoBackend
}

// Stats reports search effort, populated during Decompose. Counters are
// aggregated across workers.
type Stats struct {
	Candidates    int64 // λ(c) candidates evaluated
	ParentCands   int64 // λ(p) candidates evaluated
	MaxDepth      int64 // deepest Decomp recursion observed
	HybridCalls   int64 // subproblems delegated to det-k-decomp
	TokensGrabbed int64 // parallel search-space splits performed
	MemoHits      int64 // negative-memo hits
}

// Add folds o into s: the counters sum, MaxDepth takes the maximum.
func (s *Stats) Add(o Stats) {
	s.Candidates += o.Candidates
	s.ParentCands += o.ParentCands
	s.MaxDepth = max(s.MaxDepth, o.MaxDepth)
	s.HybridCalls += o.HybridCalls
	s.TokensGrabbed += o.TokensGrabbed
	s.MemoHits += o.MemoHits
}

// Solver runs the optimised log-k-decomp. Safe for one Decompose call at
// a time; create a new Solver per concurrent decomposition.
type Solver struct {
	H    *hypergraph.Hypergraph
	Opts Options

	tokens    TokenSource
	specialID atomic.Int64

	// memo records content-keyed states whose search space was exhausted
	// without success; see ext.Graph.MemoKey. The default is a private
	// ShardedMemo; Options.Memo swaps in a shared backend.
	memo MemoBackend

	stats struct {
		candidates  atomic.Int64
		parentCands atomic.Int64
		maxDepth    atomic.Int64
		hybridCalls atomic.Int64
		tokenGrabs  atomic.Int64
		memoHits    atomic.Int64
	}

	workerPool sync.Pool
}

// New returns a Solver for h with the given options.
func New(h *hypergraph.Hypergraph, opts Options) *Solver {
	if opts.K < 1 {
		panic("logk: width bound K must be >= 1")
	}
	if opts.Workers < 1 {
		opts.Workers = 1
	}
	s := &Solver{H: h, Opts: opts}
	s.tokens = opts.Tokens
	if s.tokens == nil {
		s.tokens = NewTokenPool(opts.Workers - 1)
	}
	s.memo = opts.Memo
	if s.memo == nil {
		s.memo = new(ShardedMemo)
	}
	s.workerPool.New = func() any { return s.makeWorker() }
	return s
}

// Stats returns a snapshot of the effort counters.
func (s *Solver) Stats() Stats {
	return Stats{
		Candidates:    s.stats.candidates.Load(),
		ParentCands:   s.stats.parentCands.Load(),
		MaxDepth:      s.stats.maxDepth.Load(),
		HybridCalls:   s.stats.hybridCalls.Load(),
		TokensGrabbed: s.stats.tokenGrabs.Load(),
		MemoHits:      s.stats.memoHits.Load(),
	}
}

// Decompose checks hw(H) ≤ K and returns a valid HD of width ≤ K when it
// holds. On timeout/cancellation it returns the context's error.
func (s *Solver) Decompose(ctx context.Context) (*decomp.Decomp, bool, error) {
	g := ext.Root(s.H)
	conn := s.H.NewVertexSet()
	allowed := s.H.AllEdgeIDs()
	w := s.getWorker()
	defer s.putWorker(w)
	node, ok, err := s.decomp(ctx, w, g, conn, allowed, 1)
	if err != nil || !ok {
		return nil, false, err
	}
	return &decomp.Decomp{H: s.H, Root: node}, true, nil
}

// Decide is Decompose without materialising the decomposition.
func (s *Solver) Decide(ctx context.Context) (bool, error) {
	_, ok, err := s.Decompose(ctx)
	return ok, err
}

// worker carries per-goroutine scratch state.
type worker struct {
	split *ext.Splitter
	detk  *detk.Solver // lazily created, hybrid mode only

	// keyBuf is filled and consumed within a single parentFor call (no
	// recursion in between), so one per worker suffices.
	keyBuf []byte

	// memoBuf is the reusable MemoKey build buffer; the key is
	// materialised as a string before any recursion can reuse the buffer.
	memoBuf []byte

	// frames holds per-recursion-depth scratch: the candidate loops at
	// depth d keep slices alive across recursive calls at depth d+1, so
	// scratch must not be shared between depths.
	frames []frameScratch
}

// frameScratch is reusable loop scratch for one recursion depth.
type frameScratch struct {
	childNew   []bool
	parentPool []int
	parentNew  []bool
}

// frame returns the scratch for the given depth, growing the stack as
// needed.
func (w *worker) frame(depth int) *frameScratch {
	for len(w.frames) <= depth {
		w.frames = append(w.frames, frameScratch{})
	}
	return &w.frames[depth]
}

func (s *Solver) makeWorker() *worker {
	return &worker{split: ext.NewSplitter(s.H)}
}

func (s *Solver) getWorker() *worker  { return s.workerPool.Get().(*worker) }
func (s *Solver) putWorker(w *worker) { s.workerPool.Put(w) }

func (s *Solver) nextSpecialID() int {
	return int(s.specialID.Add(1))
}

func (s *Solver) noteDepth(depth int) {
	d := int64(depth)
	for {
		cur := s.stats.maxDepth.Load()
		if cur >= d || s.stats.maxDepth.CompareAndSwap(cur, d) {
			return
		}
	}
}

// metricValue computes the hybrid complexity metric for a subproblem.
func (s *Solver) metricValue(g *ext.Graph) float64 {
	switch s.Opts.Hybrid {
	case HybridEdgeCount:
		return float64(g.Size())
	case HybridWeightedCount:
		total := 0
		for _, e := range g.Edges {
			total += s.H.Edge(e).Len()
		}
		for _, sp := range g.Specials {
			total += sp.Vertices.Len()
		}
		if g.Size() == 0 {
			return 0
		}
		avg := float64(total) / float64(g.Size())
		if avg == 0 {
			return 0
		}
		return float64(g.Size()) * float64(s.Opts.K) / avg
	default:
		return 0
	}
}
