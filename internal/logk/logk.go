// Package logk implements log-k-decomp, the parallel hypertree
// decomposition algorithm of Gottlob, Lanzinger, Okulmus and Pichler
// (PODS 2022). The solver decides hw(H) ≤ k and materialises a width-≤k
// HD on success, with recursion depth logarithmic in |E(H)|
// (Theorem 4.1).
//
// Two variants are provided:
//
//   - Solver (this file, decomp.go, parallel.go): the optimised
//     Algorithm 2 with all Appendix C improvements, parallel search-space
//     splitting (Appendix D.1) and optional hybridisation with
//     det-k-decomp (Appendix D.2). Beyond the paper's parent-pool
//     restriction (λ(p) only from edges meeting ∪λ(c), Theorem C.1), it
//     draws λ(c) only from the allowed edges that meet V(H′) (see
//     searchChild);
//   - BasicSolver (basic.go): a faithful transliteration of the basic
//     Algorithm 1, used as a correctness oracle.
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

// Options configures a Solver. Every Solver memoises the states it
// refutes in a table of its width alone, as the reference log-k-decomp
// resets its cache per width. The zero Hybrid, HybridNone, is plain
// log-k-decomp: no subproblem is handed to det-k-decomp.
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

	// Tokens, when non-nil, replaces the Solver's private worker-token
	// pool: parallel search splits draw extra workers from it instead.
	// Inject a shared budget to bound total parallelism across many
	// concurrent Solvers. Workers still caps how many extra tokens one
	// split requests.
	Tokens TokenSource
}

// Stats reports search effort, populated during Decompose. Each worker
// counts into its own Stats, folded in as each worker finishes.
type Stats struct {
	Candidates     int64 // λ(c) ranks enumerated, incl. those skipped for lacking a new edge
	ParentCands    int64 // λ(p) ranks enumerated, incl. those skipped for lacking a new edge
	MaxDepth       int64 // deepest Decomp recursion observed
	HybridCalls    int64 // subproblems delegated to det-k-decomp
	DetKCandidates int64 // λ-labels det-k-decomp tried on those hand-offs
	TokensGrabbed  int64 // parallel search-space splits performed
	MemoHits       int64 // negative-memo hits
}

// Add folds o into s: the counters sum, MaxDepth takes the maximum.
func (s *Stats) Add(o Stats) {
	s.Candidates += o.Candidates
	s.ParentCands += o.ParentCands
	s.MaxDepth = max(s.MaxDepth, o.MaxDepth)
	s.HybridCalls += o.HybridCalls
	s.DetKCandidates += o.DetKCandidates
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
	// without success at width Opts.K; see ext.Graph.MemoKey. New makes
	// a private ShardedMemo; optimalFrom passes the width's shared table
	// from OptimalConfig.MemoFor instead.
	memo MemoBackend

	mu    sync.Mutex // guards stats
	stats Stats      // the counts of every finished worker

	workerPool sync.Pool
}

// New returns a Solver for h with the given options.
func New(h *hypergraph.Hypergraph, opts Options) *Solver { return newSolver(h, opts, nil) }

// newSolver is New with memo, when non-nil, in place of a private
// negative memo; it must hold refutations at width opts.K only.
func newSolver(h *hypergraph.Hypergraph, opts Options, memo MemoBackend) *Solver {
	if opts.K < 1 {
		panic("logk: width bound K must be >= 1")
	}
	if opts.Workers < 1 {
		opts.Workers = 1
	}
	s := &Solver{H: h, Opts: opts, tokens: opts.Tokens, memo: memo}
	if s.tokens == nil {
		s.tokens = NewTokenPool(opts.Workers - 1)
	}
	if s.memo == nil {
		s.memo = new(ShardedMemo)
	}
	s.workerPool.New = func() any { return s.makeWorker() }
	return s
}

// Stats returns the effort counters of every finished worker: a
// helper's counts land when its share of a split ends, the caller's
// when Decompose returns. Read it after Decompose for the full totals.
func (s *Solver) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
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

// worker carries per-goroutine scratch state.
type worker struct {
	split *ext.Splitter
	detk  *detk.Solver // lazily created, hybrid mode only

	// stats is this worker's share of the effort counters, folded into
	// the Solver's by putWorker.
	stats Stats

	// keyBuf is filled and consumed within a single parentFor call (no
	// recursion in between), so one per worker suffices.
	keyBuf []byte

	// memoBuf is the reusable MemoKey build buffer; the key is
	// materialised as a string before any recursion can reuse the buffer.
	memoBuf []byte

	// frames holds per-recursion-depth scratch: the candidate loops at
	// depth d keep it alive across recursive calls at depth d+1, so
	// scratch must not be shared between depths. Each frame is its own
	// allocation, so a deeper call growing the stack never moves a
	// frame that a shallower loop still holds.
	frames []*frameScratch
}

// frameScratch is reusable loop scratch for one recursion depth: the
// two candidate pools, the label enumerators of the two loops, and the
// storage below carves that depth's components out of.
type frameScratch struct {
	childPool, parentPool []int
	child, parent         labels
	comps                 ext.ComponentBuf
}

// frame returns the scratch for the given depth, growing the stack as
// needed.
func (w *worker) frame(depth int) *frameScratch {
	for len(w.frames) <= depth {
		w.frames = append(w.frames, new(frameScratch))
	}
	return w.frames[depth]
}

func (s *Solver) makeWorker() *worker {
	return &worker{split: ext.NewSplitter(s.H)}
}

func (s *Solver) getWorker() *worker { return s.workerPool.Get().(*worker) }

// putWorker folds w's counts into the Solver's and pools w.
func (s *Solver) putWorker(w *worker) {
	s.mu.Lock()
	s.stats.Add(w.stats)
	s.mu.Unlock()
	w.stats = Stats{}
	s.workerPool.Put(w)
}

func (s *Solver) nextSpecialID() int {
	return int(s.specialID.Add(1))
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
