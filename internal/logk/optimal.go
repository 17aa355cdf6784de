package logk

import (
	"context"
	"errors"

	"repro/internal/decomp"
	"repro/internal/detk"
	"repro/internal/hypergraph"
)

// BoundSource says how a lower bound on hypertree width was
// established; its String is the one name of each provenance, which
// the service's lower_bound_from and the harness's ladder note print.
type BoundSource int

const (
	BoundTrivial    BoundSource = iota // the optimum was the least width: 1, or 0 without edges
	BoundInitial                       // the caller's LowerBound was tight (cached bounds: "memo")
	BoundProbe                         // a probe refuted width LowerBound-1
	BoundStructural                    // hypergraph.WidthLowerBound was tight
)

func (b BoundSource) String() string {
	switch b {
	case BoundInitial:
		return "memo"
	case BoundProbe:
		return "probe"
	case BoundStructural:
		return "structural"
	}
	return "trivial"
}

// OptimalConfig parameterises Optimal.
type OptimalConfig struct {
	// Search configures every probe (its K is set per width).
	Search Options
	// KMax bounds the width search: Optimal decides hw(H) exactly when
	// hw(H) ≤ KMax and reports Found=false otherwise.
	KMax int
	// LowerBound, when > 1, is where Optimal starts probing; it
	// reports every width below as refuted. An optimal caller passes a
	// proven bound (cached bounds of earlier runs). A decide caller
	// passes K with KMax = K, an unproven start for a one-rung ladder,
	// and banks only a witness or a NO (as the bound K+1).
	LowerBound int
}

// OptimalResult is the outcome of Optimal. LowerBound, LowerBoundFrom,
// Probes and Stats are kept when Optimal returns an error, so widths
// refuted before a deadline can still be banked.
type OptimalResult struct {
	Width  int            // hw(H) when Found
	Decomp *decomp.Decomp // a witness of width at most Width when Found
	Found  bool           // hw(H) ≤ KMax
	// LowerBound is the proven bound: every width below it is refuted.
	// When Found, LowerBound == Width.
	LowerBound int
	// LowerBoundFrom is the provenance of LowerBound.
	LowerBoundFrom BoundSource
	Probes         int   // widths searched
	Stats          Stats // the probes' summed search effort
}

// Optimal computes hw(H) exactly by an ascending width ladder: it runs
// the solver at k = LowerBound, LowerBound+1, …, KMax and stops at the
// first k that admits an HD. Every width below it is refuted by then,
// which is the paper's §5.1 "solved" criterion; the parallelism lives
// inside each probe's search (Search.Workers, Search.Tokens).
func Optimal(ctx context.Context, h *hypergraph.Hypergraph, cfg OptimalConfig) (OptimalResult, error) {
	return optimalFrom(ctx, h, cfg, BoundInitial, rule{})
}

// OptimalFromBound is Optimal started at the larger of cfg.LowerBound
// and the structural bound, hypergraph.WidthLowerBound up to KMax,
// which it reports as BoundStructural when that set the start and was
// tight. If the bound's computation ends on ctx, it returns the zero
// OptimalResult (no probes) and ctx's error.
func OptimalFromBound(ctx context.Context, h *hypergraph.Hypergraph, cfg OptimalConfig) (OptimalResult, error) {
	return fromBound(ctx, h, cfg, rule{})
}

// armBudget is the λ-labels det-k-decomp may form on a ServeLadder rung
// before the rung falls back to cfg.Search. It lies above the label
// count of every YES probe of the benchmark's decompose-cold mix and
// far below the millions det-k needs to refute a width the structural
// bound cannot (TestArmBudgetCounts).
const armBudget = 1 << 16

// ServeLadder is OptimalFromBound with the service's rule on every
// rung. det-k-decomp, which beats the hybrid on YES probes, decides the
// width first on a budget of armBudget λ-labels. Only when it neither
// finds an HD nor refutes the width within it does the rung run
// cfg.Search from the start, the search whose balanced-separator root
// refutes fast where det-k cannot, with memoFor(k), when non-nil, as
// the width's negative memo. The budget is a count, so answers and
// witnesses stay deterministic.
func ServeLadder(ctx context.Context, h *hypergraph.Hypergraph, cfg OptimalConfig, memoFor func(k int) MemoBackend) (OptimalResult, error) {
	return fromBound(ctx, h, cfg, rule{labels: armBudget, memoFor: memoFor})
}

// fromBound is OptimalFromBound with r deciding every rung.
func fromBound(ctx context.Context, h *hypergraph.Hypergraph, cfg OptimalConfig, r rule) (OptimalResult, error) {
	lb, err := h.WidthLowerBound(ctx, cfg.KMax)
	if err != nil {
		return OptimalResult{}, err
	}
	from := BoundInitial
	if lb > max(cfg.LowerBound, 1) {
		cfg.LowerBound, from = lb, BoundStructural
	}
	return optimalFrom(ctx, h, cfg, from, r)
}

// rule is how a rung decides its width. With labels > 0, det-k-decomp
// runs first on that many λ-labels, and the log-k search only when it
// stops on the budget. memoFor, when non-nil, supplies the log-k
// search's negative memo at width k, holding refutations at width k
// only; without it each search keeps a private table.
type rule struct {
	labels  int64
	memoFor func(k int) MemoBackend
}

// decide runs r's search of width k with opts (its K set to k, or 1
// for k = 0) and returns its answer and effort. det-k's labels count
// as DetKCandidates.
func (r rule) decide(ctx context.Context, h *hypergraph.Hypergraph, k int, opts Options) (*decomp.Decomp, bool, Stats, error) {
	var st Stats
	if r.labels > 0 {
		arm := detk.New(h, opts.K)
		arm.Budget = r.labels
		d, ok, err := arm.Decompose(ctx)
		st.DetKCandidates = arm.Stats.Candidates
		if !errors.Is(err, detk.ErrBudget) {
			return d, ok, st, err
		}
	}
	var memo MemoBackend
	if r.memoFor != nil {
		memo = r.memoFor(k)
	}
	s := newSolver(h, opts, memo)
	d, ok, err := s.Decompose(ctx)
	st.Add(s.Stats())
	return d, ok, st, err
}

// optimalFrom is Optimal with from as cfg.LowerBound's provenance and r
// deciding every rung.
func optimalFrom(ctx context.Context, h *hypergraph.Hypergraph, cfg OptimalConfig, from BoundSource, r rule) (OptimalResult, error) {
	// hw(H) ≥ 1 unless H has no edges: then its one HD is a single node
	// with an empty λ, of width 0.
	floor := min(h.NumEdges(), 1)
	res := OptimalResult{LowerBound: max(cfg.LowerBound, floor)}
	if res.LowerBound > floor {
		res.LowerBoundFrom = from
	}
	for k := res.LowerBound; k <= cfg.KMax; k++ {
		opts := cfg.Search
		opts.K = max(k, 1) // New needs K ≥ 1; any K finds the empty node
		d, ok, st, err := r.decide(ctx, h, k, opts)
		res.Probes++
		res.Stats.Add(st)
		if err != nil {
			return res, err
		}
		if ok {
			res.Width, res.Decomp, res.Found = k, d, true
			if k == floor {
				res.LowerBoundFrom = BoundTrivial
			}
			return res, nil
		}
		res.LowerBound, res.LowerBoundFrom = k+1, BoundProbe
	}
	return res, nil
}
