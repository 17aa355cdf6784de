package logk

import (
	"context"

	"repro/internal/decomp"
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
	// LowerBound, when > 1, asserts that every width below it is
	// refuted (cached bounds of earlier runs). Optimal trusts it and
	// probes from there.
	LowerBound int
	// MemoFor, when non-nil, supplies the negative-memo backend of the
	// probe at width k, replacing Search.Memo; a serving layer injects
	// its cross-request tables here.
	MemoFor func(k int) MemoBackend
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
	return optimalFrom(ctx, h, cfg, BoundInitial)
}

// OptimalFromBound is Optimal started at the larger of cfg.LowerBound
// and the structural bound, hypergraph.WidthLowerBound up to KMax,
// which it reports as BoundStructural when that set the start and was
// tight. If the bound's computation ends on ctx, it returns the zero
// OptimalResult (no probes) and ctx's error.
func OptimalFromBound(ctx context.Context, h *hypergraph.Hypergraph, cfg OptimalConfig) (OptimalResult, error) {
	lb, err := h.WidthLowerBound(ctx, cfg.KMax)
	if err != nil {
		return OptimalResult{}, err
	}
	from := BoundInitial
	if lb > max(cfg.LowerBound, 1) {
		cfg.LowerBound, from = lb, BoundStructural
	}
	return optimalFrom(ctx, h, cfg, from)
}

// optimalFrom is Optimal with from as cfg.LowerBound's provenance.
func optimalFrom(ctx context.Context, h *hypergraph.Hypergraph, cfg OptimalConfig, from BoundSource) (OptimalResult, error) {
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
		if cfg.MemoFor != nil {
			opts.Memo = cfg.MemoFor(k)
		}
		s := New(h, opts)
		d, ok, err := s.Decompose(ctx)
		res.Probes++
		res.Stats.Add(s.Stats())
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
