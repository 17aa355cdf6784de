package harness

import (
	"context"
	"fmt"
	"math"

	"repro/internal/detk"
	"repro/internal/hypergraph"
	"repro/internal/logk"
)

// The standard method roster of the evaluation. Names follow the paper.

// MethodDetK is NewDetKDecomp [9]: sequential det-k-decomp.
func MethodDetK() Method {
	return Method{
		Name:   "NewDetKDecomp",
		config: "det-k",
		NewParam: func(h *hypergraph.Hypergraph, k int) WidthSolver {
			return detk.New(h, k)
		},
	}
}

// leoName is MethodOpt's name.
const leoName = "HtdLEO(sim)"

// MethodOpt is the HtdLEO [24] stand-in: a direct optimal-width solver
// with no width parameter (see docs/RESULTS.md, "Substitutions"). It is
// logk.Optimal's width ladder from width 1 on one worker, with a search
// that hands the whole hypergraph to det-k-decomp: no EdgeCount reaches
// an infinite threshold, so the hybrid switches at the root. That is
// the ascending det-k search of "A Backtracking-Based Algorithm for
// Computing Hypertree-Decompositions". Like every paper column, it does
// not use the structural lower bound.
func MethodOpt() Method {
	return Method{
		Name:   leoName,
		config: "htdleo",
		SolveLadder: func(ctx context.Context, h *hypergraph.Hypergraph, kMax int) (logk.OptimalResult, error) {
			return logk.Optimal(ctx, h, logk.OptimalConfig{
				Search: logk.Options{Workers: 1, Hybrid: logk.HybridEdgeCount, HybridThreshold: math.Inf(1)},
				KMax:   kMax,
			})
		},
	}
}

// MethodLogKHybrid is the paper's headline configuration: log-k-decomp
// with det-k-decomp hybridisation (§5.2, Appendix D.2). With
// logk.HybridNone it is plain log-k-decomp, memo included, as the
// reference implementation runs it.
func MethodLogKHybrid(workers int, metric logk.HybridMetric, threshold float64) Method {
	return Method{
		Name:   "log-k-decomp Hybrid",
		config: fmt.Sprintf("log-k workers=%d hybrid=%s/%g", workers, metric, threshold),
		NewParam: func(h *hypergraph.Hypergraph, k int) WidthSolver {
			return logk.New(h, logk.Options{
				K: k, Workers: workers,
				Hybrid: metric, HybridThreshold: threshold,
			})
		},
	}
}

// ladderName is MethodLadder's name.
const ladderName = "log-k-decomp Ladder"

// MethodLadder is the service's optimal-width search: logk.Optimal's
// ascending width ladder started at the structural lower bound, which
// the paper's columns do not use, with the service's rule on every rung
// (logk.ServeLadder): det-k-decomp on a fixed label budget first, and
// the paper's headline hybrid only when that budget runs out. One run
// per instance finds the optimum and refutes everything below it,
// which is exactly the §5.1 "solved" criterion.
func MethodLadder(workers int) Method {
	return Method{
		Name:   ladderName,
		config: fmt.Sprintf("ladder workers=%d", workers),
		SolveLadder: func(ctx context.Context, h *hypergraph.Hypergraph, kMax int) (logk.OptimalResult, error) {
			return logk.ServeLadder(ctx, h, logk.OptimalConfig{
				Search: logk.Options{
					Workers: workers, Hybrid: logk.PaperHybrid, HybridThreshold: logk.PaperHybridThreshold,
				},
				KMax: kMax,
			}, nil)
		},
	}
}

// MethodBalancedGo is the GHD comparison system of §5.2, BalancedGo.
// Its stand-in is det-k-decomp on the hypergraph augmented with its
// subedges for the width asked (detk.NewGHD).
func MethodBalancedGo() Method {
	return Method{
		Name:   "BalancedGo(GHD)",
		config: "balancedgo",
		NewParam: func(h *hypergraph.Hypergraph, k int) WidthSolver {
			return detk.NewGHD(h, k)
		},
		GHD: true,
	}
}
