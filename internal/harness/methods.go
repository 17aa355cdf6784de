package harness

import (
	"context"

	"repro/internal/balgo"
	"repro/internal/decomp"
	"repro/internal/detk"
	"repro/internal/hypergraph"
	"repro/internal/logk"
	"repro/internal/opt"
)

// The standard method roster of the evaluation. Names follow the paper.

// MethodDetK is NewDetKDecomp [9]: sequential det-k-decomp.
func MethodDetK() Method {
	return Method{
		Name: "NewDetKDecomp",
		NewParam: func(h *hypergraph.Hypergraph, k int) WidthSolver {
			return detk.New(h, k)
		},
	}
}

// MethodOpt is the HtdLEO [24] stand-in: a direct optimal-width solver
// with no width parameter (see internal/opt and docs/RESULTS.md,
// "Substitutions").
func MethodOpt() Method {
	return Method{
		Name: "HtdLEO(sim)",
		SolveOptimal: func(ctx context.Context, h *hypergraph.Hypergraph, kMax int) (int, *decomp.Decomp, bool, error) {
			return opt.New(h, kMax).Solve(ctx)
		},
	}
}

// MethodLogKHybrid is the paper's headline configuration: log-k-decomp
// with det-k-decomp hybridisation (§5.2, Appendix D.2).
func MethodLogKHybrid(workers int, metric logk.HybridMetric, threshold float64) Method {
	name := "log-k-decomp Hybrid"
	return Method{
		Name: name,
		NewParam: func(h *hypergraph.Hypergraph, k int) WidthSolver {
			return logk.New(h, logk.Options{
				K: k, Workers: workers,
				Hybrid: metric, HybridThreshold: threshold,
			})
		},
	}
}

// MethodNamed wraps MethodLogKHybrid with an explicit display name (used
// by the Table 2 threshold study).
func MethodNamed(name string, workers int, metric logk.HybridMetric, threshold float64) Method {
	m := MethodLogKHybrid(workers, metric, threshold)
	m.Name = name
	return m
}

// MethodLadder is the service's optimal-width search: logk.Optimal's
// ascending width ladder, hybridised like the paper's headline
// configuration and started at the structural lower bound
// (hypergraph.WidthLowerBound), which the paper's columns do not use.
// One run per instance finds the optimum and refutes everything below
// it, which is exactly the §5.1 "solved" criterion.
func MethodLadder(workers int) Method {
	return Method{
		Name: "log-k-decomp Ladder",
		SolveLadder: func(ctx context.Context, h *hypergraph.Hypergraph, kMax int) (logk.OptimalResult, error) {
			lb, err := h.WidthLowerBound(ctx, kMax)
			if err != nil {
				return logk.OptimalResult{}, err
			}
			return logk.Optimal(ctx, h, logk.OptimalConfig{
				Search: logk.Options{
					Workers: workers, Hybrid: logk.PaperHybrid, HybridThreshold: logk.PaperHybridThreshold,
				},
				KMax:       kMax,
				LowerBound: lb,
			})
		},
	}
}

// MethodBalancedGo is the GHD comparison system of §5.2.
func MethodBalancedGo() Method {
	return Method{
		Name: "BalancedGo(GHD)",
		NewParam: func(h *hypergraph.Hypergraph, k int) WidthSolver {
			return balgo.New(h, balgo.Options{K: k})
		},
		GHD: true,
	}
}
