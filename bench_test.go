package htd

// bench_test.go regenerates every table and figure of the paper's
// evaluation (§5 and Appendix D) at bench scale. Each experiment
// benchmark runs harness.Run, the experiment driver cmd/benchtab calls,
// once per iteration at its own budget and logs the resulting tables on
// the first iteration; BenchmarkPaperSweep lists Tables 1, 3 and 4 and
// Figure 3, the views of one roster run. `cmd/benchtab` runs the same
// experiments at larger scale and timeout.
//
// Run all of them with:
//
//	go test -bench=. -benchmem
//
// Expected shapes (absolute numbers depend on the machine; see
// docs/RESULTS.md for recorded runs and the substitutions behind them):
//
//	Table 1:  DetK#, LEO#, Hyb# and Ladder# within a few instances in
//	          the Total row, the hybrid not ahead: 40, 40, 40, 40 of 46
//	          at benchtab -scale 1 and 157, 157, 155, 158 of 184 at
//	          -scale 4
//	Figure 1: log-k average runtime decreases with cores; no timeout
//	          count above the instance count
//	Table 2:  WeightedCount rows solve at least as many as EdgeCount
//	          rows; the WeightedCount 40, NewDetKDecomp and HtdLEO(sim)
//	          rows are the roster's columns on HBlarge-sim
//	Table 3:  Hyb matches VirtualBest at widths <= 3
//	Table 4:  Hyb decides the most bounds at every width
//	Table 5:  non-negative solved deltas under 10x timeout
//	Figure 3: unsolved instances concentrate in the largest buckets

import (
	"context"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/harness"
	"repro/internal/hyperbench"
	"repro/internal/logk"
)

// benchConfig bundles the scaled-down experiment parameters over the
// deterministic Scale-1 HyperBench-sim suite.
func benchConfig(timeout time.Duration) harness.Config {
	return harness.Config{
		Suite:   hyperbench.Suite(hyperbench.Config{Scale: 1, Seed: 2022}),
		Timeout: timeout,
		KMax:    5,
		Workers: runtime.GOMAXPROCS(0),
	}
}

// benchExperiments runs the experiments spec lists through the driver
// once per iteration and logs the first iteration's tables.
func benchExperiments(b *testing.B, timeout time.Duration, spec string) {
	cfg := benchConfig(timeout)
	for i := 0; i < b.N; i++ {
		var out strings.Builder
		if _, err := harness.Run(context.Background(), cfg, spec, &out); err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("%s", &out)
		}
	}
}

// BenchmarkPaperSweep runs the paper's method roster (NewDetKDecomp,
// the HtdLEO stand-in, the log-k-decomp hybrid and the width ladder)
// once and logs its views: Table 1 (solved counts and runtimes per
// origin × size group), Table 3 (optimally solved instances per width,
// with the Virtual Best), Table 4 (bounds "hw ≤ w" decided per width)
// and Figure 3 (the solved/unsolved buckets of the three paper methods).
func BenchmarkPaperSweep(b *testing.B) {
	benchExperiments(b, 400*time.Millisecond, "table1,table3,table4,figure3")
}

// BenchmarkFigure1ParallelScaling reproduces Figure 1: average runtime
// on the HBlarge analogue as a function of worker count. Search-bound
// instances need the longer budget.
func BenchmarkFigure1ParallelScaling(b *testing.B) {
	benchExperiments(b, 1500*time.Millisecond, "figure1")
}

// BenchmarkTable2HybridMetrics reproduces the hybridisation study of
// Appendix D.2 (Table 2): WeightedCount vs EdgeCount thresholds.
func BenchmarkTable2HybridMetrics(b *testing.B) {
	benchExperiments(b, 300*time.Millisecond, "table2")
}

// BenchmarkTable5ExtendedTimeout reproduces Table 5 (Appendix D.3): the
// HtdLEO stand-in at 1× and 10× its budget.
func BenchmarkTable5ExtendedTimeout(b *testing.B) {
	benchExperiments(b, 100*time.Millisecond, "table5")
}

// BenchmarkRecursionDepth verifies Theorem 4.1 at growing sizes:
// recursion depth stays within ⌈log2 |E|⌉ + 2.
func BenchmarkRecursionDepth(b *testing.B) {
	benchExperiments(b, 0, "depth")
}

// BenchmarkGHDComparison reproduces the §5.2 GHD comparison: the GHD
// baseline standing in for BalancedGo, det-k-decomp on the
// subedge-augmented hypergraph, against the log-k-decomp hybrid, on the
// instances with at most 30 edges.
func BenchmarkGHDComparison(b *testing.B) {
	benchExperiments(b, 400*time.Millisecond, "ghd")
}

// --- micro-benchmarks of the core solver ---------------------------------

func BenchmarkDecomposeCycle64K2(b *testing.B) {
	in := cycleBench(64)
	for i := 0; i < b.N; i++ {
		_, ok, err := Decompose(context.Background(), in, Options{K: 2})
		if err != nil || !ok {
			b.Fatalf("ok=%v err=%v", ok, err)
		}
	}
}

func BenchmarkDecomposeCycle64K2Parallel8(b *testing.B) {
	in := cycleBench(64)
	for i := 0; i < b.N; i++ {
		_, ok, err := Decompose(context.Background(), in, Options{K: 2, Workers: 8})
		if err != nil || !ok {
			b.Fatalf("ok=%v err=%v", ok, err)
		}
	}
}

func BenchmarkDetKCycle32K2(b *testing.B) {
	in := cycleBench(32)
	for i := 0; i < b.N; i++ {
		_, ok, err := DecomposeDetK(context.Background(), in, 2)
		if err != nil || !ok {
			b.Fatalf("ok=%v err=%v", ok, err)
		}
	}
}

func BenchmarkHybridCycle64K2(b *testing.B) {
	in := cycleBench(64)
	for i := 0; i < b.N; i++ {
		_, ok, err := Decompose(context.Background(), in,
			Options{K: 2, Workers: 8, Hybrid: logk.PaperHybrid, HybridThreshold: logk.PaperHybridThreshold})
		if err != nil || !ok {
			b.Fatalf("ok=%v err=%v", ok, err)
		}
	}
}

func cycleBench(n int) *Hypergraph {
	var bld Builder
	for i := 0; i < n; i++ {
		bld.MustAddEdge("", vn(i), vn((i+1)%n))
	}
	return bld.Build()
}

func vn(i int) string {
	return "x" + string(rune('a'+i/26)) + string(rune('a'+i%26))
}
