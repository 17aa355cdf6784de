package htd

// bench_test.go regenerates every table and figure of the paper's
// evaluation (§5 and Appendix D) at bench scale. Each benchmark runs one
// full (scaled-down) experiment per iteration and logs the resulting
// tables on the first iteration; BenchmarkPaperSweep runs the paper's
// method roster once and logs Tables 1, 3 and 4 and Figure 3 as views
// of it. `cmd/benchtab` runs the same experiments at larger scale and
// timeout.
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
//	Figure 1: log-k average runtime decreases with cores
//	Table 2:  WeightedCount rows solve at least as many as EdgeCount rows
//	Table 3:  Hyb matches VirtualBest at widths <= 3
//	Table 4:  Hyb decides the most bounds at every width
//	Table 5:  non-negative solved deltas under 10x timeout
//	Figure 3: unsolved instances concentrate in the largest buckets

import (
	"context"
	"runtime"
	"testing"
	"time"

	"repro/internal/harness"
	"repro/internal/hyperbench"
	"repro/internal/logk"
)

// benchSuite returns the instance suite used by the experiment benches:
// the deterministic Scale-1 HyperBench-sim suite.
func benchSuite() []hyperbench.Instance {
	return hyperbench.Suite(hyperbench.Config{Scale: 1, Seed: 2022})
}

// benchConfig bundles the scaled-down experiment parameters.
func benchConfig() harness.Config {
	return harness.Config{
		Suite:   benchSuite(),
		Timeout: 400 * time.Millisecond,
		KMax:    5,
		Workers: runtime.GOMAXPROCS(0),
	}
}

func checkResults(b *testing.B, results []harness.Result) {
	b.Helper()
	for _, r := range results {
		if r.Err != nil {
			b.Fatalf("%s on %s: %v", r.Method, r.Instance.Name, r.Err)
		}
	}
}

// BenchmarkPaperSweep runs the paper's method roster (NewDetKDecomp,
// the HtdLEO stand-in, the log-k-decomp hybrid and the width ladder)
// once and logs its views: Table 1 (solved counts and runtimes per
// origin × size group), Table 3 (optimally solved instances per width,
// with the Virtual Best), Table 4 (bounds "hw ≤ w" decided per width)
// and Figure 3 (the solved/unsolved scatter of the three paper methods,
// as CSV data plus a bucket table).
func BenchmarkPaperSweep(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		results := harness.PaperSweep(context.Background(), cfg)
		if i == 0 {
			checkResults(b, results)
			csv, fig3 := harness.Figure3(results)
			b.Logf("\n%s\n%s\n%s\n%s", harness.Table1(cfg, results).Render(), harness.Table3(results).Render(),
				harness.Table4(results, len(cfg.Suite), cfg.KMax).Render(), fig3.Render())
			b.Logf("scatter CSV: %d bytes (see cmd/benchtab -experiment figure3 for the full data)", len(csv))
		}
	}
}

// BenchmarkFigure1ParallelScaling reproduces Figure 1: average runtime
// on the HBlarge analogue as a function of worker count.
func BenchmarkFigure1ParallelScaling(b *testing.B) {
	cfg := benchConfig()
	cfg.Timeout = 1500 * time.Millisecond // search-bound instances need headroom
	cores := []int{1, 2, 4, 6}
	if runtime.GOMAXPROCS(0) < 6 {
		cores = []int{1, 2}
	}
	for i := 0; i < b.N; i++ {
		tab, _ := harness.Figure1(context.Background(), cfg, cores)
		if i == 0 {
			b.Logf("\n%s", tab.Render())
		}
	}
}

// BenchmarkTable2HybridMetrics reproduces the hybridisation study of
// Appendix D.2 (Table 2): WeightedCount vs EdgeCount thresholds.
func BenchmarkTable2HybridMetrics(b *testing.B) {
	cfg := benchConfig()
	cfg.Timeout = 300 * time.Millisecond
	for i := 0; i < b.N; i++ {
		tab, results := harness.Table2(context.Background(), cfg)
		if i == 0 {
			checkResults(b, results)
			b.Logf("\n%s", tab.Render())
		}
	}
}

// BenchmarkTable5ExtendedTimeout reproduces Table 5 (Appendix D.3): the
// HtdLEO stand-in with a 10× budget. It runs the stand-in's 1× column
// itself, at its own 100 ms budget rather than the sweep's.
func BenchmarkTable5ExtendedTimeout(b *testing.B) {
	cfg := benchConfig()
	cfg.Timeout = 100 * time.Millisecond
	r := harness.Runner{Timeout: cfg.Timeout, KMax: cfg.KMax}
	for i := 0; i < b.N; i++ {
		short := r.RunAll(context.Background(), []harness.Method{harness.MethodOpt()}, cfg.Suite, nil)
		tab, long := harness.Table5(context.Background(), cfg, short)
		if i == 0 {
			checkResults(b, append(short, long...))
			b.Logf("\n%s", tab.Render())
		}
	}
}

// BenchmarkRecursionDepth verifies Theorem 4.1 at growing sizes:
// recursion depth stays within ⌈log2 |E|⌉ + 2.
func BenchmarkRecursionDepth(b *testing.B) {
	sizes := []int{16, 32, 64, 128, 256}
	for i := 0; i < b.N; i++ {
		tab := harness.DepthExperiment(context.Background(), sizes)
		if i == 0 {
			b.Logf("\n%s", tab.Render())
		}
	}
}

// BenchmarkGHDComparison reproduces the §5.2 GHD comparison: the
// BalancedGo-style solver against the log-k-decomp hybrid.
func BenchmarkGHDComparison(b *testing.B) {
	cfg := benchConfig()
	// GHD search is exponential in the pool; keep to small instances.
	var small []hyperbench.Instance
	for _, in := range cfg.Suite {
		if in.Edges() <= 30 {
			small = append(small, in)
		}
	}
	cfg.Suite = small
	for i := 0; i < b.N; i++ {
		tab, err := harness.GHDComparison(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", tab.Render())
		}
	}
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
