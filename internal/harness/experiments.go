package harness

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/hyperbench"
	"repro/internal/hypergraph"
	"repro/internal/logk"
)

// Config parameterises the experiment reproductions. The defaults in the
// benches use scaled-down timeouts; cmd/benchtab can raise them.
type Config struct {
	Suite   []hyperbench.Instance
	Timeout time.Duration
	KMax    int
	Workers int
	// Progress, if non-nil, receives completion ticks.
	Progress func(done, total int)
}

func (c Config) runner() *Runner {
	return &Runner{Timeout: c.Timeout, KMax: c.KMax}
}

// shortName maps method names to compact column prefixes.
func shortName(m string) string {
	switch m {
	case "NewDetKDecomp":
		return "DetK"
	case leoName:
		return "LEO"
	case "log-k-decomp":
		return "LogK"
	case "log-k-decomp Hybrid":
		return "Hyb"
	case ladderName:
		return "Ladder"
	case "BalancedGo(GHD)":
		return "BalGo"
	}
	return m
}

// provenanceNote summarises lower-bound provenance over MethodLadder's
// solved results ("" when it solved none): how many optimality proofs
// rest on the structural bound (hw − 1 refuted without a search) and
// how many on a probe's refutation. The HtdLEO stand-in runs a ladder
// too, but from width 1, so its results are not counted.
func provenanceNote(results []Result) string {
	counts := map[string]int{}
	for _, r := range results {
		if r.Solved && r.Method == ladderName {
			counts[r.LBSource]++
		}
	}
	if len(counts) == 0 {
		return ""
	}
	return fmt.Sprintf("Ladder lower-bound provenance (solved): structural=%d probe=%d trivial=%d",
		counts["structural"], counts["probe"], counts["trivial"])
}

// PaperSweep runs the paper's method roster once over cfg.Suite:
// NewDetKDecomp, the HtdLEO stand-in, the log-k-decomp hybrid and the
// width ladder. Tables 1, 3 and 4, Figure 3 and Table 5's 1× column are
// views of its results.
func PaperSweep(ctx context.Context, cfg Config) []Result {
	methods := []Method{
		MethodDetK(),
		MethodOpt(),
		MethodLogKHybrid(cfg.Workers, logk.PaperHybrid, logk.PaperHybridThreshold),
		MethodLadder(cfg.Workers),
	}
	return cfg.runner().RunAll(ctx, methods, cfg.Suite, cfg.Progress)
}

// methodOrder lists the methods of results in order of first
// appearance, which for RunAll's results is the roster's order.
func methodOrder(results []Result) []string {
	var order []string
	seen := map[string]bool{}
	for _, r := range results {
		if !seen[r.Method] {
			seen[r.Method] = true
			order = append(order, r.Method)
		}
	}
	return order
}

// Table1 reproduces Table 1 from PaperSweep's results over cfg.Suite:
// solved counts and runtime statistics per origin × size group for
// each method.
func Table1(cfg Config, results []Result) *Table {
	methods := methodOrder(results)
	t := &Table{
		Title:   "Table 1: solved instances and runtimes (sec) per method",
		Headers: []string{"Origin", "Size", "N"},
	}
	for _, m := range methods {
		p := shortName(m)
		t.Headers = append(t.Headers, p+"#", p+"-avg", p+"-max", p+"-std")
	}

	addRows := func(origin hyperbench.Origin) {
		for _, bucket := range hyperbench.BucketOrder {
			inGroup := func(r Result) bool {
				return r.Instance.Origin == origin && hyperbench.SizeBucket(r.Instance.Edges()) == bucket
			}
			// Group size (per instance, not per result).
			n := 0
			for _, in := range cfg.Suite {
				if in.Origin == origin && hyperbench.SizeBucket(in.Edges()) == bucket {
					n++
				}
			}
			if n == 0 {
				continue
			}
			row := []any{origin.String(), bucket, n}
			for _, m := range methods {
				st := Aggregate(results, func(r Result) bool { return r.Method == m && inGroup(r) })
				row = append(row, st.Solved, st.AvgSec, st.MaxSec, st.StdevSec)
			}
			t.AddRow(row...)
		}
	}
	addRows(hyperbench.Application)
	addRows(hyperbench.Synthetic)

	// Total row.
	row := []any{"Total", "-", len(cfg.Suite)}
	for _, m := range methods {
		st := Aggregate(results, func(r Result) bool { return r.Method == m })
		row = append(row, st.Solved, st.AvgSec, st.MaxSec, st.StdevSec)
	}
	t.AddRow(row...)
	t.Notes = append(t.Notes,
		fmt.Sprintf("timeout: %s per width tried for DetK and Hyb (up to %d per instance), %s per instance for LEO and Ladder; widths 1..%d; runtimes averaged over solved instances only",
			cfg.Timeout, cfg.KMax, cfg.Timeout, cfg.KMax))
	if note := provenanceNote(results); note != "" {
		t.Notes = append(t.Notes, note)
	}
	return t
}

// ScalingPoint is one (cores, seconds) measurement of Figure 1.
type ScalingPoint struct {
	Cores    int
	AvgSec   float64
	Timeouts int
}

// Figure1 reproduces the core-scaling study of §5.2 on the HBlarge
// analogue: average time to find and prove the optimal width as a
// function of worker count, for log-k-decomp plain and hybrid, with
// single-core NewDetKDecomp as reference.
func Figure1(ctx context.Context, cfg Config, coreCounts []int) (*Table, map[string][]ScalingPoint) {
	large := hyperbench.Large(cfg.Suite, 6)
	series := map[string][]ScalingPoint{}
	perMethodTimes := map[string]map[int]map[string]float64{} // method -> cores -> instance -> sec
	timeouts := map[string]int{}

	run := func(name string, cores int, m Method) {
		r := cfg.runner()
		for _, in := range large {
			res := r.Run(ctx, m, in)
			if perMethodTimes[name] == nil {
				perMethodTimes[name] = map[int]map[string]float64{}
			}
			if perMethodTimes[name][cores] == nil {
				perMethodTimes[name][cores] = map[string]float64{}
			}
			if res.Solved {
				perMethodTimes[name][cores][in.Name] = res.Runtime.Seconds()
			} else {
				timeouts[name]++
			}
		}
	}

	for _, n := range coreCounts {
		// The plain log-k series disables the solver-level memo to
		// isolate the scaling of the partitioned separator search, so
		// it is not the paper's configuration: the reference log-k-decomp
		// keeps a cache, reset per width.
		run("log-k", n, Method{
			Name: "log-k-decomp",
			NewParam: func(h *hypergraph.Hypergraph, k int) WidthSolver {
				return logk.New(h, logk.Options{K: k, Workers: n, NoCache: true})
			},
		})
		run("log-k(Hybrid)", n, MethodLogKHybrid(n, logk.PaperHybrid, logk.PaperHybridThreshold))
	}
	run("NewDetKDecomp", 1, MethodDetK())

	// Average only over instances solved at every core count (the
	// paper's methodology: avoid decreasing timeouts skewing the data).
	for name, byCores := range perMethodTimes {
		var common []string
		for in := range byCores[coreCountsOrOne(coreCounts, name)[0]] {
			inAll := true
			for _, n := range coreCountsOrOne(coreCounts, name) {
				if _, ok := byCores[n][in]; !ok {
					inAll = false
					break
				}
			}
			if inAll {
				common = append(common, in)
			}
		}
		sort.Strings(common)
		for _, n := range coreCountsOrOne(coreCounts, name) {
			sum := 0.0
			for _, in := range common {
				sum += byCores[n][in]
			}
			avg := 0.0
			if len(common) > 0 {
				avg = sum / float64(len(common))
			}
			series[name] = append(series[name], ScalingPoint{Cores: n, AvgSec: avg, Timeouts: timeouts[name]})
		}
	}

	t := &Table{
		Title:   "Figure 1: average runtime (sec) on HBlarge-sim vs worker count",
		Headers: []string{"cores", "log-k", "log-k(Hybrid)", "NewDetKDecomp(1core)"},
	}
	ref := 0.0
	if pts := series["NewDetKDecomp"]; len(pts) > 0 {
		ref = pts[0].AvgSec
	}
	for i, n := range coreCounts {
		lk, hy := "-", "-"
		if pts := series["log-k"]; i < len(pts) {
			lk = fmt.Sprintf("%.2f", pts[i].AvgSec)
		}
		if pts := series["log-k(Hybrid)"]; i < len(pts) {
			hy = fmt.Sprintf("%.2f", pts[i].AvgSec)
		}
		t.AddRow(n, lk, hy, fmt.Sprintf("%.2f", ref))
	}
	t.Notes = append(t.Notes, fmt.Sprintf("instances: %d (HBlarge-sim: >50 edges, known hw <= 6)", len(large)))
	for _, name := range []string{"log-k(Hybrid)", "log-k", "NewDetKDecomp"} {
		t.Notes = append(t.Notes, fmt.Sprintf("timeouts %-14s %d", name, timeouts[name]))
	}
	return t, series
}

func coreCountsOrOne(coreCounts []int, name string) []int {
	if name == "NewDetKDecomp" {
		return []int{1}
	}
	return coreCounts
}

// Table2 reproduces the hybridisation study (Appendix D.2, Table 2):
// WeightedCount vs EdgeCount at several thresholds on HBlarge-sim, with
// NewDetKDecomp and the HtdLEO stand-in as references.
func Table2(ctx context.Context, cfg Config) (*Table, []Result) {
	large := hyperbench.Large(cfg.Suite, 6)
	type entry struct {
		label     string
		threshold string
		method    Method
	}
	entries := []entry{
		{"WeightedCount", "20", MethodNamed("W20", cfg.Workers, logk.HybridWeightedCount, 20)},
		{"WeightedCount", "40", MethodNamed("W40", cfg.Workers, logk.HybridWeightedCount, 40)},
		{"WeightedCount", "60", MethodNamed("W60", cfg.Workers, logk.HybridWeightedCount, 60)},
		{"EdgeCount", "8", MethodNamed("E8", cfg.Workers, logk.HybridEdgeCount, 8)},
		{"EdgeCount", "16", MethodNamed("E16", cfg.Workers, logk.HybridEdgeCount, 16)},
		{"EdgeCount", "32", MethodNamed("E32", cfg.Workers, logk.HybridEdgeCount, 32)},
		{"NewDetKDecomp", "-", MethodDetK()},
		{"HtdLEO(sim)", "-", MethodOpt()},
	}
	t := &Table{
		Title:   "Table 2: hybrid metrics on HBlarge-sim",
		Headers: []string{"Method", "Threshold", "Solved", "Av.runtime(sec)"},
	}
	var all []Result
	r := cfg.runner()
	for _, e := range entries {
		res := r.RunAll(ctx, []Method{e.method}, large, cfg.Progress)
		all = append(all, res...)
		st := Aggregate(res, func(Result) bool { return true })
		t.AddRow(e.label, e.threshold, st.Solved, st.AvgSec)
	}
	t.Notes = append(t.Notes, fmt.Sprintf("instances: %d; thresholds scaled to suite size (paper: 200-600 / 20-80)", len(large)))
	return t, all
}

// Table3 reproduces the per-width solved counts (Appendix D.5, Table 3)
// from PaperSweep's results, including the Virtual Best aggregation.
func Table3(results []Result) *Table {
	maxW := 0
	for _, r := range results {
		if r.Solved {
			maxW = max(maxW, r.Width)
		}
	}
	return perWidth(&Table{
		Title:   "Table 3: instances solved optimally, by width",
		Headers: []string{"Width", "VirtualBest"},
	}, results, maxW, func(w int) any { return w }, func(r Result, w int) bool {
		return r.Solved && r.Width == w
	})
}

// Table4 reproduces the upper-bound determination study (Appendix D.5,
// Table 4) from PaperSweep's results: for each width w, how many
// instances each method can decide "hw ≤ w?" (either way) within
// budget.
func Table4(results []Result, suiteSize, maxW int) *Table {
	t := perWidth(&Table{
		Title:   "Table 4: instances for which 'hw <= w' is decided",
		Headers: []string{"Problem", "VirtualBest"},
	}, results, maxW, func(w int) any { return "hw <= " + strconv.Itoa(w) }, func(r Result, w int) bool {
		return r.Bounds[w] != Unknown
	})
	t.Notes = append(t.Notes, fmt.Sprintf("suite size: %d", suiteSize))
	return t
}

// perWidth fills t with one row per width w = 1..maxW: label(w), the
// number of instances some method's result counts at w (the Virtual
// Best), then how many results of each method count at w.
func perWidth(t *Table, results []Result, maxW int, label func(int) any, counts func(Result, int) bool) *Table {
	methods := methodOrder(results)
	for _, m := range methods {
		t.Headers = append(t.Headers, shortName(m))
	}
	for w := 1; w <= maxW; w++ {
		byMethod := map[string]int{}
		virtual := map[string]bool{}
		for _, r := range results {
			if counts(r, w) {
				byMethod[r.Method]++
				virtual[r.Instance.Name] = true
			}
		}
		row := []any{label(w), len(virtual)}
		for _, m := range methods {
			row = append(row, byMethod[m])
		}
		t.AddRow(row...)
	}
	return t
}

// Table5 reproduces the extended-timeout study for the HtdLEO stand-in
// (Appendix D.3, Table 5): solved counts per group at 1× and 10× budget.
// The 1× column is the HtdLEO stand-in's part of sweep (PaperSweep's
// results at cfg.Timeout); Table5 runs only the 10× budget and returns
// those runs.
func Table5(ctx context.Context, cfg Config, sweep []Result) (*Table, []Result) {
	var resShort []Result
	for _, r := range sweep {
		if r.Method == leoName {
			resShort = append(resShort, r)
		}
	}
	long := Runner{Timeout: 10 * cfg.Timeout, KMax: cfg.KMax}
	resLong := long.RunAll(ctx, []Method{MethodOpt()}, cfg.Suite, cfg.Progress)

	t := &Table{
		Title:   "Table 5: HtdLEO(sim) with 10x timeout",
		Headers: []string{"Origin", "Size", "N", "solved(10x)", "delta vs 1x"},
	}
	for _, origin := range []hyperbench.Origin{hyperbench.Application, hyperbench.Synthetic} {
		for _, bucket := range hyperbench.BucketOrder {
			filter := func(r Result) bool {
				return r.Instance.Origin == origin && hyperbench.SizeBucket(r.Instance.Edges()) == bucket
			}
			stS := Aggregate(resShort, filter)
			stL := Aggregate(resLong, filter)
			if stS.Count == 0 {
				continue
			}
			sign := fmt.Sprintf("%+d", stL.Solved-stS.Solved)
			if sign == "+0" {
				sign = "+-0"
			}
			t.AddRow(origin.String(), bucket, stS.Count, stL.Solved, sign)
		}
	}
	stS := Aggregate(resShort, func(Result) bool { return true })
	stL := Aggregate(resLong, func(Result) bool { return true })
	t.AddRow("Total", "-", stS.Count, stL.Solved, fmt.Sprintf("%+d", stL.Solved-stS.Solved))
	return t, resLong
}

// Figure3 emits the solved/unsolved scatter data (Appendix D.4) from
// PaperSweep's results: one CSV block per paper method with instance
// coordinates (#edges, #vertices) and the solved flag, plus an
// aggregate table of the solved frontier. The width ladder is the
// service's column, not the paper's, so it is left out.
func Figure3(results []Result) (string, *Table) {
	t := &Table{
		Title:   "Figure 3: solved (s) / unsolved (u) counts by edge-size bucket",
		Headers: []string{"Size"},
	}
	var csv strings.Builder
	csv.WriteString("method,instance,edges,vertices,solved\n")
	var methods []string
	for _, m := range methodOrder(results) {
		if m == ladderName {
			continue
		}
		methods = append(methods, m)
		t.Headers = append(t.Headers, shortName(m)+"-s", shortName(m)+"-u")
		for _, r := range results {
			if r.Method == m {
				fmt.Fprintf(&csv, "%s,%s,%d,%d,%v\n",
					m, r.Instance.Name, r.Instance.Edges(), r.Instance.H.NumVertices(), r.Solved)
			}
		}
	}
	for _, bucket := range hyperbench.BucketOrder {
		row := []any{bucket}
		seen := false
		for _, m := range methods {
			st := Aggregate(results, func(r Result) bool {
				return r.Method == m && hyperbench.SizeBucket(r.Instance.Edges()) == bucket
			})
			seen = seen || st.Count > 0
			row = append(row, st.Solved, st.Count-st.Solved)
		}
		if seen {
			t.AddRow(row...)
		}
	}
	return csv.String(), t
}

// DepthExperiment verifies Theorem 4.1 empirically: observed recursion
// depth against ⌈log2 |E|⌉ on growing cycles.
func DepthExperiment(ctx context.Context, sizes []int) *Table {
	t := &Table{
		Title:   "Recursion depth vs log2(|E|) (Theorem 4.1)",
		Headers: []string{"|E|", "observed depth", "ceil(log2|E|)+2"},
	}
	for _, n := range sizes {
		in := cycleInstance(n)
		s := logk.New(in.H, logk.Options{K: 2})
		if _, ok, err := s.Decompose(ctx); err != nil || !ok {
			t.AddRow(n, "error", "-")
			continue
		}
		bound := int(math.Ceil(math.Log2(float64(n)))) + 2
		t.AddRow(n, s.Stats().MaxDepth, bound)
	}
	return t
}

// GHDComparison reproduces the §5.2 comparison with GHD computation:
// BalancedGo-style GHD search vs log-k-decomp HDs on the same instances.
// It reports solved counts and verifies that on commonly solved
// instances the GHD width never beats the HD width.
func GHDComparison(ctx context.Context, cfg Config) (*Table, error) {
	r := cfg.runner()
	hd := MethodLogKHybrid(cfg.Workers, logk.PaperHybrid, logk.PaperHybridThreshold)
	ghd := MethodBalancedGo()

	hdSolved, ghdSolved, both, lower := 0, 0, 0, 0
	var hdTime, ghdTime time.Duration
	for _, in := range cfg.Suite {
		rh := r.Run(ctx, hd, in)
		rg := r.Run(ctx, ghd, in)
		if rh.Err != nil {
			return nil, rh.Err
		}
		if rg.Err != nil {
			return nil, rg.Err
		}
		if rh.Solved {
			hdSolved++
			hdTime += rh.Runtime
		}
		if rg.Solved {
			ghdSolved++
			ghdTime += rg.Runtime
		}
		if rh.Solved && rg.Solved {
			both++
			if rg.Width < rh.Width {
				lower++
			}
		}
	}
	t := &Table{
		Title:   "GHD (BalancedGo-style) vs HD (log-k-decomp Hybrid)",
		Headers: []string{"Metric", "HD", "GHD"},
	}
	t.AddRow("solved", hdSolved, ghdSolved)
	t.AddRow("total-sec(solved)", hdTime.Seconds(), ghdTime.Seconds())
	t.AddRow("ghw < hw cases", "-", lower)
	t.Notes = append(t.Notes, fmt.Sprintf("instances solved by both: %d", both))
	return t, nil
}

// cycleInstance builds a cycle for the depth experiment without going
// through the suite generator.
func cycleInstance(n int) hyperbench.Instance {
	var b strings.Builder
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteString(",")
		}
		fmt.Fprintf(&b, "R%d(x%d,x%d)", i, i, (i+1)%n)
	}
	b.WriteString(".")
	h := mustParse(b.String())
	return hyperbench.Instance{Name: fmt.Sprintf("cycle-%d", n), Origin: hyperbench.Synthetic, H: h, KnownHW: 2}
}
