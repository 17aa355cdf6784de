package harness

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/hyperbench"
	"repro/internal/logk"
)

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

// paperHybrid is the log-k-decomp hybrid of the paper's roster.
func (s *resultSet) paperHybrid() Method {
	return MethodLogKHybrid(s.cfg.Workers, logk.PaperHybrid, logk.PaperHybridThreshold)
}

// roster returns the paper's method roster over cfg.Suite:
// NewDetKDecomp, the HtdLEO stand-in, the log-k-decomp hybrid and the
// width ladder. Tables 1, 3 and 4 and Figure 3 are views of it.
func (s *resultSet) roster(ctx context.Context) []Result {
	return s.results(ctx, s.cfg.Timeout, s.cfg.Suite,
		MethodDetK(), MethodOpt(), s.paperHybrid(), MethodLadder(s.cfg.Workers))
}

// methodOrder lists the methods of results in order of first
// appearance, which for the roster is its order.
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

// table1 reproduces Table 1 from the roster: solved counts and runtime
// statistics per origin × size group for each method.
func (s *resultSet) table1(ctx context.Context) *Table {
	cfg, results := s.cfg, s.roster(ctx)
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

// figure1 reproduces the core-scaling study of §5.2 on the HBlarge
// analogue: average time to find and prove the optimal width as a
// function of worker count, for log-k-decomp plain and hybrid, with
// single-core NewDetKDecomp as reference. It runs at 1–6 workers, or at
// 1 and 2 on a host with fewer than 6 CPUs. The hybrid at cfg.Workers
// and det-k are the roster's runs on these instances.
func (s *resultSet) figure1(ctx context.Context) *Table {
	large := hyperbench.Large(s.cfg.Suite, 6)
	cores := []int{1, 2, 3, 4, 5, 6}
	if runtime.GOMAXPROCS(0) < 6 {
		cores = []int{1, 2}
	}
	var logK, hybrid [][]Result
	for _, n := range cores {
		logK = append(logK, s.results(ctx, s.cfg.Timeout, large, MethodLogKHybrid(n, logk.HybridNone, 0)))
		hybrid = append(hybrid, s.results(ctx, s.cfg.Timeout, large,
			MethodLogKHybrid(n, logk.PaperHybrid, logk.PaperHybridThreshold)))
	}
	detK := s.results(ctx, s.cfg.Timeout, large, MethodDetK())
	lk, hy, dk := commonAverages(logK), commonAverages(hybrid), commonAverages([][]Result{detK})

	t := &Table{
		Title:   "Figure 1: average runtime (sec) on HBlarge-sim vs worker count",
		Headers: []string{"cores", "log-k", "log-k(Hybrid)", "NewDetKDecomp(1core)", "log-k timeouts", "log-k(Hybrid) timeouts"},
	}
	for i, n := range cores {
		t.AddRow(n, fmt.Sprintf("%.2f", lk[i]), fmt.Sprintf("%.2f", hy[i]), fmt.Sprintf("%.2f", dk[0]),
			unsolved(logK[i]), unsolved(hybrid[i]))
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("instances: %d (HBlarge-sim: >50 edges, known hw <= 6)", len(large)),
		fmt.Sprintf("timeouts NewDetKDecomp(1core) %d", unsolved(detK)))
	return t
}

// commonAverages returns, per series entry, the average runtime over
// the instances solved in every entry (the paper's methodology: avoid
// decreasing timeouts skewing the data).
func commonAverages(series [][]Result) []float64 {
	solvedIn := map[string]int{}
	for _, rs := range series {
		for _, r := range rs {
			if r.Solved {
				solvedIn[r.Instance.Name]++
			}
		}
	}
	avgs := make([]float64, len(series))
	for i, rs := range series {
		sum, n := 0.0, 0
		for _, r := range rs {
			if solvedIn[r.Instance.Name] == len(series) {
				sum += r.Runtime.Seconds()
				n++
			}
		}
		if n > 0 {
			avgs[i] = sum / float64(n)
		}
	}
	return avgs
}

// unsolved counts the results that are not solved.
func unsolved(results []Result) int {
	st := Aggregate(results, func(Result) bool { return true })
	return st.Count - st.Solved
}

// table2 reproduces the hybridisation study (Appendix D.2, Table 2):
// WeightedCount vs EdgeCount at several thresholds on HBlarge-sim, with
// NewDetKDecomp and the HtdLEO stand-in as references. The threshold
// that equals the paper's hybrid (WeightedCount 40), det-k and the
// HtdLEO stand-in are the roster's runs on these instances.
func (s *resultSet) table2(ctx context.Context) *Table {
	large := hyperbench.Large(s.cfg.Suite, 6)
	hybrid := func(metric logk.HybridMetric, threshold float64) Method {
		return MethodLogKHybrid(s.cfg.Workers, metric, threshold)
	}
	entries := []struct {
		label     string
		threshold string
		method    Method
	}{
		{"WeightedCount", "20", hybrid(logk.HybridWeightedCount, 20)},
		{"WeightedCount", "40", hybrid(logk.HybridWeightedCount, 40)},
		{"WeightedCount", "60", hybrid(logk.HybridWeightedCount, 60)},
		{"EdgeCount", "8", hybrid(logk.HybridEdgeCount, 8)},
		{"EdgeCount", "16", hybrid(logk.HybridEdgeCount, 16)},
		{"EdgeCount", "32", hybrid(logk.HybridEdgeCount, 32)},
		{"NewDetKDecomp", "-", MethodDetK()},
		{"HtdLEO(sim)", "-", MethodOpt()},
	}
	t := &Table{
		Title:   "Table 2: hybrid metrics on HBlarge-sim",
		Headers: []string{"Method", "Threshold", "Solved", "Av.runtime(sec)"},
	}
	for _, e := range entries {
		st := Aggregate(s.results(ctx, s.cfg.Timeout, large, e.method), func(Result) bool { return true })
		t.AddRow(e.label, e.threshold, st.Solved, st.AvgSec)
	}
	t.Notes = append(t.Notes, fmt.Sprintf("instances: %d; thresholds scaled to suite size (paper: 200-600 / 20-80)", len(large)))
	return t
}

// table3 reproduces the per-width solved counts (Appendix D.5, Table 3)
// from the roster, including the Virtual Best aggregation.
func (s *resultSet) table3(ctx context.Context) *Table {
	results := s.roster(ctx)
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

// table4 reproduces the upper-bound determination study (Appendix D.5,
// Table 4) from the roster: for each width w ≤ cfg.KMax, how many
// instances each method can decide "hw ≤ w?" (either way) within
// budget.
func (s *resultSet) table4(ctx context.Context) *Table {
	t := perWidth(&Table{
		Title:   "Table 4: instances for which 'hw <= w' is decided",
		Headers: []string{"Problem", "VirtualBest"},
	}, s.roster(ctx), s.cfg.KMax, func(w int) any { return "hw <= " + strconv.Itoa(w) }, func(r Result, w int) bool {
		return r.Bounds[w] != Unknown
	})
	t.Notes = append(t.Notes, fmt.Sprintf("suite size: %d", len(s.cfg.Suite)))
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

// table5 reproduces the extended-timeout study for the HtdLEO stand-in
// (Appendix D.3, Table 5): solved counts per group at 1× and 10× budget.
// The 1× column is the roster's HtdLEO column.
func (s *resultSet) table5(ctx context.Context) *Table {
	resShort := s.results(ctx, s.cfg.Timeout, s.cfg.Suite, MethodOpt())
	resLong := s.results(ctx, 10*s.cfg.Timeout, s.cfg.Suite, MethodOpt())

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
	return t
}

// figure3 emits the solved/unsolved scatter data (Appendix D.4) from
// the roster: one CSV block per paper method with instance coordinates
// (#edges, #vertices) and the solved flag, kept as s.csv, plus an
// aggregate table of the solved frontier. The width ladder is the
// service's column, not the paper's, so it is left out.
func (s *resultSet) figure3(ctx context.Context) *Table {
	results := s.roster(ctx)
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
	s.csv = csv.String()
	return t
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

// ghd reproduces the §5.2 comparison with GHD computation: the
// BalancedGo stand-in (MethodBalancedGo) vs the roster's log-k-decomp
// hybrid HDs, on the instances with at most 30 edges (the subedge
// augmentation grows quadratically in |E|). It reports solved counts
// and how often the GHD width beats the HD width on commonly solved
// instances.
func (s *resultSet) ghd(ctx context.Context) *Table {
	var small []hyperbench.Instance
	for _, in := range s.cfg.Suite {
		if in.Edges() <= 30 {
			small = append(small, in)
		}
	}
	results := s.results(ctx, s.cfg.Timeout, small, s.paperHybrid(), MethodBalancedGo())

	hdSolved, ghdSolved, both, lower := 0, 0, 0, 0
	var hdTime, ghdTime time.Duration
	for i := 0; i+1 < len(results); i += 2 {
		rh, rg := results[i], results[i+1]
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
	t.AddRow("GHD width < HD width", "-", lower)
	t.Notes = append(t.Notes, fmt.Sprintf("instances solved by both: %d", both))
	return t
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
