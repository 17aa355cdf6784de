package harness

import (
	"context"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/hyperbench"
	"repro/internal/hypergraph"
	"repro/internal/logk"
)

// tinySuite returns a handful of instances with fast solves.
func tinySuite() []hyperbench.Instance {
	all := hyperbench.Suite(hyperbench.Config{Scale: 1})
	var out []hyperbench.Instance
	for _, in := range all {
		if in.Edges() <= 12 {
			out = append(out, in)
		}
		if len(out) == 8 {
			break
		}
	}
	return out
}

func TestRunParamSolvesAndProves(t *testing.T) {
	r := &Runner{Timeout: 10 * time.Second, KMax: 4}
	in := cycleInstance(8)
	res := r.Run(context.Background(), MethodDetK(), in)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if !res.Solved || res.Width != 2 {
		t.Fatalf("cycle(8): solved=%v width=%d, want solved at width 2", res.Solved, res.Width)
	}
	if res.Bounds[1] != No || res.Bounds[2] != Yes || res.Bounds[3] != Yes {
		t.Fatalf("bounds wrong: %v", res.Bounds)
	}
	if res.Runtime <= 0 {
		t.Fatal("runtime not recorded")
	}
}

func TestRunOptimalMethod(t *testing.T) {
	r := &Runner{Timeout: 10 * time.Second, KMax: 4}
	res := r.Run(context.Background(), MethodOpt(), cycleInstance(6))
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if !res.Solved || res.Width != 2 {
		t.Fatalf("solved=%v width=%d", res.Solved, res.Width)
	}
}

// TestRunLadderMethod: the optimal-width column, the width ladder from
// the structural bound, solves and proves cycle(8) with one probe.
func TestRunLadderMethod(t *testing.T) {
	r := &Runner{Timeout: 10 * time.Second, KMax: 4}
	res := r.Run(context.Background(), MethodLadder(2), cycleInstance(8))
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if !res.Solved || res.Width != 2 {
		t.Fatalf("cycle(8): solved=%v width=%d, want solved at width 2", res.Solved, res.Width)
	}
	if res.Bounds[1] != No || res.Bounds[2] != Yes || res.Bounds[3] != Yes {
		t.Fatalf("bounds wrong: %v", res.Bounds)
	}
	if res.LBSource != "structural" {
		t.Fatalf("lower-bound provenance %q, want structural (cycle(8) is cyclic)", res.LBSource)
	}
}

// TestRunLadderValidatesBeforeCountingSolved: the width ladder's claim is
// not trusted — the harness re-checks the witness with the independent
// checker, exactly like the width-parameterised methods. A method whose
// ladder returns a corrupted report must not count as solved.
func TestRunLadderValidatesBeforeCountingSolved(t *testing.T) {
	r := &Runner{Timeout: 10 * time.Second, KMax: 4}
	in := cycleInstance(8)
	lying := Method{
		Name: "lying-ladder",
		SolveLadder: func(ctx context.Context, h *hypergraph.Hypergraph, kMax int) (logk.OptimalResult, error) {
			res, err := logk.Optimal(ctx, h, logk.OptimalConfig{KMax: kMax})
			if err == nil && res.Found {
				res.Width = 1 // claim a width the witness does not have
			}
			return res, err
		},
	}
	res := r.Run(context.Background(), lying, in)
	if res.Err == nil {
		t.Fatal("invalid ladder claim must surface as a validation error")
	}
	if res.Solved {
		t.Fatal("invalid ladder claim must not count as solved")
	}
}

func TestTimeoutsAreRecorded(t *testing.T) {
	// A high-width clique at 1ms per width: every width run times out.
	r := &Runner{Timeout: time.Millisecond, KMax: 3}
	var in hyperbench.Instance
	for _, cand := range hyperbench.Suite(hyperbench.Config{Scale: 1}) {
		if cand.KnownHW >= 5 && cand.Edges() > 40 {
			in = cand
			break
		}
	}
	if in.H == nil {
		t.Fatal("no large instance in suite")
	}
	res := r.Run(context.Background(), MethodDetK(), in)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Solved {
		t.Fatal("1ms budget should not solve a 60-edge instance")
	}
	if !res.TimedOut {
		t.Fatal("timeout not recorded")
	}
}

func TestAggregate(t *testing.T) {
	results := []Result{
		{Method: "a", Solved: true, Runtime: 2 * time.Second},
		{Method: "a", Solved: true, Runtime: 4 * time.Second},
		{Method: "a", Solved: false, Runtime: 9 * time.Second},
		{Method: "b", Solved: true, Runtime: 1 * time.Second},
	}
	st := Aggregate(results, func(r Result) bool { return r.Method == "a" })
	if st.Count != 3 || st.Solved != 2 {
		t.Fatalf("count=%d solved=%d", st.Count, st.Solved)
	}
	if st.AvgSec != 3.0 || st.MaxSec != 4.0 {
		t.Fatalf("avg=%f max=%f", st.AvgSec, st.MaxSec)
	}
	if st.StdevSec != 1.0 {
		t.Fatalf("stdev=%f", st.StdevSec)
	}
}

func TestTableRender(t *testing.T) {
	tab := &Table{Title: "T", Headers: []string{"a", "bb"}}
	tab.AddRow(1, 2.5)
	tab.AddRow("xyz", "w")
	out := tab.Render()
	if !strings.Contains(out, "a    bb") && !strings.Contains(out, "a  ") {
		t.Fatalf("header misaligned:\n%s", out)
	}
	if !strings.Contains(out, "2.5") || !strings.Contains(out, "xyz") {
		t.Fatalf("cells missing:\n%s", out)
	}
}

func TestTable1SmallSuite(t *testing.T) {
	cfg := Config{
		Suite:   tinySuite(),
		Timeout: 3 * time.Second,
		KMax:    4,
		Workers: 2,
	}
	s := newResultSet(cfg)
	results, tab := s.roster(context.Background()), s.table1(context.Background())
	if s.err != nil {
		t.Fatal(s.err)
	}
	out := tab.Render()
	if !strings.Contains(out, "Hyb#") || !strings.Contains(out, "Total") {
		t.Fatalf("table malformed:\n%s", out)
	}

	// The provenance note counts the ladder column's solved results
	// only, not the HtdLEO stand-in's, which runs a ladder too.
	var structural, probe, trivial int
	found := false
	for _, note := range tab.Notes {
		if _, err := fmt.Sscanf(note, "Ladder lower-bound provenance (solved): structural=%d probe=%d trivial=%d",
			&structural, &probe, &trivial); err == nil {
			found = true
		}
	}
	solved := Aggregate(results, func(r Result) bool { return r.Method == ladderName }).Solved
	if !found || solved == 0 {
		t.Fatalf("no provenance note or no ladder solve (solved=%d):\n%s", solved, out)
	}
	if sum := structural + probe + trivial; sum != solved {
		t.Fatalf("provenance note counts %d proofs, the ladder column solved %d:\n%s", sum, solved, out)
	}
}

func TestTable4FromResults(t *testing.T) {
	cfg := Config{Suite: tinySuite(), Timeout: 3 * time.Second, KMax: 3, Workers: 1}
	out := newResultSet(cfg).table4(context.Background()).Render()
	if !strings.Contains(out, "hw <= 1") || !strings.Contains(out, "VirtualBest") {
		t.Fatalf("table malformed:\n%s", out)
	}
}

// TestFigure3Data: Figure 3 plots the roster's three paper methods, one
// CSV row per result, and leaves the width ladder out.
func TestFigure3Data(t *testing.T) {
	cfg := Config{Suite: tinySuite(), Timeout: 3 * time.Second, KMax: 3, Workers: 1}
	s := newResultSet(cfg)
	results, tab := s.roster(context.Background()), s.figure3(context.Background())
	csv := s.csv
	if !strings.HasPrefix(csv, "method,instance,edges,vertices,solved") {
		t.Fatalf("csv header wrong: %q", csv[:50])
	}
	paper := 0
	for _, r := range results {
		if r.Method != ladderName {
			paper++
		}
	}
	if paper != 3*len(cfg.Suite) {
		t.Fatalf("%d paper-method results, want 3 per instance of %d", paper, len(cfg.Suite))
	}
	if len(strings.Split(strings.TrimSpace(csv), "\n")) != paper+1 {
		t.Fatal("csv row count mismatch")
	}
	if !strings.Contains(tab.Render(), "DetK-s") {
		t.Fatalf("figure table malformed:\n%s", tab.Render())
	}
	if strings.Contains(csv, ladderName) || strings.Contains(tab.Render(), "Ladder") {
		t.Fatalf("figure 3 has a ladder column:\n%s", tab.Render())
	}
}

// TestSweepViewsAgree: the views of one result set describe the same
// runs. Per method, Table 3's counts over all widths add up to Table 1's
// Total solved count, and Table 5's 1× count is Table 1's LEO Total.
func TestSweepViewsAgree(t *testing.T) {
	cfg := Config{Suite: tinySuite(), Timeout: 3 * time.Second, KMax: 4, Workers: 2}
	ctx := context.Background()
	s := newResultSet(cfg)
	results := s.roster(ctx)
	if s.err != nil {
		t.Fatal(s.err)
	}
	t1, t3 := s.table1(ctx), s.table3(ctx)
	total1 := func(col string) int {
		t.Helper()
		return cell(t, t1, rowOf(t, t1, "Total"), col)
	}
	for _, m := range methodOrder(results) {
		p := shortName(m)
		sum := 0
		for i := range t3.Rows {
			sum += cell(t, t3, i, p)
		}
		if want := total1(p + "#"); sum != want {
			t.Errorf("%s: Table 3 counts sum to %d, Table 1 Total reads %d", p, sum, want)
		}
	}

	t5 := s.table5(ctx)
	if s.err != nil {
		t.Fatal(s.err)
	}
	total := rowOf(t, t5, "Total")
	if once := cell(t, t5, total, "solved(10x)") - cell(t, t5, total, "delta vs 1x"); once != total1("LEO#") {
		t.Errorf("Table 5's 1x Total is %d, Table 1's LEO Total %d:\n%s%s", once, total1("LEO#"), t5.Render(), t1.Render())
	}
}

// rowOf returns the index of tab's row whose first cell is first.
func rowOf(t *testing.T, tab *Table, first string) int {
	t.Helper()
	for i, row := range tab.Rows {
		if row[0] == first {
			return i
		}
	}
	t.Fatalf("no %q row:\n%s", first, tab.Render())
	return -1
}

// cell returns the integer in row i under header col.
func cell(t *testing.T, tab *Table, i int, col string) int {
	t.Helper()
	j := slices.Index(tab.Headers, col)
	if j < 0 {
		t.Fatalf("no %q column:\n%s", col, tab.Render())
	}
	v, err := strconv.Atoi(tab.Rows[i][j])
	if err != nil {
		t.Fatalf("%q row %d: %v", col, i, err)
	}
	return v
}

func TestDepthExperiment(t *testing.T) {
	tab := DepthExperiment(context.Background(), []int{8, 16})
	out := tab.Render()
	if !strings.Contains(out, "observed depth") {
		t.Fatalf("depth table malformed:\n%s", out)
	}
	if strings.Contains(out, "error") {
		t.Fatalf("depth experiment failed:\n%s", out)
	}
}

// TestGHDComparisonSmall: the GHD comparison runs the hybrid and
// BalancedGo on the instances with at most 30 edges and leaves a larger
// one out.
func TestGHDComparisonSmall(t *testing.T) {
	suite := tinySuite()[:4]
	var big hyperbench.Instance
	for _, in := range hyperbench.Suite(hyperbench.Config{Scale: 1}) {
		if in.Edges() > 30 {
			big = in
			break
		}
	}
	cfg := Config{Suite: append(suite, big), Timeout: 3 * time.Second, KMax: 3, Workers: 1}
	s := newResultSet(cfg)
	run := s.exec
	ran := map[string]int{}
	s.exec = func(ctx context.Context, m Method, in hyperbench.Instance, timeout time.Duration) Result {
		ran[in.Name]++
		return run(ctx, m, in, timeout)
	}
	out := s.ghd(context.Background()).Render()
	if s.err != nil {
		t.Fatal(s.err)
	}
	if !strings.Contains(out, "GHD width < HD width") {
		t.Fatalf("comparison table malformed:\n%s", out)
	}
	if ran[big.Name] != 0 {
		t.Fatalf("%s has %d edges, yet the GHD comparison ran it", big.Name, big.Edges())
	}
	for _, in := range suite {
		if ran[in.Name] != 2 {
			t.Fatalf("%s ran %d times, want the hybrid and BalancedGo once each", in.Name, ran[in.Name])
		}
	}
}

func TestFigure1Smoke(t *testing.T) {
	// A minimal HBlarge-sim slice: one large known-width instance.
	var suite []hyperbench.Instance
	for _, in := range hyperbench.Suite(hyperbench.Config{Scale: 1}) {
		if in.Edges() > 50 && in.KnownHW == 2 {
			suite = append(suite, in)
		}
		if len(suite) == 2 {
			break
		}
	}
	if len(suite) == 0 {
		t.Fatal("no large known-width instances in suite")
	}
	cfg := Config{Suite: suite, Timeout: 5 * time.Second, KMax: 3, Workers: 2}
	s := newResultSet(cfg)
	tab := s.figure1(context.Background())
	if s.err != nil {
		t.Fatal(s.err)
	}
	out := tab.Render()
	if !strings.Contains(out, "cores") {
		t.Fatalf("figure table malformed:\n%s", out)
	}
	if len(tab.Rows) < 2 {
		t.Fatalf("%d core counts, want at least 2:\n%s", len(tab.Rows), out)
	}
	for i := range tab.Rows {
		if cell(t, tab, i, "log-k(Hybrid) timeouts") != 0 {
			t.Fatalf("hybrid should solve the instances at this budget:\n%s", out)
		}
	}
}

func TestTable2Smoke(t *testing.T) {
	var suite []hyperbench.Instance
	for _, in := range hyperbench.Suite(hyperbench.Config{Scale: 1}) {
		if in.Edges() > 50 && in.KnownHW == 2 {
			suite = append(suite, in)
			break
		}
	}
	cfg := Config{Suite: suite, Timeout: 5 * time.Second, KMax: 3, Workers: 2}
	s := newResultSet(cfg)
	tab := s.table2(context.Background())
	if s.err != nil {
		t.Fatal(s.err)
	}
	if !strings.Contains(tab.Render(), "WeightedCount") {
		t.Fatalf("table malformed:\n%s", tab.Render())
	}
}

func TestTable5Smoke(t *testing.T) {
	cfg := Config{Suite: tinySuite()[:3], Timeout: 2 * time.Second, KMax: 3, Workers: 1}
	s := newResultSet(cfg)
	tab := s.table5(context.Background())
	if s.err != nil {
		t.Fatal(s.err)
	}
	if !strings.Contains(tab.Render(), "delta vs 1x") {
		t.Fatalf("table malformed:\n%s", tab.Render())
	}
}

func TestMethodLogKName(t *testing.T) {
	if MethodLogKHybrid(2, logk.HybridWeightedCount, 0).Name != "log-k-decomp Hybrid" {
		t.Fatal("unexpected method name")
	}
	if shortName("log-k-decomp Hybrid") != "Hyb" {
		t.Fatal("short name mapping broken")
	}
}
