package logk

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/decomp"
	"repro/internal/detk"
	"repro/internal/hyperbench"
	"repro/internal/hypergraph"
)

var updateGolden = flag.Bool("update", false, "rewrite log-k's golden decompositions")

const (
	goldenPath = "testdata/decomp_scale1_seed2022.golden"
	// goldenMaxEdges bounds the instances the golden covers.
	goldenMaxEdges = 70
	// goldenMaxRanks bounds the runs the golden covers: a run that
	// enumerates more λ(c) and λ(p) ranks than this, or does not finish
	// within goldenRecordCap, is left out when recording.
	goldenMaxRanks  = 20_000_000
	goldenRecordCap = 10 * time.Second
	// goldenHWCap bounds det-k's search for an unknown hw when recording.
	goldenHWCap = 2 * time.Second
	// goldenCheckCap only keeps a broken search from hanging the test.
	goldenCheckCap = 2 * time.Minute
)

// goldenSolvers are the two configurations the golden pins, each at
// one worker: pure log-k-decomp and the paper's hybrid.
var goldenSolvers = []struct {
	name   string
	hybrid HybridMetric
}{
	{"logk", HybridNone},
	{"hybrid", PaperHybrid},
}

// goldenRun renders one run as the golden records it: a header line
// with the instance, k, the solver, the decide answer and the exact
// Candidates, DetKCandidates and ParentCands, then the witness's
// Decomp.String(). A witness must pass CheckHD and CheckWidth. st is
// the run's effort counters.
func goldenRun(name string, h *hypergraph.Hypergraph, k int, solver string, hybrid HybridMetric, limit time.Duration) (run string, st Stats, err error) {
	ctx, cancel := context.WithTimeout(context.Background(), limit)
	defer cancel()
	s := New(h, Options{K: k, Workers: 1, Hybrid: hybrid, HybridThreshold: PaperHybridThreshold})
	d, ok, err := s.Decompose(ctx)
	if err != nil {
		return "", st, err
	}
	st = s.Stats()
	answer := "no"
	if ok {
		answer = "yes"
		if err := decomp.CheckHD(d); err != nil {
			return "", st, fmt.Errorf("%s k=%d %s: invalid witness: %v", name, k, solver, err)
		}
		if err := decomp.CheckWidth(d, k); err != nil {
			return "", st, fmt.Errorf("%s k=%d %s: %v", name, k, solver, err)
		}
	}
	run = fmt.Sprintf("== %s k=%d %s %s candidates=%d detk=%d parents=%d\n", name, k, solver, answer, st.Candidates, st.DetKCandidates, st.ParentCands)
	if ok {
		run += d.String()
	}
	return run, st, nil
}

// recordGolden runs both golden solvers at k = hw - 1 and k = hw on
// every instance of HyperBench-sim {Scale: 1, Seed: 2022} with at most
// goldenMaxEdges edges. hw is the generator's KnownHW, or else the
// first k det-k-decomp accepts within goldenHWCap; instances whose hw
// that leaves unknown are left out, and so are runs over
// goldenMaxRanks ranks or goldenRecordCap.
func recordGolden(t *testing.T) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# log-k-decomp (logk) and PaperHybrid (hybrid), 1 worker, on HyperBench-sim {Scale: 1, Seed: 2022}, |E| <= %d, k = hw-1 and hw, <= %d ranks\n", goldenMaxEdges, goldenMaxRanks)
	for _, in := range hyperbench.Suite(hyperbench.Config{Scale: 1, Seed: 2022}) {
		if in.Edges() > goldenMaxEdges {
			continue
		}
		hw := in.KnownHW
		for k := 1; hw == 0; k++ {
			ctx, cancel := context.WithTimeout(context.Background(), goldenHWCap)
			_, ok, err := detk.New(in.H, k).Decompose(ctx)
			cancel()
			if errors.Is(err, context.DeadlineExceeded) {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			if ok {
				hw = k
			}
		}
		if hw == 0 {
			t.Logf("%s: hw unknown within %v, left out", in.Name, goldenHWCap)
			continue
		}
		for k := max(hw-1, 1); k <= hw; k++ {
			for _, sv := range goldenSolvers {
				run, st, err := goldenRun(in.Name, in.H, k, sv.name, sv.hybrid, goldenRecordCap)
				if errors.Is(err, context.DeadlineExceeded) {
					t.Logf("%s k=%d %s: over %v, left out", in.Name, k, sv.name, goldenRecordCap)
					continue
				}
				if err != nil {
					t.Fatal(err)
				}
				if ranks := st.Candidates + st.DetKCandidates + st.ParentCands; ranks > goldenMaxRanks {
					t.Logf("%s k=%d %s: %d ranks, left out", in.Name, k, sv.name, ranks)
					continue
				}
				b.WriteString(run)
			}
		}
	}
	return b.String()
}

// TestLogKSameDecompositions pins log-k-decomp's search byte for byte:
// the golden holds, for each recorded (instance, k, solver), the
// decide answer, the exact Candidates and ParentCands, and the
// witness's Decomp.String(). A change to either candidate loop's order
// or skips, to which separator is accepted, to how a separator's
// components are recursed into or stitched, or to the hybrid hand-off
// shows up here. Refresh only for an intended change of the search,
// with `go test ./internal/logk -run SameDecompositions -update`.
//
// The pure log-k runs are also Theorem 4.1's wall: their recursion
// depth stays within ⌈log₂|E|⌉ + 2. That is the halving argument's
// bound, as TestRecursionDepthLogarithmic derives it: every recursive
// call at least halves the subproblem, s → ⌈s/2⌉, which takes
// ⌈log₂|E|⌉ levels to reach a base case, plus the initial call and the
// base case itself.
func TestLogKSameDecompositions(t *testing.T) {
	if *updateGolden {
		got := recordGolden(t)
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden file rewritten: %s", goldenPath)
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("golden file missing (run with -update to create): %v", err)
	}
	byName := map[string]*hypergraph.Hypergraph{}
	for _, in := range hyperbench.Suite(hyperbench.Config{Scale: 1, Seed: 2022}) {
		byName[in.Name] = in.H
	}
	hybrids := map[string]HybridMetric{}
	for _, sv := range goldenSolvers {
		hybrids[sv.name] = sv.hybrid
	}
	// Each run is its "== " header line and the witness lines below it.
	var runs []string
	for _, line := range strings.SplitAfter(string(want), "\n") {
		switch {
		case strings.HasPrefix(line, "#") || line == "":
		case strings.HasPrefix(line, "== "):
			runs = append(runs, line)
		case len(runs) > 0:
			runs[len(runs)-1] += line
		}
	}
	if len(runs) == 0 {
		t.Fatalf("%s holds no runs", goldenPath)
	}
	for _, wantRun := range runs {
		var name, solver string
		var k int
		if _, err := fmt.Sscanf(wantRun, "== %s k=%d %s ", &name, &k, &solver); err != nil {
			t.Fatalf("bad golden header in %q: %v", wantRun, err)
		}
		h := byName[name]
		if h == nil {
			t.Fatalf("golden names %s, which the suite does not hold", name)
		}
		hybrid, known := hybrids[solver]
		if !known {
			t.Fatalf("golden names solver %q, want logk or hybrid", solver)
		}
		got, st, err := goldenRun(name, h, k, solver, hybrid, goldenCheckCap)
		if err != nil {
			t.Fatalf("%s k=%d %s: %v", name, k, solver, err)
		}
		if bound := int64(math.Ceil(math.Log2(float64(h.NumEdges())))) + 2; hybrid == HybridNone && st.MaxDepth > bound {
			t.Errorf("%s k=%d: recursion depth %d exceeds ⌈log₂ %d⌉ + 2 = %d", name, k, st.MaxDepth, h.NumEdges(), bound)
		}
		if got != wantRun {
			t.Errorf("%s k=%d %s diverges from the golden:\n got:\n%s want:\n%s", name, k, solver, got, wantRun)
		}
	}
	t.Logf("%d runs match the golden", len(runs))
}

// TestDetKCandidatesSplit: Stats.DetKCandidates moved det-k-decomp's
// λ-labels out of Candidates and changed nothing else. Row by row, the
// golden's candidates plus detk must equal the candidates recorded
// before the split (testdata/candidates_before_split.txt, the old
// golden's run headers), with the same runs, answers and parents.
func TestDetKCandidatesSplit(t *testing.T) {
	headers := func(path string) []string {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, line := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(line, "== ") {
				out = append(out, line)
			}
		}
		return out
	}
	before, after := headers("testdata/candidates_before_split.txt"), headers(goldenPath)
	if len(before) == 0 || len(before) != len(after) {
		t.Fatalf("%d runs before the split, %d in the golden", len(before), len(after))
	}
	for i := range before {
		var name, solver, answer string
		var k int
		var cands, parents int64
		if _, err := fmt.Sscanf(before[i], "== %s k=%d %s %s candidates=%d parents=%d", &name, &k, &solver, &answer, &cands, &parents); err != nil {
			t.Fatalf("bad header %q: %v", before[i], err)
		}
		var name2, solver2, answer2 string
		var k2 int
		var cands2, detk2, parents2 int64
		if _, err := fmt.Sscanf(after[i], "== %s k=%d %s %s candidates=%d detk=%d parents=%d", &name2, &k2, &solver2, &answer2, &cands2, &detk2, &parents2); err != nil {
			t.Fatalf("bad header %q: %v", after[i], err)
		}
		if name != name2 || k != k2 || solver != solver2 || answer != answer2 || parents != parents2 || cands != cands2+detk2 {
			t.Errorf("row %d: %q before the split, %q now", i, before[i], after[i])
		}
	}
}
