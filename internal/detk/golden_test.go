package detk

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/decomp"
	"repro/internal/hyperbench"
	"repro/internal/hypergraph"
)

var updateGolden = flag.Bool("update", false, "rewrite the package's golden files")

const (
	goldenPath = "testdata/decomp_scale1_seed2022.golden"
	// goldenMaxEdges bounds the instances the golden covers.
	goldenMaxEdges = 70
	// goldenRecordCap is the per-run time limit when recording: a run
	// that does not finish within it is left out of the golden.
	goldenRecordCap = 2 * time.Second
	// goldenCheckCap only keeps a broken search from hanging the test.
	goldenCheckCap = 2 * time.Minute
)

// goldenRun renders one det-k run as the golden records it: a header
// line with the instance, k and the decide answer, then the witness's
// Decomp.String(). A witness must pass CheckHD and CheckWidth.
func goldenRun(name string, h *hypergraph.Hypergraph, k int, limit time.Duration) (string, bool, error) {
	ctx, cancel := context.WithTimeout(context.Background(), limit)
	defer cancel()
	d, ok, err := New(h, k).Decompose(ctx)
	if err != nil {
		return "", false, err
	}
	if !ok {
		return fmt.Sprintf("== %s k=%d no\n", name, k), false, nil
	}
	if err := decomp.CheckHD(d); err != nil {
		return "", false, fmt.Errorf("%s k=%d: invalid witness: %v", name, k, err)
	}
	if err := decomp.CheckWidth(d, k); err != nil {
		return "", false, fmt.Errorf("%s k=%d: %v", name, k, err)
	}
	return fmt.Sprintf("== %s k=%d yes\n%s", name, k, d), true, nil
}

// recordGolden runs det-k at k = hw - 1 and k = hw on every instance of
// HyperBench-sim {Scale: 1, Seed: 2022} with at most goldenMaxEdges
// edges. hw is the generator's KnownHW, or else the first k det-k
// accepts after refuting every smaller k. Runs that exceed
// goldenRecordCap, and instances whose hw that leaves unknown, are
// left out.
func recordGolden(t *testing.T) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# det-k-decomp on HyperBench-sim {Scale: 1, Seed: 2022}, |E| <= %d, k = hw-1 and hw\n", goldenMaxEdges)
	for _, in := range hyperbench.Suite(hyperbench.Config{Scale: 1, Seed: 2022}) {
		if in.Edges() > goldenMaxEdges {
			continue
		}
		runs := map[int]string{}
		hw := in.KnownHW
		for k := 1; hw == 0; k++ {
			run, ok, err := goldenRun(in.Name, in.H, k, goldenRecordCap)
			if errors.Is(err, context.DeadlineExceeded) {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			runs[k] = run
			if ok {
				hw = k
			}
		}
		if hw == 0 {
			t.Logf("%s: hw unknown within %v, left out", in.Name, goldenRecordCap)
			continue
		}
		for k := max(hw-1, 1); k <= hw; k++ {
			run, seen := runs[k]
			if !seen {
				var err error
				run, _, err = goldenRun(in.Name, in.H, k, goldenRecordCap)
				if errors.Is(err, context.DeadlineExceeded) {
					t.Logf("%s k=%d: over %v, left out", in.Name, k, goldenRecordCap)
					continue
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			b.WriteString(run)
		}
	}
	return b.String()
}

// TestDetKSameDecompositions pins det-k-decomp's decide answers and
// witnesses byte for byte: the golden holds, for each recorded
// (instance, k), the answer and Decomp.String() of the first accepted
// label tree. A change to the enumeration order, to which labels are
// accepted or to the bag of any node shows up here. The committed file
// was recorded before search skipped refuted bags and drew the last
// λ-edge from the connector, so it shows that neither cut changed an
// answer or a witness. Refresh only for an intended change of the
// search, with `go test ./internal/detk -run SameDecompositions -update`.
func TestDetKSameDecompositions(t *testing.T) {
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
		var name, answer string
		var k int
		if _, err := fmt.Sscanf(wantRun, "== %s k=%d %s\n", &name, &k, &answer); err != nil {
			t.Fatalf("bad golden header in %q: %v", wantRun, err)
		}
		h := byName[name]
		if h == nil {
			t.Fatalf("golden names %s, which the suite does not hold", name)
		}
		got, _, err := goldenRun(name, h, k, goldenCheckCap)
		if err != nil {
			t.Fatalf("%s k=%d: %v", name, k, err)
		}
		if got != wantRun {
			t.Errorf("%s k=%d diverges from the golden:\n got:\n%s want:\n%s", name, k, got, wantRun)
		}
	}
	t.Logf("%d runs match the golden", len(runs))
}
