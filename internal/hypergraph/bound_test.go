package hypergraph_test

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/hyperbench"
	"repro/internal/hypergraph"
)

// fullBound is WidthLowerBound without a cap below the trivial hw ≤ |E|.
func fullBound(t *testing.T, h *hypergraph.Hypergraph) int {
	t.Helper()
	lb, err := h.WidthLowerBound(context.Background(), h.NumEdges())
	if err != nil {
		t.Fatal(err)
	}
	return lb
}

// TestStructuralBoundSound: the structural lower bound never exceeds a
// width some decomposition reaches. It must be at most KnownHW on every
// HyperBench-sim instance at scales 1–4, and at most the width of every
// witness in log-k-decomp's and det-k-decomp's goldens. The test logs
// how often the bound is exact.
func TestStructuralBoundSound(t *testing.T) {
	for scale := 1; scale <= 4; scale++ {
		known, exact := 0, 0
		for _, in := range hyperbench.Suite(hyperbench.Config{Scale: scale, Seed: 1}) {
			if in.KnownHW == 0 {
				continue
			}
			known++
			lb := fullBound(t, in.H)
			if lb > in.KnownHW {
				t.Fatalf("scale %d %s: bound %d above KnownHW %d", scale, in.Name, lb, in.KnownHW)
			}
			if lb == in.KnownHW {
				exact++
			}
		}
		t.Logf("scale %d: bound equals hw on %d of %d instances of known width", scale, exact, known)
	}

	byName := map[string]*hypergraph.Hypergraph{}
	for _, in := range hyperbench.Suite(hyperbench.Config{Scale: 1, Seed: 2022}) {
		byName[in.Name] = in.H
	}
	for _, path := range []string{
		"../logk/testdata/decomp_scale1_seed2022.golden",
		"../detk/testdata/decomp_scale1_seed2022.golden",
	} {
		witnesses := 0
		for name, width := range goldenWitnesses(t, path) {
			h := byName[name]
			if h == nil {
				t.Fatalf("%s names %s, which the suite does not hold", path, name)
			}
			if lb := fullBound(t, h); lb > width {
				t.Fatalf("%s: bound %d above the width %d of a witness in %s", name, lb, width, path)
			}
			witnesses++
		}
		if witnesses == 0 {
			t.Fatalf("%s holds no witness", path)
		}
	}
}

// goldenWitnesses returns, per instance, the least width among the
// witnesses a solver golden records: each run is a "== name k=.. ..."
// header followed by one "lambda={..}  chi={..}" line per node.
func goldenWitnesses(t *testing.T, path string) map[string]int {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	least := map[string]int{}
	name, width := "", 0
	flush := func() {
		if name != "" && width > 0 && (least[name] == 0 || width < least[name]) {
			least[name] = width
		}
	}
	for _, line := range strings.Split(string(data), "\n") {
		trimmed := strings.TrimSpace(line)
		switch {
		case strings.HasPrefix(line, "== "):
			flush()
			if _, err := fmt.Sscanf(line, "== %s ", &name); err != nil {
				t.Fatalf("%s: bad header %q", path, line)
			}
			width = 0
		case strings.HasPrefix(trimmed, "lambda={"):
			lambda := strings.TrimPrefix(trimmed, "lambda={")
			lambda = lambda[:strings.IndexByte(lambda, '}')]
			width = max(width, strings.Count(lambda, ",")+1)
		}
	}
	flush()
	return least
}

// TestWidthLowerBoundLimit: the bound capped at limit is the full bound
// capped at limit+1, for every limit, so a caller asking whether the
// bound exceeds k learns exactly that; and a context that has ended
// stops the primal-graph terms with its error.
func TestWidthLowerBoundLimit(t *testing.T) {
	ctx := context.Background()
	for _, in := range hyperbench.Suite(hyperbench.Config{Scale: 1, Seed: 1}) {
		full := fullBound(t, in.H)
		for limit := 1; limit <= full+1; limit++ {
			got, err := in.H.WidthLowerBound(ctx, limit)
			if err != nil {
				t.Fatal(err)
			}
			if want := min(full, limit+1); got != want {
				t.Fatalf("%s limit %d: bound %d, want %d (uncapped %d)", in.Name, limit, got, want, full)
			}
		}
	}

	var b hypergraph.Builder
	name := func(i, j int) string { return fmt.Sprintf("g%d_%d", i, j) }
	for i := 0; i < 10; i++ {
		for j := 0; j < 10; j++ {
			if j+1 < 10 {
				b.MustAddEdge("", name(i, j), name(i, j+1))
			}
			if i+1 < 10 {
				b.MustAddEdge("", name(i, j), name(i+1, j))
			}
		}
	}
	grid := b.Build()
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if lb, err := grid.WidthLowerBound(cancelled, 4); !errors.Is(err, context.Canceled) {
		t.Fatalf("10x10 grid under a cancelled context: bound %d, err %v, want context.Canceled", lb, err)
	}
}
