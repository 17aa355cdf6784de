package hypergraph_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strconv"
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

// TestStructuralBoundSound: the structural lower bound is sound and, on
// the suite, exact. It equals KnownHW on every one of the 27·scale
// HyperBench-sim instances of known width at scales 1–4, so a term that
// overshoots or weakens fails here, and it is at most the width of
// every witness in log-k-decomp's and det-k-decomp's goldens.
func TestStructuralBoundSound(t *testing.T) {
	for scale := 1; scale <= 4; scale++ {
		known := 0
		for _, in := range hyperbench.Suite(hyperbench.Config{Scale: scale, Seed: 1}) {
			if in.KnownHW == 0 {
				continue
			}
			known++
			if lb := fullBound(t, in.H); lb != in.KnownHW {
				t.Fatalf("scale %d %s: bound %d, KnownHW %d", scale, in.Name, lb, in.KnownHW)
			}
		}
		if known != 27*scale {
			t.Fatalf("scale %d: %d instances of known width, want %d", scale, known, 27*scale)
		}
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

// renumber renders h as perfbench renders a decompose-cold request
// (shuffled edge order, shuffled vertex order inside each edge, fresh
// names for edges and vertices) and parses it back, so vertex ids
// follow the new order of first appearance.
func renumber(t testing.TB, r *rand.Rand, h *hypergraph.Hypergraph) *hypergraph.Hypergraph {
	t.Helper()
	vname := r.Perm(h.NumVertices())
	order := r.Perm(h.NumEdges())
	ename := r.Perm(h.NumEdges())
	var b strings.Builder
	for i, e := range order {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString("e" + strconv.Itoa(ename[i]) + "(")
		vs := h.EdgeVertices(e)
		r.Shuffle(len(vs), func(x, y int) { vs[x], vs[y] = vs[y], vs[x] })
		for j, v := range vs {
			if j > 0 {
				b.WriteByte(',')
			}
			b.WriteString("v" + strconv.Itoa(vname[v]))
		}
		b.WriteByte(')')
	}
	b.WriteByte('.')
	out, err := hypergraph.ParseString(b.String())
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// cylinders returns the cylinders C_n × K_2 of the HyperBench-sim suite
// at scale, seed 1.
func cylinders(scale int) []hyperbench.Instance {
	var out []hyperbench.Instance
	for _, in := range hyperbench.Suite(hyperbench.Config{Scale: scale, Seed: 1}) {
		if strings.HasPrefix(in.Name, "syn-cylinder-") {
			out = append(out, in)
		}
	}
	return out
}

// TestStructuralBoundPermutationInvariant: the bound does not hang on
// the generator's vertex order. On 50 seeded renumberings of every
// cylinder at scales 1–4 it is 3 = hw (its treewidth 4 needs a
// 5-vertex bag, which takes 3 binary edges); and on 50 of every
// instance of known width in decompose-cold's suite (scale 3, seed 1)
// it equals KnownHW.
func TestStructuralBoundPermutationInvariant(t *testing.T) {
	const renumberings = 50
	for scale := 1; scale <= 4; scale++ {
		for i, in := range cylinders(scale) {
			r := rand.New(rand.NewSource(int64(100*scale + i)))
			for j := 0; j < renumberings; j++ {
				if lb := fullBound(t, renumber(t, r, in.H)); lb != 3 {
					t.Fatalf("scale %d %s renumbering %d: bound %d, want 3", scale, in.Name, j, lb)
				}
			}
		}
	}
	for i, in := range hyperbench.Suite(hyperbench.Config{Scale: 3, Seed: 1}) {
		if in.KnownHW == 0 {
			continue
		}
		r := rand.New(rand.NewSource(int64(i)))
		for j := 0; j < renumberings; j++ {
			if lb := fullBound(t, renumber(t, r, in.H)); lb != in.KnownHW {
				t.Fatalf("%s renumbering %d: bound %d, KnownHW %d", in.Name, j, lb, in.KnownHW)
			}
		}
	}
}

// TestWidthLowerBoundLimit: the bound capped at limit is the full bound
// capped at limit+1, for every limit, so a caller asking whether the
// bound exceeds k learns exactly that, on the suite in the generator's
// order and on renumbered cylinders, whose bound comes from the tw ≤ 3
// term; and a context that has ended stops the primal-graph terms with
// its error.
func TestWidthLowerBoundLimit(t *testing.T) {
	ctx := context.Background()
	type instance struct {
		name string
		h    *hypergraph.Hypergraph
	}
	var all []instance
	for _, in := range hyperbench.Suite(hyperbench.Config{Scale: 1, Seed: 1}) {
		all = append(all, instance{in.Name, in.H})
	}
	r := rand.New(rand.NewSource(1))
	for _, in := range cylinders(1) {
		for j := 0; j < 5; j++ {
			all = append(all, instance{fmt.Sprintf("%s renumbered %d", in.Name, j), renumber(t, r, in.H)})
		}
	}
	for _, in := range all {
		full := fullBound(t, in.h)
		for limit := 1; limit <= full+1; limit++ {
			got, err := in.h.WidthLowerBound(ctx, limit)
			if err != nil {
				t.Fatal(err)
			}
			if want := min(full, limit+1); got != want {
				t.Fatalf("%s limit %d: bound %d, want %d (uncapped %d)", in.name, limit, got, want, full)
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
	// At limit 2 a 40-cycle runs only the tw ≤ 3 term: two binary edges
	// cover 4 vertices and 5 need 3, so tw ≥ 4 is all MMD+ could prove.
	// That term alone sees the context.
	var c hypergraph.Builder
	for i := 0; i < 40; i++ {
		c.MustAddEdge("", fmt.Sprintf("c%d", i), fmt.Sprintf("c%d", (i+1)%40))
	}
	if lb, err := c.Build().WidthLowerBound(cancelled, 2); !errors.Is(err, context.Canceled) {
		t.Fatalf("40-cycle under a cancelled context: bound %d, err %v, want context.Canceled", lb, err)
	}
}

// decomposeCold is perfbench's decompose-cold mix: an instance of the
// HyperBench-sim suite at scale 3, seed 1, per class, with its width.
var decomposeCold = []struct {
	name string
	hw   int
}{
	{"app-cycle-30", 2}, {"app-cycle-44", 2}, {"app-chorded-20-3", 2},
	{"app-chorded-34-3", 2}, {"app-tpc-8-2", 2}, {"app-tpc-18-3", 2},
	{"app-clique-5", 3}, {"app-clique-6", 3}, {"syn-cylinder-8", 3},
	{"syn-cylinder-10", 3}, {"syn-grid-3-10", 2}, {"syn-grid-3-11", 2},
	{"syn-ladder-28", 2}, {"app-cliquechain-3-5", 3},
}

// decomposeColdInstance returns one renumbering of the suite's first
// instance of the named class.
func decomposeColdInstance(t testing.TB, r *rand.Rand, name string) *hypergraph.Hypergraph {
	t.Helper()
	for _, in := range hyperbench.Suite(hyperbench.Config{Scale: 3, Seed: 1}) {
		if strings.HasPrefix(in.Name, name+"#") {
			return renumber(t, r, in.H)
		}
	}
	t.Fatalf("suite has no instance %s", name)
	return nil
}

// TestWidthLowerBoundAllocBudget: a bound and an acyclicity test work
// in pooled scratch that keeps every slice it grows, so once warm they
// allocate nothing, whatever the hypergraph or the terms that run. A
// renumbered syn-cylinder-10 runs all three at k = 3; the tw ≤ 3 term
// refutes app-clique-5 and app-cliquechain-3-5 at k = 2, and MMD+
// reaches the chain's width at k = 3.
func TestWidthLowerBoundAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled scratch at random")
	}
	const budget = 0
	ctx := context.Background()
	r := rand.New(rand.NewSource(1))
	for _, c := range []struct {
		name string
		ks   []int
	}{
		{"syn-cylinder-10", []int{2, 3}}, {"app-cycle-44", []int{2, 3}},
		{"app-clique-5", []int{2}}, {"app-cliquechain-3-5", []int{2, 3}},
	} {
		name := c.name
		h := decomposeColdInstance(t, r, name)
		for _, k := range c.ks {
			allocs := testing.AllocsPerRun(100, func() {
				if _, err := h.WidthLowerBound(ctx, k); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("%s k=%d: %.1f allocations per bound", name, k, allocs)
			if allocs > budget {
				t.Fatalf("%s k=%d: %.1f allocations per bound, budget %d", name, k, allocs, budget)
			}
		}
		allocs := testing.AllocsPerRun(100, func() {
			if h.IsAcyclic() {
				t.Fatalf("%s: acyclic", name)
			}
		})
		t.Logf("%s IsAcyclic: %.1f allocations per call", name, allocs)
		if allocs > budget {
			t.Fatalf("%s IsAcyclic: %.1f allocations per call, budget %d", name, allocs, budget)
		}
	}
}

// BenchmarkWidthLowerBound times the bound on one renumbering of each
// decompose-cold class, at the width it refutes (hw−1) and the one it
// witnesses (hw).
func BenchmarkWidthLowerBound(b *testing.B) {
	ctx := context.Background()
	r := rand.New(rand.NewSource(1))
	for _, c := range decomposeCold {
		h := decomposeColdInstance(b, r, c.name)
		for _, k := range []int{c.hw - 1, c.hw} {
			b.Run(fmt.Sprintf("%s/k=%d", c.name, k), func(b *testing.B) {
				for b.Loop() {
					if _, err := h.WidthLowerBound(ctx, k); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
