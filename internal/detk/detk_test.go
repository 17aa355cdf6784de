package detk

import (
	"context"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"repro/internal/bitset"
	"repro/internal/decomp"
	"repro/internal/ext"
	"repro/internal/hyperbench"
	"repro/internal/hypergraph"
)

func cycle(n int) *hypergraph.Hypergraph {
	var b hypergraph.Builder
	for i := 0; i < n; i++ {
		b.MustAddEdge("R"+strconv.Itoa(i+1), "x"+strconv.Itoa(i), "x"+strconv.Itoa((i+1)%n))
	}
	return b.Build()
}

func TestCycleWidths(t *testing.T) {
	ctx := context.Background()
	for _, n := range []int{3, 4, 8, 12} {
		h := cycle(n)
		if _, ok, err := New(h, 1).Decompose(ctx); err != nil || ok {
			t.Fatalf("cycle(%d) k=1: ok=%v err=%v, want rejection", n, ok, err)
		}
		d, ok, err := New(h, 2).Decompose(ctx)
		if err != nil || !ok {
			t.Fatalf("cycle(%d) k=2: ok=%v err=%v", n, ok, err)
		}
		if err := decomp.CheckHD(d); err != nil {
			t.Fatalf("cycle(%d): invalid HD: %v", n, err)
		}
		if err := decomp.CheckWidth(d, 2); err != nil {
			t.Fatal(err)
		}
	}
}

func TestAcyclicWidthOne(t *testing.T) {
	var b hypergraph.Builder
	b.MustAddEdge("center", "a", "b", "c")
	b.MustAddEdge("s1", "a", "p")
	b.MustAddEdge("s2", "b", "q")
	h := b.Build()
	d, ok, err := New(h, 1).Decompose(context.Background())
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	if err := decomp.CheckHD(d); err != nil {
		t.Fatal(err)
	}
	if d.Width() != 1 {
		t.Fatalf("width = %d, want 1", d.Width())
	}
}

// TestCacheIsUsed: a refutation that meets a refuted state again
// answers it from the negative cache.
func TestCacheIsUsed(t *testing.T) {
	s := New(scale3Instance(t, "app-clique-5#"), 2)
	if _, ok, err := s.Decompose(context.Background()); err != nil || ok {
		t.Fatalf("k=2: ok=%v err=%v, want refutation", ok, err)
	}
	if s.Stats.CacheHits == 0 {
		t.Fatalf("k=2 refutation made no cache hits: %+v", s.Stats)
	}
}

// setOf returns a vertex set of capacity n holding elems.
func setOf(n int, elems []int) *bitset.Set {
	s := bitset.New(n)
	for _, e := range elems {
		s.Set(e)
	}
	return s
}

func TestDecomposeExtWithSpecial(t *testing.T) {
	// The extended subhypergraph of Call 1.2 from Appendix B:
	// E' = {R3,R4,R5}, Sp = {s1 = {x1,x6,x7}}, Conn = {x1,x3}.
	h := cycle(10)
	n := h.NumVertices()
	s1 := ext.Special{ID: 77, Vertices: setOf(n, []int{0, 5, 6})}
	g := &ext.Graph{H: h, Edges: []int{2, 3, 4}, Specials: []ext.Special{s1}}
	conn := setOf(n, []int{0, 2})

	s := New(h, 2)
	node, ok, err := s.DecomposeExt(context.Background(), g, conn)
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	d := &decomp.Decomp{H: h, Root: node}
	if err := decomp.CheckExtended(d, g, conn); err != nil {
		t.Fatalf("invalid extended HD: %v\n%s", err, d)
	}
}

// TestDetKRefutationIgnoresSpecialIDs: a refutation depends on what a
// special edge holds, not on its ID, so the same extended subhypergraph
// with a renumbered special is answered from the negative cache.
func TestDetKRefutationIgnoresSpecialIDs(t *testing.T) {
	h := cycle(10)
	n := h.NumVertices()
	withSpecial := func(id int) *ext.Graph {
		sp := ext.Special{ID: id, Vertices: setOf(n, []int{0, 5, 6})}
		return &ext.Graph{H: h, Edges: []int{2, 3, 4}, Specials: []ext.Special{sp}}
	}
	conn := setOf(n, []int{0, 2})
	ctx := context.Background()

	s := New(h, 1)
	if _, ok, err := s.DecomposeExt(ctx, withSpecial(77), conn); err != nil || ok {
		t.Fatalf("special 77: ok=%v err=%v, want refutation", ok, err)
	}
	first := s.Stats
	if first.Candidates == 0 {
		t.Fatalf("special 77: refuted without forming a label: %+v", first)
	}
	if _, ok, err := s.DecomposeExt(ctx, withSpecial(78), conn); err != nil || ok {
		t.Fatalf("special 78: ok=%v err=%v, want refutation", ok, err)
	}
	if s.Stats.CacheHits != first.CacheHits+1 || s.Stats.Candidates != first.Candidates {
		t.Fatalf("special 78 searched again: stats %+v after %+v", s.Stats, first)
	}
}

func TestDecomposeExtTwoSpecialsNoEdges(t *testing.T) {
	// No edges and two specials is unsatisfiable (negative base case).
	h := cycle(6)
	n := h.NumVertices()
	g := &ext.Graph{H: h, Specials: []ext.Special{
		{ID: 1, Vertices: setOf(n, []int{0, 1})},
		{ID: 2, Vertices: setOf(n, []int{3, 4})},
	}}
	_, ok, err := New(h, 3).DecomposeExt(context.Background(), g, h.NewVertexSet())
	if err != nil || ok {
		t.Fatalf("ok=%v err=%v, want clean rejection", ok, err)
	}
}

func TestCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// Large enough that the search cannot finish before the first check.
	_, _, err := New(cycle(30), 2).Decompose(ctx)
	if err == nil {
		t.Fatal("cancelled context should surface an error")
	}
}

func TestRandomInstancesProduceValidHDs(t *testing.T) {
	ctx := context.Background()
	for seed := 0; seed < 30; seed++ {
		r := rand.New(rand.NewSource(int64(seed)))
		var b hypergraph.Builder
		nv := 3 + r.Intn(7)
		ne := 2 + r.Intn(8)
		for e := 0; e < ne; e++ {
			arity := 1 + r.Intn(min(3, nv))
			seen := map[int]bool{}
			var names []string
			for len(names) < arity {
				v := r.Intn(nv)
				if !seen[v] {
					seen[v] = true
					names = append(names, "v"+strconv.Itoa(v))
				}
			}
			b.MustAddEdge("", names...)
		}
		h := b.Build()
		for k := 1; k <= 3; k++ {
			d, ok, err := New(h, k).Decompose(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				continue
			}
			if err := decomp.CheckHD(d); err != nil {
				t.Fatalf("seed %d k=%d: %v\n%s", seed, k, err, h)
			}
			if err := decomp.CheckWidth(d, k); err != nil {
				t.Fatal(err)
			}
			break
		}
	}
}

// TestDetKAllocBudget pins the enumeration kernel's allocation budget on
// a det-k-decomp refutation: the λ-label count is exact (the search and
// its order are fixed), while the covers, the bag scope, the bag, the
// child interfaces and the [χ]-components live in per-depth frames
// instead of being allocated per label (cloning the cover per label cost
// about 246k allocations here). A label's last edge is drawn only from
// the edges holding a connector vertex the other edges miss, so labels
// that leave that vertex uncovered are not counted. The witness at
// k = 3 must still be a valid HD, and its search, whose successful
// fragments are not cached, has a budget of its own (caching and
// cloning every fragment cost 1,501 allocations).
func TestDetKAllocBudget(t *testing.T) {
	h := scale3Instance(t, "syn-cylinder-10#")
	ctx := context.Background()

	const (
		wantLabels = 29423
		maxAllocs  = 2816

		wantWitnessLabels = 1298
		maxWitnessAllocs  = 740
	)
	var s *Solver
	allocs := testing.AllocsPerRun(1, func() {
		s = New(h, 2)
		if _, ok, err := s.Decompose(ctx); err != nil || ok {
			t.Fatalf("k=2: ok=%v err=%v, want refutation", ok, err)
		}
	})
	t.Logf("k=2 refutation: %d λ-labels, %.0f allocations", s.Stats.Candidates, allocs)
	if s.Stats.Candidates != wantLabels {
		t.Errorf("k=2 enumerated %d λ-labels, want exactly %d", s.Stats.Candidates, wantLabels)
	}
	if allocs > maxAllocs {
		t.Errorf("k=2 refutation allocated %.0f times, budget %d", allocs, maxAllocs)
	}

	var d *decomp.Decomp
	allocs = testing.AllocsPerRun(1, func() {
		var ok bool
		var err error
		s = New(h, 3)
		d, ok, err = s.Decompose(ctx)
		if err != nil || !ok {
			t.Fatalf("k=3: ok=%v err=%v, want a witness", ok, err)
		}
	})
	t.Logf("k=3 witness: %d λ-labels, %.0f allocations", s.Stats.Candidates, allocs)
	if s.Stats.Candidates != wantWitnessLabels {
		t.Errorf("k=3 enumerated %d λ-labels, want exactly %d", s.Stats.Candidates, wantWitnessLabels)
	}
	if allocs > maxWitnessAllocs {
		t.Errorf("k=3 witness allocated %.0f times, budget %d", allocs, maxWitnessAllocs)
	}
	if err := decomp.CheckHD(d); err != nil {
		t.Fatalf("k=3 witness invalid: %v", err)
	}
	if err := decomp.CheckWidth(d, 3); err != nil {
		t.Fatal(err)
	}
}

// scale3Instance returns the first instance of HyperBench-sim
// {Scale: 3, Seed: 1} whose name starts with prefix.
func scale3Instance(t testing.TB, prefix string) *hypergraph.Hypergraph {
	for _, in := range hyperbench.Suite(hyperbench.Config{Scale: 3, Seed: 1}) {
		if strings.HasPrefix(in.Name, prefix) {
			return in.H
		}
	}
	t.Fatalf("%s missing from HyperBench-sim {Scale: 3, Seed: 1}", prefix)
	return nil
}

// TestDetKRefutesBagOnce pins how many bags det-k-decomp splits into
// [χ]-components on three k = 2 refutations. All labels of one search
// call share the subproblem and its connector, so a bag refuted once is
// never split again in that call; without that check the counts are
// 295, 750 and 1,635.
func TestDetKRefutesBagOnce(t *testing.T) {
	for _, c := range []struct {
		prefix     string
		wantSplits int64
	}{
		{"app-clique-5#", 105},
		{"app-clique-6#", 260},
		{"app-cliquechain-3-5#", 971},
	} {
		s := New(scale3Instance(t, c.prefix), 2)
		if _, ok, err := s.Decompose(context.Background()); err != nil || ok {
			t.Fatalf("%s k=2: ok=%v err=%v, want refutation", c.prefix, ok, err)
		}
		t.Logf("%s k=2: %d splits, %d λ-labels", c.prefix, s.Stats.Splits, s.Stats.Candidates)
		if s.Stats.Splits != c.wantSplits {
			t.Errorf("%s k=2 split %d bags, want exactly %d", c.prefix, s.Stats.Splits, c.wantSplits)
		}
	}
}

// permuted returns h with its edges in shuffled order, the vertices of
// each edge shuffled and the vertex ids renumbered by first appearance:
// an isomorphic copy det-k-decomp searches in a different order.
func permuted(r *rand.Rand, h *hypergraph.Hypergraph) *hypergraph.Hypergraph {
	var b hypergraph.Builder
	for _, e := range r.Perm(h.NumEdges()) {
		vs := h.EdgeVertices(e)
		r.Shuffle(len(vs), func(x, y int) { vs[x], vs[y] = vs[y], vs[x] })
		names := make([]string, len(vs))
		for i, v := range vs {
			names[i] = h.VertexName(v)
		}
		b.MustAddEdge(h.EdgeName(e), names...)
	}
	return b.Build()
}

// BenchmarkDetKRefute sizes det-k-decomp on the k = 2 refutations that
// dominate cold /decompose traffic: 10 seeded permutations each of four
// HyperBench-sim {Scale: 3, Seed: 1} classes. Compare two commits with
// alternating `go test -run=NONE -bench=DetKRefute -count=5` runs.
func BenchmarkDetKRefute(b *testing.B) {
	for _, prefix := range []string{"syn-cylinder-10#", "app-cliquechain-3-5#", "syn-cylinder-8#", "app-clique-5#"} {
		h := scale3Instance(b, prefix)
		r := rand.New(rand.NewSource(1))
		perms := make([]*hypergraph.Hypergraph, 10)
		for i := range perms {
			perms[i] = permuted(r, h)
		}
		b.Run(strings.TrimSuffix(prefix, "#"), func(b *testing.B) {
			ctx := context.Background()
			for i := 0; i < b.N; i++ {
				for _, p := range perms {
					if _, ok, err := New(p, 2).Decompose(ctx); err != nil || ok {
						b.Fatalf("k=2: ok=%v err=%v, want refutation", ok, err)
					}
				}
			}
		})
	}
}
