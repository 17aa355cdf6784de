package ext

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/bitset"
	"repro/internal/hypergraph"
)

func cycle(n int) *hypergraph.Hypergraph {
	var b hypergraph.Builder
	for i := 0; i < n; i++ {
		b.MustAddEdge("", vname(i), vname((i+1)%n))
	}
	return b.Build()
}

// newGraph builds a Graph over h from a copy of edges, sorted.
func newGraph(h *hypergraph.Hypergraph, edges []int, specials []Special) *Graph {
	e := append([]int(nil), edges...)
	sort.Ints(e)
	return &Graph{H: h, Edges: e, Specials: specials}
}

// setOf returns a vertex set of capacity n holding elems.
func setOf(n int, elems []int) *bitset.Set {
	s := bitset.New(n)
	for _, e := range elems {
		s.Set(e)
	}
	return s
}

func vname(i int) string {
	return string(rune('a'+i%26)) + string(rune('0'+i/26))
}

func TestRootGraph(t *testing.T) {
	h := cycle(5)
	g := Root(h)
	if g.Size() != 5 || len(g.Specials) != 0 {
		t.Fatalf("root graph wrong: size=%d", g.Size())
	}
	if g.Vertices().Len() != 5 {
		t.Fatalf("root vertices = %d", g.Vertices().Len())
	}
}

func TestComponentsOfCycle(t *testing.T) {
	// Separating a 10-cycle at the union of edges {0} and {5} (vertices
	// 0,1 and 5,6) splits the rest into two arcs.
	h := cycle(10)
	g := Root(h)
	sp := NewSplitter(h)
	u := h.Union([]int{0, 5})
	comps := sp.ComponentsInto(g, u, new(ComponentBuf))
	if len(comps) != 2 {
		t.Fatalf("got %d components, want 2", len(comps))
	}
	sizes := []int{comps[0].Size(), comps[1].Size()}
	if !(sizes[0] == 4 && sizes[1] == 4) {
		t.Fatalf("component sizes = %v, want [4 4]", sizes)
	}
	// Edges fully inside u (edges 0 and 5 themselves) are in no component.
	for _, c := range comps {
		for _, e := range c.Edges {
			if e == 0 || e == 5 {
				t.Fatalf("covered edge %d appears in a component", e)
			}
		}
	}
}

func TestComponentsEmptySeparator(t *testing.T) {
	h := cycle(6)
	g := Root(h)
	sp := NewSplitter(h)
	comps := sp.ComponentsInto(g, h.NewVertexSet(), new(ComponentBuf))
	if len(comps) != 1 || comps[0].Size() != 6 {
		t.Fatalf("cycle under empty separator should be one component, got %d", len(comps))
	}
}

func TestComponentsWithSpecials(t *testing.T) {
	// Path a-b, b-c plus a special {c,d} and a special {x} (disconnected).
	var b hypergraph.Builder
	b.MustAddEdge("e1", "a", "b")
	b.MustAddEdge("e2", "b", "c")
	b.MustAddEdge("iso", "x", "y")
	h := b.Build()
	cIdx := -1
	for v := 0; v < h.NumVertices(); v++ {
		if h.VertexName(v) == "c" {
			cIdx = v
		}
	}
	s1 := Special{ID: 100, Vertices: setOf(h.NumVertices(), []int{cIdx})}
	g := newGraph(h, []int{0, 1, 2}, []Special{s1})

	sp := NewSplitter(h)
	// Separate at "b": e1 joins nothing across b; e2 and the special share c.
	var bIdx int
	for v := 0; v < h.NumVertices(); v++ {
		if h.VertexName(v) == "b" {
			bIdx = v
		}
	}
	u := setOf(h.NumVertices(), []int{bIdx})
	comps := sp.ComponentsInto(g, u, new(ComponentBuf))
	if len(comps) != 3 {
		t.Fatalf("got %d components, want 3", len(comps))
	}
	// One component must contain both edge e2 and the special.
	found := false
	for _, c := range comps {
		if len(c.Edges) == 1 && c.Edges[0] == 1 && len(c.Specials) == 1 {
			found = true
		}
	}
	if !found {
		t.Fatal("edge e2 and special {c} should share a component")
	}
}

func TestSpecialsCoveredBy(t *testing.T) {
	h := cycle(4)
	s1 := Special{ID: 1, Vertices: setOf(h.NumVertices(), []int{0, 1})}
	s2 := Special{ID: 2, Vertices: setOf(h.NumVertices(), []int{2, 3})}
	g := newGraph(h, nil, []Special{s1, s2})
	u := setOf(h.NumVertices(), []int{0, 1, 2})
	cov := g.SpecialsCoveredBy(u)
	if len(cov) != 1 || cov[0].ID != 1 {
		t.Fatalf("covered = %v", cov)
	}
}

func TestSubtractAndWithSpecial(t *testing.T) {
	h := cycle(6)
	s1 := Special{ID: 7, Vertices: setOf(h.NumVertices(), []int{0})}
	g := newGraph(h, []int{0, 1, 2, 3}, []Special{s1})
	d := newGraph(h, []int{1, 3}, []Special{s1})
	r := g.Subtract(d)
	if !reflect.DeepEqual(r.Edges, []int{0, 2}) {
		t.Fatalf("Subtract edges = %v", r.Edges)
	}
	if len(r.Specials) != 0 {
		t.Fatalf("Subtract specials = %v", r.Specials)
	}
	r2 := r.WithSpecial(Special{ID: 9, Vertices: setOf(h.NumVertices(), []int{5})})
	if len(r2.Specials) != 1 || r2.Specials[0].ID != 9 {
		t.Fatal("WithSpecial failed")
	}
	if len(r.Specials) != 0 {
		t.Fatal("WithSpecial mutated receiver")
	}
}

func TestContainsEdge(t *testing.T) {
	h := cycle(6)
	g := newGraph(h, []int{1, 3, 5}, nil)
	for _, e := range []int{1, 3, 5} {
		if !g.ContainsEdge(e) {
			t.Fatalf("ContainsEdge(%d) = false", e)
		}
	}
	for _, e := range []int{0, 2, 4} {
		if g.ContainsEdge(e) {
			t.Fatalf("ContainsEdge(%d) = true", e)
		}
	}
}

func TestKeyDistinguishesStates(t *testing.T) {
	h := cycle(6)
	conn := h.NewVertexSet()
	g1 := newGraph(h, []int{0, 1}, nil)
	g2 := newGraph(h, []int{0, 2}, nil)
	if string(g1.MemoKey(conn, nil, nil)) == string(g2.MemoKey(conn, nil, nil)) {
		t.Fatal("different edge sets share a key")
	}
	// Same specials content under different IDs must share a key.
	sA := Special{ID: 1, Vertices: setOf(h.NumVertices(), []int{2, 3})}
	sB := Special{ID: 42, Vertices: setOf(h.NumVertices(), []int{2, 3})}
	gA := newGraph(h, []int{0}, []Special{sA})
	gB := newGraph(h, []int{0}, []Special{sB})
	if string(gA.MemoKey(conn, nil, nil)) != string(gB.MemoKey(conn, nil, nil)) {
		t.Fatal("structurally identical graphs have different keys")
	}
	conn2 := setOf(h.NumVertices(), []int{0})
	if string(gA.MemoKey(conn, nil, nil)) == string(gA.MemoKey(conn2, nil, nil)) {
		t.Fatal("different Conn sets share a key")
	}
}

// TestMemoKeySelfDelimiting: a nil Forbidden must not shorten its
// special's segment. With variable-length segments these two graphs
// over cycle(64), one vertex word per set, concatenate to the same
// bytes: F2's last byte is 0xFE and V2′ is 0xFE followed by F2's first
// seven bytes.
func TestMemoKeySelfDelimiting(t *testing.T) {
	h := cycle(64)
	n := h.NumVertices()
	v1, v2 := setOf(n, []int{0}), setOf(n, []int{1})
	f2 := setOf(n, []int{8, 57, 58, 59, 60, 61, 62, 63})
	v2p := setOf(n, []int{1, 2, 3, 4, 5, 6, 7, 16})
	conn := h.NewVertexSet()
	gA := newGraph(h, []int{0}, []Special{{ID: 1, Vertices: v1}, {ID: 2, Vertices: v2, Forbidden: f2}})
	gB := newGraph(h, []int{0}, []Special{{ID: 1, Vertices: v1, Forbidden: v2}, {ID: 2, Vertices: v2p}})
	if string(gA.MemoKey(conn, nil, nil)) == string(gB.MemoKey(conn, nil, nil)) {
		t.Fatal("graphs with different specials share a key")
	}
	// A nil Forbidden is no constraint: it keys like the empty set.
	gC := newGraph(h, []int{0}, []Special{{ID: 1, Vertices: v1, Forbidden: h.NewVertexSet()}, {ID: 2, Vertices: v2, Forbidden: f2}})
	if string(gA.MemoKey(conn, nil, nil)) != string(gC.MemoKey(conn, nil, nil)) {
		t.Fatal("a nil Forbidden keys unlike the empty set")
	}
}

// TestMemoKeySpecialOrder: the key is the same whatever the order and
// IDs of the specials, and building a two-special key into a large
// enough buffer allocates nothing.
func TestMemoKeySpecialOrder(t *testing.T) {
	h := cycle(100)
	n := h.NumVertices()
	sp := []Special{
		{ID: 1, Vertices: setOf(n, []int{70, 71}), Forbidden: setOf(n, []int{3})},
		{ID: 2, Vertices: setOf(n, []int{5, 6}), Forbidden: setOf(n, []int{90, 91})},
		{ID: 3, Vertices: setOf(n, []int{5, 6}), Forbidden: setOf(n, []int{80})},
	}
	conn := setOf(n, []int{5, 71})
	want := string(newGraph(h, []int{4, 80}, sp).MemoKey(conn, nil, nil))
	r := rand.New(rand.NewSource(1))
	for round := 0; round < 20; round++ {
		perm := slices.Clone(sp)
		r.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		for i := range perm {
			perm[i].ID = r.Intn(1000)
		}
		if got := string(newGraph(h, []int{4, 80}, perm).MemoKey(conn, nil, nil)); got != want {
			t.Fatalf("specials %v key %x, want %x", perm, got, want)
		}
	}
	g := newGraph(h, []int{4, 80}, sp[:2])
	buf := make([]byte, 0, 1024)
	if a := testing.AllocsPerRun(100, func() { buf = g.MemoKey(conn, g.Edges, buf[:0]) }); a != 0 {
		t.Fatalf("a two-special key allocated %.0f times, want 0", a)
	}
}

func TestLargestComponentAndBalance(t *testing.T) {
	h := cycle(8)
	a := newGraph(h, []int{0, 1, 2, 3, 4}, nil)
	b := newGraph(h, []int{5}, nil)
	comps := []*Graph{b, a}
	if got := LargestComponent(comps, 8); got != 1 {
		t.Fatalf("LargestComponent = %d, want 1", got)
	}
	if LargestComponent(comps, 8) == -1 {
		t.Fatal("component of size 5 of 8 is unbalanced")
	}
	if LargestComponent(comps, 10) != -1 {
		t.Fatal("size 5 of 10 is balanced (≤ half)")
	}
}

func randomHypergraph(r *rand.Rand, maxV, maxE int) *hypergraph.Hypergraph {
	nv := 2 + r.Intn(maxV-1)
	ne := 1 + r.Intn(maxE)
	var b hypergraph.Builder
	for e := 0; e < ne; e++ {
		maxArity := 3
		if maxArity > nv {
			maxArity = nv
		}
		arity := 1 + r.Intn(maxArity)
		seen := map[int]bool{}
		var names []string
		for len(names) < arity {
			v := r.Intn(nv)
			if !seen[v] {
				seen[v] = true
				names = append(names, vname(v))
			}
		}
		b.MustAddEdge("", names...)
	}
	return b.Build()
}

// Property: components partition the non-covered items, components are
// pairwise vertex-disjoint outside U, and every item is either covered
// (f ⊆ U) or in exactly one component.
func TestQuickComponentsPartition(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		h := randomHypergraph(r, 12, 14)
		g := Root(h)
		u := h.NewVertexSet()
		for v := 0; v < h.NumVertices(); v++ {
			if r.Intn(3) == 0 {
				u.Set(v)
			}
		}
		sp := NewSplitter(h)
		comps := sp.ComponentsInto(g, u, new(ComponentBuf))

		seen := map[int]int{} // edge id -> count over components
		for _, c := range comps {
			for _, e := range c.Edges {
				seen[e]++
			}
		}
		for e := 0; e < h.NumEdges(); e++ {
			covered := h.Edge(e).SubsetOf(u)
			switch {
			case covered && seen[e] != 0:
				return false
			case !covered && seen[e] != 1:
				return false
			}
		}
		// Pairwise disjoint outside u.
		for i := 0; i < len(comps); i++ {
			for j := i + 1; j < len(comps); j++ {
				if comps[i].Vertices().IntersectsDiff(comps[j].Vertices(), u) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 250}); err != nil {
		t.Error(err)
	}
}

// Property: maximality — merging any two distinct components would break
// [U]-connectedness, i.e. no edge in one component shares an out-of-U
// vertex with an edge in another (already covered by disjointness), and
// within a component of size >= 2 every item connects to some other item.
func TestQuickComponentsInternallyConnected(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		h := randomHypergraph(r, 10, 10)
		g := Root(h)
		u := h.NewVertexSet()
		for v := 0; v < h.NumVertices(); v++ {
			if r.Intn(4) == 0 {
				u.Set(v)
			}
		}
		sp := NewSplitter(h)
		for _, c := range sp.ComponentsInto(g, u, new(ComponentBuf)) {
			if c.Size() < 2 {
				continue
			}
			// BFS inside the component over [u]-adjacency.
			adj := func(a, b int) bool {
				return h.Edge(c.Edges[a]).IntersectsDiff(h.Edge(c.Edges[b]), u)
			}
			visited := make([]bool, len(c.Edges))
			stack := []int{0}
			visited[0] = true
			count := 1
			for len(stack) > 0 {
				x := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				for y := range c.Edges {
					if !visited[y] && adj(x, y) {
						visited[y] = true
						count++
						stack = append(stack, y)
					}
				}
			}
			if count != len(c.Edges) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property behind Corollary 3.8 as used by the solver: for any
// sub-collection d of g's items, the [U]-components of d coincide with
// the [U ∩ V(d)]-components of d — adjacency only ever inspects shared
// vertices, which lie in V(d). This is what lets log-k-decomp compute
// χ(c) = ∪λ(c) ∩ V(compdown) and still split compdown exactly as ∪λ(c)
// would.
func TestQuickComponentsRestrictSeparator(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		h := randomHypergraph(r, 10, 10)
		// Random sub-collection d of the edges.
		var sub []int
		for e := 0; e < h.NumEdges(); e++ {
			if r.Intn(2) == 0 {
				sub = append(sub, e)
			}
		}
		if len(sub) == 0 {
			return true
		}
		d := newGraph(h, sub, nil)
		u := h.NewVertexSet()
		for v := 0; v < h.NumVertices(); v++ {
			if r.Intn(3) == 0 {
				u.Set(v)
			}
		}
		restricted := u.Intersect(d.Vertices())
		sp := NewSplitter(h)
		a := sp.ComponentsInto(d, u, new(ComponentBuf))
		b := sp.ComponentsInto(d, restricted, new(ComponentBuf))
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if len(a[i].Edges) != len(b[i].Edges) {
				return false
			}
			for j := range a[i].Edges {
				if a[i].Edges[j] != b[i].Edges[j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSplitterReuse(t *testing.T) {
	h := cycle(12)
	g := Root(h)
	sp := NewSplitter(h)
	u1 := h.Union([]int{0})
	u2 := h.Union([]int{0, 6})
	for i := 0; i < 50; i++ {
		c1 := sp.ComponentsInto(g, u1, new(ComponentBuf))
		c2 := sp.ComponentsInto(g, u2, new(ComponentBuf))
		if len(c1) != 1 || len(c2) != 2 {
			t.Fatalf("iteration %d: got %d and %d components", i, len(c1), len(c2))
		}
	}
}

// TestComponentsIntoReusedMatchesFresh: splitting into one reused
// buffer gives the components a fresh buffer gives, and a graph carved
// from the buffer carries no cached vertex set over from its previous
// use.
func TestComponentsIntoReusedMatchesFresh(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	var buf ComponentBuf
	for i := 0; i < 2000; i++ {
		g, u := randomExtGraph(r)
		sp := NewSplitter(g.H)
		want := sp.ComponentsInto(g, u, new(ComponentBuf))
		got := sp.ComponentsInto(g, u, &buf)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d components, want %d", i, len(got), len(want))
		}
		for j, c := range got {
			w := want[j]
			if !slices.Equal(c.Edges, w.Edges) || len(c.Specials) != len(w.Specials) {
				t.Fatalf("trial %d component %d: edges %v specials %d, want %v and %d",
					i, j, c.Edges, len(c.Specials), w.Edges, len(w.Specials))
			}
			for k := range w.Specials {
				if c.Specials[k].ID != w.Specials[k].ID {
					t.Fatalf("trial %d component %d: special %d has ID %d, want %d",
						i, j, k, c.Specials[k].ID, w.Specials[k].ID)
				}
			}
			if cv, wv := c.Vertices(), w.Vertices(); !cv.SubsetOf(wv) || !wv.SubsetOf(cv) {
				t.Fatalf("trial %d component %d: V = %v, want %v", i, j, c.Vertices(), w.Vertices())
			}
		}
	}
}

// TestComponentsIntoAllocatesNothing: once the buffer has grown,
// splitting into it allocates nothing, specials included.
func TestComponentsIntoAllocatesNothing(t *testing.T) {
	h := cycle(64)
	g := newGraph(h, h.AllEdgeIDs()[1:], []Special{{ID: 1, Vertices: h.Edge(0)}})
	sp := NewSplitter(h)
	u := h.Union([]int{8, 16, 32, 48})
	var buf ComponentBuf
	if n := len(sp.ComponentsInto(g, u, &buf)); n != 4 {
		t.Fatalf("%d components, want 4", n)
	}
	if n := testing.AllocsPerRun(100, func() { sp.ComponentsInto(g, u, &buf) }); n != 0 {
		t.Fatalf("ComponentsInto allocates %.1f times per call, want 0", n)
	}
}

func BenchmarkComponentsCycle64(b *testing.B) {
	h := cycle(64)
	g := Root(h)
	sp := NewSplitter(h)
	u := h.Union([]int{0, 16, 32, 48})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp.ComponentsInto(g, u, new(ComponentBuf))
	}
}

// randomExtGraph draws an extended subhypergraph of a random hypergraph:
// a random subset of its edges plus up to three specials over random
// vertex sets, and a separator u that mixes random vertices with whole
// items, so some items fall entirely inside u.
func randomExtGraph(r *rand.Rand) (*Graph, *bitset.Set) {
	h := randomHypergraph(r, 12, 14)
	var edges []int
	for e := 0; e < h.NumEdges(); e++ {
		if r.Intn(4) != 0 {
			edges = append(edges, e)
		}
	}
	var specials []Special
	for i, n := 0, r.Intn(4); i < n; i++ {
		vs := h.NewVertexSet()
		for vs.IsEmpty() {
			for v := 0; v < h.NumVertices(); v++ {
				if r.Intn(3) == 0 {
					vs.Set(v)
				}
			}
		}
		specials = append(specials, Special{ID: i + 1, Vertices: vs})
	}
	g := newGraph(h, edges, specials)
	u := h.NewVertexSet()
	for v := 0; v < h.NumVertices(); v++ {
		if r.Intn(4) == 0 {
			u.Set(v)
		}
	}
	for _, e := range g.Edges {
		if r.Intn(5) == 0 {
			u.InPlaceUnion(h.Edge(e))
		}
	}
	for _, sp := range g.Specials {
		if r.Intn(3) == 0 {
			u.InPlaceUnion(sp.Vertices)
		}
	}
	return g, u
}

// checkSizeKernel compares Balanced and Oversized against the
// Components + LargestComponent reference on one (g, u).
func checkSizeKernel(t *testing.T, sp *Splitter, g *Graph, u *bitset.Set) {
	t.Helper()
	comps := sp.ComponentsInto(g, u, new(ComponentBuf))
	want := LargestComponent(comps, g.Size())
	if got := sp.Balanced(g, u); got != (want < 0) {
		t.Fatalf("Balanced = %v, LargestComponent = %d\ng=%v specials=%d u=%v", got, want, g.Edges, len(g.Specials), u)
	}
	over := sp.Oversized(g, u)
	if want < 0 {
		if over != nil {
			t.Fatalf("Oversized = %v, want nil", over.Edges)
		}
		return
	}
	ref := comps[want]
	if over == nil || len(over.Edges) != len(ref.Edges) || len(over.Specials) != len(ref.Specials) {
		t.Fatalf("Oversized = %+v, want %+v", over, ref)
	}
	for i := range ref.Edges {
		if over.Edges[i] != ref.Edges[i] {
			t.Fatalf("Oversized edges = %v, want %v", over.Edges, ref.Edges)
		}
	}
	for i := range ref.Specials {
		if over.Specials[i].ID != ref.Specials[i].ID {
			t.Fatalf("Oversized special %d has ID %d, want %d", i, over.Specials[i].ID, ref.Specials[i].ID)
		}
	}
}

// TestBalancedOversizedMatchComponents: the size-only kernel agrees with
// the ComponentsInto reference, including a component at exactly half the
// items (balanced) and one item more (oversized).
func TestBalancedOversizedMatchComponents(t *testing.T) {
	h := cycle(8)
	sp := NewSplitter(h)
	// u = e0 ∪ e5 leaves [u]-components {e1..e4} and {e6, e7}.
	half := h.Union([]int{0, 5})
	checkSizeKernel(t, sp, Root(h), half)
	if !sp.Balanced(Root(h), half) {
		t.Fatal("a component of 4 of 8 items is balanced")
	}
	g7 := newGraph(h, []int{1, 2, 3, 4, 6, 7}, []Special{{ID: 1, Vertices: h.Edge(0)}})
	if sp.Balanced(g7, half) {
		t.Fatal("a component of 4 of 7 items is not balanced")
	}
	checkSizeKernel(t, sp, g7, half)

	r := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		g, u := randomExtGraph(r)
		checkSizeKernel(t, NewSplitter(g.H), g, u)
	}
}

// TestBalancedAllocatesNothing: the pre-check kernel reuses the
// Splitter's scratch and allocates nothing once warm.
func TestBalancedAllocatesNothing(t *testing.T) {
	h := cycle(64)
	g := newGraph(h, h.AllEdgeIDs()[1:], []Special{{ID: 1, Vertices: h.Edge(0)}})
	sp := NewSplitter(h)
	u := h.Union([]int{0, 16, 32, 48})
	if n := testing.AllocsPerRun(100, func() { sp.Balanced(g, u) }); n != 0 {
		t.Fatalf("Balanced allocates %.1f times per call, want 0", n)
	}
}

// TestEdgeKeyMatchesBitset: the keys encode edge sets exactly as
// bitset.Set.AppendKey does, on both sides of the 256-edge stack buffer,
// and building them into a large enough buffer allocates nothing.
func TestEdgeKeyMatchesBitset(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, n := range []int{10, 256, 300} {
		h := cycle(n)
		for round := 0; round < 20; round++ {
			var edges []int
			for e := 0; e < n; e++ {
				if r.Intn(3) == 0 {
					edges = append(edges, e)
				}
			}
			g := newGraph(h, edges, nil)
			conn := h.NewVertexSet()
			want := bitset.New(h.NumEdges())
			for _, e := range edges {
				want.Set(e)
			}
			if got := g.appendEdgeKey(nil, edges); string(got) != string(want.AppendKey(nil)) {
				t.Fatalf("n=%d: edge key %x, want %x", n, got, want.AppendKey(nil))
			}
			wantMemo := append(want.AppendKey(nil), 0xFF)
			wantMemo = conn.AppendKey(wantMemo)
			wantMemo = bitset.New(h.NumEdges()).AppendKey(wantMemo)
			if got := g.MemoKey(conn, nil, nil); string(got) != string(wantMemo) {
				t.Fatalf("n=%d: MemoKey %x, want %x", n, got, wantMemo)
			}
		}
	}
	h := cycle(100)
	g := Root(h)
	conn := h.NewVertexSet()
	buf := make([]byte, 0, 1024)
	if a := testing.AllocsPerRun(100, func() {
		buf = g.MemoKey(conn, nil, buf[:0])
		buf = g.MemoKey(conn, g.Edges, buf[:0])
	}); a != 0 {
		t.Fatalf("building keys allocated %.0f times, want 0", a)
	}
}
