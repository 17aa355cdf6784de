package hypergraph

import (
	"context"
	"fmt"
	"math/bits"
	"math/rand"
	"testing"
)

// graphOf builds the graph on vertices 0..n-1 with the given edges as a
// hypergraph of binary edges, plus a unary edge per vertex so that an
// isolated one is kept.
func graphOf(n int, edges [][2]int) *Hypergraph {
	var b Builder
	name := func(v int) string { return fmt.Sprintf("v%d", v) }
	for v := 0; v < n; v++ {
		b.MustAddEdge("", name(v))
	}
	for _, e := range edges {
		b.MustAddEdge("", name(e[0]), name(e[1]))
	}
	return b.Build()
}

// reducesToEmpty runs the tw ≤ 3 term on h's primal graph.
func reducesToEmpty(t testing.TB, h *Hypergraph) bool {
	t.Helper()
	sc := getScratch()
	defer putScratch(sc)
	sc.edgeLists(h)
	sc.primal(h)
	sc.red = append(sc.red[:0], sc.adj...)
	ok, err := sc.treewidthAtMostThree(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return ok
}

// exactTreewidthAtMostThree is a test-only oracle, sharing no code with
// the reduction rules: a dynamic program over vertex subsets decides
// whether some elimination order of h's primal graph keeps every
// elimination bag to at most 4 vertices. A set s can be eliminated
// first exactly when, for some v in s, s \ {v} can be and v reaches at
// most 3 vertices outside s through s \ {v}. It takes at most 16
// vertices.
func exactTreewidthAtMostThree(t testing.TB, h *Hypergraph) bool {
	t.Helper()
	n := h.NumVertices()
	if n > 16 {
		t.Fatalf("exactTreewidthAtMostThree takes at most 16 vertices, not %d", n)
	}
	adj := make([]uint32, n)
	for e := range h.NumEdges() {
		var mask uint32
		for _, v := range h.EdgeVertices(e) {
			mask |= 1 << v
		}
		for _, v := range h.EdgeVertices(e) {
			adj[v] |= mask &^ (1 << v)
		}
	}
	full := uint32(1)<<n - 1
	ok := make([]bool, full+1)
	ok[0] = true
	for s := uint32(1); s <= full; s++ {
		for rest := s; rest != 0 && !ok[s]; rest &= rest - 1 {
			v := bits.TrailingZeros32(rest)
			before := s &^ (1 << v)
			if !ok[before] {
				continue
			}
			reach, frontier := uint32(1)<<v, uint32(1)<<v
			for frontier != 0 {
				var next uint32
				for f := frontier; f != 0; f &= f - 1 {
					next |= adj[bits.TrailingZeros32(f)]
				}
				next &^= reach
				reach |= next
				frontier = next & before
			}
			ok[s] = bits.OnesCount32(reach&^s) <= 3
		}
	}
	return ok[full]
}

// namedGraphs are the graphs the rules are checked on by name, with
// whether their treewidth is at most 3: the 3-cube (twice, as Q₃ and as
// the prism C₄ × K₂), which only the cube rule reduces; K₃,₃, which
// only the buddy rule reduces; and the four forbidden minors of
// treewidth at most 3.
var namedGraphs = []struct {
	name    string
	n       int
	edges   [][2]int
	atMost3 bool
}{
	{"Q3", 8, hypercube(3), true},
	{"C4xK2", 8, prism(4), true},
	{"K3,3", 6, completeBipartite(3, 3), true},
	{"K5", 5, complete(5), false},
	{"octahedron", 6, octahedron(), false},
	{"C5xK2", 10, prism(5), false},
	{"Wagner", 8, wagner(), false},
}

func hypercube(d int) [][2]int {
	var out [][2]int
	for v := 0; v < 1<<d; v++ {
		for i := 0; i < d; i++ {
			if u := v ^ 1<<i; u > v {
				out = append(out, [2]int{v, u})
			}
		}
	}
	return out
}

// prism is C_n × K_2: an outer n-cycle 0..n-1, an inner one n..2n-1,
// and rungs i — n+i.
func prism(n int) [][2]int {
	var out [][2]int
	for i := 0; i < n; i++ {
		out = append(out, [2]int{i, (i + 1) % n}, [2]int{n + i, n + (i+1)%n}, [2]int{i, n + i})
	}
	return out
}

func complete(n int) [][2]int {
	var out [][2]int
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			out = append(out, [2]int{u, v})
		}
	}
	return out
}

func completeBipartite(a, b int) [][2]int {
	var out [][2]int
	for u := 0; u < a; u++ {
		for v := a; v < a+b; v++ {
			out = append(out, [2]int{u, v})
		}
	}
	return out
}

// octahedron is K_{2,2,2}: every pair but the three antipodal ones.
func octahedron() [][2]int {
	var out [][2]int
	for _, e := range complete(6) {
		if e[1] != e[0]+3 {
			out = append(out, e)
		}
	}
	return out
}

// wagner is the Möbius ladder on 8 vertices: an 8-cycle and its four
// diagonals.
func wagner() [][2]int {
	var out [][2]int
	for i := 0; i < 8; i++ {
		out = append(out, [2]int{i, (i + 1) % 8})
		if i < 4 {
			out = append(out, [2]int{i, i + 4})
		}
	}
	return out
}

// randomGraph draws G(n, p).
func randomGraph(r *rand.Rand, n int, p float64) [][2]int {
	var out [][2]int
	for _, e := range complete(n) {
		if r.Float64() < p {
			out = append(out, e)
		}
	}
	return out
}

// randomCubic draws a 3-regular graph on n (even) vertices by pairing
// three stubs per vertex, redrawing a pairing with a loop or a
// double edge.
func randomCubic(r *rand.Rand, n int) [][2]int {
	for {
		stubs := make([]int, 0, 3*n)
		for v := 0; v < n; v++ {
			stubs = append(stubs, v, v, v)
		}
		r.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
		seen := map[[2]int]bool{}
		var out [][2]int
		for i := 0; i < len(stubs); i += 2 {
			u, v := min(stubs[i], stubs[i+1]), max(stubs[i], stubs[i+1])
			if u == v || seen[[2]int{u, v}] {
				out = nil
				break
			}
			seen[[2]int{u, v}] = true
			out = append(out, [2]int{u, v})
		}
		if out != nil {
			return out
		}
	}
}

// randomPartial3Tree draws a subgraph of a random 3-tree on n vertices
// (a 4-clique, then each new vertex joined to a random triangle of the
// tree so far), keeping each edge with probability keep, and renumbers
// its vertices: every such graph has treewidth at most 3.
func randomPartial3Tree(r *rand.Rand, n int, keep float64) [][2]int {
	type tri [3]int
	var tris []tri
	var all [][2]int
	for _, e := range complete(min(n, 4)) {
		all = append(all, e)
	}
	if n >= 4 {
		tris = []tri{{0, 1, 2}, {0, 1, 3}, {0, 2, 3}, {1, 2, 3}}
	}
	for v := 4; v < n; v++ {
		t := tris[r.Intn(len(tris))]
		for _, u := range t {
			all = append(all, [2]int{u, v})
		}
		tris = append(tris, tri{t[0], t[1], v}, tri{t[0], t[2], v}, tri{t[1], t[2], v})
	}
	perm := r.Perm(n)
	var out [][2]int
	for _, e := range all {
		if r.Float64() < keep {
			out = append(out, [2]int{perm[e[0]], perm[e[1]]})
		}
	}
	return out
}

// TestTreewidthThreeMatchesExact: the reduction rules decide tw ≤ 3
// exactly as the subset oracle does on the named graphs, on seeded
// random graphs and 3-regular graphs of up to 12 vertices, on every
// renumbering tried; and they empty every random partial 3-tree of up
// to 60 vertices.
func TestTreewidthThreeMatchesExact(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	check := func(name string, n int, edges [][2]int) bool {
		t.Helper()
		h := graphOf(n, edges)
		got, want := reducesToEmpty(t, h), exactTreewidthAtMostThree(t, h)
		if got != want {
			t.Fatalf("%s (%d vertices, edges %v): reductions say tw ≤ 3 is %v, exact says %v", name, n, edges, got, want)
		}
		return want
	}
	renumber := func(n int, edges [][2]int) [][2]int {
		perm := r.Perm(n)
		out := make([][2]int, len(edges))
		for i, e := range edges {
			out[i] = [2]int{perm[e[0]], perm[e[1]]}
		}
		r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
		return out
	}
	for _, g := range namedGraphs {
		for try := 0; try < 20; try++ {
			edges := g.edges
			if try > 0 {
				edges = renumber(g.n, g.edges)
			}
			if got := check(g.name, g.n, edges); got != g.atMost3 {
				t.Fatalf("%s: exact oracle says tw ≤ 3 is %v, want %v", g.name, got, g.atMost3)
			}
		}
	}
	yes, no := 0, 0
	for i := 0; i < 3000; i++ {
		n := 5 + r.Intn(8)
		var edges [][2]int
		switch i % 3 {
		case 0:
			edges = randomGraph(r, n, 0.2+0.5*r.Float64())
		case 1:
			n &^= 1
			edges = randomCubic(r, n)
		default:
			edges = randomPartial3Tree(r, n, 0.7+0.3*r.Float64())
			edges = append(edges, randomGraph(r, n, 0.1*r.Float64())...)
		}
		if check(fmt.Sprintf("random graph %d", i), n, edges) {
			yes++
		} else {
			no++
		}
	}
	t.Logf("random graphs: %d of tw ≤ 3, %d above", yes, no)
	if yes < 500 || no < 500 {
		t.Fatalf("random graphs: %d of tw ≤ 3 and %d above, want at least 500 of each", yes, no)
	}
	for i := 0; i < 500; i++ {
		n := 13 + r.Intn(48)
		edges := randomPartial3Tree(r, n, 0.6+0.4*r.Float64())
		if !reducesToEmpty(t, graphOf(n, edges)) {
			t.Fatalf("partial 3-tree %d (%d vertices, edges %v): reductions say tw > 3", i, n, edges)
		}
	}
}

// FuzzTreewidthThree: on any graph of at most 10 vertices, the
// reduction rules agree with the exact subset oracle. The first byte
// sets the vertex count; each later pair of bytes is an edge.
func FuzzTreewidthThree(f *testing.F) {
	encode := func(n int, edges [][2]int) []byte {
		out := []byte{byte(n)}
		for _, e := range edges {
			out = append(out, byte(e[0]), byte(e[1]))
		}
		return out
	}
	for _, g := range namedGraphs {
		if g.n <= 10 {
			f.Add(encode(g.n, g.edges))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 1 + int(data[0])%10
		var edges [][2]int
		for i := 1; i+1 < len(data); i += 2 {
			u, v := int(data[i])%n, int(data[i+1])%n
			if u != v {
				edges = append(edges, [2]int{u, v})
			}
		}
		h := graphOf(n, edges)
		if got, want := reducesToEmpty(t, h), exactTreewidthAtMostThree(t, h); got != want {
			t.Fatalf("%d vertices, edges %v: reductions say tw ≤ 3 is %v, exact says %v", n, edges, got, want)
		}
	})
}
