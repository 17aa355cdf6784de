package detk

import (
	"context"
	"math/bits"
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/decomp"
	"repro/internal/hypergraph"
)

// exactGHW is a test-only oracle for the generalized hypertree width,
// sharing no code with the solvers. ghw is the least, over elimination
// orders of the primal graph, of the largest integral edge cover of an
// elimination bag. A dynamic program over vertex subsets finds it: the
// best order of a set s ends with some v in s, after s \ {v} is
// eliminated in its own best order, and v's bag is v plus every vertex
// outside s that v reaches through s \ {v}. It returns ghw and the GHD
// of a best order, with each bag's λ a least edge cover of it. It takes
// at most 16 vertices.
func exactGHW(t *testing.T, h *hypergraph.Hypergraph) (int, *decomp.Decomp) {
	t.Helper()
	n, m := h.NumVertices(), h.NumEdges()
	if n == 0 || n > 16 {
		t.Fatalf("exactGHW takes 1 to 16 vertices, not %d", n)
	}
	edge := make([]uint32, m)
	adj := make([]uint32, n) // primal-graph neighbours
	for e := range m {
		for _, v := range h.EdgeVertices(e) {
			edge[e] |= 1 << v
		}
		for _, v := range h.EdgeVertices(e) {
			adj[v] |= edge[e] &^ (1 << v)
		}
	}
	full := uint32(1)<<n - 1

	// cover[b] is the least number of edges covering b, and pick[b] the
	// first edge of one such cover.
	cover, pick := make([]int, full+1), make([]int, full+1)
	for b := uint32(1); b <= full; b++ {
		cover[b] = m + 1
		low := bits.TrailingZeros32(b)
		for e := range m {
			if edge[e]>>low&1 == 1 && cover[b&^edge[e]]+1 < cover[b] {
				cover[b], pick[b] = cover[b&^edge[e]]+1, e
			}
		}
	}
	// bag returns v's elimination bag after the vertices of s.
	bag := func(s uint32, v int) uint32 {
		reach, frontier := uint32(1)<<v, uint32(1)<<v
		for frontier != 0 {
			var next uint32
			for f := frontier; f != 0; f &= f - 1 {
				next |= adj[bits.TrailingZeros32(f)]
			}
			frontier = next & s &^ reach
			reach |= next
		}
		return reach &^ s
	}
	width, last := make([]int, full+1), make([]int, full+1)
	for s := uint32(1); s <= full; s++ {
		width[s] = m + 1
		for r := s; r != 0; r &= r - 1 {
			v := bits.TrailingZeros32(r)
			rest := s &^ (1 << v)
			if w := max(width[rest], cover[bag(rest, v)]); w < width[s] {
				width[s], last[s] = w, v
			}
		}
	}

	// Replay the best order: order[i] is eliminated i-th, with bag
	// bags[i]. Node i hangs below the node of the earliest-eliminated
	// other vertex of its bag, or below the last node when there is none.
	order, bags := make([]int, n), make([]uint32, n)
	for s, i := full, n-1; s != 0; i-- {
		order[i] = last[s]
		s &^= 1 << order[i]
		bags[i] = bag(s, order[i])
	}
	pos := make([]int, n)
	nodes := make([]*decomp.Node, n)
	for i, v := range order {
		pos[v] = i
		set := h.NewVertexSet()
		var lambda []int
		for b := bags[i]; b != 0; b &^= edge[pick[b]] {
			lambda = append(lambda, pick[b])
		}
		for b := bags[i]; b != 0; b &= b - 1 {
			set.Set(bits.TrailingZeros32(b))
		}
		nodes[i] = decomp.NewNode(lambda, set)
	}
	for i := 0; i < n-1; i++ {
		parent := n - 1
		for b := bags[i] &^ (1 << order[i]); b != 0; b &= b - 1 {
			parent = min(parent, pos[bits.TrailingZeros32(b)])
		}
		nodes[parent].Children = append(nodes[parent].Children, nodes[i])
	}
	return width[full], &decomp.Decomp{H: h, Root: nodes[n-1]}
}

// ghwBelowHW holds two hypergraphs with ghw 2 and hw 3: a GHD of width 2
// uses a subedge that no pairwise intersection of two edges gives.
var ghwBelowHW = []string{
	`E1(v4,v2), E2(v12,v10,v1,v5,v6), E3(v4,v9,v8), E4(v2,v8,v7),
	 E5(v4,v8,v3,v0), E6(v7,v11), E7(v5,v9), E8(v12,v9,v3),
	 E9(v12,v6,v11), E10(v4,v1,v5,v11).`,
	`E1(v0,v3,v7,v5), E2(v7,v2,v11,v4,v8), E3(v3,v2,v1,v10,v6),
	 E4(v3,v4,v9), E5(v3,v8,v10), E6(v7,v11), E7(v5,v11,v1,v6,v9),
	 E8(v5,v1,v6,v12), E9(v7,v11,v8,v9,v12),
	 E10(v3,v7,v11,v4,v8), E11(v0,v11,v1), E12(v10,v9),
	 E13(v2,v11,v8,v6).`,
}

// boundTermWalls holds, for a term of the structural bound, a
// hypergraph of ghw 3 on which WidthLowerBound reaches 3 only through
// that term: without it the bound is 2.
var boundTermWalls = []struct{ term, src string }{
	// Every edge holds at most 3 vertices, so 2 edges cover at most 6
	// and 5 need 2: only a bag of 7 vertices, which the minor-min-width
	// term (MMD+) proves with a minor of least degree 6, needs 3.
	{"minor-min-width", `E1(v0,v1), E2(v2,v3), E3(v1,v4,v5), E4(v0,v6,v7),
	 E5(v5,v6), E6(v3,v4), E7(v1,v2,v8), E8(v3,v5,v9), E9(v1,v7),
	 E10(v7,v8,v9), E11(v2,v4,v7), E12(v0,v4,v9), E13(v1,v4,v7),
	 E14(v0,v2,v6).`},
}

// cliqueCoverGHW3 has ghw 3 and structural bound 2: two edges of 5
// vertices cover all 8, so no treewidth bound asks for 3 edges, yet
// one clique of its primal graph needs 3 edges to cover it.
// FuzzGHDMatchesExactGHW seeds its corpus with it.
const cliqueCoverGHW3 = `E1(v0,v1,v2,v3), E2(v2,v3,v4,v5,v6), E3(v0,v2,v4,v7),
	 E4(v0,v3,v5,v6,v7), E5(v1,v4), E6(v1,v5,v6,v7), E7(v1,v5,v6),
	 E8(v3,v4).`

// checkGHDExact fails t unless the GHD solver answers YES at width k
// exactly when the oracle's ghw is at most k, for k = 1..3. Every YES
// passes CheckGHD and CheckWidth (ghdDecide), and so does the oracle's
// own GHD.
func checkGHDExact(t *testing.T, name string, h *hypergraph.Hypergraph) {
	t.Helper()
	ghw, d := exactGHW(t, h)
	if err := decomp.CheckGHD(d); err != nil {
		t.Fatalf("%s: the oracle's GHD is invalid: %v\n%s", name, err, d)
	}
	if w := d.Width(); w != ghw {
		t.Fatalf("%s: the oracle's GHD has width %d, its ghw %d", name, w, ghw)
	}
	for k := 1; k <= 3; k++ {
		ok, err := ghdDecide(h, k)
		if err != nil {
			t.Fatalf("%s k=%d: %v", name, k, err)
		}
		if ok != (ghw <= k) {
			t.Errorf("%s k=%d: the GHD solver answers %v, the exact ghw is %d", name, k, ok, ghw)
		}
	}
}

// structuralBound returns WidthLowerBound at limit |E| and the oracle's
// ghw, failing t when the bound exceeds it: the service answers NO
// below the bound without a search, so a bound above ghw would refute a
// width that has a GHD.
func structuralBound(t *testing.T, name string, h *hypergraph.Hypergraph) (lb, ghw int) {
	t.Helper()
	lb, err := h.WidthLowerBound(context.Background(), h.NumEdges())
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if ghw, _ = exactGHW(t, h); lb > ghw {
		t.Errorf("%s: the structural bound %d exceeds the exact ghw %d", name, lb, ghw)
	}
	return lb, ghw
}

// TestGHDMatchesExactGHW: checkGHDExact on the two hypergraphs of
// ghwBelowHW and on the seeded hypergraphs.
func TestGHDMatchesExactGHW(t *testing.T) {
	for i, src := range ghwBelowHW {
		h, err := hypergraph.ParseString(src)
		if err != nil {
			t.Fatal(err)
		}
		checkGHDExact(t, "ghwBelowHW["+strconv.Itoa(i)+"]", h)
	}
	for seed := range ghdSeeded {
		checkGHDExact(t, "seeded-"+strconv.Itoa(seed), seededHypergraph(seed))
	}
}

// TestStructuralBoundBelowExactGHW: the structural lower bound never
// exceeds the oracle's ghw, on the two hypergraphs of ghwBelowHW, the
// seeded hypergraphs and as many again with 13 to 16 vertices.
func TestStructuralBoundBelowExactGHW(t *testing.T) {
	for i, src := range ghwBelowHW {
		h, err := hypergraph.ParseString(src)
		if err != nil {
			t.Fatal(err)
		}
		structuralBound(t, "ghwBelowHW["+strconv.Itoa(i)+"]", h)
	}
	for seed := range ghdSeeded {
		structuralBound(t, "seeded-"+strconv.Itoa(seed), seededHypergraph(seed))
	}
	for seed := range ghdSeeded {
		r := rand.New(rand.NewSource(int64(seed)))
		nv := 13 + r.Intn(4)
		var b hypergraph.Builder
		for e := range nv - 3 + r.Intn(8) {
			vs := r.Perm(nv)[:2+r.Intn(5)]
			names := make([]string, len(vs))
			for i, v := range vs {
				names[i] = "v" + strconv.Itoa(v)
			}
			b.MustAddEdge("E"+strconv.Itoa(e), names...)
		}
		structuralBound(t, "large-"+strconv.Itoa(seed), b.Build())
	}
}

// TestStructuralBoundTermWalls: on each hypergraph of boundTermWalls
// the structural bound reaches the exact ghw, at or below it, so a
// bound without that term fails here.
func TestStructuralBoundTermWalls(t *testing.T) {
	for _, w := range boundTermWalls {
		h, err := hypergraph.ParseString(w.src)
		if err != nil {
			t.Fatal(err)
		}
		if lb, ghw := structuralBound(t, w.term, h); lb != ghw {
			t.Errorf("%s: the structural bound is %d, the exact ghw %d", w.term, lb, ghw)
		}
	}
}

// FuzzGHDMatchesExactGHW: on any hypergraph of at most 10 vertices and
// 12 edges, checkGHDExact holds and the structural bound stays at or
// below the exact ghw. The first byte sets the vertex count; each later
// pair of bytes is an edge's vertex mask, low byte first.
func FuzzGHDMatchesExactGHW(f *testing.F) {
	const maxVertices, maxEdges = 10, 12
	encode := func(h *hypergraph.Hypergraph) []byte {
		out := []byte{byte(h.NumVertices() - 1)}
		for e := range h.NumEdges() {
			var mask uint16
			for _, v := range h.EdgeVertices(e) {
				mask |= 1 << v
			}
			out = append(out, byte(mask), byte(mask>>8))
		}
		return out
	}
	var srcs []string
	for _, w := range boundTermWalls {
		srcs = append(srcs, w.src)
	}
	for _, src := range append(srcs, cliqueCoverGHW3) {
		h, err := hypergraph.ParseString(src)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(encode(h))
	}
	for seed := range 20 {
		if h := seededHypergraph(seed); h.NumVertices() <= maxVertices && h.NumEdges() <= maxEdges {
			f.Add(encode(h))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 1 + int(data[0])%maxVertices
		var b hypergraph.Builder
		for i, e := 1, 0; i+1 < len(data) && e < maxEdges; i += 2 {
			mask := (int(data[i]) | int(data[i+1])<<8) & (1<<n - 1)
			var names []string
			for v := range n {
				if mask>>v&1 == 1 {
					names = append(names, "v"+strconv.Itoa(v))
				}
			}
			if len(names) > 0 {
				b.MustAddEdge("E"+strconv.Itoa(e), names...)
				e++
			}
		}
		h := b.Build()
		if h.NumEdges() == 0 {
			return
		}
		checkGHDExact(t, h.String(), h)
		structuralBound(t, h.String(), h)
	})
}
