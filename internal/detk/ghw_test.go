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

// TestGHDMatchesExactGHW: the GHD solver answers YES at width k exactly
// when the oracle's ghw is at most k, for k = 1..3, on the two
// hypergraphs of ghwBelowHW and on the seeded hypergraphs. Every YES
// passes CheckGHD and CheckWidth (ghdDecide), and so does the oracle's
// own GHD.
func TestGHDMatchesExactGHW(t *testing.T) {
	check := func(name string, h *hypergraph.Hypergraph) {
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
	for i, src := range ghwBelowHW {
		h, err := hypergraph.ParseString(src)
		if err != nil {
			t.Fatal(err)
		}
		check("ghwBelowHW["+strconv.Itoa(i)+"]", h)
	}
	for seed := range ghdSeeded {
		check("seeded-"+strconv.Itoa(seed), seededHypergraph(seed))
	}
}

// TestStructuralBoundBelowExactGHW: the structural lower bound never
// exceeds the oracle's ghw, on the two hypergraphs of ghwBelowHW, the
// seeded hypergraphs and as many again with 13 to 16 vertices. The
// service answers NO below the bound without a search, so a bound above
// ghw would refute a width that has a GHD.
func TestStructuralBoundBelowExactGHW(t *testing.T) {
	check := func(name string, h *hypergraph.Hypergraph) {
		t.Helper()
		lb, err := h.WidthLowerBound(context.Background(), h.NumEdges())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if ghw, _ := exactGHW(t, h); lb > ghw {
			t.Errorf("%s: the structural bound %d exceeds the exact ghw %d", name, lb, ghw)
		}
	}
	for i, src := range ghwBelowHW {
		h, err := hypergraph.ParseString(src)
		if err != nil {
			t.Fatal(err)
		}
		check("ghwBelowHW["+strconv.Itoa(i)+"]", h)
	}
	for seed := range ghdSeeded {
		check("seeded-"+strconv.Itoa(seed), seededHypergraph(seed))
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
		check("large-"+strconv.Itoa(seed), b.Build())
	}
}
