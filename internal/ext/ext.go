// Package ext implements extended subhypergraphs ⟨E′, Sp, Conn⟩
// (Definition 3.1 of the paper) and their [U]-components
// (Definition 3.2). These are the objects the recursive Decomp functions
// of log-k-decomp and det-k-decomp operate on.
//
// A special edge is a vertex set acting as a placeholder for the bag of a
// decomposition node determined elsewhere; it carries a run-unique ID so
// HD-fragments can later be stitched together at the leaf that covers it.
// The Conn interface set is passed alongside a Graph rather than stored
// in it, mirroring how the algorithms thread it through recursion.
package ext

import (
	"bytes"
	"encoding/binary"
	"sort"

	"repro/internal/bitset"
	"repro/internal/hypergraph"
)

// Special is a special edge: a set of vertices with a run-unique identity.
//
// Forbidden records the vertices that will appear in decomposition bags
// below this special's placeholder leaf once the leaf is replaced by the
// fragment it stands for (everything the "down" side of the originating
// split covers, minus the interface χ(c) itself). Any node that is an
// ancestor of the leaf must avoid these vertices in its λ-label: they
// occur in bags below but can never be added to a bag up here (the
// interface χ(c) would have to contain them, and it does not), so a
// λ-edge containing one would violate the special condition
// (condition 4) in the final stitched tree. A nil Forbidden means no
// constraint.
type Special struct {
	ID        int
	Vertices  *bitset.Set
	Forbidden *bitset.Set
}

// Graph is an extended subhypergraph of a fixed base hypergraph: a subset
// of its edges plus a set of special edges. Graphs are immutable after
// construction.
type Graph struct {
	H        *hypergraph.Hypergraph
	Edges    []int // sorted ascending
	Specials []Special

	verts     *bitset.Set // lazy cache of V(H'), see Vertices
	forbidden *bitset.Set // lazy cache, see ForbiddenUnion
	fbDone    bool
}

// Root returns the extended subhypergraph ⟨E(H), ∅⟩ whose HDs coincide
// with the HDs of H itself.
func Root(h *hypergraph.Hypergraph) *Graph {
	return &Graph{H: h, Edges: h.AllEdgeIDs()}
}

// Size returns |E′| + |Sp|, the measure halved by balanced separation.
func (g *Graph) Size() int { return len(g.Edges) + len(g.Specials) }

// Vertices returns V(H') = (∪E′) ∪ (∪Sp). The result is cached and shared;
// callers must not mutate it.
func (g *Graph) Vertices() *bitset.Set {
	if g.verts == nil {
		v := g.H.NewVertexSet()
		for _, e := range g.Edges {
			v.InPlaceUnion(g.H.Edge(e))
		}
		for _, s := range g.Specials {
			v.InPlaceUnion(s.Vertices)
		}
		g.verts = v
	}
	return g.verts
}

// ForbiddenUnion returns the union of the Forbidden sets of this graph's
// special edges, or nil when no special carries one. A node that roots a
// fragment of this graph is an ancestor of every special's leaf, so its
// λ-label must avoid the returned vertices (see Special.Forbidden).
func (g *Graph) ForbiddenUnion() *bitset.Set {
	if !g.fbDone {
		g.fbDone = true
		for _, s := range g.Specials {
			if s.Forbidden == nil || s.Forbidden.IsEmpty() {
				continue
			}
			if g.forbidden == nil {
				g.forbidden = s.Forbidden.Clone()
			} else {
				g.forbidden.InPlaceUnion(s.Forbidden)
			}
		}
	}
	return g.forbidden
}

// ContainsEdge reports whether edge id e is in E′ (binary search).
func (g *Graph) ContainsEdge(e int) bool {
	i := sort.SearchInts(g.Edges, e)
	return i < len(g.Edges) && g.Edges[i] == e
}

// SpecialsCoveredBy returns the special edges f ∈ Sp with f ⊆ u. These
// are exactly the specials that fall in no [u]-component.
func (g *Graph) SpecialsCoveredBy(u *bitset.Set) []Special {
	var out []Special
	for _, s := range g.Specials {
		if s.Vertices.SubsetOf(u) {
			out = append(out, s)
		}
	}
	return out
}

// Subtract returns g minus the edges and specials of d ("pointwise
// difference", line 35 of Algorithm 1). d's edges must be a subset of
// g's; specials are matched by ID.
func (g *Graph) Subtract(d *Graph) *Graph {
	edges := DiffSortedInts(g.Edges, d.Edges)
	drop := make(map[int]bool, len(d.Specials))
	for _, s := range d.Specials {
		drop[s.ID] = true
	}
	var specials []Special
	for _, s := range g.Specials {
		if !drop[s.ID] {
			specials = append(specials, s)
		}
	}
	return &Graph{H: g.H, Edges: edges, Specials: specials}
}

// WithSpecial returns a copy of g with one additional special edge.
func (g *Graph) WithSpecial(s Special) *Graph {
	specials := make([]Special, 0, len(g.Specials)+1)
	specials = append(specials, g.Specials...)
	specials = append(specials, s)
	return &Graph{H: g.H, Edges: g.Edges, Specials: specials}
}

// DiffSortedInts returns a \ b for sorted int slices. It is used both
// for Subtract and by the solvers (allowed-edge bookkeeping in the
// optimised algorithm).
func DiffSortedInts(a, b []int) []int {
	out := make([]int, 0, len(a))
	j := 0
	for _, x := range a {
		for j < len(b) && b[j] < x {
			j++
		}
		if j < len(b) && b[j] == x {
			continue
		}
		out = append(out, x)
	}
	return out
}

// MemoKey appends a purely content-based encoding of (g, conn, allowed)
// to dst: edge set, special edges by vertex and forbidden content (IDs
// ignored, sorted, a nil Forbidden as the empty set), the interface,
// and the allowed-edge list. Every part has a length fixed by g.H, so
// the key is self-delimiting, and it is built in place in dst. Two
// states with equal MemoKeys are interchangeable for the *decision*
// problem, so the key is safe for negative memoisation (positive
// results embed special IDs and must not be shared this way). Both
// solvers key their refutations with it: log-k-decomp with its allowed
// list, det-k-decomp, which has none, with a nil one. A nil list
// encodes like an empty one, so the two solvers' keys must not share a
// table.
func (g *Graph) MemoKey(conn *bitset.Set, allowed []int, dst []byte) []byte {
	dst = g.appendEdgeKey(dst, g.Edges)
	half := 8 * ((g.H.NumVertices() + 63) / 64)
	seg, start := 2*half, len(dst)
	for _, s := range g.Specials {
		dst = s.Vertices.AppendKey(dst)
		if s.Forbidden != nil {
			dst = s.Forbidden.AppendKey(dst)
		} else {
			dst = append(dst, make([]byte, half)...)
		}
		// Insertion sort: sink the new segment below every larger one.
		for j := len(dst) - seg; j > start && bytes.Compare(dst[j-seg:j], dst[j:j+seg]) > 0; j -= seg {
			a, b := dst[j-seg:j], dst[j:j+seg]
			for i := range a {
				a[i], b[i] = b[i], a[i]
			}
		}
	}
	dst = append(dst, 0xFF)
	dst = conn.AppendKey(dst)
	return g.appendEdgeKey(dst, allowed)
}

// appendEdgeKey appends the bitset.Set.AppendKey encoding of the edge
// set ids (capacity NumEdges) to dst. The words live on the stack for up
// to 256 edges, so building a key allocates nothing beyond dst's growth.
func (g *Graph) appendEdgeKey(dst []byte, ids []int) []byte {
	var stack [4]uint64
	n := (g.H.NumEdges() + 63) / 64
	var words []uint64
	if n <= len(stack) {
		words = stack[:n]
	} else {
		words = make([]uint64, n)
	}
	for _, e := range ids {
		words[e/64] |= 1 << (uint(e) % 64)
	}
	for _, w := range words {
		dst = binary.LittleEndian.AppendUint64(dst, w)
	}
	return dst
}
