package detk

import (
	"context"
	"slices"

	"repro/internal/bitset"
	"repro/internal/decomp"
	"repro/internal/hypergraph"
)

// GHD computes generalized hypertree decompositions (GHDs), the
// BalancedGo [21] comparison of §5.2. A GHD drops the special
// condition, so a bag χ(u) may be a proper subset of ∪λ(u). Following
// "General and Fractional Hypertree Decompositions: Hard and Easy
// Cases", GHD runs det-k-decomp on the subedge-augmented hypergraph H⁺
// for width k: H's edges with their ids, then every non-empty
// e ∩ (e₁ ∪ … ∪ e_j) for an edge e and j ≤ k other edges that equals no
// earlier edge. That is the paper's subedge function without the
// subsets of each such set. An HD of H⁺ is a GHD of H once each subedge
// in a λ-label is charged to the edge it was cut from: the bags stay as
// they are and each edge is kept once, which can only shrink the width.
// The search finds a GHD of width ≤ k whenever H⁺ has an HD of width
// ≤ k, so whenever H has one; on every hypergraph the tests compare
// with an exact oracle, it answers YES exactly when ghw ≤ k. Exact GHD
// width is NP-hard already at k = 2 [15, 20].
//
// A GHD is not safe for concurrent use.
type GHD struct {
	h      *hypergraph.Hypergraph
	search *Solver // det-k-decomp on H⁺
	// parent[e] is the edge of h that edge e of H⁺ was cut from.
	parent []int
}

// NewGHD returns a GHD solver for hypergraph h and width bound k.
func NewGHD(h *hypergraph.Hypergraph, k int) *GHD {
	hPlus, parent := subedgeAugment(h, k)
	return &GHD{h: h, search: New(hPlus, k), parent: parent}
}

// subedgeAugment returns H⁺ for width k over h's vertex space and, for
// each of its edges, the edge of h it is charged to. A subedge
// e ∩ (e₁ ∪ … ∪ e_j) is charged to e. The subedges of e are the unions
// of at most k of its cuts e ∩ f, built one cut at a time: a union that
// needs j + 1 cuts extends one that needs j.
func subedgeAugment(h *hypergraph.Hypergraph, k int) (*hypergraph.Hypergraph, []int) {
	m := h.NumEdges()
	parent := make([]int, m)
	seen := make(map[string]bool, m)
	for e := range m {
		parent[e] = e
		seen[string(h.Edge(e).AppendKey(nil))] = true
	}
	var extra []*bitset.Set
	for e := range m {
		var cuts []*bitset.Set
		unions := map[string]bool{} // e's subedges so far, added or not
		keep := func(sub *bitset.Set) bool {
			key := string(sub.AppendKey(nil))
			if sub.IsEmpty() || unions[key] {
				return false
			}
			unions[key] = true
			if !seen[key] {
				seen[key] = true
				extra = append(extra, sub)
				parent = append(parent, e)
			}
			return true
		}
		for f := range m {
			if sub := h.Edge(e).Intersect(h.Edge(f)); f != e && keep(sub) {
				cuts = append(cuts, sub)
			}
		}
		for level, j := cuts, 1; j < k && len(level) > 0; j++ {
			var next []*bitset.Set
			for _, u := range level {
				for _, c := range cuts {
					if c.SubsetOf(u) {
						continue
					}
					sub := u.Clone()
					if sub.InPlaceUnion(c); keep(sub) {
						next = append(next, sub)
					}
				}
			}
			level = next
		}
	}
	return h.WithEdges(extra), parent
}

// Decompose checks whether H⁺ has an HD of width ≤ k and, if so,
// returns it as a GHD of h. The context cancels long searches;
// ctx.Err() is returned in that case.
func (g *GHD) Decompose(ctx context.Context) (*decomp.Decomp, bool, error) {
	d, ok, err := g.search.Decompose(ctx)
	if err != nil || !ok {
		return nil, false, err
	}
	d.Root.Walk(func(n *decomp.Node) bool {
		for i, e := range n.Lambda {
			n.Lambda[i] = g.parent[e]
		}
		slices.Sort(n.Lambda)
		n.Lambda = slices.Compact(n.Lambda)
		return true
	})
	d.H = g.h
	return d, true, nil
}
