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
// Cases", GHD runs det-k-decomp on the subedge-augmented hypergraph H⁺:
// H's edges with their ids, then every non-empty pairwise intersection
// of H's edges that equals no earlier edge. An HD of H⁺ is a GHD of H
// once each subedge in a λ-label is charged to the edge it was cut
// from: the bags stay as they are and each edge is kept once, which can
// only shrink the width. The answer is complete relative to H⁺: the
// search finds a GHD of width ≤ k whenever H⁺ has an HD of width ≤ k,
// so in particular whenever H has one. Exact GHD width is NP-hard
// already at k = 2 [15, 20], and every practical system trades
// completeness for a bounded subedge closure like this one.
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
	hPlus, parent := subedgeAugment(h)
	return &GHD{h: h, search: New(hPlus, k), parent: parent}
}

// subedgeAugment returns H⁺ over h's vertex space and, for each of its
// edges, the edge of h it is charged to. A subedge e_i ∩ e_j with i < j
// is charged to e_i.
func subedgeAugment(h *hypergraph.Hypergraph) (*hypergraph.Hypergraph, []int) {
	m := h.NumEdges()
	parent := make([]int, m)
	seen := make(map[string]bool, m)
	for e := range m {
		parent[e] = e
		seen[string(h.Edge(e).AppendKey(nil))] = true
	}
	var extra []*bitset.Set
	for i := range m {
		for j := i + 1; j < m; j++ {
			sub := h.Edge(i).Intersect(h.Edge(j))
			if sub.IsEmpty() {
				continue
			}
			key := string(sub.AppendKey(nil))
			if seen[key] {
				continue
			}
			seen[key] = true
			extra = append(extra, sub)
			parent = append(parent, i)
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
