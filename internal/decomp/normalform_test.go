package decomp

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/bitset"
	"repro/internal/ext"
)

func TestPaperHDIsNormalForm(t *testing.T) {
	// The Appendix B decomposition (Figure 2a) satisfies Definition 3.5:
	// bags are chosen minimally, every child covers exactly one
	// component, and progress is made at every node.
	h := cycle10()
	d := paperHD(h)
	if err := CheckNormalForm(d, ext.Root(h)); err != nil {
		t.Fatalf("paper HD rejected as normal form: %v", err)
	}
}

func TestNormalFormRejectsMaximalBags(t *testing.T) {
	// Inflating χ(u2) with x2 (= vertex 1, present in ∪λ(u2) via R1 and
	// in χ(u1)) keeps the HD valid under the 2002-style maximal normal
	// form but violates the paper's minimal condition (3).
	h := cycle10()
	d := paperHD(h)
	c := d.Root.Children[0]
	c.Bag = c.Bag.Clone()
	c.Bag.Set(1)
	if err := CheckHD(d); err != nil {
		t.Fatalf("inflated HD should still be valid: %v", err)
	}
	err := CheckNormalForm(d, ext.Root(h))
	if err == nil || !strings.Contains(err.Error(), "normal form (3)") {
		t.Fatalf("expected condition (3) violation, got %v", err)
	}
}

func TestNormalFormRejectsNoProgress(t *testing.T) {
	// Duplicate a node: the copy covers nothing new, violating (1):
	// cov(T_c) of the duplicated child is not a full component.
	h := cycle10()
	d := paperHD(h)
	dup := NewNode(d.Root.Lambda, d.Root.Bag.Clone())
	dup.Children = d.Root.Children
	d.Root.Children = []*Node{dup}
	if err := CheckHD(d); err != nil {
		t.Fatalf("duplicated-node HD should still be valid: %v", err)
	}
	if err := CheckNormalForm(d, ext.Root(h)); err == nil {
		t.Fatal("duplicated node should violate the normal form")
	}
}

func TestNormalFormWithSpecials(t *testing.T) {
	// The paper's fragment D1.2 (Figure 2c) is in normal form for its
	// extended subhypergraph.
	h := cycle10()
	d, g, _ := fragment12(h)
	if err := CheckNormalForm(d, g); err != nil {
		t.Fatalf("paper fragment rejected: %v", err)
	}
}

// CheckNormalForm verifies that d is in the normal form of
// Definition 3.5 with respect to the extended subhypergraph g: for every
// node p and every child c,
//
//	(1) exactly one [χ(p)]-component C_p of g satisfies C_p = cov(T_c);
//	(2) some f ∈ C_p has f ⊆ χ(c) ("progress is made at c");
//	(3) χ(c) = ∪λ(c) ∩ ∪C_p (the bag is chosen minimally — the paper's
//	    deviation from the normal form of Gottlob/Leone/Scarcello 2002).
//
// Theorem 3.6 guarantees a width-preserving normal form always exists;
// solvers are not required to output one, so this checker serves the
// test suite rather than validation.
func CheckNormalForm(d *Decomp, g *ext.Graph) error {
	if d.Root == nil {
		return fmt.Errorf("decomp: empty decomposition")
	}
	nItems := g.Size()
	itemVerts := func(i int) *bitset.Set {
		if i < len(g.Edges) {
			return d.H.Edge(g.Edges[i])
		}
		return g.Specials[i-len(g.Edges)].Vertices
	}

	// covTree[n] = items covered for the first time within T_n, as an
	// item bitset (Definition 3.4; disjointness across incomparable
	// nodes holds in every valid HD).
	covTree := map[*Node]*bitset.Set{}
	coveredOnPath := make([]bool, nItems)
	var fill func(n *Node)
	fill = func(n *Node) {
		set := bitset.New(nItems)
		var newly []int
		for i := 0; i < nItems; i++ {
			if !coveredOnPath[i] && itemVerts(i).SubsetOf(n.Bag) {
				newly = append(newly, i)
				set.Set(i)
			}
		}
		for _, i := range newly {
			coveredOnPath[i] = true
		}
		for _, c := range n.Children {
			fill(c)
			set.InPlaceUnion(covTree[c])
		}
		covTree[n] = set
		for _, i := range newly {
			coveredOnPath[i] = false
		}
	}
	fill(d.Root)

	split := ext.NewSplitter(g.H)
	var check func(p *Node) error
	check = func(p *Node) error {
		if len(p.Children) > 0 {
			comps := split.ComponentsInto(g, p.Bag, new(ext.ComponentBuf))
			// Item bitset per component for comparison.
			compSets := make([]*bitset.Set, len(comps))
			for ci, comp := range comps {
				cs := bitset.New(nItems)
				for _, e := range comp.Edges {
					cs.Set(indexOfEdge(g, e))
				}
				for _, sp := range comp.Specials {
					cs.Set(indexOfSpecial(g, sp.ID))
				}
				compSets[ci] = cs
			}
			for _, c := range p.Children {
				cov := covTree[c]
				matched := -1
				for ci, cs := range compSets {
					if cs.SubsetOf(cov) && cov.SubsetOf(cs) {
						matched = ci
						break
					}
				}
				if matched < 0 {
					return fmt.Errorf("decomp: normal form (1): cov(T_c) is not a single [χ(p)]-component at child with λ=%v", c.Lambda)
				}
				comp := comps[matched]
				// Condition (2).
				progress := false
				for _, e := range comp.Edges {
					if d.H.Edge(e).SubsetOf(c.Bag) {
						progress = true
						break
					}
				}
				if !progress {
					for _, sp := range comp.Specials {
						if sp.Vertices.SubsetOf(c.Bag) {
							progress = true
							break
						}
					}
				}
				if !progress {
					return fmt.Errorf("decomp: normal form (2): no component item covered at child with λ=%v", c.Lambda)
				}
				// Condition (3): χ(c) = ∪λ(c) ∩ ∪C_p.
				if !c.IsSpecialLeaf() {
					lamUnion := d.H.NewVertexSet()
					for _, e := range c.Lambda {
						lamUnion.InPlaceUnion(d.H.Edge(e))
					}
					want := lamUnion.Intersect(comp.Vertices())
					if !c.Bag.SubsetOf(want) || !want.SubsetOf(c.Bag) {
						return fmt.Errorf("decomp: normal form (3): χ(c) = %s, minimal choice is %s at child with λ=%v",
							c.Bag, want, c.Lambda)
					}
				}
			}
		}
		for _, c := range p.Children {
			if err := check(c); err != nil {
				return err
			}
		}
		return nil
	}
	return check(d.Root)
}

func indexOfEdge(g *ext.Graph, e int) int {
	for i, ge := range g.Edges {
		if ge == e {
			return i
		}
	}
	return -1
}

func indexOfSpecial(g *ext.Graph, id int) int {
	for i, sp := range g.Specials {
		if sp.ID == id {
			return len(g.Edges) + i
		}
	}
	return -1
}
