package decomp

import (
	"fmt"

	"repro/internal/bitset"
	"repro/internal/ext"
)

// CheckHD verifies the four conditions of a hypertree decomposition of H
// (Gottlob, Leone, Scarcello 2002, restated in §2 of the paper):
//
//	(1) every edge e has a node u with e ⊆ χ(u);
//	(2) for every vertex v, {u : v ∈ χ(u)} is connected in T;
//	(3) χ(u) ⊆ ∪λ(u) for every node;
//	(4) χ(T_u) ∩ ∪λ(u) ⊆ χ(u) for every node (the special condition).
//
// It returns nil iff the decomposition is a valid HD.
func CheckHD(d *Decomp) error {
	if err := CheckGHD(d); err != nil {
		return err
	}
	return checkSpecialCondition(d)
}

// CheckGHD verifies conditions (1)-(3) only, i.e. validity as a
// generalized hypertree decomposition.
func CheckGHD(d *Decomp) error {
	if d.Root == nil {
		return fmt.Errorf("decomp: empty decomposition")
	}
	if err := checkNoSpecialLeaves(d); err != nil {
		return err
	}
	if err := checkBagsCovered(d); err != nil {
		return err
	}
	if err := checkEdgeCoverage(d); err != nil {
		return err
	}
	return checkConnectedness(d, d.H.Vertices())
}

// CheckWidth verifies width(d) ≤ k.
func CheckWidth(d *Decomp, k int) error {
	if w := d.Width(); w > k {
		return fmt.Errorf("decomp: width %d exceeds %d", w, k)
	}
	return nil
}

func checkNoSpecialLeaves(d *Decomp) error {
	var err error
	d.Root.Walk(func(n *Node) bool {
		if n.IsSpecialLeaf() {
			err = fmt.Errorf("decomp: unresolved special leaf #%d", n.SpecialID)
			return false
		}
		return true
	})
	return err
}

func checkEdgeCoverage(d *Decomp) error {
	for e := 0; e < d.H.NumEdges(); e++ {
		covered := false
		d.Root.Walk(func(n *Node) bool {
			if d.H.Edge(e).SubsetOf(n.Bag) {
				covered = true
				return false
			}
			return true
		})
		if !covered {
			return fmt.Errorf("decomp: edge %s not covered by any bag", d.H.EdgeName(e))
		}
	}
	return nil
}

// checkConnectedness verifies condition (2) for every vertex in scope:
// the nodes whose bag contains v form a connected subtree.
func checkConnectedness(d *Decomp, scope *bitset.Set) error {
	// Collect nodes and parent pointers.
	var nodes []*Node
	parent := map[*Node]*Node{}
	d.Root.Walk(func(n *Node) bool {
		nodes = append(nodes, n)
		for _, c := range n.Children {
			parent[c] = n
		}
		return true
	})
	var err error
	scope.ForEach(func(v int) {
		if err != nil {
			return
		}
		// Count nodes containing v and find one of them.
		var first *Node
		total := 0
		for _, n := range nodes {
			if n.Bag.Test(v) {
				total++
				if first == nil {
					first = n
				}
			}
		}
		if total <= 1 {
			return
		}
		// BFS through nodes containing v.
		seen := map[*Node]bool{first: true}
		stack := []*Node{first}
		count := 1
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			var nbrs []*Node
			if p := parent[n]; p != nil {
				nbrs = append(nbrs, p)
			}
			nbrs = append(nbrs, n.Children...)
			for _, x := range nbrs {
				if x.Bag.Test(v) && !seen[x] {
					seen[x] = true
					count++
					stack = append(stack, x)
				}
			}
		}
		if count != total {
			err = fmt.Errorf("decomp: vertex %s violates connectedness (%d of %d nodes reachable)",
				d.H.VertexName(v), count, total)
		}
	})
	return err
}

func checkBagsCovered(d *Decomp) error {
	var err error
	d.Root.Walk(func(n *Node) bool {
		cover := d.H.NewVertexSet()
		for _, e := range n.Lambda {
			cover.InPlaceUnion(d.H.Edge(e))
		}
		if !n.Bag.SubsetOf(cover) {
			err = fmt.Errorf("decomp: bag %s not covered by its λ-label", n.Bag)
			return false
		}
		return true
	})
	return err
}

// checkSpecialCondition verifies condition (4): for every node u,
// χ(T_u) ∩ ∪λ(u) ⊆ χ(u), where χ(T_u) is the union of bags in the
// subtree rooted at u.
func checkSpecialCondition(d *Decomp) error {
	var rec func(n *Node) (*bitset.Set, error)
	rec = func(n *Node) (*bitset.Set, error) {
		sub := n.Bag.Clone()
		for _, c := range n.Children {
			cs, err := rec(c)
			if err != nil {
				return nil, err
			}
			sub.InPlaceUnion(cs)
		}
		cover := d.H.NewVertexSet()
		for _, e := range n.Lambda {
			cover.InPlaceUnion(d.H.Edge(e))
		}
		if !sub.Intersect(cover).SubsetOf(n.Bag) {
			return nil, fmt.Errorf("decomp: special condition violated at node λ={%s}",
				d.coverNames(n.Lambda))
		}
		return sub, nil
	}
	_, err := rec(d.Root)
	return err
}

// CheckExtended verifies that d is an HD of the extended subhypergraph g
// with interface conn, per Definition 3.3 (all six conditions).
func CheckExtended(d *Decomp, g *ext.Graph, conn *bitset.Set) error {
	if d.Root == nil {
		return fmt.Errorf("decomp: empty decomposition")
	}
	specialByID := map[int]*bitset.Set{}
	for _, s := range g.Specials {
		specialByID[s.ID] = s.Vertices
	}
	var err error
	// Condition (1): regular nodes have χ(u) ⊆ ∪λ(u); special leaves have
	// χ(u) = s for a special edge of g. Condition (5): special nodes are leaves.
	d.Root.Walk(func(n *Node) bool {
		if n.IsSpecialLeaf() {
			s, ok := specialByID[n.SpecialID]
			if !ok {
				err = fmt.Errorf("decomp: node references unknown special #%d", n.SpecialID)
				return false
			}
			if !n.Bag.SubsetOf(s) || !s.SubsetOf(n.Bag) {
				err = fmt.Errorf("decomp: special leaf #%d bag differs from special edge", n.SpecialID)
				return false
			}
			if len(n.Children) > 0 {
				err = fmt.Errorf("decomp: special node #%d is not a leaf", n.SpecialID)
				return false
			}
			return true
		}
		cover := d.H.NewVertexSet()
		for _, e := range n.Lambda {
			cover.InPlaceUnion(d.H.Edge(e))
		}
		if !n.Bag.SubsetOf(cover) {
			err = fmt.Errorf("decomp: bag not covered by λ at node λ={%s}", d.coverNames(n.Lambda))
			return false
		}
		return true
	})
	if err != nil {
		return err
	}
	// Condition (2): every edge of E' covered by some bag; every special
	// covered by a special leaf with matching id.
	for _, e := range g.Edges {
		covered := false
		d.Root.Walk(func(n *Node) bool {
			if d.H.Edge(e).SubsetOf(n.Bag) {
				covered = true
				return false
			}
			return true
		})
		if !covered {
			return fmt.Errorf("decomp: extended edge %s not covered", d.H.EdgeName(e))
		}
	}
	for _, s := range g.Specials {
		if d.Root.FindSpecialLeaf(s.ID) == nil {
			return fmt.Errorf("decomp: special #%d has no covering leaf", s.ID)
		}
	}
	// Condition (3): connectedness over the vertices of g only.
	if err := checkConnectedness(d, g.Vertices()); err != nil {
		return err
	}
	// Condition (4): special condition (special leaves have no λ edges, so
	// they never violate it; regular nodes checked as usual).
	if err := checkSpecialCondition(d); err != nil {
		return err
	}
	// Condition (6): Conn ⊆ χ(root).
	if !conn.SubsetOf(d.Root.Bag) {
		return fmt.Errorf("decomp: Conn not contained in root bag")
	}
	return nil
}
