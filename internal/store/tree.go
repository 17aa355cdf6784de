package store

import (
	"fmt"

	"repro/internal/decomp"
	"repro/internal/hypergraph"
)

// Tree is a portable, hypergraph-independent decomposition: the node
// structure of a decomp.Decomp with λ-labels as edge ids and bags as
// vertex ids. Because hypergraph.ContentHash pins the edge bitsets over
// the id space, a Tree encoded from a decomposition of H is valid for
// every hypergraph with the same content hash — including one built
// from renamed relations, or one parsed in a different process after a
// log replay. Bind materialises it back into a decomp.Decomp over a
// concrete hypergraph; callers re-validate with decomp.CheckHD before
// trusting the result, so a corrupted record can never leak an invalid
// decomposition to a client.
type Tree struct {
	Lambda   []int   `json:"lambda"`
	Bag      []int   `json:"bag"`
	Children []*Tree `json:"children,omitempty"`
}

// Width returns the maximum |λ| over the tree, 0 for a nil tree.
func (t *Tree) Width() int {
	if t == nil {
		return 0
	}
	w := len(t.Lambda)
	for _, c := range t.Children {
		if cw := c.Width(); cw > w {
			w = cw
		}
	}
	return w
}

// EncodeTree converts a finished decomposition into its portable form.
// Decompositions with placeholder special leaves (an internal solver
// state, never returned to callers) cannot be encoded and yield nil.
func EncodeTree(d *decomp.Decomp) *Tree {
	if d == nil || d.Root == nil {
		return nil
	}
	t, ok := encodeNode(d.Root)
	if !ok {
		return nil
	}
	return t
}

func encodeNode(n *decomp.Node) (*Tree, bool) {
	if n.IsSpecialLeaf() || n.Bag == nil {
		return nil, false
	}
	t := &Tree{
		Lambda: append([]int(nil), n.Lambda...),
		Bag:    n.Bag.Elements(),
	}
	for _, c := range n.Children {
		ct, ok := encodeNode(c)
		if !ok {
			return nil, false
		}
		t.Children = append(t.Children, ct)
	}
	return t, true
}

// Bind materialises the tree as a decomposition of h. Edge and vertex
// ids are range-checked so a corrupted or mismatched record fails
// loudly here instead of panicking inside a validity checker.
func (t *Tree) Bind(h *hypergraph.Hypergraph) (*decomp.Decomp, error) {
	if t == nil {
		return nil, fmt.Errorf("store: nil tree")
	}
	root, err := t.bindNode(h)
	if err != nil {
		return nil, err
	}
	return &decomp.Decomp{H: h, Root: root}, nil
}

func (t *Tree) bindNode(h *hypergraph.Hypergraph) (*decomp.Node, error) {
	for _, e := range t.Lambda {
		if e < 0 || e >= h.NumEdges() {
			return nil, fmt.Errorf("store: tree edge id %d out of range [0,%d)", e, h.NumEdges())
		}
	}
	bag := h.NewVertexSet()
	for _, v := range t.Bag {
		if v < 0 || v >= h.NumVertices() {
			return nil, fmt.Errorf("store: tree vertex id %d out of range [0,%d)", v, h.NumVertices())
		}
		bag.Set(v)
	}
	n := decomp.NewNode(t.Lambda, bag)
	for _, c := range t.Children {
		cn, err := c.bindNode(h)
		if err != nil {
			return nil, err
		}
		n.Children = append(n.Children, cn)
	}
	return n, nil
}
