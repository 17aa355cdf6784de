package logk

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/bitset"
	"repro/internal/comb"
	"repro/internal/decomp"
	"repro/internal/ext"
	"repro/internal/hypergraph"
)

// BasicSolver is a faithful, sequential transliteration of the basic
// Algorithm 1 from Section 4 of the paper: the main program guesses the
// root λ-label (RootLoop), and the recursive Decomp guesses parent
// labels before child labels, with none of the Appendix C optimisations.
// It exists as a correctness oracle for the optimised solver; it is far
// too slow for anything but small instances.
type BasicSolver struct {
	H *hypergraph.Hypergraph
	K int

	// MaxDepth records the deepest recursion observed (for the
	// Theorem 4.1 log-depth property test).
	MaxDepth int

	split     *ext.Splitter
	specialID int
	ctx       context.Context
	steps     int
}

// NewBasic returns a BasicSolver for h and width bound k.
func NewBasic(h *hypergraph.Hypergraph, k int) *BasicSolver {
	if k < 1 {
		panic("logk: width bound K must be >= 1")
	}
	return &BasicSolver{H: h, K: k, split: ext.NewSplitter(h)}
}

// Decompose checks hw(H) ≤ k per Algorithm 1 and materialises the HD.
func (b *BasicSolver) Decompose(ctx context.Context) (*decomp.Decomp, bool, error) {
	b.ctx = ctx
	m := b.H.NumEdges()
	if m == 0 {
		// No root λ exists, but nothing needs covering: one node with an
		// empty bag, as Decomp's base case answers an empty subproblem.
		return &decomp.Decomp{H: b.H, Root: decomp.NewNode(nil, b.H.NewVertexSet())}, true, nil
	}
	space := comb.Space{M: m, K: b.K}
	it := comb.NewIter(space, 0, space.Total())
	hComp := ext.Root(b.H)

	lambdaR := make([]int, 0, b.K)
	unionR := b.H.NewVertexSet()

RootLoop:
	for idxs := it.Next(); idxs != nil; idxs = it.Next() {
		if err := b.tick(); err != nil {
			return nil, false, err
		}
		lambdaR = lambdaR[:0]
		unionR.Reset()
		for _, i := range idxs {
			lambdaR = append(lambdaR, i)
			unionR.InPlaceUnion(b.H.Edge(i))
		}
		// χ(r) = ∪λ(r) by the special condition; [λr]-components coincide
		// with [χr]-components (lines 3-4).
		compsR := b.split.ComponentsInto(hComp, unionR, new(ext.ComponentBuf))
		children := make([]*decomp.Node, 0, len(compsR))
		for _, y := range compsR {
			connY := y.Vertices().Intersect(unionR)
			node, ok, err := b.decomp(y, connY, 1)
			if err != nil {
				return nil, false, err
			}
			if !ok {
				continue RootLoop // reject this root (line 8)
			}
			children = append(children, node)
		}
		root := decomp.NewNode(lambdaR, unionR.Clone())
		root.Children = children
		return &decomp.Decomp{H: b.H, Root: root}, true, nil
	}
	return nil, false, nil // exhausted search space (line 10)
}

func (b *BasicSolver) tick() error {
	b.steps++
	if b.steps&0xFF == 0 {
		return b.ctx.Err()
	}
	return nil
}

// decomp is function Decomp of Algorithm 1 (lines 11-40), extended to
// materialise the HD-fragment.
func (b *BasicSolver) decomp(g *ext.Graph, conn *bitset.Set, depth int) (*decomp.Node, bool, error) {
	if err := b.ctx.Err(); err != nil {
		return nil, false, err
	}
	if depth > b.MaxDepth {
		b.MaxDepth = depth
	}
	// Base cases (lines 12-15).
	if len(g.Edges) <= b.K && len(g.Specials) == 0 {
		return decomp.NewNode(g.Edges, b.H.Union(g.Edges)), true, nil
	}
	if len(g.Edges) == 0 && len(g.Specials) == 1 {
		sp := g.Specials[0]
		return decomp.NewSpecialLeaf(sp.ID, sp.Vertices), true, nil
	}

	m := b.H.NumEdges()
	total := g.Size()
	pSpace := comb.Space{M: m, K: b.K}
	pIt := comb.NewIter(pSpace, 0, pSpace.Total())
	lambdaP := make([]int, 0, b.K)
	unionP := b.H.NewVertexSet()

ParentLoop:
	for pIdxs := pIt.Next(); pIdxs != nil; pIdxs = pIt.Next() {
		if err := b.tick(); err != nil {
			return nil, false, err
		}
		lambdaP = lambdaP[:0]
		unionP.Reset()
		for _, i := range pIdxs {
			lambdaP = append(lambdaP, i)
			unionP.InPlaceUnion(b.H.Edge(i))
		}
		compsP := b.split.ComponentsInto(g, unionP, new(ext.ComponentBuf)) // line 17
		di := ext.LargestComponent(compsP, total)
		if di < 0 {
			continue ParentLoop // line 21
		}
		compDown := compsP[di] // line 19
		vDown := compDown.Vertices()
		if !vDown.Intersect(conn).SubsetOf(unionP) {
			continue ParentLoop // connectedness check, line 22-23
		}

		cSpace := comb.Space{M: m, K: b.K}
		cIt := comb.NewIter(cSpace, 0, cSpace.Total())
		lambdaC := make([]int, 0, b.K)
		unionC := b.H.NewVertexSet()

	ChildLoop:
		for cIdxs := cIt.Next(); cIdxs != nil; cIdxs = cIt.Next() {
			if err := b.tick(); err != nil {
				return nil, false, err
			}
			lambdaC = lambdaC[:0]
			unionC.Reset()
			for _, i := range cIdxs {
				lambdaC = append(lambdaC, i)
				unionC.InPlaceUnion(b.H.Edge(i))
			}
			// Soundness of stitching: c sits above the leaf of every
			// special in compDown, so λc must avoid their forbidden
			// vertices (see ext.Special.Forbidden). Algorithm 1's
			// pseudo-code leaves this implicit; without it the special
			// condition can break across fragment boundaries.
			if fb := compDown.ForbiddenUnion(); fb != nil && unionC.Intersects(fb) {
				continue ChildLoop
			}
			chiC := unionC.Intersect(vDown) // line 25
			if !vDown.Intersect(unionP).SubsetOf(chiC) {
				continue ChildLoop // connectedness check, lines 26-27
			}
			compsC := b.split.ComponentsInto(compDown, chiC, new(ext.ComponentBuf)) // line 28
			if ext.LargestComponent(compsC, total) >= 0 {
				continue ChildLoop // lines 29-30
			}
			children := make([]*decomp.Node, 0, len(compsC))
			for _, x := range compsC { // lines 31-34
				connX := x.Vertices().Intersect(chiC)
				child, ok, err := b.decomp(x, connX, depth+1)
				if err != nil {
					return nil, false, err
				}
				if !ok {
					continue ChildLoop // reject child
				}
				children = append(children, child)
			}
			// compUp := H' \ compDown plus χc as a special (lines 35-36).
			// The new special's Forbidden set records what will later be
			// spliced below its leaf (everything compDown covers).
			b.specialID++
			sid := b.specialID
			forbidden := vDown.Clone()
			for _, sp := range compDown.Specials {
				if sp.Forbidden != nil {
					forbidden.InPlaceUnion(sp.Forbidden)
				}
			}
			forbidden.InPlaceDiff(chiC)
			compUp := g.Subtract(compDown).WithSpecial(ext.Special{ID: sid, Vertices: chiC, Forbidden: forbidden})
			up, ok, err := b.decomp(compUp, conn, depth+1) // line 37
			if err != nil {
				return nil, false, err
			}
			if !ok {
				continue ChildLoop // reject child (line 38)
			}
			// Stitch the fragments (soundness construction, Appendix A).
			leaf := up.FindSpecialLeaf(sid)
			if leaf == nil {
				return nil, false, fmt.Errorf("logk: internal error: special leaf %d missing", sid)
			}
			leaf.SpecialID = decomp.NoSpecial
			leaf.Lambda = append([]int(nil), lambdaC...)
			slices.Sort(leaf.Lambda)
			leaf.Bag = chiC
			leaf.Children = children
			for _, sp := range compDown.SpecialsCoveredBy(chiC) {
				leaf.Children = append(leaf.Children, decomp.NewSpecialLeaf(sp.ID, sp.Vertices))
			}
			return up, true, nil // line 39
		}
	}
	return nil, false, nil // exhausted search space (line 40)
}
