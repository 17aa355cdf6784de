// Package balgo computes generalized hypertree decompositions (GHDs) in
// the style of BalancedGo [21], the parallel GHD system the paper builds
// on and compares against in §5.2.
//
// GHDs drop the special condition, so a bag χ(u) may be a proper subset
// of ∪λ(u). Practical GHD algorithms handle this by augmenting the edge
// pool with subedges — intersections of edges — and searching over the
// augmented pool; the pool blow-up is the "additional exponential
// factor" of GHD computation the paper's introduction discusses (the
// decision problem is NP-hard already for width 2 [15, 20]).
//
// This implementation augments the pool with intersections of up to
// SubedgeOrder original edges (default 2) and runs a top-down search
// over the augmented pool. It is sound — every output validates as a
// GHD — and complete relative to the pool closure: whenever a GHD of
// width ≤ k exists whose bags are expressible over the augmented pool,
// it is found. In particular it succeeds whenever det-k-decomp does,
// since the pool contains all original edges and the special condition
// is not enforced. Exact GHD width is NP-hard at k = 2, so every
// practical system makes this trade; with SubedgeOrder = |E| the search
// is exact and fully exponential.
package balgo

import (
	"context"
	"sort"

	"repro/internal/bitset"
	"repro/internal/decomp"
	"repro/internal/ext"
	"repro/internal/hypergraph"
)

// Options configures the GHD solver.
type Options struct {
	// K is the width bound (required, ≥ 1).
	K int
	// SubedgeOrder bounds how many original edges may be intersected to
	// form a subedge in the λ pool. 1 disables augmentation; 2 (default
	// when 0) adds pairwise intersections.
	SubedgeOrder int
}

// poolEntry is an element of the augmented λ pool: a vertex set together
// with the original edge it is charged to in the final λ-label.
type poolEntry struct {
	verts  *bitset.Set
	parent int // original edge id
}

// Solver computes GHDs of one hypergraph for one width bound. Not safe
// for concurrent use.
type Solver struct {
	H    *hypergraph.Hypergraph
	Opts Options

	pool     []poolEntry
	split    *ext.Splitter
	negCache map[string]struct{}

	// Stats counts search effort.
	Stats struct {
		PoolSize   int
		Candidates int64
	}

	ctx   context.Context
	steps int
}

// New returns a GHD solver for h.
func New(h *hypergraph.Hypergraph, opts Options) *Solver {
	if opts.K < 1 {
		panic("balgo: width bound K must be >= 1")
	}
	if opts.SubedgeOrder < 1 {
		opts.SubedgeOrder = 2
	}
	s := &Solver{H: h, Opts: opts, split: ext.NewSplitter(h), negCache: map[string]struct{}{}}
	s.buildPool()
	return s
}

// buildPool assembles original edges plus subedges up to SubedgeOrder.
func (s *Solver) buildPool() {
	seen := map[string]bool{}
	add := func(v *bitset.Set, parent int) {
		if v.IsEmpty() {
			return
		}
		key := string(v.AppendKey(nil))
		if seen[key] {
			return
		}
		seen[key] = true
		s.pool = append(s.pool, poolEntry{verts: v, parent: parent})
	}
	m := s.H.NumEdges()
	for e := 0; e < m; e++ {
		add(s.H.Edge(e).Clone(), e)
	}
	// Intersections of growing order. Order o entries are intersections
	// of an original edge with o-1 others.
	frontier := make([]poolEntry, len(s.pool))
	copy(frontier, s.pool)
	for order := 2; order <= s.Opts.SubedgeOrder; order++ {
		var next []poolEntry
		for _, pe := range frontier {
			for e := 0; e < m; e++ {
				if e == pe.parent {
					continue
				}
				iv := pe.verts.Intersect(s.H.Edge(e))
				if iv.IsEmpty() || iv.Equal(pe.verts) {
					continue
				}
				key := string(iv.AppendKey(nil))
				if !seen[key] {
					seen[key] = true
					entry := poolEntry{verts: iv, parent: pe.parent}
					s.pool = append(s.pool, entry)
					next = append(next, entry)
				}
			}
		}
		frontier = next
	}
	// Deterministic order: decreasing size, then content.
	sort.SliceStable(s.pool, func(a, b int) bool {
		la, lb := s.pool[a].verts.Len(), s.pool[b].verts.Len()
		if la != lb {
			return la > lb
		}
		return s.pool[a].parent < s.pool[b].parent
	})
	s.Stats.PoolSize = len(s.pool)
}

// Decompose checks whether the augmented-pool search finds a GHD of
// width ≤ K and returns it. The returned decomposition's λ-labels refer
// to original edges (subedges are replaced by their parent edges), so it
// validates under decomp.CheckGHD.
func (s *Solver) Decompose(ctx context.Context) (*decomp.Decomp, bool, error) {
	s.ctx = ctx
	g := ext.Root(s.H)
	node, ok, err := s.rec(g, s.H.NewVertexSet())
	if err != nil || !ok {
		return nil, false, err
	}
	return &decomp.Decomp{H: s.H, Root: node}, true, nil
}

func (s *Solver) tick() error {
	s.steps++
	if s.steps&0xFF == 0 {
		return s.ctx.Err()
	}
	return nil
}

func (s *Solver) rec(g *ext.Graph, conn *bitset.Set) (*decomp.Node, bool, error) {
	if err := s.ctx.Err(); err != nil {
		return nil, false, err
	}
	if len(g.Edges) == 0 {
		switch len(g.Specials) {
		case 0: // a hypergraph with no edges: one node with an empty bag
			return decomp.NewNode(nil, s.H.NewVertexSet()), true, nil
		case 1:
			sp := g.Specials[0]
			return decomp.NewSpecialLeaf(sp.ID, sp.Vertices), true, nil
		default:
			return nil, false, nil
		}
	}

	key := string(g.KeyStrict(conn, nil))
	if _, bad := s.negCache[key]; bad {
		return nil, false, nil
	}

	// Candidate pool restricted to entries intersecting the subproblem.
	scope := g.Vertices().Union(conn)
	var cands []int
	for i := range s.pool {
		if s.pool[i].verts.Intersects(scope) {
			cands = append(cands, i)
		}
	}

	lambda := make([]int, 0, s.Opts.K) // pool indices
	cover := s.H.NewVertexSet()

	var try func(start int) (*decomp.Node, bool, error)
	try = func(start int) (*decomp.Node, bool, error) {
		if len(lambda) > 0 {
			s.Stats.Candidates++
			if err := s.tick(); err != nil {
				return nil, false, err
			}
			if node, ok, err := s.tryLambda(g, conn, cover, lambda); err != nil || ok {
				return node, ok, err
			}
		}
		if len(lambda) == s.Opts.K {
			return nil, false, nil
		}
		for i := start; i < len(cands); i++ {
			pi := cands[i]
			lambda = append(lambda, pi)
			saved := cover.Clone()
			cover.InPlaceUnion(s.pool[pi].verts)
			node, ok, err := try(i + 1)
			lambda = lambda[:len(lambda)-1]
			cover.CopyFrom(saved)
			if err != nil || ok {
				return node, ok, err
			}
		}
		return nil, false, nil
	}
	node, ok, err := try(0)
	if err != nil {
		return nil, false, err
	}
	if !ok {
		s.negCache[key] = struct{}{}
	}
	return node, ok, nil
}

func (s *Solver) tryLambda(g *ext.Graph, conn *bitset.Set, cover *bitset.Set, lambda []int) (*decomp.Node, bool, error) {
	if !conn.SubsetOf(cover) {
		return nil, false, nil
	}
	// Progress: some edge of the subproblem fully covered by the bag.
	chi := cover.Intersect(g.Vertices().Union(conn))
	progress := false
	for _, e := range g.Edges {
		if s.H.Edge(e).SubsetOf(chi) {
			progress = true
			break
		}
	}
	if !progress {
		return nil, false, nil
	}
	comps := s.split.ComponentsInto(g, chi, new(ext.ComponentBuf))
	children := make([]*decomp.Node, 0, len(comps))
	for _, c := range comps {
		childConn := c.Vertices().Intersect(chi)
		child, ok, err := s.rec(c, childConn)
		if err != nil || !ok {
			return nil, ok, err
		}
		children = append(children, child)
	}
	for _, sp := range g.SpecialsCoveredBy(chi) {
		children = append(children, decomp.NewSpecialLeaf(sp.ID, sp.Vertices))
	}
	// λ-label in terms of original edges (a subedge is charged to its
	// parent edge); duplicates collapse, which can only shrink the width.
	lamEdges := make([]int, 0, len(lambda))
	seen := map[int]bool{}
	for _, pi := range lambda {
		p := s.pool[pi].parent
		if !seen[p] {
			seen[p] = true
			lamEdges = append(lamEdges, p)
		}
	}
	node := decomp.NewNode(lamEdges, chi)
	node.Children = children
	return node, true, nil
}
