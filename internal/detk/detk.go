// Package detk implements det-k-decomp (Gottlob & Samer 2008), the
// sequential state-of-the-art HD algorithm the paper compares against as
// NewDetKDecomp [9], and which log-k-decomp's hybrid mode switches to on
// small subproblems.
//
// The algorithm constructs an HD strictly top-down: given a component C
// and the connector Conn to the already-built part above, it guesses a
// λ-label covering Conn that makes progress (covers at least one edge of
// C), derives the bag χ(u) = ∪λ ∩ (V(C) ∪ Conn), and recurses into the
// [χ(u)]-components. Its performance relies on memoising failed
// (component, connector) states — the caching that the paper identifies
// as the obstacle to parallelising it. Refutations are keyed by content
// (ext.Graph.MemoKey with no allowed list), as log-k-decomp keys its
// own; successful fragments are not cached.
//
// One search call does only the work a label needs, without changing
// which label it accepts. All its labels share the component and the
// connector, so a bag it has refuted once is never split again in that
// call (Stats.Splits counts the splits). The last edge of a label must
// cover the connector, so it is drawn from the edges containing the
// first connector vertex the other edges miss; labels that cannot cover
// the connector are never formed (Stats.Candidates counts the formed
// ones). The components of a bag are carved into storage of the search
// frame; once the label is done, the caches hold only their keys.
//
// This implementation is extended to handle extended subhypergraphs
// (special edges), which the original does not need but the hybrid mode
// of log-k-decomp does: a special edge is covered by attaching a
// dedicated leaf below the node whose bag contains it.
package detk

import (
	"context"

	"repro/internal/bitset"
	"repro/internal/decomp"
	"repro/internal/ext"
	"repro/internal/hypergraph"
)

// Solver runs det-k-decomp for one hypergraph and one width bound.
// A Solver is not safe for concurrent use.
type Solver struct {
	H *hypergraph.Hypergraph
	K int

	split    *ext.Splitter
	negCache map[string]struct{}
	keyBuf   []byte   // cache-key scratch, reused by every rec call
	frames   []*frame // per-depth search scratch, see frame

	// Stats are populated during Decompose for instrumentation.
	Stats Stats

	ctx      context.Context
	ctxCheck int
}

// Stats reports search effort counters.
type Stats struct {
	Candidates int64 // λ-labels formed
	Splits     int64 // bags split into [χ]-components
	CacheHits  int64
	CacheMiss  int64
	MaxDepth   int
}

// New returns a solver for hypergraph h and width bound k.
func New(h *hypergraph.Hypergraph, k int) *Solver {
	return &Solver{
		H:        h,
		K:        k,
		split:    ext.NewSplitter(h),
		negCache: make(map[string]struct{}),
	}
}

// Decompose checks whether hw(H) ≤ k and, if so, returns a width-≤k HD.
// The context cancels long searches; ctx.Err() is returned in that case.
func (s *Solver) Decompose(ctx context.Context) (*decomp.Decomp, bool, error) {
	root := ext.Root(s.H)
	conn := s.H.NewVertexSet()
	node, ok, err := s.DecomposeExt(ctx, root, conn)
	if err != nil || !ok {
		return nil, false, err
	}
	return &decomp.Decomp{H: s.H, Root: node}, true, nil
}

// DecomposeExt solves the extended subhypergraph g with interface conn.
// It returns the root of an HD-fragment per Definition 3.3, in which
// every special edge of g appears as exactly one placeholder leaf.
func (s *Solver) DecomposeExt(ctx context.Context, g *ext.Graph, conn *bitset.Set) (*decomp.Node, bool, error) {
	s.ctx = ctx
	return s.rec(g, conn, 1)
}

func (s *Solver) rec(g *ext.Graph, conn *bitset.Set, depth int) (*decomp.Node, bool, error) {
	if err := s.ctx.Err(); err != nil {
		return nil, false, err
	}
	if depth > s.Stats.MaxDepth {
		s.Stats.MaxDepth = depth
	}
	// Base cases (mirroring lines 12-15 of Algorithm 1 plus the negative
	// base case of Appendix C). A hypergraph with no edges gets one node
	// with an empty bag, as log-k-decomp answers it.
	if len(g.Edges) <= s.K && len(g.Specials) == 0 {
		bag := s.H.Union(g.Edges)
		return decomp.NewNode(g.Edges, bag), true, nil
	}
	if len(g.Edges) == 0 {
		if len(g.Specials) == 1 {
			sp := g.Specials[0]
			return decomp.NewSpecialLeaf(sp.ID, sp.Vertices), true, nil
		}
		return nil, false, nil // ≥2 specials need a fresh edge: impossible
	}

	// A refutation depends on the specials' vertices and forbidden sets,
	// not on their IDs, so the content key serves every branch.
	s.keyBuf = g.MemoKey(conn, nil, s.keyBuf[:0])
	if _, bad := s.negCache[string(s.keyBuf)]; bad {
		s.Stats.CacheHits++
		return nil, false, nil
	}
	s.Stats.CacheMiss++
	key := string(s.keyBuf) // materialise before the search reuses the buffer

	node, ok, err := s.search(g, conn, depth)
	if err == nil && !ok {
		s.negCache[key] = struct{}{}
	}
	return node, ok, err
}

// frame is the state of one search call: the subproblem, its candidate
// pool and the label being enumerated, with scratch sets for the label's
// covers and bag. A search call at recursion depth d uses frames[d]. The
// calls live at one time have distinct depths, so their frames never
// overlap, and the next call at the same depth reuses the scratch: the
// enumeration itself allocates nothing.
type frame struct {
	g     *ext.Graph
	conn  *bitset.Set
	depth int

	pool []int
	// pos[e] is edge e's position in pool, or -1 when e is not in it.
	pos    []int32
	lambda []int
	// covers[i] is ∪ of the first i edges of lambda, so extending λ by
	// one edge overwrites the next slot instead of cloning a cover.
	covers    []*bitset.Set
	scope     *bitset.Set // V(g) ∪ conn
	chi       *bitset.Set // the bag of the label in tryLambda
	childConn *bitset.Set // the interface passed down to a component
	children  []*decomp.Node
	// comps holds the [χ]-components of the label in tryLambda. A
	// component lives until that tryLambda returns: the child frames
	// only read it, and the caches keep only key strings.
	comps ext.ComponentBuf
	// refuted holds the keys of the bags this search call has refuted,
	// and chiKey is the key of chi.
	refuted map[string]struct{}
	chiKey  []byte
}

// frame returns the scratch for the search call at the given depth,
// growing the stack as needed.
func (s *Solver) frame(depth int) *frame {
	for len(s.frames) <= depth {
		f := &frame{
			pos:       make([]int32, s.H.NumEdges()),
			lambda:    make([]int, 0, s.K),
			covers:    make([]*bitset.Set, s.K+1),
			scope:     s.H.NewVertexSet(),
			chi:       s.H.NewVertexSet(),
			childConn: s.H.NewVertexSet(),
			refuted:   make(map[string]struct{}),
		}
		for i := range f.covers {
			f.covers[i] = s.H.NewVertexSet()
		}
		s.frames = append(s.frames, f)
	}
	return s.frames[depth]
}

// search enumerates λ-labels for the next node below conn, in
// lexicographic order of pool positions, each label before its
// extensions.
func (s *Solver) search(g *ext.Graph, conn *bitset.Set, depth int) (*decomp.Node, bool, error) {
	if s.K < 1 {
		return nil, false, nil
	}
	f := s.frame(depth)
	f.g, f.conn, f.depth = g, conn, depth
	clear(f.refuted)
	// Candidate pool: edges of H touching V(g) ∪ conn. Edges disjoint
	// from the subproblem contribute nothing to the bag. Every λ chosen
	// here roots the fragment covering g, hence sits above the leaf of
	// every special of g — so edges touching the specials' forbidden
	// vertices are excluded (see ext.Special.Forbidden).
	f.scope.Reset()
	s.H.UnionInto(f.scope, g.Edges)
	for _, sp := range g.Specials {
		f.scope.InPlaceUnion(sp.Vertices)
	}
	f.scope.InPlaceUnion(conn)
	forbidden := g.ForbiddenUnion()
	f.pool = f.pool[:0]
	for e := 0; e < s.H.NumEdges(); e++ {
		f.pos[e] = -1
		if !s.H.Edge(e).Intersects(f.scope) {
			continue
		}
		if forbidden != nil && s.H.Edge(e).Intersects(forbidden) {
			continue
		}
		f.pos[e] = int32(len(f.pool))
		f.pool = append(f.pool, e)
	}
	f.lambda = f.lambda[:0]
	return s.extend(f, 0)
}

// extend enumerates the labels that add one edge of f.pool[startIdx:]
// to f.lambda, each followed by its own extensions. A label whose cover
// misses a connector vertex cannot be a node (connectedness with the
// parent), so it is only formed to be extended, and the last edge of a
// label comes from extendLast.
func (s *Solver) extend(f *frame, startIdx int) (*decomp.Node, bool, error) {
	cover, next := f.covers[len(f.lambda)], f.covers[len(f.lambda)+1]
	if len(f.lambda)+1 == s.K {
		return s.extendLast(f, startIdx, cover, next)
	}
	for i := startIdx; i < len(f.pool); i++ {
		if err := s.countLabel(); err != nil {
			return nil, false, err
		}
		next.UnionOf(cover, s.H.Edge(f.pool[i]))
		f.lambda = append(f.lambda, f.pool[i])
		if f.conn.SubsetOf(next) {
			if node, ok, err := s.tryLambda(f, next); err != nil || ok {
				return node, ok, err
			}
		}
		if node, ok, err := s.extend(f, i+1); err != nil || ok {
			return node, ok, err
		}
		f.lambda = f.lambda[:len(f.lambda)-1]
	}
	return nil, false, nil
}

// extendLast enumerates the labels that complete f.lambda with one edge
// of f.pool[startIdx:], which must cover the connector. When cover
// misses a connector vertex v, only edges containing v can do that, so
// it walks v's incidence list instead of the pool. Both are in ascending
// edge order, so the labels come in the order of a pool scan.
func (s *Solver) extendLast(f *frame, startIdx int, cover, next *bitset.Set) (*decomp.Node, bool, error) {
	if v := f.conn.NextDiff(cover, 0); v >= 0 {
		for _, e := range s.H.IncidentEdges(v) {
			if int(f.pos[e]) < startIdx {
				continue
			}
			if node, ok, err := s.tryLast(f, e, cover, next); err != nil || ok {
				return node, ok, err
			}
		}
		return nil, false, nil
	}
	for _, e := range f.pool[startIdx:] {
		if node, ok, err := s.tryLast(f, e, cover, next); err != nil || ok {
			return node, ok, err
		}
	}
	return nil, false, nil
}

// tryLast forms the label f.lambda + e and tries it when its cover
// holds the connector.
func (s *Solver) tryLast(f *frame, e int, cover, next *bitset.Set) (*decomp.Node, bool, error) {
	if err := s.countLabel(); err != nil {
		return nil, false, err
	}
	if !f.conn.SubsetOfUnion(cover, s.H.Edge(e)) {
		return nil, false, nil
	}
	next.UnionOf(cover, s.H.Edge(e))
	f.lambda = append(f.lambda, e)
	node, ok, err := s.tryLambda(f, next)
	f.lambda = f.lambda[:len(f.lambda)-1]
	return node, ok, err
}

// countLabel counts one formed λ-label and polls the context every 1024
// labels.
func (s *Solver) countLabel() error {
	s.Stats.Candidates++
	s.ctxCheck++
	if s.ctxCheck&0x3FF == 0 {
		return s.ctx.Err()
	}
	return nil
}

// tryLambda checks the label f.lambda, whose cover holds the connector,
// and recurses into the components of its bag on success. The bag is
// built in f.chi and cloned only when the node is built.
func (s *Solver) tryLambda(f *frame, cover *bitset.Set) (*decomp.Node, bool, error) {
	g := f.g
	// Progress: some edge of the component must be fully covered
	// (normal-form condition 2).
	progress := false
	for _, e := range g.Edges {
		if s.H.Edge(e).SubsetOf(cover) {
			progress = true
			break
		}
	}
	if !progress {
		return nil, false, nil
	}
	// Bag per Gottlob & Samer: χ(u) = ∪λ ∩ (V(C) ∪ Conn).
	chi := f.chi
	chi.CopyFrom(cover)
	chi.InPlaceIntersect(f.scope)
	// Every label of this search call shares (g, conn), and the
	// components, their interfaces and the covered specials depend only
	// on χ(u): a bag refuted once fails the same way again.
	f.chiKey = chi.AppendKey(f.chiKey[:0])
	if _, bad := f.refuted[string(f.chiKey)]; bad {
		return nil, false, nil
	}

	s.Stats.Splits++
	f.children = f.children[:0]
	for _, c := range s.split.ComponentsInto(g, chi, &f.comps) {
		// The child's interface V(c) ∩ χ(u); the child only reads it
		// until it returns.
		f.childConn.Reset()
		s.H.UnionInto(f.childConn, c.Edges)
		for _, sp := range c.Specials {
			f.childConn.InPlaceUnion(sp.Vertices)
		}
		f.childConn.InPlaceIntersect(chi)
		child, ok, err := s.rec(c, f.childConn, f.depth+1)
		if err != nil {
			return nil, false, err
		}
		if !ok {
			f.refuted[string(f.chiKey)] = struct{}{}
			return nil, false, nil
		}
		f.children = append(f.children, child)
	}
	// Specials covered by this bag get dedicated leaves.
	for _, sp := range g.SpecialsCoveredBy(chi) {
		f.children = append(f.children, decomp.NewSpecialLeaf(sp.ID, sp.Vertices))
	}
	node := decomp.NewNode(f.lambda, chi.Clone())
	node.Children = append([]*decomp.Node(nil), f.children...)
	return node, true, nil
}
