package logk

import (
	"context"
	"fmt"
	"math"
	"slices"

	"repro/internal/bitset"
	"repro/internal/comb"
	"repro/internal/decomp"
	"repro/internal/detk"
	"repro/internal/ext"
	"repro/internal/hypergraph"
)

// parentCache is one worker's cache of parent candidates for the
// ChildLoop of one decomp call. It exploits that the [λp]-components of
// H' depend only on ∪λp — not on the current child candidate — so each
// distinct parent candidate is analysed once per worker and call instead
// of once per (λc, λp) pair. The cache is never shared, so it takes no
// lock, and one ∪λp always maps to one *parentInfo, which keeps the
// pointer-keyed failure dedup in parentLoop sound. Lookups use the
// no-allocation string(buf) map-lookup form, keeping the
// multi-million-iteration parent loops cheap.
type parentCache map[string]*parentInfo

// parentInfo is the cached analysis of one ∪λp: the oversized
// [λp]-component if any, with its vertex set.
type parentInfo struct {
	compDown *ext.Graph
	vDown    *bitset.Set
}

// decomp is the recursive core (Algorithm 2 of the paper, Appendix C),
// extended to materialise the HD-fragment it finds. It returns the root
// node of an HD of ⟨g.Edges, g.Specials, conn⟩ in which every special
// edge of g appears as exactly one placeholder leaf.
func (s *Solver) decomp(ctx context.Context, w *worker, g *ext.Graph, conn *bitset.Set, allowed []int, depth int) (*decomp.Node, bool, error) {
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}
	w.stats.MaxDepth = max(w.stats.MaxDepth, int64(depth))

	// Base cases (lines 5-10).
	if len(g.Edges) <= s.Opts.K && len(g.Specials) == 0 {
		bag := s.H.Union(g.Edges)
		return decomp.NewNode(g.Edges, bag), true, nil
	}
	if len(g.Edges) == 0 {
		if len(g.Specials) == 1 {
			sp := g.Specials[0]
			return decomp.NewSpecialLeaf(sp.ID, sp.Vertices), true, nil
		}
		// A λ-label of only "old" edges makes no progress (normal form
		// condition 2), so ≥2 specials cannot be separated.
		return nil, false, nil
	}

	// Hybrid switch (Appendix D.2): small subproblems go to det-k-decomp.
	if s.Opts.Hybrid != HybridNone && s.metricValue(g) < s.Opts.HybridThreshold {
		w.stats.HybridCalls++
		if w.detk == nil {
			w.detk = detk.New(s.H, s.Opts.K)
		}
		before := w.detk.Stats.Candidates
		node, ok, err := w.detk.DecomposeExt(ctx, g, conn)
		w.stats.Candidates += w.detk.Stats.Candidates - before
		return node, ok, err
	}

	// Negative memo: a content-identical state that previously exhausted
	// its search space cannot succeed now.
	var memoKey string
	if !s.Opts.NoCache {
		w.memoBuf = g.MemoKey(conn, allowed, w.memoBuf[:0])
		if s.memo.Lookup(w.memoBuf) {
			w.stats.MemoHits++
			return nil, false, nil
		}
		memoKey = string(w.memoBuf) // materialise before recursion reuses the buffer
	}

	node, ok, err := s.searchChild(ctx, w, g, conn, allowed, depth)
	if err == nil && !ok && !s.Opts.NoCache {
		// The search space was exhausted cleanly; remember the failure.
		s.memo.Insert(memoKey)
	}
	return node, ok, err
}

// childRange enumerates ranks [lo, hi) of the λ(c) candidate space over
// pool, the child pool built by searchChild (ChildLoop, lines 11-21), and
// returns the first success. Recursions get allowed.
func (s *Solver) childRange(ctx context.Context, w *worker, parents parentCache, g *ext.Graph, conn *bitset.Set, pool, allowed []int, depth int, lo, hi int64) (*decomp.Node, bool, error) {
	c := &w.frame(depth).child
	c.start(g, pool, s.Opts.K, lo, hi)
	for c.next(ctx) {
		node, ok, err := s.tryChild(ctx, w, parents, g, conn, allowed, c.lambda, c.union, depth)
		if ok || err != nil {
			w.stats.Candidates += c.ranks
			return node, ok, err
		}
	}
	w.stats.Candidates += c.ranks
	return nil, false, c.err
}

// tryChild evaluates one λ(c) candidate: the balancedness pre-check, the
// root-of-fragment case, and the ParentLoop.
func (s *Solver) tryChild(ctx context.Context, w *worker, parents parentCache, g *ext.Graph, conn *bitset.Set, allowed []int, lambdaC []int, unionC *bitset.Set, depth int) (*decomp.Node, bool, error) {
	// Balancedness pre-check (lines 12-14): if ∪λc does not balance H',
	// then neither does any χc ⊆ ∪λc derived from it.
	if !w.split.Balanced(g, unionC) {
		return nil, false, nil
	}

	// Root-of-fragment case (lines 15-21): if λc covers the interface,
	// node c is the root of the HD-fragment for g — no parent needed.
	// As root, c is an ancestor of every special's leaf, so λc must
	// avoid their forbidden vertices (see ext.Special.Forbidden).
	if conn.SubsetOf(unionC) && !intersectsForbidden(unionC, g.ForbiddenUnion()) {
		chiC := unionC.Intersect(g.Vertices())
		children, ok, err := s.below(ctx, w, g, chiC, allowed, depth)
		if err != nil {
			return nil, false, err
		}
		if ok {
			root := decomp.NewNode(lambdaC, chiC)
			root.Children = children
			return root, true, nil
		}
		// fall through to the ParentLoop: c may still work as a non-root
		// balanced separator with some parent above it.
	}

	return s.parentLoop(ctx, w, parents, g, conn, allowed, lambdaC, unionC, depth)
}

// below decomposes what hangs below a node with bag chi that separates
// g: it recurses into every [chi]-component of g, each with interface
// its vertices in chi, and returns their fragments in component order
// followed by a leaf for each special of g that chi covers. It stops at
// the first component with no fragment (ok false) or an error. The
// components live in the depth's frame: nothing of them outlives the
// call, since decomp.NewNode copies λ and a special leaf keeps only the
// special's own bitsets.
func (s *Solver) below(ctx context.Context, w *worker, g *ext.Graph, chi *bitset.Set, allowed []int, depth int) ([]*decomp.Node, bool, error) {
	comps := w.split.ComponentsInto(g, chi, &w.frame(depth).comps)
	children := make([]*decomp.Node, 0, len(comps))
	for _, y := range comps {
		child, ok, err := s.decomp(ctx, w, y, y.Vertices().Intersect(chi), allowed, depth+1)
		if !ok {
			return nil, false, err
		}
		children = append(children, child)
	}
	for _, sp := range g.SpecialsCoveredBy(chi) {
		children = append(children, decomp.NewSpecialLeaf(sp.ID, sp.Vertices))
	}
	return children, true, nil
}

// parentFor returns the worker's cached analysis of one parent
// candidate ∪λp, computing it on first use.
func (s *Solver) parentFor(w *worker, parents parentCache, g *ext.Graph, unionP *bitset.Set) *parentInfo {
	if !s.Opts.NoCache {
		w.keyBuf = unionP.AppendKey(w.keyBuf[:0])
		if pi := parents[string(w.keyBuf)]; pi != nil { // no-alloc lookup form
			return pi
		}
	}
	pi := &parentInfo{compDown: w.split.Oversized(g, unionP)}
	if pi.compDown != nil {
		pi.vDown = pi.compDown.Vertices()
	}
	if !s.Opts.NoCache {
		parents[string(w.keyBuf)] = pi
	}
	return pi
}

// parentLoop searches for a λ(p) compatible with the chosen λ(c)
// (lines 22-43 of Algorithm 2).
func (s *Solver) parentLoop(ctx context.Context, w *worker, parents parentCache, g *ext.Graph, conn *bitset.Set, allowed []int, lambdaC []int, unionC *bitset.Set, depth int) (*decomp.Node, bool, error) {
	// Parent candidates: edges sharing a vertex with ∪λc (Appendix C,
	// "Speeding up the search for parent λ-labels"); completeness is
	// preserved (Theorem C.1).
	fr := w.frame(depth)
	fr.parentPool = s.meeting(fr.parentPool, allowed, unionC)
	p := &fr.parent
	p.start(g, fr.parentPool, s.Opts.K, 0, math.MaxInt64)

	// Distinct downward components whose recursion already failed for
	// this λc; different λp producing the same component would repeat
	// the identical recursion.
	failed := map[*ext.Graph]bool{}

	for p.next(ctx) {
		pi := s.parentFor(w, parents, g, p.union)
		// No oversized [λp]-component: p cannot sit above a balanced
		// separator child (the root case is handled in tryChild).
		if pi.compDown == nil || failed[pi.compDown] {
			continue
		}
		node, ok, rejectedComp, err := s.tryParent(ctx, w, g, conn, allowed, lambdaC, unionC, p.union, pi, depth)
		if ok || err != nil {
			w.stats.ParentCands += p.ranks
			return node, ok, err
		}
		if rejectedComp {
			failed[pi.compDown] = true
		}
	}
	w.stats.ParentCands += p.ranks
	return nil, false, p.err
}

// tryParent evaluates one (λp, λc) pair (lines 23-43). rejectedComp
// reports that the downward component's recursions failed — a failure
// that depends only on (compDown, λc), so the caller can skip other λp
// yielding the same component.
func (s *Solver) tryParent(ctx context.Context, w *worker, g *ext.Graph, conn *bitset.Set, allowed []int, lambdaC []int, unionC, unionP *bitset.Set, pi *parentInfo, depth int) (*decomp.Node, bool, bool, error) {
	compDown, vDown := pi.compDown, pi.vDown

	// c becomes an ancestor of the leaf of every special in compDown;
	// λc must avoid their forbidden vertices (soundness of stitching,
	// see ext.Special.Forbidden).
	if intersectsForbidden(unionC, compDown.ForbiddenUnion()) {
		return nil, false, true, nil
	}

	// Connectivity check (line 29): the interface vertices lying in the
	// downward component must be covered by λp.
	if conn.IntersectsDiff(vDown, unionP) {
		return nil, false, false, nil
	}
	// Connectivity check (line 31): vDown ∩ ∪λp ⊆ χc. With χc = ∪λc ∩
	// vDown (line 28) this is vDown ∩ ∪λp ⊆ ∪λc, checked before χc is
	// built.
	if vDown.IntersectsDiff(unionP, unionC) {
		return nil, false, false, nil
	}
	// χ(c) per normal form condition 3 (line 28).
	chiC := unionC.Intersect(vDown)

	// [χc]-components inside compDown (line 33). By Corollary 3.8 these
	// coincide with the [λc]-components there, so the balancedness
	// pre-check in tryChild already bounds their size by total/2.
	children, ok, err := s.below(ctx, w, compDown, chiC, allowed, depth)
	if err != nil {
		return nil, false, false, err
	}
	if !ok {
		return nil, false, true, nil // reject parent (line 37)
	}

	// The part above c: everything outside compDown plus χc as a new
	// special edge (lines 38-40). Everything compDown covers — and
	// everything that will later be spliced below compDown's own special
	// leaves — ends up below this new special's leaf, so its Forbidden
	// set is the union of those vertex sets minus the interface χc.
	sid := s.nextSpecialID()
	forbidden := vDown.Clone()
	for _, sp := range compDown.Specials {
		if sp.Forbidden != nil {
			forbidden.InPlaceUnion(sp.Forbidden)
		}
	}
	forbidden.InPlaceDiff(chiC)
	compUp := g.Subtract(compDown).WithSpecial(ext.Special{ID: sid, Vertices: chiC, Forbidden: forbidden})
	// compDown's edges leave the allowed edges A of the part above
	// (Algorithm 2, Appendix C).
	allowedUp := ext.DiffSortedInts(allowed, compDown.Edges)
	up, ok, err := s.decomp(ctx, w, compUp, conn, allowedUp, depth+1)
	if err != nil {
		return nil, false, false, err
	}
	if !ok {
		return nil, false, true, nil // reject parent (line 42)
	}

	// Stitch: the fragment above has exactly one leaf for special sid;
	// replace it in place with node c and hang below it the downward
	// fragments and leaves for compDown's specials covered by χc (App. A).
	leaf := up.FindSpecialLeaf(sid)
	if leaf == nil {
		return nil, false, false, fmt.Errorf("logk: internal error: special leaf %d missing after successful recursion", sid)
	}
	leaf.SpecialID = decomp.NoSpecial
	leaf.Lambda = slices.Clone(lambdaC)
	slices.Sort(leaf.Lambda)
	leaf.Bag = chiC
	leaf.Children = children
	return up, true, false, nil
}

func intersectsForbidden(union, forbidden *bitset.Set) bool {
	return forbidden != nil && union.Intersects(forbidden)
}

// meeting returns the edges of allowed that meet u, in allowed order,
// in buf's storage: searchChild's λ(c) pool (u = V(H′)) and parentLoop's
// λ(p) pool (u = ∪λ(c)).
func (s *Solver) meeting(buf, allowed []int, u *bitset.Set) []int {
	buf = buf[:0]
	for _, e := range allowed {
		if s.H.Edge(e).Intersects(u) {
			buf = append(buf, e)
		}
	}
	return buf
}

// labels enumerates the λ-labels of one candidate loop, λ(c)
// (childRange) or λ(p) (parentLoop): the subsets of 1..k edges of a
// pool over a rank range, in comb order, skipping those with no edge of
// the subproblem — a label of only old edges makes no progress (normal
// form condition 2). Each frame keeps one per loop, so the buffers
// outlive a call.
type labels struct {
	h      *hypergraph.Hypergraph
	pool   []int
	isNew  []bool // isNew[i]: pool[i] is an edge of the subproblem
	it     *comb.Iter
	lambda []int       // the current label
	union  *bitset.Set // its vertices, ∪λ
	// ranks counts the ranks enumerated, skipped ones included; the
	// caller adds it to Candidates or ParentCands.
	ranks int64
	err   error // the context's error, when that stopped the enumeration
}

// start readies l for ranks [lo, hi) of the labels of at most k edges
// of pool, for subproblem g.
func (l *labels) start(g *ext.Graph, pool []int, k int, lo, hi int64) {
	l.h, l.pool = g.H, pool
	l.isNew = l.isNew[:0]
	for _, e := range pool {
		l.isNew = append(l.isNew, g.ContainsEdge(e))
	}
	l.it = comb.NewIter(comb.Space{M: len(pool), K: k}, lo, hi)
	if l.union == nil {
		l.union = l.h.NewVertexSet()
	}
	l.ranks, l.err = 0, nil
}

// next moves to the next label with a new edge, leaving it in l.lambda
// and l.union, and reports whether there is one. Every 64 ranks it polls
// ctx, and stops with l.err once ctx is done.
func (l *labels) next(ctx context.Context) bool {
	for idxs := l.it.Next(); idxs != nil; idxs = l.it.Next() {
		l.ranks++
		if l.ranks&0x3F == 0 {
			if l.err = ctx.Err(); l.err != nil {
				return false
			}
		}
		hasNew := false
		for _, i := range idxs {
			if l.isNew[i] {
				hasNew = true
				break
			}
		}
		if !hasNew {
			continue
		}
		l.lambda = l.lambda[:0]
		l.union.Reset()
		for _, i := range idxs {
			e := l.pool[i]
			l.lambda = append(l.lambda, e)
			l.union.InPlaceUnion(l.h.Edge(e))
		}
		return true
	}
	return false
}
