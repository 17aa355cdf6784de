package hypergraph

// IsAcyclic reports whether the hypergraph is α-acyclic, using the
// GYO (Graham / Yu–Özsoyoğlu) reduction: repeatedly
//
//  1. remove vertices that occur in exactly one edge ("ear vertices"), and
//  2. remove edges that are contained in another (remaining) edge,
//
// until a fixpoint. H is α-acyclic iff the reduction empties every edge.
//
// α-acyclicity characterises hypertree width 1 (Gottlob, Leone, Scarcello
// 2002), which gives the tests an independent oracle for hw(H) = 1.
//
// The reduction runs in O(|V| + |E| + Σ|e|) time, in the order Tarjan
// and Yannakakis's maximum cardinality search picks (SIAM J. Comput.
// 13(3), 1984): see boundScratch.acyclic.
func (h *Hypergraph) IsAcyclic() bool {
	sc := getScratch()
	defer putScratch(sc)
	return sc.acyclic(h)
}

// acyclic is IsAcyclic over reusable scratch. Maximum cardinality
// search selects the edges one at a time, always one with the most
// vertices already seen, and then marks the edge's other vertices seen.
// Read backwards, that order is a GYO reduction exactly when every
// edge's seen vertices lie in the earlier edge that first saw the most
// recently seen of them: the edge's unseen vertices are ears, and the
// rest is subsumed by that earlier edge. If H is α-acyclic, every
// maximum cardinality order passes this test, so one order decides.
// Edges wait in buckets by their count of seen vertices, and counts
// only grow, so the search is linear in Σ|e|.
func (sc *boundScratch) acyclic(h *Hypergraph) bool {
	m, n := h.NumEdges(), h.NumVertices()
	if m <= 1 {
		return true
	}
	sc.edgeLists(h)
	maxSize := 0
	for e := 0; e < m; e++ {
		maxSize = max(maxSize, sc.start[e+1]-sc.start[e])
	}
	// count[e] is e's number of seen vertices, or -1 once e is
	// selected; head[c] starts bucket c's doubly linked list.
	sc.count, sc.next, sc.prev = grow(sc.count, m), grow(sc.next, m), grow(sc.prev, m)
	sc.head = grow(sc.head, maxSize+1)
	count, next, prev, head := sc.count, sc.next, sc.prev, sc.head
	for c := range head {
		head[c] = -1
	}
	link := func(e, c int) {
		prev[e], next[e] = -1, head[c]
		if head[c] >= 0 {
			prev[head[c]] = e
		}
		head[c] = e
	}
	unlink := func(e, c int) {
		if prev[e] >= 0 {
			next[prev[e]] = next[e]
		} else {
			head[c] = next[e]
		}
		if next[e] >= 0 {
			prev[next[e]] = prev[e]
		}
	}
	for e := m - 1; e >= 0; e-- {
		count[e] = 0
		link(e, 0)
	}
	// seenAt[v] is the position in order of the edge that first saw v.
	sc.seenAt = grow(sc.seenAt, n)
	seenAt := sc.seenAt
	for v := range seenAt {
		seenAt[v] = -1
	}
	sc.order = grow(sc.order, m)
	order := sc.order
	top := 0
	for i := 0; i < m; i++ {
		for head[top] < 0 {
			top--
		}
		e := head[top]
		unlink(e, top)
		count[e] = -1
		vs := sc.verts[sc.start[e]:sc.start[e+1]]
		if top > 0 {
			last := -1
			for _, v := range vs {
				last = max(last, seenAt[v])
			}
			parent := h.edges[order[last]]
			for _, v := range vs {
				if seenAt[v] >= 0 && !parent.Test(v) {
					return false
				}
			}
		}
		order[i] = e
		for _, v := range vs {
			if seenAt[v] >= 0 {
				continue
			}
			seenAt[v] = i
			for _, f := range h.incidence[v] {
				if c := count[f]; c >= 0 {
					unlink(f, c)
					count[f] = c + 1
					link(f, c+1)
					top = max(top, c+1)
				}
			}
		}
	}
	return true
}
