package hypergraph

import (
	"context"
	"math/bits"
	"slices"
	"sync"
)

// boundMaxVertices is the largest vertex count on which WidthLowerBound
// runs its primal-graph terms. All three are polynomial (about |V|³/64
// word operations at worst), and this keeps them to about a millisecond
// on a large request; above it the bound is the acyclicity term alone.
const boundMaxVertices = 256

// boundMaxCoverNodes caps the exact-cover search nodes of one bound.
// Past it the clique term proves nothing more, which only weakens the
// bound.
const boundMaxCoverNodes = 1 << 16

// boundCheckEvery is how many start vertices, contractions or
// reduction tries the primal-graph terms take between checks of the
// context. Each takes at most about boundMaxVertices²/16 word
// operations, so a check comes well within a millisecond.
const boundCheckEvery = 64

// maxClique caps a greedy clique at one machine word of members. Every
// subset of a clique is a clique, so the cap keeps the term sound.
const maxClique = 64

// WidthLowerBound returns a lower bound on the generalized hypertree
// width ghw(H), and so on hw(H) ≥ ghw(H), capped at limit+1: a result
// above limit says only that the bound exceeds limit, and the
// computation stops as soon as it does. The bound is the largest of
// four terms, each a width no GHD of H can go below:
//
//   - 1 if H is α-acyclic (then ghw = hw = 1 and the bound is exact),
//     otherwise 2 (GYO, IsAcyclic);
//   - the minor-min-width treewidth bound (MMD+: contract a vertex of
//     least degree into its least-degree neighbour, and keep the
//     largest least degree seen; Bodlaender and Koster) of H's primal
//     graph, mapped to edges: a GHD is a tree decomposition of the
//     primal graph, so one of its bags holds tw+1 vertices, and k edges
//     cover at most the sizes of the k largest edges;
//   - for greedy cliques S of the primal graph, one grown from each
//     vertex that no earlier one holds, the fewest edges whose traces
//     on S cover S, found by exact search: every clique lies inside
//     one bag;
//   - the fewest edges that cover 5 vertices, when the primal graph has
//     treewidth at least 4, decided exactly by the Arnborg–Proskurowski
//     reduction rules (treewidthAtMostThree). MMD+ breaks ties by
//     vertex id, so it proves tw ≥ 4 on a renumbered cylinder C_n × K_2
//     only by chance; this term proves it in every vertex order. It
//     runs only when it would raise the bound, and in MMD+'s place
//     where tw ≥ 4 is the most MMD+ could show before the bound
//     passes limit.
//
// The primal-graph terms run only when H has at most boundMaxVertices
// vertices, and they check ctx every boundCheckEvery steps: the error is
// ctx's when it ends first. The bound takes no part in the solvers: the
// service uses it to refute widths without a search, and the callers of
// logk.Optimal (the service, htd.DecomposeOptimal, the harness's ladder
// column) start the width ladder at it.
func (h *Hypergraph) WidthLowerBound(ctx context.Context, limit int) (int, error) {
	m, n := h.NumEdges(), h.NumVertices()
	if m == 0 {
		return 0, nil
	}
	// One node whose λ holds every edge is an HD, so hw ≤ m.
	limit = min(max(limit, 1), m)
	sc := getScratch()
	defer putScratch(sc)
	if sc.acyclic(h) {
		return 1, nil
	}
	lb := 2
	if lb > limit || n > boundMaxVertices {
		return min(lb, limit+1), nil
	}
	sc.edgeCaps(h, limit)
	sc.primal(h)
	sc.coverOps = 0
	lb, err := sc.cliqueTerm(ctx, h, lb, limit)
	if err != nil || lb > limit {
		return lb, err
	}
	// tw ≥ 4 puts 5 vertices in one bag.
	tw4 := sc.edgesFor(5)
	if tw4 <= lb {
		return sc.minorMinWidthTerm(ctx, lb, limit)
	}
	// MMD+ raises lb only by proving tw ≥ d for d+1 vertices that lb
	// edges cannot cover. When lb edges cover 4 vertices and 5 need
	// more than limit, all it can prove is tw ≥ 4, which the tw ≤ 3
	// term decides exactly, so only that term runs, on adj. Otherwise
	// MMD+ contracts adj, and the term reduces a copy.
	if tw4 > limit && sc.caps[lb] >= 4 {
		sc.red, sc.adj = sc.adj, sc.red
	} else {
		sc.red = append(sc.red[:0], sc.adj...)
		if lb, err = sc.minorMinWidthTerm(ctx, lb, limit); err != nil || lb >= tw4 {
			return lb, err
		}
	}
	if atMost3, err := sc.treewidthAtMostThree(ctx); err != nil || atMost3 {
		return lb, err
	}
	return tw4, nil
}

// boundScratch is the reusable working memory of IsAcyclic and
// WidthLowerBound.
type boundScratch struct {
	// Edge e's vertices are verts[start[e]:start[e+1]], ascending.
	start, verts, fill []int
	// acyclic's bucket lists and search order.
	count, next, prev, head, seenAt, order []int
	// caps[j] is the sum of the j largest edge sizes, for j ≤ limit.
	caps, sizes []int
	// The primal graph: n rows of w words, without self-loops.
	w    int
	adj  []uint64
	deg  []int
	live []int
	// The tw ≤ 3 term's copy of the primal graph, its degrees (-1 once
	// a vertex is removed) and its stack of vertices to try.
	red    []uint64
	rdeg   []int
	stack  []int
	queued []bool
	// One greedy clique: its candidates, members, and edge traces.
	cand     []uint64
	members  []int
	inClique []bool
	traces   []uint64
	maximal  []uint64
	traceOf  []int
	touched  []int
	coverOps int
}

var scratchPool = sync.Pool{New: func() any { return new(boundScratch) }}

func getScratch() *boundScratch   { return scratchPool.Get().(*boundScratch) }
func putScratch(sc *boundScratch) { scratchPool.Put(sc) }

// grow returns s resized to n, reusing its storage when it is large
// enough; the contents are unspecified.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// edgeLists lays out every edge's vertex list, in time linear in Σ|e|.
func (sc *boundScratch) edgeLists(h *Hypergraph) {
	m := h.NumEdges()
	sc.start = grow(sc.start, m+1)
	clear(sc.start)
	for _, inc := range h.incidence {
		for _, e := range inc {
			sc.start[e+1]++
		}
	}
	for e := 0; e < m; e++ {
		sc.start[e+1] += sc.start[e]
	}
	sc.verts = grow(sc.verts, sc.start[m])
	sc.fill = grow(sc.fill, m)
	copy(sc.fill, sc.start[:m])
	for v, inc := range h.incidence {
		for _, e := range inc {
			sc.verts[sc.fill[e]] = v
			sc.fill[e]++
		}
	}
}

// edgeCaps fills caps[0..limit] from the edge sizes, largest first, by
// counting sort. edgeLists must have run.
func (sc *boundScratch) edgeCaps(h *Hypergraph, limit int) {
	n := h.NumVertices()
	sc.sizes = grow(sc.sizes, n+1)
	clear(sc.sizes)
	for e := 0; e < h.NumEdges(); e++ {
		sc.sizes[sc.start[e+1]-sc.start[e]]++
	}
	sc.caps = append(sc.caps[:0], 0)
	for size := n; size > 0 && len(sc.caps) <= limit; size-- {
		for c := sc.sizes[size]; c > 0 && len(sc.caps) <= limit; c-- {
			sc.caps = append(sc.caps, sc.caps[len(sc.caps)-1]+size)
		}
	}
}

// edgesFor returns the fewest edges that can cover t vertices, or
// len(caps) when more than limit are needed.
func (sc *boundScratch) edgesFor(t int) int {
	for j, c := range sc.caps {
		if c >= t {
			return j
		}
	}
	return len(sc.caps)
}

// primal builds H's primal graph: u and v are adjacent when some edge
// holds both.
func (sc *boundScratch) primal(h *Hypergraph) {
	n := h.NumVertices()
	w := (n + 63) / 64
	sc.w = w
	sc.adj = grow(sc.adj, n*w)
	clear(sc.adj)
	for e := 0; e < h.NumEdges(); e++ {
		ew := h.edges[e].Words()
		for _, v := range sc.verts[sc.start[e]:sc.start[e+1]] {
			row := sc.adj[v*w : (v+1)*w]
			for i, x := range ew {
				row[i] |= x
			}
		}
	}
	sc.deg = grow(sc.deg, n)
	for v := 0; v < n; v++ {
		row := sc.row(v)
		row[v/64] &^= 1 << (v % 64)
		sc.deg[v] = 0
		for _, x := range row {
			sc.deg[v] += bits.OnesCount64(x)
		}
	}
}

func (sc *boundScratch) row(v int) []uint64 { return sc.adj[v*sc.w : (v+1)*sc.w] }

// cliqueTerm raises lb by the greedy cliques' edge covers and returns
// it, or limit+1 once the bound exceeds limit.
func (sc *boundScratch) cliqueTerm(ctx context.Context, h *Hypergraph, lb, limit int) (int, error) {
	n := h.NumVertices()
	sc.cand = grow(sc.cand, sc.w)
	sc.traceOf = grow(sc.traceOf, h.NumEdges())
	for e := range sc.traceOf {
		sc.traceOf[e] = -1
	}
	sc.inClique = grow(sc.inClique, n)
	clear(sc.inClique)
	for s := 0; s < n; s++ {
		if (s+1)%boundCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				return lb, err
			}
		}
		// A clique that needs more than lb edges has more than lb
		// members, so s has at least lb neighbours. A vertex of an
		// earlier greedy clique mostly grows that clique again.
		if sc.deg[s] < lb || sc.inClique[s] {
			continue
		}
		sc.greedyClique(s)
		for _, v := range sc.members {
			sc.inClique[v] = true
		}
		if len(sc.members) <= lb {
			continue
		}
		if rho := sc.cover(h, lb, limit); rho > lb {
			lb = rho
			if lb > limit {
				return lb, nil
			}
		}
	}
	return lb, nil
}

// greedyClique grows a clique from s into members, adding the candidate
// adjacent to the most other candidates first.
func (sc *boundScratch) greedyClique(s int) {
	cand := sc.cand
	copy(cand, sc.row(s))
	sc.members = append(sc.members[:0], s)
	for len(sc.members) < maxClique {
		best, bestDeg := -1, -1
		for i, x := range cand {
			for x != 0 {
				u := i*64 + bits.TrailingZeros64(x)
				x &= x - 1
				d := 0
				for j, y := range sc.row(u) {
					d += bits.OnesCount64(y & cand[j])
				}
				if d > bestDeg {
					best, bestDeg = u, d
				}
			}
		}
		if best < 0 {
			return
		}
		sc.members = append(sc.members, best)
		for j, y := range sc.row(best) {
			cand[j] &= y
		}
	}
}

// cover returns the fewest edges whose traces cover the clique in
// members when that is more than lb, capped at limit+1; otherwise it
// returns at most lb.
func (sc *boundScratch) cover(h *Hypergraph, lb, limit int) int {
	sc.traces, sc.touched = sc.traces[:0], sc.touched[:0]
	for i, v := range sc.members {
		for _, e := range h.incidence[v] {
			t := sc.traceOf[e]
			if t < 0 {
				t = len(sc.traces)
				sc.traceOf[e] = t
				sc.touched = append(sc.touched, e)
				sc.traces = append(sc.traces, 0)
			}
			sc.traces[t] |= 1 << i
		}
	}
	for _, e := range sc.touched {
		sc.traceOf[e] = -1
	}
	// Only the maximal traces matter to a cover.
	slices.Sort(sc.traces)
	sc.traces = slices.Compact(sc.traces)
	maximal := sc.maximal[:0]
	for i, t := range sc.traces {
		dominated := false
		for j, u := range sc.traces {
			if j != i && t&^u == 0 {
				dominated = true
				break
			}
		}
		if !dominated {
			maximal = append(maximal, t)
		}
	}
	sc.traces, sc.maximal = maximal, sc.traces
	widest := 0
	for _, t := range sc.traces {
		widest = max(widest, bits.OnesCount64(t))
	}
	all := ^uint64(0) >> (64 - len(sc.members))
	for j := lb; j <= limit; j++ {
		if sc.coverable(all, j, widest) {
			return j
		}
	}
	return limit + 1
}

// coverable reports whether at most j traces cover left; widest is the
// largest trace. A search past boundMaxCoverNodes answers true, which
// proves nothing and so keeps the bound sound.
func (sc *boundScratch) coverable(left uint64, j, widest int) bool {
	if left == 0 {
		return true
	}
	if bits.OnesCount64(left) > j*widest {
		return false
	}
	if sc.coverOps++; sc.coverOps > boundMaxCoverNodes {
		return true
	}
	bit := left & -left
	for _, t := range sc.traces {
		if t&bit != 0 && sc.coverable(left&^t, j-1, widest) {
			return true
		}
	}
	return false
}

// minorMinWidthTerm raises lb by MMD+ and returns it, or limit+1 once
// the bound exceeds limit. It contracts the primal graph in place.
func (sc *boundScratch) minorMinWidthTerm(ctx context.Context, lb, limit int) (int, error) {
	n := len(sc.deg)
	// Least degree d proves tw ≥ d, which beats lb only once d+1
	// vertices need more than lb edges.
	need := sc.caps[lb]
	sc.live = grow(sc.live, n)
	for v := range sc.live {
		sc.live[v] = v
	}
	for steps := 1; len(sc.live)-1 >= need; steps++ {
		if steps%boundCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				return lb, err
			}
		}
		vi := 0
		for i, v := range sc.live {
			if sc.deg[v] < sc.deg[sc.live[vi]] {
				vi = i
			}
		}
		v := sc.live[vi]
		if d := sc.deg[v]; d >= need {
			lb = sc.edgesFor(d + 1)
			if lb > limit {
				return lb, nil
			}
			need = sc.caps[lb]
		}
		sc.live[vi] = sc.live[len(sc.live)-1]
		sc.live = sc.live[:len(sc.live)-1]
		sc.contract(v)
	}
	return lb, nil
}

// contract merges v into its neighbour of least degree and removes v;
// an isolated v is just removed.
func (sc *boundScratch) contract(v int) {
	rowV := sc.row(v)
	u := -1
	for i, x := range rowV {
		for x != 0 {
			c := i*64 + bits.TrailingZeros64(x)
			x &= x - 1
			if u < 0 || sc.deg[c] < sc.deg[u] {
				u = c
			}
		}
	}
	if u < 0 {
		return
	}
	rowU := sc.row(u)
	for i, x := range rowV {
		for x != 0 {
			c := i*64 + bits.TrailingZeros64(x)
			x &= x - 1
			rowC := sc.row(c)
			rowC[v/64] &^= 1 << (v % 64)
			if c == u {
				sc.deg[u]--
				continue
			}
			if rowU[c/64]&(1<<(c%64)) != 0 {
				sc.deg[c]--
				continue
			}
			rowU[c/64] |= 1 << (c % 64)
			rowC[u/64] |= 1 << (u % 64)
			sc.deg[u]++
		}
	}
}
