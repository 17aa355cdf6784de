package hypergraph

import (
	"context"
	"math/bits"
)

// treewidthAtMostThree reports whether the graph in red (one row of w
// words per vertex, as primal lays out adj) has treewidth at most 3.
// It applies the reduction rules of Arnborg and Proskurowski
// ("Characterization and recognition of partial 3-trees", 1986) until
// none applies, and the graph has treewidth at most 3 exactly when
// that leaves no vertex. With v's neighbours a, b, c:
//
//   - islet, twig: remove a vertex of degree 0 or 1;
//   - series: remove a vertex of degree 2 and join its two neighbours;
//   - triangle: remove a vertex of degree 3 whose neighbours hold an
//     edge, and make them a clique;
//   - buddy: remove two vertices of degree 3 with the same neighbours,
//     and make those a clique;
//   - cube: remove three vertices v, w, x of degree 3 with
//     N(v) = {d, p, q}, N(w) = {d, p, r} and N(x) = {d, q, r} for
//     distinct d, p, q, r, and make {d, p, q, r} a clique.
//
// Every rule is safe. The reduced graph is a minor of the graph before
// it (contract each removed vertex into a distinct neighbour: v into
// p, w into r and x into q for the cube), so its treewidth is no
// larger; and a width-3 tree decomposition of it has a bag holding the
// new clique, beside which a bag of each removed vertex and its
// neighbours can hang, so it is no smaller either. Every non-empty
// graph of treewidth at most 3 admits some rule (Arnborg and
// Proskurowski), so the answer does not depend on the order of the
// vertices or of the reductions.
//
// A vertex is tried when its degree is at most 3 and its row or the
// edges among its neighbours changed since it was last tried, so the
// stack empties exactly when no rule applies. The context is checked
// every boundCheckEvery tries, the first included; red is consumed.
func (sc *boundScratch) treewidthAtMostThree(ctx context.Context) (bool, error) {
	n := len(sc.deg)
	sc.rdeg = grow(sc.rdeg, n)
	sc.queued = grow(sc.queued, n)
	sc.stack = sc.stack[:0]
	for v := 0; v < n; v++ {
		d := 0
		for _, x := range sc.redRow(v) {
			d += bits.OnesCount64(x)
		}
		sc.rdeg[v] = d
		sc.queued[v] = false
		sc.push(v)
	}
	for tries := 0; len(sc.stack) > 0; tries++ {
		if tries%boundCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				return false, err
			}
		}
		v := sc.stack[len(sc.stack)-1]
		sc.stack = sc.stack[:len(sc.stack)-1]
		sc.queued[v] = false
		if d := sc.rdeg[v]; d >= 0 && d <= 3 {
			sc.reduce(v, d)
		}
	}
	for _, d := range sc.rdeg {
		if d >= 0 {
			return false, nil
		}
	}
	return true, nil
}

func (sc *boundScratch) redRow(v int) []uint64 { return sc.red[v*sc.w : (v+1)*sc.w] }

func (sc *boundScratch) adjacent(u, v int) bool {
	return sc.red[u*sc.w+v/64]&(1<<(v%64)) != 0
}

// push puts v on the stack of vertices to try, unless it is there or
// its degree is above 3 (it is pushed again when its row changes).
func (sc *boundScratch) push(v int) {
	if sc.rdeg[v] <= 3 && !sc.queued[v] {
		sc.queued[v] = true
		sc.stack = append(sc.stack, v)
	}
}

// reduce applies the first rule that fits v, of degree d ≤ 3, with v
// among the vertices it removes.
func (sc *boundScratch) reduce(v, d int) {
	var nb [3]int
	k := 0
	for i, x := range sc.redRow(v) {
		for ; x != 0; x &= x - 1 {
			nb[k] = i*64 + bits.TrailingZeros64(x)
			k++
		}
	}
	switch {
	case d <= 1:
		sc.drop(v)
	case d == 2:
		sc.drop(v)
		sc.link(nb[0], nb[1])
	case sc.adjacent(nb[0], nb[1]) || sc.adjacent(nb[0], nb[2]) || sc.adjacent(nb[1], nb[2]):
		sc.drop(v)
		sc.clique(nb[:])
	default:
		if u := sc.degreeThreeNeighbour(nb[0], nb[1], nb[2], v); u >= 0 {
			sc.drop(v)
			sc.drop(u)
			sc.clique(nb[:])
			return
		}
		sc.cube(v, nb)
	}
}

// cube applies the cube rule with v, whose neighbours nb hold no edge,
// as one of the three vertices it removes, if some choice of the other
// two fits.
func (sc *boundScratch) cube(v int, nb [3]int) {
	for i, d := range nb {
		p, q := nb[(i+1)%3], nb[(i+2)%3]
		rowD, rowP := sc.redRow(d), sc.redRow(p)
		for j := range rowD {
			for y := rowD[j] & rowP[j]; y != 0; y &= y - 1 {
				w := j*64 + bits.TrailingZeros64(y)
				if w == v || sc.rdeg[w] != 3 {
					continue
				}
				r := sc.thirdNeighbour(w, d, p)
				// r = q makes w v's buddy, which reduce tried first.
				if r == q || r == v {
					continue
				}
				if x := sc.degreeThreeNeighbour(d, q, r, w); x >= 0 && x != v {
					sc.drop(v)
					sc.drop(w)
					sc.drop(x)
					sc.clique([]int{d, p, q, r})
					return
				}
			}
		}
	}
}

// degreeThreeNeighbour returns a vertex of degree 3 other than not
// whose neighbours are exactly a, b and c, or -1.
func (sc *boundScratch) degreeThreeNeighbour(a, b, c, not int) int {
	rowA, rowB, rowC := sc.redRow(a), sc.redRow(b), sc.redRow(c)
	for j := range rowA {
		for y := rowA[j] & rowB[j] & rowC[j]; y != 0; y &= y - 1 {
			if u := j*64 + bits.TrailingZeros64(y); u != not && sc.rdeg[u] == 3 {
				return u
			}
		}
	}
	return -1
}

// thirdNeighbour returns the neighbour of w, of degree 3, that is
// neither a nor b.
func (sc *boundScratch) thirdNeighbour(w, a, b int) int {
	for j, y := range sc.redRow(w) {
		for ; y != 0; y &= y - 1 {
			if u := j*64 + bits.TrailingZeros64(y); u != a && u != b {
				return u
			}
		}
	}
	return -1
}

// drop removes v, pushing its neighbours, whose rows change.
func (sc *boundScratch) drop(v int) {
	row := sc.redRow(v)
	for i, x := range row {
		for ; x != 0; x &= x - 1 {
			c := i*64 + bits.TrailingZeros64(x)
			sc.red[c*sc.w+v/64] &^= 1 << (v % 64)
			sc.rdeg[c]--
			sc.push(c)
		}
	}
	clear(row)
	sc.rdeg[v] = -1
}

// clique joins every two of vs.
func (sc *boundScratch) clique(vs []int) {
	for i, u := range vs {
		for _, v := range vs[i+1:] {
			sc.link(u, v)
		}
	}
}

// link adds the edge uv if it is missing, pushing u and v, whose rows
// change, and their common neighbours, whose neighbourhoods gain an
// edge.
func (sc *boundScratch) link(u, v int) {
	if sc.adjacent(u, v) {
		return
	}
	rowU, rowV := sc.redRow(u), sc.redRow(v)
	rowU[v/64] |= 1 << (v % 64)
	rowV[u/64] |= 1 << (u % 64)
	sc.rdeg[u]++
	sc.rdeg[v]++
	sc.push(u)
	sc.push(v)
	for j := range rowU {
		for y := rowU[j] & rowV[j]; y != 0; y &= y - 1 {
			sc.push(j*64 + bits.TrailingZeros64(y))
		}
	}
}
