// Package comb enumerates the λ-label candidate space of the decomposition
// algorithms: all subsets of size 1..k of an m-element candidate edge list.
//
// The space is totally ordered (all size-1 subsets in lexicographic order,
// then all size-2 subsets, and so on), and ranks in [0, Total()) can be
// unranked directly via binomial combinadics. An iterator can therefore
// start at any rank, which lets parallel workers (Appendix D.1 of the
// paper) search any rank range they claim without enumerating what
// comes before it.
package comb

import "math"

// Binomial returns C(n, k), saturating at math.MaxInt64 on overflow.
// Out-of-range arguments yield 0.
func Binomial(n, k int) int64 {
	if k < 0 || n < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	r := int64(1)
	for i := 1; i <= k; i++ {
		// r = r * (n-k+i) / i, guarding overflow on the multiply.
		f := int64(n - k + i)
		if r > math.MaxInt64/f {
			return math.MaxInt64
		}
		r = r * f / int64(i)
	}
	return r
}

// Space describes the set of subsets of {0..M-1} with size in [1, K].
type Space struct {
	M, K int
}

// Total returns the number of subsets in the space, saturating at
// math.MaxInt64.
func (s Space) Total() int64 {
	var t int64
	for sz := 1; sz <= s.K && sz <= s.M; sz++ {
		b := Binomial(s.M, sz)
		if t > math.MaxInt64-b {
			return math.MaxInt64
		}
		t += b
	}
	return t
}

// sizeOf locates the subset size holding global rank r and returns the
// size together with the rank local to that size class.
func (s Space) sizeOf(r int64) (size int, local int64) {
	for sz := 1; sz <= s.K && sz <= s.M; sz++ {
		b := Binomial(s.M, sz)
		if r < b {
			return sz, r
		}
		r -= b
	}
	return -1, 0
}

// Unrank writes the subset with global rank r into dst (which must have
// capacity >= K) and returns it. Elements are in increasing order.
// It panics if r is out of range.
func (s Space) Unrank(r int64, dst []int) []int {
	size, local := s.sizeOf(r)
	if size < 0 {
		panic("comb: rank out of range")
	}
	dst = dst[:0]
	v := 0
	for pos := 0; pos < size; pos++ {
		for {
			c := Binomial(s.M-1-v, size-1-pos)
			if local < c {
				dst = append(dst, v)
				v++
				break
			}
			local -= c
			v++
		}
	}
	return dst
}

// Iter walks a contiguous rank range of a Space. After the first Unrank,
// successive subsets are produced by the classic next-combination step,
// which is O(size) amortised — far cheaper than unranking every rank.
type Iter struct {
	space Space
	next  int64 // next global rank to produce
	hi    int64 // exclusive upper bound
	cur   []int
	size  int
	fresh bool // cur not yet produced
}

// NewIter returns an iterator over ranks [lo, hi) of the space.
func NewIter(s Space, lo, hi int64) *Iter {
	t := s.Total()
	if hi > t {
		hi = t
	}
	if lo < 0 {
		lo = 0
	}
	it := &Iter{space: s, next: lo, hi: hi, cur: make([]int, 0, s.K)}
	if lo < hi {
		it.cur = s.Unrank(lo, it.cur)
		it.size = len(it.cur)
		it.fresh = true
	}
	return it
}

// Next returns the next subset in the range, or nil when exhausted. The
// returned slice is reused between calls; callers must not retain it.
func (it *Iter) Next() []int {
	if it.next >= it.hi {
		return nil
	}
	if it.fresh {
		it.fresh = false
		it.next++
		return it.cur
	}
	// Advance cur to the lexicographic successor within its size class,
	// rolling over to the first subset of the next size when exhausted.
	m, size := it.space.M, it.size
	i := size - 1
	for i >= 0 && it.cur[i] == m-size+i {
		i--
	}
	if i < 0 {
		// First subset of the next size: {0, 1, ..., size}.
		size++
		it.size = size
		it.cur = it.cur[:0]
		for v := 0; v < size; v++ {
			it.cur = append(it.cur, v)
		}
	} else {
		it.cur[i]++
		for j := i + 1; j < size; j++ {
			it.cur[j] = it.cur[j-1] + 1
		}
	}
	it.next++
	return it.cur
}
