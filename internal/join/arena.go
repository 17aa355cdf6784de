package join

import "math"

// Columnar storage primitives: fixed-size column chunks carved from
// arena slabs. A Relation's values live in per-column chunk lists
// (vec); all chunks of one relation come from the relation's own
// arena, so an intermediate relation is a handful of slab allocations
// that free together — not millions of per-tuple slice headers for the
// GC to trace.

const (
	// chunkShift sets the chunk size: 4096 values per chunk keeps row
	// addressing a shift+mask while bounding slack on small relations.
	chunkShift = 12
	chunkSize  = 1 << chunkShift
	chunkMask  = chunkSize - 1
)

// slabChunks caps slab growth: slabs double from 1 chunk up to this
// many, so a tiny relation costs one chunk-sized allocation while a
// big one amortises the allocator to one call per slabChunks chunks.
const slabChunks = 16

// arena hands out column chunks carved from geometrically growing
// slabs. It is not goroutine-safe.
type arena struct {
	free32 []int32
	free64 []int64
	next32 int // chunks in the next 32-bit slab
	next64 int // chunks in the next 64-bit slab
}

func (a *arena) chunk32() []int32 {
	if len(a.free32) < chunkSize {
		if a.next32 < 1 {
			a.next32 = 1
		}
		a.free32 = make([]int32, a.next32*chunkSize)
		if a.next32 < slabChunks {
			a.next32 *= 2
		}
	}
	c := a.free32[:chunkSize:chunkSize]
	a.free32 = a.free32[chunkSize:]
	return c
}

func (a *arena) chunk64() []int64 {
	if len(a.free64) < chunkSize {
		if a.next64 < 1 {
			a.next64 = 1
		}
		a.free64 = make([]int64, a.next64*chunkSize)
		if a.next64 < slabChunks {
			a.next64 *= 2
		}
	}
	c := a.free64[:chunkSize:chunkSize]
	a.free64 = a.free64[chunkSize:]
	return c
}

// vec is one column: a chunk list of int32 values, promoted wholesale
// to int64 by the first value that does not fit (parsed values are
// arbitrary ints, so promotion must be lossless).
type vec struct {
	c32  [][]int32
	c64  [][]int64
	wide bool
}

// at returns the value at row i.
func (v *vec) at(i int) int {
	if v.wide {
		return int(v.c64[i>>chunkShift][i&chunkMask])
	}
	return int(v.c32[i>>chunkShift][i&chunkMask])
}

// push appends x as row n (the owning relation tracks the row count).
// A last chunk shorter than chunkSize (a canonical answer's, see
// unpack) is first copied into a full one.
func (v *vec) push(a *arena, n, x int) {
	if !v.wide {
		if int64(int32(x)) == int64(x) {
			if n&chunkMask == 0 {
				v.c32 = append(v.c32, a.chunk32())
			}
			c := v.c32[n>>chunkShift]
			if n&chunkMask >= len(c) {
				c = a.chunk32()
				copy(c, v.c32[n>>chunkShift])
				v.c32[n>>chunkShift] = c
			}
			c[n&chunkMask] = int32(x)
			return
		}
		v.widen(a)
	}
	if n&chunkMask == 0 {
		v.c64 = append(v.c64, a.chunk64())
	}
	c := v.c64[n>>chunkShift]
	if n&chunkMask >= len(c) {
		c = a.chunk64()
		copy(c, v.c64[n>>chunkShift])
		v.c64[n>>chunkShift] = c
	}
	c[n&chunkMask] = int64(x)
}

// widen promotes every chunk to 64-bit. Slack beyond the filled rows
// copies whatever the chunk held, which is harmless — rows past the
// relation's count are never read.
func (v *vec) widen(a *arena) {
	v.c64 = make([][]int64, len(v.c32))
	for ci, c := range v.c32 {
		w := a.chunk64()
		for j, x := range c {
			w[j] = int64(x)
		}
		v.c64[ci] = w
	}
	v.c32, v.wide = nil, true
}

// compacted returns r without the rows dead lists (ascending), the
// live ones in order, in storage sized for exactly them: one slab per
// value width, each column keeping its width. Rows appended later take
// fresh chunks from the result's arena as usual.
func (r *Relation) compacted(dead []int32, live int) *Relation {
	out := newRelation(r.Attrs)
	out.n = live
	nc := (live + chunkMask) >> chunkShift
	wide := 0
	for c := range r.cols {
		if r.cols[c].wide {
			wide++
		}
	}
	slab32 := make([]int32, (len(r.cols)-wide)*nc*chunkSize)
	slab64 := make([]int64, wide*nc*chunkSize)
	for c := range r.cols {
		src, dst := &r.cols[c], &out.cols[c]
		if src.wide {
			dst.c64, slab64 = carveChunks(slab64, nc)
			dst.wide = true
			compactChunks(dst.c64, src.c64, dead, r.n)
		} else {
			dst.c32, slab32 = carveChunks(slab32, nc)
			compactChunks(dst.c32, src.c32, dead, r.n)
		}
	}
	return out
}

// carveChunks cuts the first n chunks off slab.
func carveChunks[T int32 | int64](slab []T, n int) (chunks [][]T, rest []T) {
	chunks = make([][]T, n)
	for i := range chunks {
		chunks[i] = slab[:chunkSize:chunkSize]
		slab = slab[chunkSize:]
	}
	return chunks, slab
}

// compactChunks copies src's first n values but those at the ascending
// rows dead into dst, in order, one run between dead rows at a time.
func compactChunks[T int32 | int64](dst, src [][]T, dead []int32, n int) {
	w, from := 0, 0
	for k := 0; k <= len(dead); k++ {
		to := n
		if k < len(dead) {
			to = int(dead[k])
		}
		for from < to {
			run := min(to-from, chunkSize-from&chunkMask, chunkSize-w&chunkMask)
			copy(dst[w>>chunkShift][w&chunkMask:], src[from>>chunkShift][from&chunkMask:from&chunkMask+run])
			w += run
			from += run
		}
		from = to + 1
	}
}

// minMax returns the least and greatest of v's first n values (0, 0
// when n is 0).
func (v *vec) minMax(n int) (lo, hi int64) {
	if n == 0 {
		return 0, 0
	}
	if v.wide {
		return chunksMinMax(v.c64, n)
	}
	return chunksMinMax(v.c32, n)
}

func chunksMinMax[T int32 | int64](chunks [][]T, n int) (lo, hi int64) {
	l, h := chunks[0][0], chunks[0][0]
	for ci := 0; n > 0; ci++ {
		c := chunks[ci][:min(n, chunkSize)]
		for _, x := range c {
			l, h = min(l, x), max(h, x)
		}
		n -= len(c)
	}
	return int64(l), int64(h)
}

// pack ORs each of v's first len(keys) values, offset by lo, into its
// row's key at bit shift: Canonical's packed row keys.
func (v *vec) pack(keys []uint64, lo int64, shift uint) {
	if v.wide {
		packChunks(keys, v.c64, lo, shift)
	} else {
		packChunks(keys, v.c32, lo, shift)
	}
}

func packChunks[T int32 | int64](keys []uint64, chunks [][]T, lo int64, shift uint) {
	for ci := 0; len(keys) > 0; ci++ {
		c := chunks[ci][:min(len(keys), chunkSize)]
		k := keys[:len(c)]
		for j, x := range c {
			k[j] |= (uint64(x) - uint64(lo)) << shift
		}
		keys = keys[len(c):]
	}
}

// unpack fills the empty v with one value per key — the width bits at
// shift, plus lo — in 32-bit chunks when [lo, hi] allows, as push
// would have chosen for the same values. Full chunks come from a; a
// partial last chunk is cut, exactly as long as its rows, from the
// front of tail32 or tail64: a canonical answer is final, so its last
// chunk needs no room to grow (push lengthens it if a caller appends
// anyway).
func (v *vec) unpack(a *arena, keys []uint64, lo, hi int64, shift, width uint, tail32 *[]int32, tail64 *[]int64) {
	mask := uint64(1)<<width - 1
	full, rem := len(keys)>>chunkShift, len(keys)&chunkMask
	if fits32(lo, hi) {
		for range full {
			v.c32 = append(v.c32, a.chunk32())
		}
		if rem > 0 {
			v.c32 = append(v.c32, (*tail32)[:rem:rem])
			*tail32 = (*tail32)[rem:]
		}
		unpackChunks(v.c32, keys, lo, shift, mask)
		return
	}
	for range full {
		v.c64 = append(v.c64, a.chunk64())
	}
	if rem > 0 {
		v.c64 = append(v.c64, (*tail64)[:rem:rem])
		*tail64 = (*tail64)[rem:]
	}
	v.wide = true
	unpackChunks(v.c64, keys, lo, shift, mask)
}

// fits32 reports whether values in [lo, hi] fit 32-bit chunks.
func fits32(lo, hi int64) bool { return lo >= math.MinInt32 && hi <= math.MaxInt32 }

func unpackChunks[T int32 | int64](chunks [][]T, keys []uint64, lo int64, shift uint, mask uint64) {
	for _, c := range chunks {
		k := keys[:min(len(keys), chunkSize)]
		for j, key := range k {
			c[j] = T(key>>shift&mask + uint64(lo))
		}
		keys = keys[len(k):]
	}
}

// hashMix folds one column value into a running hash (splitmix64-style
// finalisation). Good avalanche keeps the open-addressing tables of
// index.go at their design load factor.
func hashMix(h, v uint64) uint64 {
	v *= 0x9e3779b97f4a7c15
	v ^= v >> 29
	h ^= v
	h *= 0xbf58476d1ce4e5b9
	return h ^ h>>32
}

// hashRow hashes the key columns of row i of r.
func hashRow(r *Relation, cols []int, row int) uint64 {
	h := uint64(len(cols))*0x94d049bb133111eb + 1
	for _, c := range cols {
		h = hashMix(h, uint64(r.cols[c].at(row)))
	}
	return h
}
