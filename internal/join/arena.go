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
// slabs. It is not goroutine-safe: parallel join partitions each build
// into their own relation (own arena) and concatenate afterwards.
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
func (v *vec) push(a *arena, n, x int) {
	if !v.wide {
		if int64(int32(x)) == int64(x) {
			if n&chunkMask == 0 {
				v.c32 = append(v.c32, a.chunk32())
			}
			v.c32[n>>chunkShift][n&chunkMask] = int32(x)
			return
		}
		v.widen(a)
	}
	if n&chunkMask == 0 {
		v.c64 = append(v.c64, a.chunk64())
	}
	v.c64[n>>chunkShift][n&chunkMask] = int64(x)
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

// extend appends the first srcN rows of src to v, which currently has
// n rows. Chunk-aligned same-width appends copy whole chunks; anything
// else goes value-wise through push (which handles width promotion).
func (v *vec) extend(a *arena, n int, src *vec, srcN int) {
	if srcN == 0 {
		return
	}
	if n&chunkMask == 0 && v.wide == src.wide {
		nc := (srcN + chunkMask) >> chunkShift
		if v.wide {
			for _, c := range src.c64[:nc] {
				w := a.chunk64()
				copy(w, c)
				v.c64 = append(v.c64, w)
			}
		} else {
			for _, c := range src.c32[:nc] {
				w := a.chunk32()
				copy(w, c)
				v.c32 = append(v.c32, w)
			}
		}
		return
	}
	for i := 0; i < srcN; i++ {
		v.push(a, n+i, src.at(i))
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
// would have chosen for the same values.
func (v *vec) unpack(a *arena, keys []uint64, lo, hi int64, shift, width uint) {
	mask := uint64(1)<<width - 1
	nc := (len(keys) + chunkMask) >> chunkShift
	if lo >= math.MinInt32 && hi <= math.MaxInt32 {
		for range nc {
			v.c32 = append(v.c32, a.chunk32())
		}
		unpackChunks(v.c32, keys, lo, shift, mask)
		return
	}
	for range nc {
		v.c64 = append(v.c64, a.chunk64())
	}
	v.wide = true
	unpackChunks(v.c64, keys, lo, shift, mask)
}

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
