package join

import (
	"slices"
	"sync"
)

// radixMinKeys is the key count from which sortKeys radix-sorts rather
// than running pdqsort. Sorting random keys of 24, 39 (path-rows' three
// 13-bit columns) and 64 bits on a 2-vCPU x86-64 VM (medians of 5),
// pdqsort was faster at 1,024 keys of 39 and 64 bits (14.8 against
// 19.4 µs, 16.9 against 42.4), even at 1,536 keys of 64 bits, and
// slower at every width from 2,048 keys up (69.5 against 28.1 µs at 39
// bits; 274 against 75.5 µs at 4,947 keys). Below it, clearing and
// summing the digit counts costs more than the radix passes save.
const radixMinKeys = 2048

// radixMaxDigitBits caps a radix digit at 2,048 buckets, whose 8 KB of
// counts stay in L1 beside the keys they place.
const radixMaxDigitBits = 11

// maxPooledKeys caps the key buffers sortBufs keeps: a larger answer's
// buffers are dropped after use rather than pinned in the pool.
const maxPooledKeys = 1 << 16

// sortBufs is canonicalPacked's scratch: the packed row keys, the radix
// sort's second key buffer and its digit counts.
type sortBufs struct {
	keys, tmp []uint64
	counts    []uint32
}

var sortPool = sync.Pool{New: func() any { return new(sortBufs) }}

// getSortBufs returns pooled scratch whose keys hold n zeros.
func getSortBufs(n int) *sortBufs {
	b := sortPool.Get().(*sortBufs)
	if cap(b.keys) < n {
		b.keys = make([]uint64, n)
	} else {
		b.keys = b.keys[:n]
		clear(b.keys)
	}
	return b
}

func putSortBufs(b *sortBufs) {
	if cap(b.keys) <= maxPooledKeys && cap(b.tmp) <= maxPooledKeys {
		sortPool.Put(b)
	}
}

// sortKeys sorts b.keys, whose values are below 1<<width, and reports
// whether it radix-sorted them. From radixMinKeys keys up it runs an
// LSD radix sort over width bits only (Knuth, TAOCP vol. 3, §5.2.5):
// ⌈width/11⌉ passes of equal digits, one histogram read for all of
// them, and a pass whose digit is the same in every key skipped. The
// sorted keys end in b.keys either way.
func (b *sortBufs) sortKeys(width uint) (radix bool) {
	keys := b.keys
	n := len(keys)
	if n < radixMinKeys {
		slices.Sort(keys)
		return false
	}
	passes := (width + radixMaxDigitBits - 1) / radixMaxDigitBits
	if passes == 0 {
		return true // every key is 0
	}
	digit := (width + passes - 1) / passes
	buckets := 1 << digit
	mask := uint64(buckets - 1)
	if cap(b.counts) < int(passes)*buckets {
		b.counts = make([]uint32, int(passes)*buckets)
	} else {
		b.counts = b.counts[:int(passes)*buckets]
		clear(b.counts)
	}
	for _, k := range keys {
		for p := range passes {
			b.counts[int(p)*buckets+int(k>>(p*digit)&mask)]++
		}
	}
	if cap(b.tmp) < n {
		b.tmp = make([]uint64, n)
	}
	src, dst := keys, b.tmp[:n]
	for p := range passes {
		shift := p * digit
		counts := b.counts[int(p)*buckets : int(p+1)*buckets]
		if counts[src[0]>>shift&mask] == uint32(n) {
			continue // one bucket: this digit orders nothing
		}
		sum := uint32(0)
		for d, c := range counts {
			counts[d] = sum
			sum += c
		}
		for _, k := range src {
			d := k >> shift & mask
			dst[counts[d]] = k
			counts[d]++
		}
		src, dst = dst, src
	}
	b.keys, b.tmp = src, dst
	return true
}
