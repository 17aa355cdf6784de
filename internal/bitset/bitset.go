// Package bitset provides dense, fixed-capacity bit sets used throughout
// the decomposition algorithms to represent sets of hypergraph vertices
// and sets of edge indices.
//
// A Set is a little-endian slice of 64-bit words. All binary operations
// require operands created with the same capacity; this invariant is
// cheap to maintain because every set in a decomposition run is sized to
// the vertex count (or edge count) of one fixed hypergraph.
package bitset

import (
	"math/bits"
	"strconv"
	"strings"
)

const wordBits = 64

// Set is a fixed-capacity bit set. The zero value is an empty set of
// capacity zero; use New to create a set that can hold elements.
type Set struct {
	words []uint64
	n     int // capacity in bits
}

// New returns an empty set able to hold elements 0..n-1.
func New(n int) *Set {
	if n < 0 {
		panic("bitset: negative capacity")
	}
	return &Set{words: make([]uint64, (n+wordBits-1)/wordBits), n: n}
}

// Set adds element i.
func (s *Set) Set(i int) {
	s.words[i/wordBits] |= 1 << (uint(i) % wordBits)
}

// Test reports whether element i is present.
func (s *Set) Test(i int) bool {
	if i < 0 || i >= s.n {
		return false
	}
	return s.words[i/wordBits]&(1<<(uint(i)%wordBits)) != 0
}

// Len returns the number of elements in the set (population count).
func (s *Set) Len() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// IsEmpty reports whether the set has no elements.
func (s *Set) IsEmpty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Clone returns an independent copy of s.
func (s *Set) Clone() *Set {
	c := &Set{words: make([]uint64, len(s.words)), n: s.n}
	copy(c.words, s.words)
	return c
}

// CopyFrom overwrites s with the contents of o (same capacity required).
func (s *Set) CopyFrom(o *Set) {
	copy(s.words, o.words)
}

// Reset removes all elements.
func (s *Set) Reset() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// InPlaceUnion adds all elements of o to s.
func (s *Set) InPlaceUnion(o *Set) {
	for i, w := range o.words {
		s.words[i] |= w
	}
}

// InPlaceIntersect removes from s every element not in o.
func (s *Set) InPlaceIntersect(o *Set) {
	for i, w := range o.words {
		s.words[i] &= w
	}
}

// InPlaceDiff removes from s every element of o.
func (s *Set) InPlaceDiff(o *Set) {
	for i, w := range o.words {
		s.words[i] &^= w
	}
}

// UnionOf overwrites s with a ∪ b in one pass (same capacity required).
func (s *Set) UnionOf(a, b *Set) {
	aw, bw := a.words[:len(s.words)], b.words[:len(s.words)]
	for i := range s.words {
		s.words[i] = aw[i] | bw[i]
	}
}

// Intersect returns s ∩ o as a new set.
func (s *Set) Intersect(o *Set) *Set {
	c := s.Clone()
	c.InPlaceIntersect(o)
	return c
}

// Intersects reports whether s ∩ o is non-empty.
func (s *Set) Intersects(o *Set) bool {
	for i, w := range o.words {
		if s.words[i]&w != 0 {
			return true
		}
	}
	return false
}

// IntersectsDiff reports whether (s ∩ o) \ u is non-empty, i.e. whether s
// and o share an element outside u. This is the [U]-adjacency test of
// Definition 3.2 and is the hottest operation in component computation.
func (s *Set) IntersectsDiff(o, u *Set) bool {
	for i, w := range o.words {
		if s.words[i]&w&^u.words[i] != 0 {
			return true
		}
	}
	return false
}

// SubsetOf reports whether every element of s is in o.
func (s *Set) SubsetOf(o *Set) bool {
	for i, w := range s.words {
		if w&^o.words[i] != 0 {
			return false
		}
	}
	return true
}

// SubsetOfUnion reports whether every element of s is in a ∪ b, without
// materialising the union.
func (s *Set) SubsetOfUnion(a, b *Set) bool {
	aw, bw := a.words[:len(s.words)], b.words[:len(s.words)]
	for i, w := range s.words {
		if w&^(aw[i]|bw[i]) != 0 {
			return false
		}
	}
	return true
}

// ForEach calls f for every element of s in increasing order.
func (s *Set) ForEach(f func(i int)) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			f(wi*wordBits + b)
			w &= w - 1
		}
	}
}

// Elements returns the members of s in increasing order.
func (s *Set) Elements() []int {
	out := make([]int, 0, s.Len())
	s.ForEach(func(i int) { out = append(out, i) })
	return out
}

// NextDiff returns the smallest element >= i of s \ o, or -1 if none
// exists, without materialising the difference (same capacity
// required). Iterating with it visits only the elements outside o.
func (s *Set) NextDiff(o *Set, i int) int {
	if i < 0 {
		i = 0
	}
	if i >= s.n {
		return -1
	}
	wi := i / wordBits
	w := (s.words[wi] &^ o.words[wi]) >> (uint(i) % wordBits) << (uint(i) % wordBits)
	for {
		if w != 0 {
			return wi*wordBits + bits.TrailingZeros64(w)
		}
		wi++
		if wi >= len(s.words) {
			return -1
		}
		w = s.words[wi] &^ o.words[wi]
	}
}

// Words returns the set's backing words, element i at bit i%64 of word
// i/64. The slice is shared and must not be mutated.
func (s *Set) Words() []uint64 { return s.words }

// AppendKey appends a canonical binary encoding of s to dst. Two sets of
// the same capacity produce equal encodings iff they are equal.
func (s *Set) AppendKey(dst []byte) []byte {
	for _, w := range s.words {
		dst = append(dst,
			byte(w), byte(w>>8), byte(w>>16), byte(w>>24),
			byte(w>>32), byte(w>>40), byte(w>>48), byte(w>>56))
	}
	return dst
}

// String renders the set as "{1,4,7}".
func (s *Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(i int) {
		if !first {
			b.WriteByte(',')
		}
		first = false
		b.WriteString(strconv.Itoa(i))
	})
	b.WriteByte('}')
	return b.String()
}
