package comb

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

// Rank is the inverse of Unrank: it returns the global rank of the given
// strictly increasing subset. The tests check the bijection with it.
func (s Space) Rank(subset []int) int64 {
	size := len(subset)
	var r int64
	for sz := 1; sz < size; sz++ {
		r += Binomial(s.M, sz)
	}
	prev := 0
	for pos, v := range subset {
		for w := prev; w < v; w++ {
			r += Binomial(s.M-1-w, size-1-pos)
		}
		prev = v + 1
	}
	return r
}

func TestBinomialSmall(t *testing.T) {
	cases := []struct {
		n, k int
		want int64
	}{
		{0, 0, 1}, {5, 0, 1}, {5, 5, 1}, {5, 1, 5}, {5, 2, 10}, {10, 3, 120},
		{52, 5, 2598960}, {3, 4, 0}, {-1, 0, 0}, {4, -1, 0},
	}
	for _, c := range cases {
		if got := Binomial(c.n, c.k); got != c.want {
			t.Errorf("Binomial(%d,%d) = %d, want %d", c.n, c.k, got, c.want)
		}
	}
}

func TestBinomialSymmetry(t *testing.T) {
	for n := 0; n <= 30; n++ {
		for k := 0; k <= n; k++ {
			if Binomial(n, k) != Binomial(n, n-k) {
				t.Fatalf("C(%d,%d) != C(%d,%d)", n, k, n, n-k)
			}
		}
	}
}

func TestBinomialPascal(t *testing.T) {
	for n := 1; n <= 40; n++ {
		for k := 1; k <= n; k++ {
			if Binomial(n, k) != Binomial(n-1, k-1)+Binomial(n-1, k) {
				t.Fatalf("Pascal identity fails at C(%d,%d)", n, k)
			}
		}
	}
}

func TestBinomialSaturates(t *testing.T) {
	if got := Binomial(500, 250); got != math.MaxInt64 {
		t.Fatalf("C(500,250) should saturate, got %d", got)
	}
}

func TestSpaceTotal(t *testing.T) {
	// C(4,1)+C(4,2) = 4+6 = 10
	if got := (Space{M: 4, K: 2}).Total(); got != 10 {
		t.Fatalf("Total = %d, want 10", got)
	}
	// K > M clamps: subsets of sizes 1..3 of 3 elements = 2^3-1 = 7
	if got := (Space{M: 3, K: 5}).Total(); got != 7 {
		t.Fatalf("Total = %d, want 7", got)
	}
	if got := (Space{M: 0, K: 3}).Total(); got != 0 {
		t.Fatalf("Total of empty space = %d, want 0", got)
	}
}

func TestIterEnumeratesWholeSpace(t *testing.T) {
	s := Space{M: 6, K: 3}
	it := NewIter(s, 0, s.Total())
	var got [][]int
	for c := it.Next(); c != nil; c = it.Next() {
		cp := append([]int(nil), c...)
		got = append(got, cp)
	}
	want := int(s.Total())
	if len(got) != want {
		t.Fatalf("enumerated %d subsets, want %d", len(got), want)
	}
	// Sizes must be non-decreasing, each subset strictly increasing, all unique.
	seen := map[string]bool{}
	lastSize := 0
	for _, c := range got {
		if len(c) < lastSize {
			t.Fatalf("size decreased: %v after size %d", c, lastSize)
		}
		lastSize = len(c)
		for i := 1; i < len(c); i++ {
			if c[i] <= c[i-1] {
				t.Fatalf("subset not strictly increasing: %v", c)
			}
		}
		key := ""
		for _, v := range c {
			key += string(rune('a' + v))
		}
		if seen[key] {
			t.Fatalf("duplicate subset %v", c)
		}
		seen[key] = true
	}
}

func TestUnrankMatchesIteration(t *testing.T) {
	s := Space{M: 7, K: 4}
	it := NewIter(s, 0, s.Total())
	buf := make([]int, 0, s.K)
	for r := int64(0); r < s.Total(); r++ {
		fromIter := it.Next()
		fromUnrank := s.Unrank(r, buf)
		if !reflect.DeepEqual(fromIter, fromUnrank) {
			t.Fatalf("rank %d: iter %v != unrank %v", r, fromIter, fromUnrank)
		}
	}
	if it.Next() != nil {
		t.Fatal("iterator should be exhausted")
	}
}

func TestRankUnrankRoundTrip(t *testing.T) {
	s := Space{M: 9, K: 3}
	buf := make([]int, 0, s.K)
	for r := int64(0); r < s.Total(); r++ {
		sub := s.Unrank(r, buf)
		if got := s.Rank(sub); got != r {
			t.Fatalf("Rank(Unrank(%d)) = %d", r, got)
		}
	}
}

// chunks cuts [0, total) into contiguous rank ranges of at most size
// ranks each, the way a parallel split claims them.
func chunks(total, size int64) [][2]int64 {
	var out [][2]int64
	for lo := int64(0); lo < total; lo += size {
		out = append(out, [2]int64{lo, min(lo+size, total)})
	}
	return out
}

func TestSplitCoversSpaceExactly(t *testing.T) {
	s := Space{M: 8, K: 3}
	for _, workers := range []int64{1, 2, 3, 5, 16, 1000} {
		size := (s.Total() + workers - 1) / workers
		var all [][]int
		for _, r := range chunks(s.Total(), size) {
			it := NewIter(s, r[0], r[1])
			for c := it.Next(); c != nil; c = it.Next() {
				all = append(all, append([]int(nil), c...))
			}
		}
		if int64(len(all)) != s.Total() {
			t.Fatalf("workers=%d: got %d subsets, want %d", workers, len(all), s.Total())
		}
		// Uniqueness check via sorting a canonical encoding.
		keys := make([]string, len(all))
		for i, c := range all {
			k := ""
			for _, v := range c {
				k += string(rune('a'+v)) + ","
			}
			keys[i] = k
		}
		sort.Strings(keys)
		for i := 1; i < len(keys); i++ {
			if keys[i] == keys[i-1] {
				t.Fatalf("workers=%d: duplicate subset across ranges: %q", workers, keys[i])
			}
		}
	}
}

func TestIterEmptyRange(t *testing.T) {
	s := Space{M: 5, K: 2}
	it := NewIter(s, 3, 3)
	if it.Next() != nil {
		t.Fatal("empty range should yield nothing")
	}
	it = NewIter(s, s.Total(), s.Total()+10)
	if it.Next() != nil {
		t.Fatal("out-of-range should yield nothing")
	}
}

func TestQuickRankUnrankBijection(t *testing.T) {
	prop := func(mRaw, kRaw uint8, rRaw uint32) bool {
		m := int(mRaw%20) + 1
		k := int(kRaw%6) + 1
		s := Space{M: m, K: k}
		total := s.Total()
		if total == 0 {
			return true
		}
		r := int64(rRaw) % total
		sub := s.Unrank(r, nil)
		if int64(len(sub)) == 0 || len(sub) > k {
			return false
		}
		return s.Rank(sub) == r
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestQuickSplitPreservesOrderWithinRange(t *testing.T) {
	prop := func(mRaw, kRaw, cRaw uint8) bool {
		s := Space{M: int(mRaw%15) + 1, K: int(kRaw%4) + 1}
		size := int64(cRaw%50) + 1
		buf := make([]int, 0, s.K)
		count := int64(0)
		for _, r := range chunks(s.Total(), size) {
			it := NewIter(s, r[0], r[1])
			for c := it.Next(); c != nil; c = it.Next() {
				// Each range yields its ranks in order, so the subsets seen
				// so far are exactly ranks 0..count-1.
				if !reflect.DeepEqual(c, s.Unrank(count, buf)) {
					return false
				}
				count++
			}
			if count != r[1] {
				return false
			}
		}
		return count == s.Total()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func BenchmarkIterate(b *testing.B) {
	s := Space{M: 40, K: 3}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it := NewIter(s, 0, s.Total())
		for c := it.Next(); c != nil; c = it.Next() {
			_ = c
		}
	}
}

func BenchmarkUnrank(b *testing.B) {
	s := Space{M: 100, K: 5}
	total := s.Total()
	r := rand.New(rand.NewSource(7))
	buf := make([]int, 0, s.K)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Unrank(r.Int63n(total), buf)
	}
}
