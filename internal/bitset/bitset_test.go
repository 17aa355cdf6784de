package bitset

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

// Clear removes element i.
func (s *Set) Clear(i int) {
	s.words[i/wordBits] &^= 1 << (uint(i) % wordBits)
}

// fromSlice returns a set of capacity n containing elems.
func fromSlice(n int, elems []int) *Set {
	s := New(n)
	for _, e := range elems {
		s.Set(e)
	}
	return s
}

// diff returns a \ b as a new set.
func diff(a, b *Set) *Set {
	d := a.Clone()
	d.InPlaceDiff(b)
	return d
}

func union(a, b *Set) *Set {
	u := New(a.n)
	u.UnionOf(a, b)
	return u
}

// equal reports whether a and b hold the same elements.
func equal(a, b *Set) bool { return a.SubsetOf(b) && b.SubsetOf(a) }

func TestNewEmpty(t *testing.T) {
	s := New(100)
	if !s.IsEmpty() {
		t.Fatal("new set not empty")
	}
	if s.Len() != 0 {
		t.Fatalf("Len = %d, want 0", s.Len())
	}
	if s.n != 100 {
		t.Fatalf("capacity = %d, want 100", s.n)
	}
}

func TestNewZeroCapacity(t *testing.T) {
	s := New(0)
	if !s.IsEmpty() || s.Len() != 0 {
		t.Fatal("zero-capacity set should be empty")
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1) did not panic")
		}
	}()
	New(-1)
}

func TestSetClearTest(t *testing.T) {
	s := New(130)
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		s.Set(i)
		if !s.Test(i) {
			t.Fatalf("Test(%d) false after Set", i)
		}
	}
	if s.Len() != 8 {
		t.Fatalf("Len = %d, want 8", s.Len())
	}
	s.Clear(64)
	if s.Test(64) {
		t.Fatal("Test(64) true after Clear")
	}
	if s.Len() != 7 {
		t.Fatalf("Len = %d, want 7", s.Len())
	}
}

func TestTestOutOfRange(t *testing.T) {
	s := New(10)
	if s.Test(-1) || s.Test(10) || s.Test(1000) {
		t.Fatal("out-of-range Test should be false")
	}
}

func TestFromSliceAndElements(t *testing.T) {
	in := []int{5, 3, 99, 64}
	s := fromSlice(100, in)
	got := s.Elements()
	want := []int{3, 5, 64, 99}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Elements = %v, want %v", got, want)
	}
}

func TestCloneIndependence(t *testing.T) {
	s := fromSlice(70, []int{1, 65})
	c := s.Clone()
	c.Set(2)
	if s.Test(2) {
		t.Fatal("Clone shares storage with original")
	}
	s.Clear(1)
	if !c.Test(1) {
		t.Fatal("original mutation leaked into clone")
	}
}

func TestUnionIntersectDiff(t *testing.T) {
	a := fromSlice(128, []int{1, 2, 3, 100})
	b := fromSlice(128, []int{3, 4, 100, 127})

	if got := union(a, b).Elements(); !reflect.DeepEqual(got, []int{1, 2, 3, 4, 100, 127}) {
		t.Fatalf("Union = %v", got)
	}
	if got := a.Intersect(b).Elements(); !reflect.DeepEqual(got, []int{3, 100}) {
		t.Fatalf("Intersect = %v", got)
	}
	if got := diff(a, b).Elements(); !reflect.DeepEqual(got, []int{1, 2}) {
		t.Fatalf("Diff = %v", got)
	}
}

func TestInPlaceOpsMatchPure(t *testing.T) {
	a := fromSlice(200, []int{0, 50, 150, 199})
	b := fromSlice(200, []int{50, 51, 199})

	u := a.Clone()
	u.InPlaceUnion(b)
	if !equal(u, union(a, b)) {
		t.Fatal("InPlaceUnion mismatch")
	}
	i := a.Clone()
	i.InPlaceIntersect(b)
	if !equal(i, a.Intersect(b)) {
		t.Fatal("InPlaceIntersect mismatch")
	}
	d := a.Clone()
	d.InPlaceDiff(b)
	if got := d.Elements(); !reflect.DeepEqual(got, []int{0, 150}) {
		t.Fatal("InPlaceDiff mismatch")
	}
}

func TestIntersects(t *testing.T) {
	a := fromSlice(128, []int{10, 70})
	b := fromSlice(128, []int{70})
	c := fromSlice(128, []int{11, 71})
	if !a.Intersects(b) {
		t.Fatal("a should intersect b")
	}
	if a.Intersects(c) {
		t.Fatal("a should not intersect c")
	}
}

func TestIntersectsDiff(t *testing.T) {
	a := fromSlice(64, []int{1, 2, 3})
	b := fromSlice(64, []int{3, 4})
	u := fromSlice(64, []int{3})
	// a ∩ b = {3}, and 3 ∈ u, so no shared element outside u.
	if a.IntersectsDiff(b, u) {
		t.Fatal("IntersectsDiff should be false when overlap ⊆ u")
	}
	b.Set(2)
	if !a.IntersectsDiff(b, u) {
		t.Fatal("IntersectsDiff should be true: 2 is shared and outside u")
	}
}

func TestSubsetOf(t *testing.T) {
	a := fromSlice(64, []int{1, 2})
	b := fromSlice(64, []int{1, 2, 3})
	if !a.SubsetOf(b) {
		t.Fatal("{1,2} ⊆ {1,2,3}")
	}
	if b.SubsetOf(a) {
		t.Fatal("{1,2,3} ⊄ {1,2}")
	}
	if !New(64).SubsetOf(a) {
		t.Fatal("∅ ⊆ anything")
	}
}

func TestNext(t *testing.T) {
	// Next over s is NextDiff against the empty set.
	s, empty := fromSlice(200, []int{5, 64, 130}), New(200)
	cases := []struct{ from, want int }{
		{-5, 5}, {0, 5}, {5, 5}, {6, 64}, {64, 64}, {65, 130}, {131, -1}, {500, -1},
	}
	for _, c := range cases {
		if got := s.NextDiff(empty, c.from); got != c.want {
			t.Errorf("Next(%d) = %d, want %d", c.from, got, c.want)
		}
	}
}

func TestNextDiff(t *testing.T) {
	s := fromSlice(200, []int{5, 6, 64, 130, 199})
	o := fromSlice(200, []int{6, 64, 65, 199})
	cases := []struct{ from, want int }{
		{-5, 5}, {5, 5}, {6, 130}, {64, 130}, {130, 130}, {131, -1}, {500, -1},
	}
	for _, c := range cases {
		if got := s.NextDiff(o, c.from); got != c.want {
			t.Errorf("NextDiff(%d) = %d, want %d", c.from, got, c.want)
		}
	}
}

func TestAppendKeyRoundTrip(t *testing.T) {
	a := fromSlice(128, []int{0, 77})
	b := fromSlice(128, []int{0, 77})
	c := fromSlice(128, []int{0, 78})
	ka := string(a.AppendKey(nil))
	kb := string(b.AppendKey(nil))
	kc := string(c.AppendKey(nil))
	if ka != kb {
		t.Fatal("equal sets produced different keys")
	}
	if ka == kc {
		t.Fatal("different sets produced equal keys")
	}
}

func TestString(t *testing.T) {
	if got := fromSlice(10, []int{3, 1}).String(); got != "{1,3}" {
		t.Fatalf("String = %q", got)
	}
	if got := New(10).String(); got != "{}" {
		t.Fatalf("String = %q", got)
	}
}

func TestResetAndCopyFrom(t *testing.T) {
	a := fromSlice(64, []int{1, 2})
	a.Reset()
	if !a.IsEmpty() {
		t.Fatal("Reset did not empty the set")
	}
	b := fromSlice(64, []int{7})
	a.CopyFrom(b)
	if !equal(a, b) {
		t.Fatal("CopyFrom mismatch")
	}
}

// --- property-based tests -------------------------------------------------

// randSet is a helper: a reproducible random subset of [0,n).
func randSet(r *rand.Rand, n int) *Set {
	s := New(n)
	for i := 0; i < n; i++ {
		if r.Intn(2) == 0 {
			s.Set(i)
		}
	}
	return s
}

// setTriple generates three random same-capacity sets for quick.Check.
type setTriple struct{ a, b, c *Set }

func (setTriple) Generate(r *rand.Rand, size int) reflect.Value {
	n := 1 + r.Intn(257)
	return reflect.ValueOf(setTriple{randSet(r, n), randSet(r, n), randSet(r, n)})
}

func TestQuickSetAlgebra(t *testing.T) {
	cfg := &quick.Config{MaxCount: 300}

	// Union is commutative; intersection distributes over union;
	// diff then union restores the superset; De Morgan via diff.
	prop := func(tr setTriple) bool {
		a, b, c := tr.a, tr.b, tr.c
		if !equal(union(a, b), union(b, a)) {
			return false
		}
		lhs := a.Intersect(union(b, c))
		rhs := union(a.Intersect(b), a.Intersect(c))
		if !equal(lhs, rhs) {
			return false
		}
		if !equal(union(diff(a, b), a.Intersect(b)), a) {
			return false
		}
		// |A ∪ B| = |A| + |B| - |A ∩ B|
		if union(a, b).Len() != a.Len()+b.Len()-a.Intersect(b).Len() {
			return false
		}
		// Intersects consistency
		if a.Intersects(b) != !a.Intersect(b).IsEmpty() {
			return false
		}
		// IntersectsDiff(b, c) == !((a∩b)\c).IsEmpty()
		if a.IntersectsDiff(b, c) != !diff(a.Intersect(b), c).IsEmpty() {
			return false
		}
		// UnionOf and SubsetOfUnion agree with the in-place union.
		u := b.Clone()
		u.InPlaceUnion(c)
		if !equal(union(b, c), u) || a.SubsetOfUnion(b, c) != a.SubsetOf(u) {
			return false
		}
		if !a.Intersect(b).SubsetOfUnion(b, c) {
			return false
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

func TestQuickElementsSortedUnique(t *testing.T) {
	prop := func(tr setTriple) bool {
		e := tr.a.Elements()
		if !sort.IntsAreSorted(e) {
			return false
		}
		for i := 1; i < len(e); i++ {
			if e[i] == e[i-1] {
				return false
			}
		}
		return len(e) == tr.a.Len()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickNextIteratesAll(t *testing.T) {
	prop := func(tr setTriple) bool {
		var got []int
		empty := New(tr.a.n)
		for i := tr.a.NextDiff(empty, 0); i >= 0; i = tr.a.NextDiff(empty, i+1) {
			got = append(got, i)
		}
		want := tr.a.Elements()
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickNextDiffIteratesDiff(t *testing.T) {
	prop := func(tr setTriple) bool {
		var got []int
		for i := tr.a.NextDiff(tr.b, 0); i >= 0; i = tr.a.NextDiff(tr.b, i+1) {
			got = append(got, i)
		}
		want := diff(tr.a, tr.b).Elements()
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkIntersectsDiff(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	x, y, u := randSet(r, 1024), randSet(r, 1024), randSet(r, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.IntersectsDiff(y, u)
	}
}

func BenchmarkInPlaceUnion(b *testing.B) {
	r := rand.New(rand.NewSource(2))
	x, y := randSet(r, 1024), randSet(r, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.InPlaceUnion(y)
	}
}
