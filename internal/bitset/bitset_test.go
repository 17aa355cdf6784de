package bitset

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestNewEmpty(t *testing.T) {
	s := New(100)
	if !s.IsEmpty() {
		t.Fatal("new set not empty")
	}
	if s.Len() != 0 {
		t.Fatalf("Len = %d, want 0", s.Len())
	}
	if s.Cap() != 100 {
		t.Fatalf("Cap = %d, want 100", s.Cap())
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
	s := FromSlice(100, in)
	got := s.Elements()
	want := []int{3, 5, 64, 99}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Elements = %v, want %v", got, want)
	}
}

func TestCloneIndependence(t *testing.T) {
	s := FromSlice(70, []int{1, 65})
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
	a := FromSlice(128, []int{1, 2, 3, 100})
	b := FromSlice(128, []int{3, 4, 100, 127})

	if got := a.Union(b).Elements(); !reflect.DeepEqual(got, []int{1, 2, 3, 4, 100, 127}) {
		t.Fatalf("Union = %v", got)
	}
	if got := a.Intersect(b).Elements(); !reflect.DeepEqual(got, []int{3, 100}) {
		t.Fatalf("Intersect = %v", got)
	}
	if got := a.Diff(b).Elements(); !reflect.DeepEqual(got, []int{1, 2}) {
		t.Fatalf("Diff = %v", got)
	}
}

func TestInPlaceOpsMatchPure(t *testing.T) {
	a := FromSlice(200, []int{0, 50, 150, 199})
	b := FromSlice(200, []int{50, 51, 199})

	u := a.Clone()
	u.InPlaceUnion(b)
	if !u.Equal(a.Union(b)) {
		t.Fatal("InPlaceUnion mismatch")
	}
	i := a.Clone()
	i.InPlaceIntersect(b)
	if !i.Equal(a.Intersect(b)) {
		t.Fatal("InPlaceIntersect mismatch")
	}
	d := a.Clone()
	d.InPlaceDiff(b)
	if !d.Equal(a.Diff(b)) {
		t.Fatal("InPlaceDiff mismatch")
	}
}

func TestIntersects(t *testing.T) {
	a := FromSlice(128, []int{10, 70})
	b := FromSlice(128, []int{70})
	c := FromSlice(128, []int{11, 71})
	if !a.Intersects(b) {
		t.Fatal("a should intersect b")
	}
	if a.Intersects(c) {
		t.Fatal("a should not intersect c")
	}
}

func TestIntersectsDiff(t *testing.T) {
	a := FromSlice(64, []int{1, 2, 3})
	b := FromSlice(64, []int{3, 4})
	u := FromSlice(64, []int{3})
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
	a := FromSlice(64, []int{1, 2})
	b := FromSlice(64, []int{1, 2, 3})
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

func TestEqualDifferentCapacity(t *testing.T) {
	if New(10).Equal(New(20)) {
		t.Fatal("sets of different capacity must not be Equal")
	}
}

func TestNext(t *testing.T) {
	s := FromSlice(200, []int{5, 64, 130})
	cases := []struct{ from, want int }{
		{-5, 5}, {0, 5}, {5, 5}, {6, 64}, {64, 64}, {65, 130}, {131, -1}, {500, -1},
	}
	for _, c := range cases {
		if got := s.Next(c.from); got != c.want {
			t.Errorf("Next(%d) = %d, want %d", c.from, got, c.want)
		}
	}
}

func TestAppendKeyRoundTrip(t *testing.T) {
	a := FromSlice(128, []int{0, 77})
	b := FromSlice(128, []int{0, 77})
	c := FromSlice(128, []int{0, 78})
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
	if got := FromSlice(10, []int{3, 1}).String(); got != "{1,3}" {
		t.Fatalf("String = %q", got)
	}
	if got := New(10).String(); got != "{}" {
		t.Fatalf("String = %q", got)
	}
}

func TestResetAndCopyFrom(t *testing.T) {
	a := FromSlice(64, []int{1, 2})
	a.Reset()
	if !a.IsEmpty() {
		t.Fatal("Reset did not empty the set")
	}
	b := FromSlice(64, []int{7})
	a.CopyFrom(b)
	if !a.Equal(b) {
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
		if !a.Union(b).Equal(b.Union(a)) {
			return false
		}
		lhs := a.Intersect(b.Union(c))
		rhs := a.Intersect(b).Union(a.Intersect(c))
		if !lhs.Equal(rhs) {
			return false
		}
		if !a.Diff(b).Union(a.Intersect(b)).Equal(a) {
			return false
		}
		// |A ∪ B| = |A| + |B| - |A ∩ B|
		if a.Union(b).Len() != a.Len()+b.Len()-a.Intersect(b).Len() {
			return false
		}
		// Intersects consistency
		if a.Intersects(b) != !a.Intersect(b).IsEmpty() {
			return false
		}
		// IntersectsDiff(b, c) == !((a∩b)\c).IsEmpty()
		if a.IntersectsDiff(b, c) != !a.Intersect(b).Diff(c).IsEmpty() {
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
		for i := tr.a.Next(0); i >= 0; i = tr.a.Next(i + 1) {
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
