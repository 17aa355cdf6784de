package join

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// Edge-case coverage for the columnar storage layer: empty and
// single-column relations, rows that straddle chunk boundaries, the
// int32→int64 promotion path, and row-budget aborts while a columnar
// join is mid-flight — the shapes where an off-by-one in shift/mask
// addressing or a missed chunk append would corrupt data silently.

func TestArenaZeroRowRelation(t *testing.T) {
	r := NewRelation("a", "b")
	if r.Size() != 0 {
		t.Fatalf("Size = %d, want 0", r.Size())
	}
	if rows := r.Rows(); rows != nil {
		t.Fatalf("Rows() of an empty relation = %#v, want nil (the pre-columnar layout's nil tuple slice)", rows)
	}
	s := NewRelation("b", "c").Add(1, 2)

	j, err := r.Join(s)
	if err != nil {
		t.Fatal(err)
	}
	if j.Size() != 0 {
		t.Fatalf("empty ⋈ nonempty has %d rows", j.Size())
	}
	sj, err := s.Semijoin(r)
	if err != nil {
		t.Fatal(err)
	}
	if sj.Size() != 0 {
		t.Fatalf("nonempty ⋉ empty has %d rows", sj.Size())
	}
	p, err := r.Project("b")
	if err != nil {
		t.Fatal(err)
	}
	if p.Size() != 0 || !reflect.DeepEqual(p.Attrs, []string{"b"}) {
		t.Fatalf("projection of empty relation: %v", p)
	}
	if d := r.Dedup(); d.Size() != 0 {
		t.Fatalf("dedup of empty relation has %d rows", d.Size())
	}
	r.Canonical() // must not panic on zero chunks
}

func TestArenaSingleAttribute(t *testing.T) {
	r := NewRelation("x").Add(3).Add(1).Add(3).Add(2)
	if got := r.Rows(); !reflect.DeepEqual(got, [][]int{{3}, {1}, {3}, {2}}) {
		t.Fatalf("Rows = %v", got)
	}
	d := r.Dedup()
	if got := d.Rows(); !reflect.DeepEqual(got, [][]int{{3}, {1}, {2}}) {
		t.Fatalf("Dedup = %v", got)
	}
	s := NewRelation("x").Add(1).Add(2)
	sj, err := r.Semijoin(s)
	if err != nil {
		t.Fatal(err)
	}
	if got := sj.Rows(); !reflect.DeepEqual(got, [][]int{{1}, {2}}) {
		t.Fatalf("Semijoin = %v", got)
	}
}

// TestArenaChunkBoundaryRows drives relations across one and several
// chunk boundaries and checks every row round-trips, for sizes one
// below, at, and one past each boundary.
func TestArenaChunkBoundaryRows(t *testing.T) {
	for _, n := range []int{chunkSize - 1, chunkSize, chunkSize + 1, 3*chunkSize - 1, 3 * chunkSize, 3*chunkSize + 1} {
		r := NewRelation("a", "b")
		for i := 0; i < n; i++ {
			r.Add(i, -i)
		}
		if r.Size() != n {
			t.Fatalf("n=%d: Size = %d", n, r.Size())
		}
		// Spot-check by offset addressing and by materialisation.
		for _, i := range []int{0, n / 2, n - 2, n - 1} {
			if i < 0 {
				continue
			}
			if row := r.Row(i); row[0] != i || row[1] != -i {
				t.Fatalf("n=%d: Row(%d) = %v", n, i, row)
			}
		}
		rows := r.Rows()
		for i, row := range rows {
			if row[0] != i || row[1] != -i {
				t.Fatalf("n=%d: Rows()[%d] = %v", n, i, row)
			}
		}
	}
}

// TestArenaWidePromotion forces the int32→int64 promotion mid-column
// — both mid-chunk and exactly at a chunk boundary — and checks the
// already-written narrow values survive losslessly.
func TestArenaWidePromotion(t *testing.T) {
	big := int(math.MaxInt32) + 7
	for _, at := range []int{1, chunkSize / 2, chunkSize, chunkSize + 1} {
		r := NewRelation("v")
		for i := 0; i < at; i++ {
			r.Add(i)
		}
		r.Add(big).Add(-big).Add(math.MinInt32)
		for i := 0; i < at; i++ {
			if got := r.Row(i)[0]; got != i {
				t.Fatalf("promote@%d: narrow value %d read back as %d", at, i, got)
			}
		}
		tail := r.Rows()[at:]
		if want := [][]int{{big}, {-big}, {math.MinInt32}}; !reflect.DeepEqual(tail, want) {
			t.Fatalf("promote@%d: wide tail = %v, want %v", at, tail, want)
		}
	}
}

// canonicalReference is Canonical rebuilt from the string-keyed
// operators: Project onto the sorted attributes, Sorted, adjacent
// duplicates removed.
func canonicalReference(t testing.TB, r *Relation) ([]string, [][]int) {
	attrs := append([]string(nil), r.Attrs...)
	sort.Strings(attrs)
	p, err := r.Project(attrs...)
	if err != nil {
		t.Fatal(err)
	}
	var want [][]int
	for _, row := range p.Sorted() {
		if len(want) == 0 || !reflect.DeepEqual(want[len(want)-1], row) {
			want = append(want, row)
		}
	}
	return attrs, want
}

// packsOneWord reports whether Canonical sorts r as packed row keys
// rather than with its comparator.
func packsOneWord(r *Relation) bool {
	attrs := append([]string(nil), r.Attrs...)
	sort.Strings(attrs)
	src := make([]*vec, len(attrs))
	for k, a := range attrs {
		src[k] = &r.cols[r.pos[a]]
	}
	return canonicalPacked(attrs, src, r.n) != nil
}

// TestCanonical checks Relation.Canonical against canonicalReference,
// on both sides of the one-word boundary of its packed row keys: the
// path taken is asserted too. The input must stay untouched.
func TestCanonical(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	span := NewRelation("a", "b")
	for i := 0; i < 2*chunkSize+123; i++ {
		span.Add(rng.Intn(100), rng.Intn(100)) // ~8k rows over 10k keys: duplicates
	}
	unsorted := NewRelation("z", "a", "m")
	for i := 0; i < 300; i++ {
		unsorted.Add(rng.Intn(4), rng.Intn(3), rng.Intn(5))
	}
	wide := NewRelation("w", "n")
	for _, v := range []int{5, math.MaxInt32 + 7, -1, math.MinInt32 - 3, 5, math.MaxInt32 + 7, 0} {
		wide.Add(v, v%3)
	}
	// spanning returns rows over attrs whose column k spans exactly
	// bits[k] bits above base[k]: both ends of each span occur.
	spanning := func(attrs []string, base []int, bits []uint, rows int) *Relation {
		r := NewRelation(attrs...)
		row := make([]int, len(attrs))
		for i := 0; i < rows; i++ {
			for k := range row {
				top, off := uint64(1)<<bits[k]-1, uint64(0)
				switch {
				case i == 1:
					off = top
				case i > 1 && top > 0:
					off = rng.Uint64() % top
					if i%3 == 0 {
						off %= 4 // repeat values, so rows repeat
					}
				}
				row[k] = int(uint64(base[k]) + off)
			}
			r.AddRow(row)
		}
		return r
	}
	limits := NewRelation("m")
	for _, v := range []int{math.MaxInt64, 0, math.MinInt64, -1, math.MaxInt64, 1} {
		limits.Add(v)
	}
	limitsPair := NewRelation("p", "m")
	for i, v := range []int{math.MaxInt64, 0, math.MinInt64, -1, math.MaxInt64, 1} {
		limitsPair.Add(i%2, v)
	}
	constant := NewRelation("c", "b", "a")
	for i := 0; i < 50; i++ {
		constant.Add(-3, i%7, 7)
	}
	noAttrs := NewRelation()
	for i := 0; i < 4; i++ {
		noAttrs.Add()
	}
	for _, c := range []struct {
		name   string
		r      *Relation
		packed bool
	}{
		{"chunk-span-duplicates", span, true},
		{"attrs-out-of-order", unsorted, true},
		{"promoted-int64", wide, true},
		{"empty", NewRelation("b", "a"), true},
		{"widths-sum-64", spanning([]string{"b", "a"}, []int{-5, math.MinInt32 + 9}, []uint{32, 32}, 500), true},
		{"widths-sum-64-one-column", spanning([]string{"a", "z"}, []int{math.MinInt64, 4}, []uint{64, 0}, 300), true},
		{"widths-sum-65", spanning([]string{"b", "a"}, []int{-5, math.MinInt32 + 9}, []uint{33, 32}, 500), false},
		{"three-columns-of-2^31", spanning([]string{"c", "a", "b"}, []int{0, -1 << 30, 1 << 40}, []uint{31, 31, 31}, 500), false},
		{"min-and-max-int64", limits, true},
		{"min-and-max-int64-beside-a-column", limitsPair, false},
		{"all-equal-columns", constant, true},
		{"one-row", NewRelation("y", "x").Add(math.MinInt64+1, 42), true},
		{"no-attributes", noAttrs, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			before := c.r.Rows()
			attrs, want := canonicalReference(t, c.r)
			if c.r.Size() > 0 && len(c.r.Attrs) == 0 && len(want) != 1 {
				t.Fatalf("reference kept %d rows of a relation with no attributes, want 1", len(want))
			}
			if got := packsOneWord(c.r); got != c.packed {
				t.Fatalf("packed row keys = %v, want %v", got, c.packed)
			}
			got := c.r.Canonical()
			if !reflect.DeepEqual(got.Attrs, attrs) {
				t.Fatalf("attrs %v, want %v", got.Attrs, attrs)
			}
			if !reflect.DeepEqual(got.Rows(), want) {
				t.Fatalf("%d rows diverge from the %d-row reference", got.Size(), len(want))
			}
			if !reflect.DeepEqual(c.r.Rows(), before) {
				t.Fatal("Canonical mutated its input")
			}
		})
	}
}

// BenchmarkCanonical canonicalises a 4,947 × 3 answer, the size of a
// path-rows answer, in two shapes: "packed", whose rows fit one word
// and sort as packed keys, and "wide", whose three columns each span
// 2⁴⁰ and so take the comparator.
func BenchmarkCanonical(b *testing.B) {
	for _, c := range []struct {
		name string
		span int64
	}{{"packed", 5000}, {"wide", 1 << 40}} {
		rng := rand.New(rand.NewSource(31))
		r := NewRelation("z", "x", "y")
		for i := 0; i < 4947; i++ {
			r.Add(int(rng.Int63n(c.span)), int(rng.Int63n(c.span)), int(rng.Int63n(c.span)))
		}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				r.Canonical()
			}
		})
	}
}

// TestExecChunkBoundaryJoin runs a query whose final join output lands
// exactly around a chunk boundary through every executor configuration
// — the spot where a missed chunk append in the probe loop would panic
// or drop rows.
func TestExecChunkBoundaryJoin(t *testing.T) {
	for _, rows := range []int{16, 17} { // 16³ = 4096 answers = exactly one chunk
		q, db := explodingInstance(rows)
		d := decomposeFor(t, q)
		var want *Relation
		for _, name := range []string{scanRef, "indexed"} {
			got, err := evalAs(context.Background(), name, q, db, d, execOptsMatrix()[name])
			if err != nil {
				t.Fatalf("rows=%d %s: %v", rows, name, err)
			}
			if got.Size() != rows*rows*rows {
				t.Fatalf("rows=%d %s: %d answers, want %d", rows, name, got.Size(), rows*rows*rows)
			}
			if want == nil {
				want = got
			} else if !reflect.DeepEqual(got.Rows(), want.Rows()) {
				t.Fatalf("rows=%d %s: diverged from the scan reference", rows, name)
			}
		}
	}
}

// TestExecBudgetAbortAtChunkBoundary sets row budgets just below, at,
// and above a chunk boundary: the columnar join must abort with
// ErrRowBudget whichever side of a chunk append the abort lands on.
func TestExecBudgetAbortAtChunkBoundary(t *testing.T) {
	q, db := explodingInstance(300) // 27M answers
	d := decomposeFor(t, q)
	for _, budget := range []int{chunkSize - 1, chunkSize, chunkSize + 1} {
		_, err := EvaluateCtx(context.Background(), q, db, d, EvalOptions{MaxRows: budget})
		if !errors.Is(err, ErrRowBudget) {
			t.Fatalf("budget=%d: got %v, want ErrRowBudget", budget, err)
		}
	}
}
