package join

import (
	"context"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// mrelDB wraps every relation of db in an MRel and returns the
// maintained set plus the database of current views.
func mrelDB(db Database) (map[string]*MRel, Database) {
	ms := make(map[string]*MRel, len(db))
	views := make(Database, len(db))
	for name, rel := range db {
		m := NewMRel(rel)
		ms[name] = m
		views[name] = m.View()
	}
	return ms, views
}

func viewDB(ms map[string]*MRel) Database {
	views := make(Database, len(ms))
	for name, m := range ms {
		views[name] = m.View()
	}
	return views
}

// plainDB rebuilds each view's rows into a fresh unindexed relation —
// the from-scratch materialised state an incremental run must match.
func plainDB(db Database) Database {
	out := make(Database, len(db))
	for name, rel := range db {
		fresh := NewRelation(rel.Attrs...)
		for i := 0; i < rel.Size(); i++ {
			fresh.appendFrom(rel, i)
		}
		out[name] = fresh
	}
	return out
}

// TestMaintainedDeltaByteIdentical: after every random insert/delete
// batch, evaluating over the maintained snapshot views (layered
// indexes, reused across queries) must produce rows byte-identical to
// a from-scratch evaluation on the materialised state, on the indexed
// kernel and the scan reference.
func TestMaintainedDeltaByteIdentical(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		r := rand.New(rand.NewSource(100 + seed))
		q, db := randomInstanceForExec(r, 3+int(seed%3), 30, 5)
		d := decomposeFor(t, q)
		ms, views := mrelDB(db)

		for round := 0; round < 6; round++ {
			// Random delta batch: inserts (some duplicating live rows)
			// and deletes (some of absent tuples) over every relation.
			for _, m := range ms {
				var ins, del [][]int
				for k := 0; k < 1+r.Intn(20); k++ {
					ins = append(ins, []int{r.Intn(5), r.Intn(5)})
				}
				for k := 0; k < r.Intn(8); k++ {
					del = append(del, []int{r.Intn(6), r.Intn(6)})
				}
				if _, _, err := m.Insert(ins); err != nil {
					t.Fatal(err)
				}
				if _, _, err := m.Delete(del); err != nil {
					t.Fatal(err)
				}
				m.Commit()
			}
			views = viewDB(ms)
			baseline := plainDB(views)

			want, err := EvaluateCtx(context.Background(), q, baseline, d, EvalOptions{})
			if err != nil {
				t.Fatal(err)
			}
			for name, opts := range execOptsMatrix() {
				got, err := evalAs(context.Background(), name, q, views, d, opts)
				if err != nil {
					t.Fatalf("seed %d round %d %s: %v", seed, round, name, err)
				}
				if !reflect.DeepEqual(got.Rows(), want.Rows()) {
					t.Fatalf("seed %d round %d %s: maintained rows diverge from from-scratch", seed, round, name)
				}
			}
		}
	}
}

// TestMaintainedIndexReuse: the first query at a version captures its
// index builds into the snapshot's IndexSet; a repeat query at the
// same version must reuse them (IndexReuses > 0), and after an
// insert-only delta the maintained stacks keep serving (no full
// rebuilds of registered sets).
func TestMaintainedIndexReuse(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	q, db := randomInstanceForExec(r, 4, 50, 6)
	d := decomposeFor(t, q)
	ms, views := mrelDB(db)

	var cold, warm ExecStats
	if _, err := EvaluateCtx(context.Background(), q, views, d, EvalOptions{Stats: &cold}); err != nil {
		t.Fatal(err)
	}
	if _, err := EvaluateCtx(context.Background(), q, views, d, EvalOptions{Stats: &warm}); err != nil {
		t.Fatal(err)
	}
	if warm.IndexReuses == 0 {
		t.Fatalf("repeat query at same version reused no indexes: %+v", warm)
	}
	if warm.IndexReuses < cold.IndexReuses {
		t.Fatalf("warm reuses %d < cold reuses %d", warm.IndexReuses, cold.IndexReuses)
	}

	// Insert-only delta: captured sets are adopted and extended with a
	// delta layer, so the next query still reuses instead of rebuilding.
	for _, m := range ms {
		if _, _, err := m.Insert([][]int{{9, 9}, {9, 8}}); err != nil {
			t.Fatal(err)
		}
		m.Commit()
	}
	var after ExecStats
	if _, err := EvaluateCtx(context.Background(), q, viewDB(ms), d, EvalOptions{Stats: &after}); err != nil {
		t.Fatal(err)
	}
	if after.IndexReuses == 0 {
		t.Fatalf("post-delta query reused no maintained indexes: %+v", after)
	}
}

// TestMaintainedSetSemantics: duplicate inserts collapse, deletes
// remove the live copy, deleting an absent tuple is a counted no-op,
// and insert+delete of the same tuple in one batch nets to absence.
func TestMaintainedSetSemantics(t *testing.T) {
	m := NewMRel(NewRelation("a", "b").Add(1, 1).Add(2, 2))

	ins, dups, err := m.Insert([][]int{{1, 1}, {3, 3}, {3, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if ins != 1 || dups != 2 {
		t.Fatalf("insert counts = (%d, %d), want (1, 2)", ins, dups)
	}
	del, missed, err := m.Delete([][]int{{3, 3}, {7, 7}})
	if err != nil {
		t.Fatal(err)
	}
	if del != 1 || missed != 1 {
		t.Fatalf("delete counts = (%d, %d), want (1, 1)", del, missed)
	}
	if compacted := m.Commit(); !compacted {
		t.Fatal("batch with an effective delete did not compact")
	}
	got := m.View().Sorted()
	want := [][]int{{1, 1}, {2, 2}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("live rows = %v, want %v", got, want)
	}
	if m.LiveSize() != 2 {
		t.Fatalf("LiveSize = %d, want 2", m.LiveSize())
	}

	// Arity mismatches are rejected, not silently misapplied.
	if _, _, err := m.Insert([][]int{{1}}); err == nil {
		t.Fatal("arity-mismatched insert accepted")
	}
	if _, _, err := m.Delete([][]int{{1, 2, 3}}); err == nil {
		t.Fatal("arity-mismatched delete accepted")
	}
}

// TestMaintainedEmptyTransitions: delete-to-empty and refill — the
// empty-relation edge both ways.
func TestMaintainedEmptyTransitions(t *testing.T) {
	m := NewMRel(NewRelation("a", "b").Add(1, 2))
	if _, _, err := m.Delete([][]int{{1, 2}}); err != nil {
		t.Fatal(err)
	}
	m.Commit()
	if m.View().Size() != 0 || m.View().Rows() != nil {
		t.Fatalf("emptied relation view has %d rows", m.View().Size())
	}
	if _, _, err := m.Insert([][]int{{5, 6}}); err != nil {
		t.Fatal(err)
	}
	m.Commit()
	if got := m.View().Sorted(); !reflect.DeepEqual(got, [][]int{{5, 6}}) {
		t.Fatalf("refilled relation = %v", got)
	}
}

// TestMaintainedLayerCollapse: a long run of tiny insert batches must
// not grow layer stacks without bound — past maxIndexLayers the next
// commit collapses a set to one full index — and point lookups stay
// correct throughout.
func TestMaintainedLayerCollapse(t *testing.T) {
	m := NewMRel(NewRelation("a", "b"))
	for i := 0; i < 4*maxIndexLayers; i++ {
		if _, _, err := m.Insert([][]int{{i, i}}); err != nil {
			t.Fatal(err)
		}
		m.Commit()
		if _, layers := m.Layers(); layers > maxIndexLayers {
			t.Fatalf("batch %d: %d layers, cap is %d", i, layers, maxIndexLayers)
		}
		// Every inserted tuple must stay findable through the stack.
		if _, dups, _ := m.Insert([][]int{{0, 0}}); dups != 1 {
			t.Fatalf("batch %d: earliest tuple lost from rowset stack", i)
		}
		m.Commit()
	}
	if m.LiveSize() != 4*maxIndexLayers {
		t.Fatalf("LiveSize = %d, want %d", m.LiveSize(), 4*maxIndexLayers)
	}
}

// TestMaintainedWidenIsolation: a width promotion (int32 → int64
// column) on the writer's side must not disturb an already-published
// snapshot, which keeps its narrow chunks.
func TestMaintainedWidenIsolation(t *testing.T) {
	m := NewMRel(NewRelation("a", "b").Add(1, 2))
	old := m.View()
	if _, _, err := m.Insert([][]int{{1 << 40, 3}}); err != nil {
		t.Fatal(err)
	}
	m.Commit()
	if got := old.Sorted(); !reflect.DeepEqual(got, [][]int{{1, 2}}) {
		t.Fatalf("old snapshot changed after widen: %v", got)
	}
	want := [][]int{{1, 2}, {1 << 40, 3}}
	if got := m.View().Sorted(); !reflect.DeepEqual(got, want) {
		t.Fatalf("new snapshot = %v, want %v", got, want)
	}
}

// TestMaintainedSnapshotIsolationRace: queries pinned to an old
// snapshot run concurrently with a writer pushing insert/delete
// batches (including a width promotion) through many commits. Under
// -race this is the proof that published views share storage with the
// advancing writer without a single conflicting access, and every
// pinned read sees exactly the pinned version's rows.
func TestMaintainedSnapshotIsolationRace(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	q, db := randomInstanceForExec(r, 3, 40, 5)
	d := decomposeFor(t, q)
	ms, views := mrelDB(db)

	want, err := EvaluateCtx(context.Background(), q, views, d, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	wantRows := want.Rows()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		wr := rand.New(rand.NewSource(12))
		for i := 0; i < 30; i++ {
			for _, m := range ms {
				var ins, del [][]int
				for k := 0; k < 10; k++ {
					ins = append(ins, []int{wr.Intn(5), wr.Intn(5)})
					del = append(del, []int{wr.Intn(5), wr.Intn(5)})
				}
				if i == 7 {
					ins = append(ins, []int{1 << 40, wr.Intn(5)})
				}
				m.Insert(ins)
				m.Delete(del)
				m.Commit()
			}
		}
	}()
	for i := 0; i < 10; i++ {
		got, err := EvaluateCtx(context.Background(), q, views, d, EvalOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Rows(), wantRows) {
			t.Fatalf("read %d: pinned snapshot drifted under concurrent writes", i)
		}
	}
	wg.Wait()
}

// TestBuildIndexColsRange: a stack of range indexes over ascending
// disjoint ranges must enumerate exactly the rows of one full index,
// in the same order.
func TestBuildIndexColsRange(t *testing.T) {
	r := NewRelation("a", "b")
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 3000; i++ {
		r.Add(rng.Intn(7), rng.Intn(7))
	}
	cols := []int{0}
	full, err := buildIndexCols(r, cols, 0, r.Size(), nil)
	if err != nil {
		t.Fatal(err)
	}
	cuts := []int{0, 900, 901, 2048, 3000}
	var stack []*hashIndex
	for i := 0; i+1 < len(cuts); i++ {
		ly, err := buildIndexCols(r, cols, cuts[i], cuts[i+1], nil)
		if err != nil {
			t.Fatal(err)
		}
		stack = append(stack, ly)
	}
	for key := 0; key < 7; key++ {
		vals := []int{key}
		var got []int32
		for _, ly := range stack {
			got = append(got, ly.probeVals(vals)...)
		}
		want := full.probeVals(vals)
		if len(got) == 0 && len(want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, append([]int32(nil), want...)) {
			t.Fatalf("key %d: layered rows %v != full-index rows %v", key, got, want)
		}
	}
}

// TestMaintainedValueWidths: lookups and deletes keep working across
// the int32/int64 column split (hashVals must mirror hashRow).
func TestMaintainedValueWidths(t *testing.T) {
	wide := 1 << 40
	m := NewMRel(NewRelation("a").Add(1).Add(wide))
	if _, dups, _ := m.Insert([][]int{{wide}}); dups != 1 {
		t.Fatal("wide tuple not found by value lookup")
	}
	if del, _, _ := m.Delete([][]int{{wide}}); del != 1 {
		t.Fatal("wide tuple not deleted by value")
	}
	m.Commit()
	if got := m.View().Sorted(); !reflect.DeepEqual(got, [][]int{{1}}) {
		t.Fatalf("rows = %v, want [[1]]", got)
	}
}
