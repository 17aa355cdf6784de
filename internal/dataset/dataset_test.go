package dataset

import (
	"errors"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/join"
)

func mustDB(t *testing.T, text string) join.Database {
	t.Helper()
	db, err := join.ParseRelations(text)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

const twoRelText = "rel R(a,b)\n1 2\n3 4\nend\nrel S(b,c)\n2 5\n4 6\nend\n"

func newTestRegistry() *Registry {
	return NewRegistry(Config{Retain: 3})
}

func TestPutGetDropLifecycle(t *testing.T) {
	g := newTestRegistry()
	v, err := g.Put("t1", "d", mustDB(t, twoRelText))
	if err != nil || v != 1 {
		t.Fatalf("Put = (%d, %v), want (1, nil)", v, err)
	}
	if _, ok := g.Get("t1", "d"); !ok {
		t.Fatal("dataset missing after Put")
	}
	// Tenant wall: another tenant cannot see it.
	if _, ok := g.Get("t2", "d"); ok {
		t.Fatal("dataset visible across tenants")
	}
	if _, err := g.Resolve("t2", "d", 0); !errors.Is(err, ErrNotFound) {
		t.Fatalf("cross-tenant Resolve = %v, want ErrNotFound", err)
	}
	// Replacement continues the version counter.
	v, err = g.Put("t1", "d", mustDB(t, twoRelText))
	if err != nil || v != 2 {
		t.Fatalf("replace Put = (%d, %v), want (2, nil)", v, err)
	}
	if !g.Drop("t1", "d") {
		t.Fatal("Drop reported missing")
	}
	if g.Drop("t1", "d") {
		t.Fatal("second Drop reported present")
	}
}

func TestMutateVersionsAndCounts(t *testing.T) {
	g := newTestRegistry()
	if _, err := g.Put("", "d", mustDB(t, twoRelText)); err != nil {
		t.Fatal(err)
	}
	d, _ := g.Get("", "d")

	res, err := d.Mutate([]Mutation{
		{Op: "insert", Rel: "R", Rows: [][]int{{5, 6}, {1, 2}}}, // {1,2} already live
		{Op: "delete", Rel: "S", Rows: [][]int{{2, 5}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := MutationResult{Version: 2, Inserted: 1, Deduped: 1, Deleted: 1, Compacted: true}
	if res != want {
		t.Fatalf("Mutate = %+v, want %+v", res, want)
	}
	snap, err := g.Resolve("", "d", 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := snap.DB["R"].Sorted(); !reflect.DeepEqual(got, [][]int{{1, 2}, {3, 4}, {5, 6}}) {
		t.Fatalf("R after batch = %v", got)
	}
	if got := snap.DB["S"].Sorted(); !reflect.DeepEqual(got, [][]int{{4, 6}}) {
		t.Fatalf("S after batch = %v", got)
	}
}

// Satellite edge case: delete of a never-inserted tuple is a counted
// no-op that still commits a version.
func TestDeleteNeverInserted(t *testing.T) {
	g := newTestRegistry()
	g.Put("", "d", mustDB(t, twoRelText))
	d, _ := g.Get("", "d")
	res, err := d.Mutate([]Mutation{{Op: "delete", Rel: "R", Rows: [][]int{{9, 9}}}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Missed != 1 || res.Deleted != 0 || res.Version != 2 {
		t.Fatalf("Mutate = %+v", res)
	}
	snap, _ := g.Resolve("", "d", 0)
	if snap.DB["R"].Size() != 2 {
		t.Fatal("missed delete changed rows")
	}
}

// Satellite edge case: insert and delete of the same tuple inside one
// batch nets to absence — ops apply sequentially.
func TestInsertDeleteSameBatch(t *testing.T) {
	g := newTestRegistry()
	g.Put("", "d", mustDB(t, twoRelText))
	d, _ := g.Get("", "d")
	res, err := d.Mutate([]Mutation{
		{Op: "insert", Rel: "R", Rows: [][]int{{7, 7}}},
		{Op: "delete", Rel: "R", Rows: [][]int{{7, 7}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Inserted != 1 || res.Deleted != 1 {
		t.Fatalf("Mutate = %+v", res)
	}
	snap, _ := g.Resolve("", "d", 0)
	if got := snap.DB["R"].Sorted(); !reflect.DeepEqual(got, [][]int{{1, 2}, {3, 4}}) {
		t.Fatalf("R = %v, want original rows", got)
	}
	// And the reverse order: delete-then-insert leaves the tuple live.
	if _, err := d.Mutate([]Mutation{
		{Op: "delete", Rel: "R", Rows: [][]int{{1, 2}}},
		{Op: "insert", Rel: "R", Rows: [][]int{{1, 2}}},
	}); err != nil {
		t.Fatal(err)
	}
	snap, _ = g.Resolve("", "d", 0)
	if got := snap.DB["R"].Sorted(); !reflect.DeepEqual(got, [][]int{{1, 2}, {3, 4}}) {
		t.Fatalf("R after delete+reinsert = %v", got)
	}
}

// Satellite edge case: empty-relation transitions — drain a relation
// to zero rows, query the snapshot, refill.
func TestEmptyRelationTransitions(t *testing.T) {
	g := newTestRegistry()
	g.Put("", "d", mustDB(t, twoRelText))
	d, _ := g.Get("", "d")
	if _, err := d.Mutate([]Mutation{{Op: "delete", Rel: "S", Rows: [][]int{{2, 5}, {4, 6}}}}); err != nil {
		t.Fatal(err)
	}
	snap, _ := g.Resolve("", "d", 0)
	if snap.DB["S"].Size() != 0 || snap.DB["S"].Rows() != nil {
		t.Fatalf("S not empty: %v", snap.DB["S"].Rows())
	}
	if _, err := d.Mutate([]Mutation{{Op: "insert", Rel: "S", Rows: [][]int{{8, 9}}}}); err != nil {
		t.Fatal(err)
	}
	snap, _ = g.Resolve("", "d", 0)
	if got := snap.DB["S"].Sorted(); !reflect.DeepEqual(got, [][]int{{8, 9}}) {
		t.Fatalf("S refilled = %v", got)
	}
}

// Satellite edge case: pinning an evicted or future version is a clear
// error, never a different version's rows.
func TestVersionPinningErrors(t *testing.T) {
	g := newTestRegistry() // Retain: 3
	g.Put("", "d", mustDB(t, twoRelText))
	d, _ := g.Get("", "d")
	for i := 0; i < 5; i++ {
		if _, err := d.Mutate([]Mutation{{Op: "insert", Rel: "R", Rows: [][]int{{10 + i, i}}}}); err != nil {
			t.Fatal(err)
		}
	}
	// Versions now 1..6; retain 3 keeps 4, 5, 6.
	if _, err := g.Resolve("", "d", 2); !errors.Is(err, ErrVersionGone) {
		t.Fatalf("At(evicted) = %v, want ErrVersionGone", err)
	}
	if _, err := g.Resolve("", "d", 99); !errors.Is(err, ErrFutureVersion) {
		t.Fatalf("At(future) = %v, want ErrFutureVersion", err)
	}
	snap, err := g.Resolve("", "d", 5)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Version != 5 || snap.DB["R"].Size() != 2+4 {
		t.Fatalf("At(5) = version %d with %d rows", snap.Version, snap.DB["R"].Size())
	}
	// Replacement evicts every pinnable version.
	g.Put("", "d", mustDB(t, twoRelText))
	if _, err := g.Resolve("", "d", 5); !errors.Is(err, ErrVersionGone) {
		t.Fatalf("At(pre-replacement) = %v, want ErrVersionGone", err)
	}
}

// Satellite edge case: a mutation racing a long-running query — the
// query's resolved snapshot must keep serving its version's rows while
// the writer advances (snapshot isolation), under -race.
func TestMutationRacesPinnedQuery(t *testing.T) {
	g := newTestRegistry()
	g.Put("", "d", mustDB(t, twoRelText))
	d, _ := g.Get("", "d")
	snap, err := g.Resolve("", "d", 0)
	if err != nil {
		t.Fatal(err)
	}
	wantR := snap.DB["R"].Sorted()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			d.Mutate([]Mutation{
				{Op: "insert", Rel: "R", Rows: [][]int{{100 + i, i}}},
				{Op: "delete", Rel: "R", Rows: [][]int{{100 + i - 1, i - 1}}},
			})
		}
	}()
	for i := 0; i < 200; i++ {
		if got := snap.DB["R"].Sorted(); !reflect.DeepEqual(got, wantR) {
			t.Fatalf("pinned snapshot drifted at read %d", i)
		}
	}
	wg.Wait()
	if v := d.Info().Version; v != 51 {
		t.Fatalf("version = %d, want 51", v)
	}
}

func TestMutateValidationLeavesStateUntouched(t *testing.T) {
	g := newTestRegistry()
	g.Put("", "d", mustDB(t, twoRelText))
	d, _ := g.Get("", "d")
	cases := [][]Mutation{
		{{Op: "upsert", Rel: "R", Rows: [][]int{{1, 2}}}},
		{{Op: "insert", Rel: "nope", Rows: [][]int{{1, 2}}}},
		{{Op: "insert", Rel: "R", Rows: [][]int{{1, 2, 3}}}},
		// A valid first op must not apply when a later op is invalid.
		{{Op: "insert", Rel: "R", Rows: [][]int{{7, 7}}}, {Op: "insert", Rel: "R", Rows: [][]int{{1}}}},
	}
	for i, batch := range cases {
		if _, err := d.Mutate(batch); err == nil {
			t.Fatalf("case %d: invalid batch accepted", i)
		}
	}
	if v := d.Info().Version; v != 1 {
		t.Fatalf("version advanced to %d on invalid batches", v)
	}
	snap, _ := g.Resolve("", "d", 0)
	if snap.DB["R"].Size() != 2 {
		t.Fatal("invalid batch mutated rows")
	}
}

func TestRegistryLimits(t *testing.T) {
	g := NewRegistry(Config{MaxDatasets: 1, MaxTuples: 3})
	if _, err := g.Put("", "a", mustDB(t, "rel R(a)\n1\n2\nend\n")); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Put("", "b", mustDB(t, "rel R(a)\n1\nend\n")); !errors.Is(err, ErrLimit) {
		t.Fatalf("MaxDatasets breach = %v, want ErrLimit", err)
	}
	d, _ := g.Get("", "a")
	if _, err := d.Mutate([]Mutation{{Op: "insert", Rel: "R", Rows: [][]int{{3}, {4}}}}); !errors.Is(err, ErrLimit) {
		t.Fatalf("MaxTuples breach = %v, want ErrLimit", err)
	}
	// One insert fits (2 live + 1 = 3).
	if _, err := d.Mutate([]Mutation{{Op: "insert", Rel: "R", Rows: [][]int{{3}}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Put("", "big", mustDB(t, "rel R(a)\n1\n2\n3\n4\nend\n")); !errors.Is(err, ErrLimit) {
		t.Fatalf("Put over MaxTuples = %v, want ErrLimit", err)
	}
}

// TestRegistryPutCapCountsDistinctTuples: the per-dataset cap counts
// the distinct tuples a Put stores, not the upload's duplicates.
func TestRegistryPutCapCountsDistinctTuples(t *testing.T) {
	g := NewRegistry(Config{MaxTuples: 3})
	if _, err := g.Put("", "a", mustDB(t, "rel R(a)\n1\n1\n1\n1\nend\n")); err != nil {
		t.Fatalf("four copies of one tuple under cap 3: %v", err)
	}
	d, _ := g.Get("", "a")
	if n := d.Info().Tuples; n != 1 {
		t.Fatalf("tuples %d, want 1", n)
	}
	if _, err := g.Put("", "a", mustDB(t, "rel R(a)\n1\n2\n2\n3\n4\nend\n")); !errors.Is(err, ErrLimit) {
		t.Fatalf("four distinct tuples under cap 3 = %v, want ErrLimit", err)
	}
}

// TestMutateAtCapAcceptsBatchesThatFit: a dataset at its cap takes any
// batch whose live total after commit stays within it, counted with
// set semantics in op order, and refuses the rest untouched.
func TestMutateAtCapAcceptsBatchesThatFit(t *testing.T) {
	g := NewRegistry(Config{MaxTuples: 3})
	if _, err := g.Put("", "a", mustDB(t, "rel R(a)\n1\n2\n3\nend\nrel S(a)\nend\n")); err != nil {
		t.Fatal(err)
	}
	d, _ := g.Get("", "a")
	ins := func(rel string, rows ...int) Mutation {
		m := Mutation{Op: "insert", Rel: rel}
		for _, v := range rows {
			m.Rows = append(m.Rows, []int{v})
		}
		return m
	}
	del := func(rel string, rows ...int) Mutation {
		m := ins(rel, rows...)
		m.Op = "delete"
		return m
	}
	fits := [][]Mutation{
		{del("R", 1), ins("R", 4)},                 // swap one tuple
		{ins("R", 2)},                              // re-insert a live tuple
		{ins("S", 1), del("R", 2)},                 // insert first, delete later
		{ins("R", 5, 5), del("S", 1)},              // a repeated insert counts once
		{del("R", 9), ins("R", 6), del("R", 3, 3)}, // so do misses and repeated deletes
		{ins("S", 7), ins("S", 7), del("S", 7, 7)}, // a tuple that comes and goes
	}
	for i, batch := range fits {
		if _, err := d.Mutate(batch); err != nil {
			t.Fatalf("batch %d at cap: %v", i, err)
		}
		if n := d.Info().Tuples; n != 3 {
			t.Fatalf("batch %d: %d live tuples, want 3", i, n)
		}
	}
	version := d.Info().Version
	for i, batch := range [][]Mutation{
		{ins("R", 8)},
		{del("R", 4), ins("R", 8, 9)},
		{ins("S", 8), del("S", 8), ins("S", 8), ins("R", 9)},
	} {
		if _, err := d.Mutate(batch); !errors.Is(err, ErrLimit) {
			t.Fatalf("over-cap batch %d = %v, want ErrLimit", i, err)
		}
	}
	if info := d.Info(); info.Version != version || info.Tuples != 3 {
		t.Fatalf("refused batches changed the dataset: %+v", info)
	}
}

func TestValidNames(t *testing.T) {
	g := newTestRegistry()
	for _, bad := range []string{"", string(make([]byte, 200)), "a\nb", "a\x00b"} {
		if _, err := g.Put("", bad, mustDB(t, twoRelText)); err == nil {
			t.Fatalf("name %q accepted", bad)
		}
	}
}

// TestRegistryTotalsMonotone: the registry's query and mutation totals
// count every resolve and mutation ever served, so dropping a dataset
// leaves them where they were, and a handle taken before the drop can
// neither mutate nor be counted afterwards.
func TestRegistryTotalsMonotone(t *testing.T) {
	g := newTestRegistry()
	if _, err := g.Put("", "d", mustDB(t, twoRelText)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := g.Resolve("", "d", 0); err != nil {
			t.Fatal(err)
		}
	}
	d, _ := g.Get("", "d")
	if _, err := d.Mutate([]Mutation{{Op: "insert", Rel: "R", Rows: [][]int{{5, 6}}}}); err != nil {
		t.Fatal(err)
	}
	if got, want := g.Stats(), (Stats{Datasets: 1, Queries: 3, Mutations: 1}); got != want {
		t.Fatalf("before Drop: %+v, want %+v", got, want)
	}

	if !g.Drop("", "d") {
		t.Fatal("Drop reported missing")
	}
	if got, want := g.Stats(), (Stats{Datasets: 0, Queries: 3, Mutations: 1}); got != want {
		t.Fatalf("after Drop: %+v, want %+v", got, want)
	}
	if _, err := d.Mutate([]Mutation{{Op: "insert", Rel: "R", Rows: [][]int{{7, 8}}}}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Mutate through a dropped handle = %v, want ErrNotFound", err)
	}
	if got := g.Stats(); got.Mutations != 1 {
		t.Fatalf("a refused mutation was counted: %+v", got)
	}

	// A new dataset under the old name counts on top of the totals.
	if _, err := g.Put("", "d", mustDB(t, twoRelText)); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Resolve("", "d", 0); err != nil {
		t.Fatal(err)
	}
	if got, want := g.Stats(), (Stats{Datasets: 1, Queries: 4, Mutations: 1}); got != want {
		t.Fatalf("after re-Put: %+v, want %+v", got, want)
	}

	// Readers and writers racing a Drop: every resolve and mutation
	// that succeeded is in the totals, once.
	var reads, writes atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				if _, err := g.Resolve("", "d", 0); err == nil {
					reads.Add(1)
				}
				if d, ok := g.Get("", "d"); ok {
					if _, err := d.Mutate([]Mutation{{Op: "insert", Rel: "R", Rows: [][]int{{i, j}}}}); err == nil {
						writes.Add(1)
					}
				}
			}
		}()
	}
	for reads.Load() < 50 {
		runtime.Gosched()
	}
	g.Drop("", "d")
	wg.Wait()
	if got, want := g.Stats(), (Stats{Queries: 4 + reads.Load(), Mutations: 1 + writes.Load()}); got != want {
		t.Fatalf("after a racing Drop: %+v, want %+v", got, want)
	}
}
