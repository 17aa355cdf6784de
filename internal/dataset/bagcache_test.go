package dataset

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"repro/internal/decomp"
	"repro/internal/join"
)

// triangleQuery is R(x,y), S(y,z), T(z,x) with its one-node plan
// λ{R,S}, χ{x,y,z}: the bag is a two-atom λ-join, so evaluations with
// a snapshot's bag cache look it up, and T is semijoined in per query.
func triangleQuery(t testing.TB) (join.Query, *decomp.Decomp) {
	t.Helper()
	q, err := join.ParseQuery("R(x,y), S(y,z), T(z,x).")
	if err != nil {
		t.Fatal(err)
	}
	h, err := q.Hypergraph()
	if err != nil {
		t.Fatal(err)
	}
	d := &decomp.Decomp{H: h, Root: decomp.NewNode([]int{0, 1}, h.Union([]int{0, 1}))}
	if err := decomp.CheckHD(d); err != nil {
		t.Fatal(err)
	}
	return q, d
}

// evalSnapshot answers the triangle over snap with its bag cache and
// fails unless the answer equals EvaluateNaive over want.
func evalSnapshot(t testing.TB, snap Snapshot, want join.Database) join.ExecStats {
	t.Helper()
	q, d := triangleQuery(t)
	var st join.ExecStats
	got, err := join.EvaluateCtx(context.Background(), q, snap.DB, d, join.EvalOptions{Stats: &st, Bags: snap.Bags})
	if err != nil {
		t.Fatal(err)
	}
	naive, err := join.EvaluateNaive(q, want)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Canonical().Rows(), naive.Canonical().Rows()) {
		t.Fatalf("v%d: answer %v, naive %v", snap.Version, got.Canonical().Rows(), naive.Canonical().Rows())
	}
	return st
}

// liveTuples is the snapshot's tuple count, its bag cache's row bound.
func liveTuples(snap Snapshot) int {
	n := 0
	for _, rel := range snap.DB {
		n += rel.Size()
	}
	return n
}

// TestBagCacheSnapshotScope: a bag cache belongs to one snapshot. A new
// version's cache starts empty, publishing a version (by mutation or
// replacement) retires the previous cache, which then keeps nothing —
// not even after a pinned read of its version — and a snapshot's cached
// rows never exceed its live tuples: a bag past the bound answers its
// query without being kept.
func TestBagCacheSnapshotScope(t *testing.T) {
	const v1 = "rel R(a,b)\n1 2\n3 2\nend\nrel S(b,c)\n2 5\n2 6\nend\nrel T(c,a)\n5 1\nend\n"
	g := newTestRegistry()
	if _, err := g.Put("", "d", mustDB(t, v1)); err != nil {
		t.Fatal(err)
	}
	d, _ := g.Get("", "d")
	usage := func(snap Snapshot) string {
		bags, rows := snap.Bags.Usage()
		return fmt.Sprintf("%d bags, %d rows", bags, rows)
	}
	current := func() Snapshot {
		snap, err := g.Resolve("", "d", 0)
		if err != nil {
			t.Fatal(err)
		}
		return snap
	}

	// v1: the 4-row λ-join fits the 5 live tuples, and a repeat hits.
	s1 := current()
	evalSnapshot(t, s1, s1.DB)
	if got := usage(s1); got != "1 bags, 4 rows" {
		t.Fatalf("v1 after a query: %s, want 1 bags, 4 rows", got)
	}
	if st := evalSnapshot(t, s1, s1.DB); st.BagReuses != 1 {
		t.Fatalf("v1 repeat: %d bag reuses, want 1", st.BagReuses)
	}

	// v2: a new, empty cache; v1's is retired and stays empty under a
	// pinned read, which runs uncached.
	if _, err := d.Mutate([]Mutation{{Op: "insert", Rel: "R", Rows: [][]int{{4, 2}}}}); err != nil {
		t.Fatal(err)
	}
	s2 := current()
	if s2.Bags == s1.Bags || usage(s2) != "0 bags, 0 rows" {
		t.Fatalf("v2 starts with %s (shared with v1: %v)", usage(s2), s2.Bags == s1.Bags)
	}
	if got := usage(s1); got != "0 bags, 0 rows" {
		t.Fatalf("retired v1 cache holds %s", got)
	}
	pinned, err := g.Resolve("", "d", 1)
	if err != nil {
		t.Fatal(err)
	}
	if st := evalSnapshot(t, pinned, s1.DB); st.BagReuses != 0 || usage(s1) != "0 bags, 0 rows" {
		t.Fatalf("pinned v1 read: %d bag reuses, cache %s; want 0 and empty", st.BagReuses, usage(s1))
	}
	evalSnapshot(t, s2, s2.DB)
	if got := usage(s2); got != "1 bags, 6 rows" {
		t.Fatalf("v2 after a query: %s, want 1 bags, 6 rows (6 live tuples)", got)
	}

	// v3: the λ-join has 10 rows, over the 8 live tuples — used, not kept.
	if _, err := d.Mutate([]Mutation{{Op: "insert", Rel: "R", Rows: [][]int{{5, 2}, {6, 2}}}}); err != nil {
		t.Fatal(err)
	}
	s3 := current()
	evalSnapshot(t, s3, s3.DB)
	if _, rows := s3.Bags.Usage(); rows > liveTuples(s3) || usage(s3) != "0 bags, 0 rows" {
		t.Fatalf("v3 (%d live tuples) after a query: %s, want empty", liveTuples(s3), usage(s3))
	}
	if got := usage(s2); got != "0 bags, 0 rows" {
		t.Fatalf("retired v2 cache holds %s", got)
	}

	// A replacement retires the caches of every version it evicts.
	if _, err := g.Put("", "d", mustDB(t, v1)); err != nil {
		t.Fatal(err)
	}
	s4 := current()
	evalSnapshot(t, s4, s4.DB)
	if _, err := g.Put("", "d", mustDB(t, v1)); err != nil {
		t.Fatal(err)
	}
	if got := usage(s4); got != "0 bags, 0 rows" {
		t.Fatalf("cache of the replaced version holds %s", got)
	}

	// A mutation can reach a dataset that its first Put registered but
	// has not published yet: there is no cache to retire.
	fresh := &Dataset{name: "fresh", rels: map[string]*join.MRel{}, retain: 2, maxTuples: 10}
	if res, err := fresh.Mutate(nil); err != nil || res.Version != 1 {
		t.Fatalf("mutate before the first publish: %+v, %v", res, err)
	}
}

// fuzzBase is FuzzMutateBatch's dataset: three small binary relations
// the triangle query reads.
const fuzzBase = "rel R(a,b)\n1 2\n3 2\n2 1\nend\nrel S(b,c)\n2 5\n1 3\nend\nrel T(c,a)\n5 1\n3 2\nend\n"

// mirror is a map-of-sets model of a dataset: relation → tuple key →
// tuple, kept with plain map operations only.
type mirror map[string]map[string][]int

func (m mirror) database(attrs join.Database) join.Database {
	db := join.Database{}
	for name, rows := range m {
		rel := join.NewRelation(attrs[name].Attrs...)
		keys := make([]string, 0, len(rows))
		for k := range rows {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			rel.AddRow(rows[k])
		}
		db[name] = rel
	}
	return db
}

// FuzzMutateBatch feeds arbitrary bytes through the mutate endpoint's
// NDJSON decoder (DecodeBatch) into Dataset.Mutate on a small dataset
// whose current snapshot has a warm bag cache. It never panics; a
// rejected batch — undecodable or invalid — leaves the version and the
// current snapshot, bag cache included, unchanged; an accepted batch
// bumps the version by exactly one, and the triangle at the new version
// (cold and from its cache) equals EvaluateNaive over a map-of-sets
// mirror of the batch.
func FuzzMutateBatch(f *testing.F) {
	for _, seed := range []string{
		`{"op":"insert","rel":"R","rows":[[1,3],[5,5]]}`,
		`{"op":"delete","rel":"R","rows":[[1,2]]}` + "\n" + `{"op":"insert","rel":"T","rows":[[5,3]]}`,
		`{"op":"insert","rel":"S","rows":[[2,3]]}` + "\n" + `{"op":"delete","rel":"S","rows":[[2,3],[9,9]]}`,
		`{"op":"upsert","rel":"R","rows":[[1,1]]}`,
		`{"op":"insert","rel":"Q","rows":[[1,1]]}`,
		`{"op":"insert","rel":"R","rows":[[1,2,3]]}`,
		`{"op":"insert","rel":"R","rows":[[1,1],[1,2],[1,3],[1,4],[1,5],[1,6],[1,7],[1,8],[1,9],[2,2],[2,3],[2,4],[2,5],[2,6],[2,7],[2,8]]}`,
		`{"op":"insert","rel":"R","rows":[[1,`,
		``,
		`[]`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g := NewRegistry(Config{MaxTuples: 20, Retain: 2})
		base := mustDB(t, fuzzBase)
		if _, err := g.Put("", "d", base); err != nil {
			t.Fatal(err)
		}
		d, _ := g.Get("", "d")
		before, err := g.Resolve("", "d", 0)
		if err != nil {
			t.Fatal(err)
		}
		model := mirror{}
		for name, rel := range before.DB {
			model[name] = map[string][]int{}
			for _, row := range rel.Rows() {
				model[name][fmt.Sprint(row)] = row
			}
		}
		evalSnapshot(t, before, before.DB)
		bags, rows := before.Bags.Usage()

		batch, err := DecodeBatch(bytes.NewReader(data))
		var res MutationResult
		if err == nil {
			res, err = d.Mutate(batch)
		}
		after, atErr := g.Resolve("", "d", 0)
		if atErr != nil {
			t.Fatal(atErr)
		}
		if err != nil {
			if d.Info().Version != 1 || after.Version != 1 || after.Bags != before.Bags || !reflect.DeepEqual(after.DB, before.DB) {
				t.Fatalf("rejected batch (%v) moved the dataset to v%d", err, d.Info().Version)
			}
			for name, rel := range before.DB {
				if after.DB[name] != rel {
					t.Fatalf("rejected batch replaced relation %s", name)
				}
			}
			if b, r := after.Bags.Usage(); b != bags || r != rows {
				t.Fatalf("rejected batch changed the bag cache: %d bags, %d rows; was %d, %d", b, r, bags, rows)
			}
			return
		}
		if res.Version != 2 || d.Info().Version != 2 || after.Version != 2 {
			t.Fatalf("accepted batch: result v%d, dataset v%d, snapshot v%d; want 2", res.Version, d.Info().Version, after.Version)
		}
		for _, m := range batch {
			for _, row := range m.Rows {
				if m.Op == "insert" {
					model[m.Rel][fmt.Sprint(row)] = row
				} else {
					delete(model[m.Rel], fmt.Sprint(row))
				}
			}
		}
		want := model.database(base)
		evalSnapshot(t, after, want)
		evalSnapshot(t, after, want)
		if _, r := after.Bags.Usage(); r > liveTuples(after) {
			t.Fatalf("the cache holds %d rows, the snapshot %d live tuples", r, liveTuples(after))
		}
		if b, r := before.Bags.Usage(); b != 0 || r != 0 {
			t.Fatalf("the superseded version's cache holds %d bags, %d rows", b, r)
		}
	})
}
