package dataset

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

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

// TestBagCacheSnapshotScope: a bag cache belongs to one snapshot. A
// mutation carries the previous version's bags into the new version's
// own cache, maintained by the batch, while they fit its bound; a
// replacement starts it empty. Publishing a version (by mutation or
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

	// v2: a cache of its own, starting with the bag maintained through
	// the insert — 6 rows, as many as the live tuples; v1's is retired
	// and stays empty under a pinned read, which runs uncached.
	if _, err := d.Mutate([]Mutation{{Op: "insert", Rel: "R", Rows: [][]int{{4, 2}}}}); err != nil {
		t.Fatal(err)
	}
	s2 := current()
	if s2.Bags == s1.Bags || usage(s2) != "1 bags, 6 rows" {
		t.Fatalf("v2 starts with %s (shared with v1: %v), want 1 bags, 6 rows", usage(s2), s2.Bags == s1.Bags)
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
	if st := evalSnapshot(t, s2, s2.DB); st.BagReuses != 1 {
		t.Fatalf("v2's first query: %d bag reuses, want the carried bag's 1", st.BagReuses)
	}
	if got := usage(s2); got != "1 bags, 6 rows" {
		t.Fatalf("v2 after a query: %s, want 1 bags, 6 rows (6 live tuples)", got)
	}

	// v3: the λ-join has 10 rows, over the 8 live tuples — neither
	// carried nor kept, only used.
	if _, err := d.Mutate([]Mutation{{Op: "insert", Rel: "R", Rows: [][]int{{5, 2}, {6, 2}}}}); err != nil {
		t.Fatal(err)
	}
	s3 := current()
	if got := usage(s3); got != "0 bags, 0 rows" {
		t.Fatalf("v3 starts with %s, want the over-bound bag dropped", got)
	}
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
		`{"op":"insert","rel":"R","rows":[[2,5],[4,2]]}` + "\n" + `{"op":"delete","rel":"R","rows":[[4,2]]}`,
		`{"op":"delete","rel":"S","rows":[[2,5],[1,3]]}`,
		`{"op":"delete","rel":"S","rows":[[2,5],[1,3]]}` + "\n" + `{"op":"insert","rel":"S","rows":[[2,5],[1,5]]}`,
		`{"op":"delete","rel":"R","rows":[[7,7],[2,9]]}` + "\n" + `{"op":"delete","rel":"S","rows":[[9,2]]}`,
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

// forcedNode is one node of a hand-written plan: λ as atom indexes and
// χ as variable names.
type forcedNode struct {
	lambda []int
	chi    []string
	kids   []forcedNode
}

// forcedPlan builds the plan of src that spec describes and checks that
// it is a hypertree decomposition.
func forcedPlan(t testing.TB, src string, spec forcedNode) (join.Query, *decomp.Decomp) {
	t.Helper()
	q, err := join.ParseQuery(src)
	if err != nil {
		t.Fatal(err)
	}
	h, err := q.Hypergraph()
	if err != nil {
		t.Fatal(err)
	}
	var node func(s forcedNode) *decomp.Node
	node = func(s forcedNode) *decomp.Node {
		chi := h.NewVertexSet()
		for _, v := range s.chi {
			id, ok := h.VertexID(v)
			if !ok {
				t.Fatalf("%s: no variable %q", src, v)
			}
			chi.Set(id)
		}
		n := decomp.NewNode(s.lambda, chi)
		for _, k := range s.kids {
			n.Children = append(n.Children, node(k))
		}
		return n
	}
	d := &decomp.Decomp{H: h, Root: node(spec)}
	if err := decomp.CheckHD(d); err != nil {
		t.Fatalf("%s: %v", src, err)
	}
	return q, d
}

// acrossPlan is one forced plan of TestBagCacheAcrossVersions; a
// maintained plan's bags all carry across batches.
type acrossPlan struct {
	name       string
	q          join.Query
	d          *decomp.Decomp
	maintained bool
}

// acrossVersionsPlans are the forced plans of TestBagCacheAcrossVersions:
// the triangle, four-cycle and bowtie, whose bags are two-atom
// unprojected λ-joins and so maintained across batches, and three whose
// changed bags are dropped and rebuilt: a triangle with a tail U(x,w)
// whose child bag λ{T,U} is projected to χ{x,w}, a triangle whose bag
// joins R with itself, and one whose bag joins all three atoms.
func acrossVersionsPlans(t testing.TB) []acrossPlan {
	xyz := forcedNode{lambda: []int{0, 1}, chi: []string{"x", "y", "z"}}
	rs := func(kids ...forcedNode) forcedNode { n := xyz; n.kids = kids; return n }
	var plans []acrossPlan
	add := func(name, src string, spec forcedNode, maintained bool) {
		q, d := forcedPlan(t, src, spec)
		plans = append(plans, acrossPlan{name, q, d, maintained})
	}
	add("triangle", "R(x,y), S(y,z), T(z,x).", rs(), true)
	add("four-cycle", "R(x,y), S(y,z), T(z,w), U(w,x).",
		rs(forcedNode{lambda: []int{2, 3}, chi: []string{"z", "w", "x"}}), true)
	add("bowtie", "R(x,y), S(y,z), T(z,x), U(x,w), V(w,u).",
		rs(forcedNode{lambda: []int{3, 4}, chi: []string{"x", "w", "u"}}), true)
	add("triangle-tail-projected", "R(x,y), S(y,z), T(z,x), U(x,w).",
		rs(forcedNode{lambda: []int{2, 3}, chi: []string{"x", "w"}}), false)
	add("triangle-self-join", "R(x,y), R(y,z), T(z,x).", xyz, false)
	add("triangle-three-atoms", "R(x,y), S(y,z), T(z,x).",
		forcedNode{lambda: []int{0, 1, 2}, chi: []string{"x", "y", "z"}}, false)
	return plans
}

// acrossVersionsBatch draws one batch shaped like perfbench's query-rw
// writes: fresh-looking inserts and deletes of live tuples spread over
// two of R..U. Version-specific cases ride along: an insert and delete
// of the same tuple, deletes of absent tuples, S emptied and then
// refilled, and inserts into R and S that join each other.
func acrossVersionsBatch(r *rand.Rand, model mirror, version int) []Mutation {
	const domain = 60
	names := []string{"R", "S", "T", "U"}
	a, b := names[r.Intn(len(names))], names[r.Intn(len(names))]
	ins := map[string][][]int{}
	del := map[string][][]int{}
	for i := 0; i < 6; i++ {
		rel := a
		if i%2 == 1 {
			rel = b
		}
		ins[rel] = append(ins[rel], []int{r.Intn(domain), r.Intn(domain)})
	}
	for i := 0; i < 4; i++ {
		rel := b
		if i%2 == 1 {
			rel = a
		}
		if live := model.sorted(rel); len(live) > 0 {
			del[rel] = append(del[rel], live[r.Intn(len(live))])
		}
	}
	var batch []Mutation
	for _, rel := range names {
		if rows := ins[rel]; len(rows) > 0 {
			batch = append(batch, Mutation{Op: "insert", Rel: rel, Rows: rows})
		}
	}
	for _, rel := range names {
		if rows := del[rel]; len(rows) > 0 {
			batch = append(batch, Mutation{Op: "delete", Rel: rel, Rows: rows})
		}
	}
	switch version {
	case 3: // insert and delete of one tuple in one batch
		t := [][]int{{domain + 1, domain + 2}}
		batch = append(batch, Mutation{Op: "insert", Rel: a, Rows: t}, Mutation{Op: "delete", Rel: a, Rows: t})
	case 5: // deletes of absent tuples
		batch = append(batch, Mutation{Op: "delete", Rel: b, Rows: [][]int{{domain + 3, 0}, {0, domain + 4}}})
	case 7: // empty S
		batch = append(batch, Mutation{Op: "delete", Rel: "S", Rows: model.sorted("S")})
	case 8: // refill S
		var rows [][]int
		for i := 0; i < 30; i++ {
			rows = append(rows, []int{r.Intn(domain), r.Intn(domain)})
		}
		batch = append(batch, Mutation{Op: "insert", Rel: "S", Rows: rows})
	case 9: // an inserted R tuple that joins an inserted S tuple
		batch = append(batch, Mutation{Op: "insert", Rel: "R", Rows: [][]int{{1, domain + 5}}},
			Mutation{Op: "insert", Rel: "S", Rows: [][]int{{domain + 5, 1}}})
	}
	return batch
}

// sorted lists rel's tuples in key order.
func (m mirror) sorted(rel string) [][]int {
	keys := make([]string, 0, len(m[rel]))
	for k := range m[rel] {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([][]int, len(keys))
	for i, k := range keys {
		out[i] = m[rel][k]
	}
	return out
}

// apply replays batch on the mirror with plain map operations.
func (m mirror) apply(batch []Mutation) {
	for _, op := range batch {
		for _, row := range op.Rows {
			if op.Op == "insert" {
				m[op.Rel][fmt.Sprint(row)] = append([]int(nil), row...)
			} else {
				delete(m[op.Rel], fmt.Sprint(row))
			}
		}
	}
}

// TestBagCacheAcrossVersions drives seeded query-rw-shaped batches
// through Dataset.Mutate and, at every version, evaluates forced plans
// over the snapshot with its bag cache: the triangle, four-cycle and
// bowtie, whose bags are two-atom unprojected λ-joins, and a four-cycle
// with a projected bag. Rows and the count, sum and group aggregates
// must equal EvaluateNaive over a map-of-sets mirror; the first query of
// each unprojected plan after a batch serves every bag from the cache,
// carried or maintained from the previous version; a run through the
// cache must fail MaxRows exactly when a cold run at that version does;
// and the cache never holds more rows than the version's live tuples.
func TestBagCacheAcrossVersions(t *testing.T) {
	r := rand.New(rand.NewSource(70))
	var text strings.Builder
	model := mirror{}
	for _, rel := range []string{"R", "S", "T", "U", "V"} {
		model[rel] = map[string][]int{}
		fmt.Fprintf(&text, "rel %s(c1,c2)\n", rel)
		for len(model[rel]) < 40 {
			row := []int{r.Intn(60), r.Intn(60)}
			if _, ok := model[rel][fmt.Sprint(row)]; !ok {
				model[rel][fmt.Sprint(row)] = row
				fmt.Fprintf(&text, "%d %d\n", row[0], row[1])
			}
		}
		text.WriteString("end\n")
	}
	base := mustDB(t, text.String())
	g := NewRegistry(Config{Retain: 2})
	if _, err := g.Put("", "d", base); err != nil {
		t.Fatal(err)
	}
	d, _ := g.Get("", "d")
	plans := acrossVersionsPlans(t)
	var specs []join.AggSpec
	for _, src := range []string{"count", "sum(z)", "group x: count"} {
		spec, err := join.ParseAggregate(src)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, spec)
	}
	ctx := context.Background()

	for version := 1; version <= 12; version++ {
		snap, err := g.Resolve("", "d", 0)
		if err != nil {
			t.Fatal(err)
		}
		if snap.Version != uint64(version) {
			t.Fatalf("snapshot v%d, want v%d", snap.Version, version)
		}
		want := model.database(base)
		for _, p := range plans {
			naive, err := join.EvaluateNaive(p.q, want)
			if err != nil {
				t.Fatal(err)
			}
			var st join.ExecStats
			got, err := join.EvaluateCtx(ctx, p.q, snap.DB, p.d, join.EvalOptions{Stats: &st, Bags: snap.Bags})
			if err != nil {
				t.Fatalf("v%d %s: %v", version, p.name, err)
			}
			if !reflect.DeepEqual(got.Canonical().Rows(), naive.Canonical().Rows()) {
				t.Fatalf("v%d %s: %d rows, naive %d", version, p.name, got.Size(), naive.Size())
			}
			// After a batch, every bag of a maintained plan was carried or
			// maintained from the last version into this one's cache.
			if bags := int64(len(lambdaJoinSizes(t, p.q, p.d, want))); version > 1 && p.maintained && st.BagReuses != bags {
				t.Fatalf("v%d %s: first query reused %d bags, want %d", version, p.name, st.BagReuses, bags)
			}
			for _, spec := range specs {
				res, err := join.AggregateCtx(ctx, p.q, snap.DB, p.d, spec, join.EvalOptions{Bags: snap.Bags})
				if err != nil {
					t.Fatalf("v%d %s %s: %v", version, p.name, join.FormatAggregate(spec), err)
				}
				ref, err := join.AggregateRows(naive, spec)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(res, ref) {
					t.Fatalf("v%d %s %s: %+v, naive %+v", version, p.name, join.FormatAggregate(spec), res, ref)
				}
			}
			// MaxRows just below and at each λ-join's size: a run through
			// the cache fails exactly when a cold run does.
			for _, limit := range lambdaJoinSizes(t, p.q, p.d, want) {
				for _, maxRows := range []int{limit - 1, limit} {
					if maxRows < 1 {
						continue
					}
					_, hot := join.EvaluateCtx(ctx, p.q, snap.DB, p.d, join.EvalOptions{MaxRows: maxRows, Bags: snap.Bags})
					_, cold := join.EvaluateCtx(ctx, p.q, snap.DB, p.d, join.EvalOptions{MaxRows: maxRows})
					if errors.Is(hot, join.ErrRowBudget) != errors.Is(cold, join.ErrRowBudget) {
						t.Fatalf("v%d %s MaxRows %d: cached run %v, cold run %v", version, p.name, maxRows, hot, cold)
					}
				}
			}
		}
		if _, rows := snap.Bags.Usage(); rows > liveTuples(snap) {
			t.Fatalf("v%d: the cache holds %d rows, the snapshot %d live tuples", version, rows, liveTuples(snap))
		}
		batch := acrossVersionsBatch(r, model, version)
		if _, err := d.Mutate(batch); err != nil {
			t.Fatal(err)
		}
		model.apply(batch)
	}
}

// lambdaJoinSizes returns the size of every λ-join of two or more
// atoms in d, evaluated naively over db.
func lambdaJoinSizes(t testing.TB, q join.Query, d *decomp.Decomp, db join.Database) []int {
	t.Helper()
	var sizes []int
	d.Root.Walk(func(n *decomp.Node) bool {
		if len(n.Lambda) >= 2 {
			var sub join.Query
			for _, e := range n.Lambda {
				sub.Atoms = append(sub.Atoms, q.Atoms[e])
			}
			rel, err := join.EvaluateNaive(sub, db)
			if err != nil {
				t.Fatal(err)
			}
			sizes = append(sizes, rel.Size())
		}
		return true
	})
	return sizes
}

// TestBagCacheCarryRace: readers evaluate the current version's plans
// through its bag cache — bags carried or maintained from the version
// before — while a writer's Mutate maintains those same bags into the
// next version. Every answer must equal EvaluateNaive over the
// snapshot the reader resolved. Run it under -race (make stress): the
// maintained bag's writer appends past the rows of the view readers
// probe and builds every new index beside the old ones.
func TestBagCacheCarryRace(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	model := mirror{}
	var text strings.Builder
	for _, rel := range []string{"R", "S", "T", "U", "V"} {
		model[rel] = map[string][]int{}
		fmt.Fprintf(&text, "rel %s(c1,c2)\n", rel)
		for len(model[rel]) < 40 {
			row := []int{r.Intn(60), r.Intn(60)}
			if _, ok := model[rel][fmt.Sprint(row)]; !ok {
				model[rel][fmt.Sprint(row)] = row
				fmt.Fprintf(&text, "%d %d\n", row[0], row[1])
			}
		}
		text.WriteString("end\n")
	}
	g := NewRegistry(Config{Retain: 2})
	if _, err := g.Put("", "d", mustDB(t, text.String())); err != nil {
		t.Fatal(err)
	}
	d, _ := g.Get("", "d")
	plans := acrossVersionsPlans(t)
	const batches = 30
	done := make(chan struct{})
	// reads and reuses count the readers' evaluations and cache hits;
	// the writer lets a few evaluations run between its batches.
	var reads, reuses atomic.Int64
	go func() {
		defer close(done)
		for v := 1; v <= batches; v++ {
			// A reader that failed stops reading: wait a second at most.
			deadline := time.Now().Add(time.Second)
			for seen := reads.Load(); reads.Load() < seen+4 && time.Now().Before(deadline); {
				runtime.Gosched()
			}
			batch := acrossVersionsBatch(r, model, v)
			if _, err := d.Mutate(batch); err != nil {
				t.Error(err)
				return
			}
			model.apply(batch)
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				snap, err := g.Resolve("", "d", 0)
				if err != nil {
					t.Error(err)
					return
				}
				p := plans[(w+i)%len(plans)]
				var st join.ExecStats
				got, err := join.EvaluateCtx(context.Background(), p.q, snap.DB, p.d, join.EvalOptions{Stats: &st, Bags: snap.Bags})
				if err != nil {
					t.Error(err)
					return
				}
				reads.Add(1)
				reuses.Add(st.BagReuses)
				want, err := join.EvaluateNaive(p.q, snap.DB)
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(got.Canonical().Rows(), want.Canonical().Rows()) {
					t.Errorf("v%d %s: %d rows, naive %d", snap.Version, p.name, got.Size(), want.Size())
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if reuses.Load() == 0 {
		t.Errorf("%d evaluations served no bag from a cache", reads.Load())
	}
}
