package dataset

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/decomp"
	"repro/internal/join"
)

// aggShape is one of perfbench's five aggregate query shapes, with its
// query text and head copied from perfbench/gen.go and the plan the
// service's optimal-width search returns for it.
type aggShape struct {
	name string
	q    join.Query
	spec join.AggSpec
	d    *decomp.Decomp
}

// aggShapes builds the five shapes. The plans are written out rather
// than solved, so the counts below do not move with the search.
func aggShapes(t testing.TB) []aggShape {
	xy := func(kids ...forcedNode) forcedNode {
		return forcedNode{lambda: []int{0}, chi: []string{"x", "y"}, kids: kids}
	}
	var out []aggShape
	add := func(name, src, head string, plan forcedNode) {
		q, d := forcedPlan(t, src, plan)
		spec, err := join.ParseAggregate(head)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, aggShape{name, q, spec, d})
	}
	add("triangle-sum", "R(x,y), S(y,z), T(z,x).", "sum(z)",
		xy(forcedNode{lambda: []int{1, 2}, chi: []string{"x", "y", "z"}}))
	add("bowtie-count", "R(x,y), S(y,z), T(z,x), U(x,w), V(w,u).", "count",
		xy(forcedNode{lambda: []int{1, 2}, chi: []string{"x", "y", "z"}},
			forcedNode{lambda: []int{3, 4}, chi: []string{"x", "w", "u"}}))
	add("four-cycle-group", "R(x,y), S(y,z), T(z,w), U(w,x).", "group x: count",
		xy(forcedNode{lambda: []int{0, 1}, chi: []string{"x", "y", "z"},
			kids: []forcedNode{{lambda: []int{2, 3}, chi: []string{"x", "z", "w"}}}}))
	add("path-count", "R(x,y), S(y,z), T(z,w).", "count",
		xy(forcedNode{lambda: []int{1}, chi: []string{"y", "z"},
			kids: []forcedNode{{lambda: []int{2}, chi: []string{"z", "w"}}}}))
	add("star-group", "R(x,y), S(x,z), T(x,w).", "group x: count",
		xy(forcedNode{lambda: []int{1}, chi: []string{"x", "z"}},
			forcedNode{lambda: []int{2}, chi: []string{"x", "w"}}))
	return out
}

// aggSizes are the sizes of a dataset of R..U and V: rows tuples in
// each of R..U, vRows in V, over a domain of domain values.
type aggSizes struct{ rows, vRows, domain int }

// perfbenchSizes are perfbench's query dataset sizes.
var perfbenchSizes = aggSizes{rows: 5000, vRows: 150, domain: 5000}

// aggDatabase is a seeded dataset of the given sizes.
func aggDatabase(seed int64, size aggSizes) join.Database {
	r := rand.New(rand.NewSource(seed))
	db := join.Database{}
	for _, name := range []string{"R", "S", "T", "U", "V"} {
		n := size.rows
		if name == "V" {
			n = size.vRows
		}
		rel := join.NewRelation("c1", "c2")
		seen := map[[2]int]bool{}
		for len(seen) < n {
			t := [2]int{r.Intn(size.domain), r.Intn(size.domain)}
			if !seen[t] {
				seen[t] = true
				rel.Add(t[0], t[1])
			}
		}
		db[name] = rel
	}
	return db
}

// aggBatch draws a batch over R and S: inserts fresh tuples into both
// and, when deletes is set, deletes live ones from both. A mixed batch
// is query-rw's 60 inserts and 40 deletes; it compacts R and S, so each
// of their maintained indexes is one layer again. An insert-only batch
// leaves each of them two layers.
func aggBatch(r *rand.Rand, snap Snapshot, domain, inserts, deletes int) []Mutation {
	var batch []Mutation
	for k, name := range []string{"R", "S"} {
		var ins [][]int
		for i := k; i < inserts; i += 2 {
			ins = append(ins, []int{r.Intn(domain), r.Intn(domain)})
		}
		batch = append(batch, Mutation{Op: "insert", Rel: name, Rows: ins})
	}
	for k, name := range []string{"R", "S"} {
		rows := snap.DB[name].Rows()
		var del [][]int
		for i := k; i < deletes; i += 2 {
			del = append(del, rows[r.Intn(len(rows))])
		}
		if len(del) > 0 {
			batch = append(batch, Mutation{Op: "delete", Rel: name, Rows: del})
		}
	}
	return batch
}

// aggregateSnapshot answers shape s over snap through its bag cache and
// fails unless the answer equals AggregateRows over EvaluateNaive.
func aggregateSnapshot(t testing.TB, s aggShape, snap Snapshot) join.ExecStats {
	t.Helper()
	st, err := checkAggregate(s, snap)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// checkAggregate is aggregateSnapshot's check, reported as an error.
func checkAggregate(s aggShape, snap Snapshot) (join.ExecStats, error) {
	var st join.ExecStats
	got, err := join.AggregateCtx(context.Background(), s.q, snap.DB, s.d, s.spec, join.EvalOptions{Stats: &st, Bags: snap.Bags})
	if err != nil {
		return st, fmt.Errorf("%s v%d: %w", s.name, snap.Version, err)
	}
	rows, err := join.EvaluateNaive(s.q, snap.DB)
	if err != nil {
		return st, err
	}
	want, err := join.AggregateRows(rows, s.spec)
	if err != nil {
		return st, err
	}
	if !reflect.DeepEqual(got, want) {
		return st, fmt.Errorf("%s v%d: pushdown %+v, naive %+v", s.name, snap.Version, got, want)
	}
	return st, nil
}

// aggCounts is the effort of one aggregate query.
type aggCounts struct{ builds, reuses, semijoins, probes int64 }

func countsOf(st join.ExecStats) aggCounts {
	return aggCounts{st.IndexBuilds, st.IndexReuses, st.Semijoins, st.IndexProbes}
}

// TestAggregateIndexCounts is the work-count wall of the aggregate
// pushdown over a dataset snapshot: perfbench's five aggregate shapes
// over perfbench's data sizes, each on a dataset of its own. Per shape
// it pins the index builds, reuses, semijoins and probes of a warm
// query (the second at the first version), of the first query after a
// mixed batch of 60 inserts and 40 deletes, and of the first query
// after a batch of 60 inserts, which leaves R and S with two-layer
// index stacks. Every answer must equal AggregateRows over
// EvaluateNaive. Counts, not times, so the wall holds on any host.
func TestAggregateIndexCounts(t *testing.T) {
	want := map[string][3]aggCounts{ // warm, after the mixed batch, after the inserts
		"triangle-sum":     {{0, 1, 0, 5002}, {0, 1, 0, 5022}, {0, 1, 0, 5056}},
		"bowtie-count":     {{0, 2, 0, 5005}, {0, 2, 0, 5024}, {0, 2, 0, 5058}},
		"four-cycle-group": {{0, 1, 0, 4974}, {0, 1, 0, 4985}, {0, 1, 0, 5046}},
		"path-count":       {{0, 2, 0, 8111}, {0, 2, 0, 8127}, {1, 2, 0, 8185}},
		"star-group":       {{0, 2, 0, 8151}, {0, 2, 0, 8158}, {1, 2, 0, 8215}},
	}
	for _, s := range aggShapes(t) {
		t.Run(s.name, func(t *testing.T) {
			g := NewRegistry(Config{Retain: 2})
			if _, err := g.Put("", "d", aggDatabase(1, perfbenchSizes)); err != nil {
				t.Fatal(err)
			}
			d, _ := g.Get("", "d")
			current := func() Snapshot {
				snap, err := g.Resolve("", "d", 0)
				if err != nil {
					t.Fatal(err)
				}
				return snap
			}
			r := rand.New(rand.NewSource(2))
			var got [3]aggCounts
			aggregateSnapshot(t, s, current())
			got[0] = countsOf(aggregateSnapshot(t, s, current()))
			for i, deletes := range []int{40, 0} {
				if _, err := d.Mutate(aggBatch(r, current(), perfbenchSizes.domain, 60, deletes)); err != nil {
					t.Fatal(err)
				}
				got[i+1] = countsOf(aggregateSnapshot(t, s, current()))
			}
			if got != want[s.name] {
				t.Errorf("builds/reuses/semijoins/probes %v, want %v", got, want[s.name])
			}
		})
	}
}

// BenchmarkAggregate times warm aggregate queries of perfbench's five
// aggregate shapes over a snapshot of perfbench's data sizes, through
// the snapshot's bag cache, one query per op.
func BenchmarkAggregate(b *testing.B) {
	for _, s := range aggShapes(b) {
		b.Run(s.name, func(b *testing.B) {
			g := NewRegistry(Config{})
			if _, err := g.Put("", "d", aggDatabase(1, perfbenchSizes)); err != nil {
				b.Fatal(err)
			}
			snap, err := g.Resolve("", "d", 0)
			if err != nil {
				b.Fatal(err)
			}
			aggregateSnapshot(b, s, snap)
			opts := join.EvalOptions{Bags: snap.Bags}
			b.ReportAllocs()
			for b.Loop() {
				if _, err := join.AggregateCtx(context.Background(), s.q, snap.DB, s.d, s.spec, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestAggregateFoldRace: readers answer the five shapes concurrently
// over a fresh snapshot, so their first queries race to capture the
// indexes they fold over into the snapshot's shared IndexSets, while a
// writer's mixed batch publishes the next version; then readers race
// over that successor, whose carried bags and maintained indexes the
// writer built. Every answer must equal AggregateRows over
// EvaluateNaive over the snapshot the reader holds. Run it under -race
// (make stress).
func TestAggregateFoldRace(t *testing.T) {
	const readers = 4
	size := aggSizes{rows: 600, vRows: 40, domain: 80}
	g := NewRegistry(Config{Retain: 2})
	if _, err := g.Put("", "d", aggDatabase(3, size)); err != nil {
		t.Fatal(err)
	}
	d, _ := g.Get("", "d")
	shapes := aggShapes(t)
	s1, err := g.Resolve("", "d", 0)
	if err != nil {
		t.Fatal(err)
	}
	batch := aggBatch(rand.New(rand.NewSource(4)), s1, size.domain, 60, 40)

	var wg sync.WaitGroup
	errs := make(chan error, 2*readers*2*len(shapes)+1)
	read := func(snap Snapshot, first int) {
		defer wg.Done()
		for i := range 2 * len(shapes) {
			if _, err := checkAggregate(shapes[(first+i)%len(shapes)], snap); err != nil {
				errs <- err
			}
		}
	}
	for i := range readers {
		wg.Add(1)
		go read(s1, i)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := d.Mutate(batch); err != nil {
			errs <- err
			return
		}
		s2, err := g.Resolve("", "d", 0)
		if err != nil {
			errs <- err
			return
		}
		for i := range readers {
			wg.Add(1)
			go read(s2, i)
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
