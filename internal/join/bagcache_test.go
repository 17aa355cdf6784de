package join

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/decomp"
	"repro/internal/logk"
)

// bagCacheDB is five random binary relations R..V, each a set carrying
// an IndexSet as a dataset snapshot's views do. As in perfbench's
// dataset, a two-atom λ-join is about as large as one relation, so a
// query's bags fit the bounds of a cache for the database.
func bagCacheDB(seed int64) Database {
	r := rand.New(rand.NewSource(seed))
	plain := Database{}
	for _, name := range []string{"R", "S", "T", "U", "V"} {
		rel := NewRelation("c1", "c2")
		for i := 0; i < 300; i++ {
			rel.Add(r.Intn(150), r.Intn(150))
		}
		plain[name] = rel
	}
	return indexedDB(plain)
}

// TestBagCacheWarm: on the hybrid's plans of perfbench's cyclic shapes,
// a second evaluation with the same bag cache serves every bag whose λ
// holds two atoms from the cache — one for the triangle, two each for
// the bowtie and the four-cycle — and so runs fewer joins, while every
// answer equals EvaluateNaive's. The warm index
// reuses are pinned too: the four-cycle's only one is its cached child
// bag's index, which the cold run's up pass captured.
func TestBagCacheWarm(t *testing.T) {
	for _, tc := range []struct {
		name, query         string
		reuses, indexReuses int64
	}{
		{"triangle", "R(x,y), S(y,z), T(z,x).", 1, 1},
		{"bowtie", "R(x,y), S(y,z), T(z,x), U(x,w), V(w,u).", 2, 2},
		{"four-cycle", "R(x,y), S(y,z), T(z,w), U(w,x).", 2, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			q, err := ParseQuery(tc.query)
			if err != nil {
				t.Fatal(err)
			}
			d := ladderPlan(t, q, logk.PaperHybrid)
			db := bagCacheDB(5)
			want, err := EvaluateNaive(q, db)
			if err != nil {
				t.Fatal(err)
			}
			bags := NewBagCache(db)
			var cold, warm ExecStats
			for run, st := range []*ExecStats{&cold, &warm} {
				got, err := EvaluateCtx(context.Background(), q, db, d, EvalOptions{Stats: st, Bags: bags})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(sortedRowSet(t, got), sortedRowSet(t, want)) {
					t.Fatalf("run %d: %d rows, naive %d", run, got.Size(), want.Size())
				}
			}
			if cold.BagReuses != 0 || warm.BagReuses != tc.reuses {
				t.Errorf("bag reuses cold %d warm %d, want 0 and %d", cold.BagReuses, warm.BagReuses, tc.reuses)
			}
			if warm.IndexReuses != tc.indexReuses {
				t.Errorf("warm run reused %d indexes, want %d", warm.IndexReuses, tc.indexReuses)
			}
			if warm.Joins >= cold.Joins {
				t.Errorf("warm run joined %d times, cold %d", warm.Joins, cold.Joins)
			}
			n, rows := bags.Usage()
			if int64(n) != tc.reuses {
				t.Errorf("%d cached bags, want %d", n, tc.reuses)
			}
			t.Logf("%d answer rows, %d cached bags of %d rows", want.Size(), n, rows)
		})
	}
}

// TestBagCacheRowBudget: a hit enforces MaxRows as its cold build
// would. The child bag λ{S,A}, χ{z,a} is a 10-row projection of a
// 1,000-row λ-join, so under MaxRows 500 the cold build fails inside
// the join — and so must a hit, though the cached bag itself is small.
func TestBagCacheRowBudget(t *testing.T) {
	atom := func(rel string, vars ...string) Atom { return Atom{Relation: rel, Vars: vars} }
	q := Query{Atoms: []Atom{atom("R", "x", "y"), atom("S", "y", "z"), atom("A", "z", "a")}}
	r, s, a := NewRelation("c1", "c2"), NewRelation("c1", "c2"), NewRelation("c1", "c2")
	r.Add(0, 0)
	for y := 0; y < 100; y++ {
		s.Add(y, 0)
	}
	for v := 0; v < 10; v++ {
		a.Add(0, v)
	}
	db := indexedDB(Database{"R": r, "S": s, "A": a})
	h, err := q.Hypergraph()
	if err != nil {
		t.Fatal(err)
	}
	root := decomp.NewNode([]int{0, 1}, h.Union([]int{0, 1}))
	child := decomp.NewNode([]int{1, 2}, h.Union([]int{2}))
	root.Children = []*decomp.Node{child}
	d := &decomp.Decomp{H: h, Root: root}
	if err := decomp.CheckHD(d); err != nil {
		t.Fatal(err)
	}

	bags := NewBagCache(db)
	eval := func(maxRows int) (ExecStats, error) {
		var st ExecStats
		_, err := EvaluateCtx(context.Background(), q, db, d, EvalOptions{MaxRows: maxRows, Stats: &st, Bags: bags})
		return st, err
	}
	if _, err := eval(500); !errors.Is(err, ErrRowBudget) {
		t.Fatalf("cold under MaxRows 500: err = %v, want ErrRowBudget", err)
	}
	// The root bag, built before the child failed, is kept; the
	// child's is not.
	if n, rows := bags.Usage(); n != 1 || rows != 1 {
		t.Fatalf("failed cold run cached %d bags of %d rows, want the 1-row root bag", n, rows)
	}
	if st, err := eval(0); err != nil || st.BagReuses != 1 {
		t.Fatalf("unbudgeted run: reuses %d, err %v; want the root's 1 and nil", st.BagReuses, err)
	}
	if n, rows := bags.Usage(); n != 2 || rows != 11 {
		t.Fatalf("cached %d bags of %d rows, want 2 of 11 (10 projected + 1)", n, rows)
	}
	if _, err := eval(500); !errors.Is(err, ErrRowBudget) {
		t.Fatalf("warm under MaxRows 500: err = %v, want ErrRowBudget", err)
	}
	// The budget is exceeded only past the peak, as in the cold build.
	if st, err := eval(1000); err != nil || st.BagReuses != 2 {
		t.Fatalf("warm under MaxRows 1000: reuses %d, err %v; want 2 and nil", st.BagReuses, err)
	}
}

// TestBagCacheConcurrent runs identical queries at once on one cache —
// racing misses, first-wins stores, index capture on cached bags and a
// retire midway — and every answer must equal EvaluateNaive's. Run it
// under -race (make stress).
func TestBagCacheConcurrent(t *testing.T) {
	q, err := ParseQuery("R(x,y), S(y,z), T(z,w), U(w,x).")
	if err != nil {
		t.Fatal(err)
	}
	d := ladderPlan(t, q, logk.PaperHybrid)
	db := bagCacheDB(9)
	want, err := EvaluateNaive(q, db)
	if err != nil {
		t.Fatal(err)
	}
	wantRows := sortedRowSet(t, want)
	bags := NewBagCache(db)
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if g == 12 {
				bags.Retire()
			}
			got, err := EvaluateCtx(context.Background(), q, db, d, EvalOptions{Bags: bags})
			if err == nil && !reflect.DeepEqual(sortedRowSet(t, got), wantRows) {
				err = errors.New("answer differs from EvaluateNaive")
			}
			if err != nil {
				errs <- err
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if n, rows := bags.Usage(); n != 0 || rows != 0 {
		t.Errorf("retired cache holds %d bags of %d rows", n, rows)
	}
}
