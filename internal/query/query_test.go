package query

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/detk"
	"repro/internal/join"
	"repro/internal/service"
	"repro/internal/tenant"
)

func newTestPlanner(t *testing.T) (*Planner, *service.Service) {
	t.Helper()
	svc := service.New(service.Config{
		TokenBudget:    2,
		MaxConcurrent:  4,
		MaxQueue:       256,
		DefaultTimeout: time.Minute,
		// The walls below assert that every repeat query is a plan-cache
		// hit. That holds only while the cache holds the whole working
		// set: 50 random seeds yield 40 distinct structures, and under a
		// smaller LRU cap a repeat races the evictions its concurrent
		// neighbours cause.
		MemoMaxGraphs: 256,
	})
	t.Cleanup(func() { svc.Close() })
	return NewPlanner(svc), svc
}

// naiveCanonical is the independent baseline: the exponential cross
// join, canonicalised the same way as planner output. It returns an
// error instead of failing the test so it is safe to call from worker
// goroutines (t.Fatal must only run on the test goroutine).
func naiveCanonical(q join.Query, db join.Database) (*join.Relation, error) {
	rel, err := join.EvaluateNaive(q, db)
	if err != nil {
		return nil, fmt.Errorf("naive baseline: %w", err)
	}
	return Canonical(rel)
}

// TestDifferentialRandomQueries is the PR's correctness wall: on seeded
// random CQs and databases, the rows produced by the HD plan (through
// the service and its plan cache) must equal the naive cross-join
// baseline exactly. Queries run concurrently through one shared planner
// — under -race this also exercises concurrent Submit, plan-cache reads
// and coalescing — and every query is evaluated twice, the repeat being
// required to be a plan-cache hit with identical rows.
func TestDifferentialRandomQueries(t *testing.T) {
	const queries = 50
	p, svc := newTestPlanner(t)
	ctx := context.Background()

	var wg sync.WaitGroup
	errs := make(chan error, queries)
	sem := make(chan struct{}, 8)
	for seed := 0; seed < queries; seed++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()

			r := rand.New(rand.NewSource(int64(seed)))
			q, db := RandomInstance(r, GenConfig{})
			want, err := naiveCanonical(q, db)
			if err != nil {
				errs <- err
				return
			}

			res, err := p.Eval(ctx, Request{Query: q, DB: db})
			if err != nil {
				errs <- err
				return
			}
			if !reflect.DeepEqual(res.Rows.Attrs, want.Attrs) {
				t.Errorf("seed %d: attrs %v, naive %v", seed, res.Rows.Attrs, want.Attrs)
				return
			}
			if !reflect.DeepEqual(res.Rows.Rows(), want.Rows()) {
				t.Errorf("seed %d: HD plan returned %d rows, naive %d rows\nquery: %s",
					seed, res.Rows.Size(), want.Size(), join.FormatQuery(q))
				return
			}
			if res.Width < 1 || res.Width > len(q.Atoms) {
				t.Errorf("seed %d: implausible plan width %d for %d atoms", seed, res.Width, len(q.Atoms))
			}

			// The identical query again: same rows, and the plan must come
			// from the cache (or a concurrent structurally identical
			// query's run) — never a fresh solve of an already-solved
			// structure.
			again, err := p.Eval(ctx, Request{Query: q, DB: db})
			if err != nil {
				errs <- err
				return
			}
			if !reflect.DeepEqual(again.Rows.Rows(), res.Rows.Rows()) {
				t.Errorf("seed %d: repeat query returned different rows", seed)
			}
			if !again.PlanCacheHit && !again.PlanCoalesced {
				t.Errorf("seed %d: repeat query neither hit the plan cache nor coalesced", seed)
			}
		}(seed)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	st := p.Stats()
	if st.Queries != 2*queries || st.Answered != 2*queries {
		t.Fatalf("planner counters: %+v", st)
	}
	if st.PlanCacheHits+st.PlanCoalesced < queries {
		t.Fatalf("at least the %d repeats must reuse plans: %+v", queries, st)
	}
	if st.ExecIndexBuilds == 0 || st.ExecIndexProbes == 0 {
		t.Fatalf("executor counters not aggregated: %+v", st)
	}
	if ev := svc.Store().Stats().Evictions; ev != 0 {
		t.Fatalf("plan cache evicted %d entries; the repeat-hit wall needs the whole working set cached", ev)
	}
	sst := svc.Stats()
	if sst.SolverRuns > int64(queries) {
		t.Fatalf("%d solver runs for %d distinct queries: plan cache not working", sst.SolverRuns, queries)
	}
}

// aggSweep is the operator matrix the aggregate differential wall
// sweeps per instance: every kind, scalar and grouped.
func aggSweep(q join.Query) []join.AggSpec {
	vars := map[string]bool{}
	var order []string
	for _, a := range q.Atoms {
		for _, v := range a.Vars {
			if !vars[v] {
				vars[v] = true
				order = append(order, v)
			}
		}
	}
	first, last := order[0], order[len(order)-1]
	return []join.AggSpec{
		{Kind: join.AggCount},
		{Kind: join.AggCountDistinct, Over: []string{first}},
		{Kind: join.AggSum, Var: last},
		{Kind: join.AggMin, Var: first},
		{Kind: join.AggMax, Var: last, GroupBy: []string{first}},
		{Kind: join.AggCount, GroupBy: []string{last}},
		{Kind: join.AggCountDistinct, Over: []string{last}, GroupBy: []string{first}},
	}
}

// TestDifferentialAggregates is the aggregate wall: on the same 50
// seeded random instances as the row wall, every pushdown aggregate
// answered through the planner must exactly equal the naive
// materialise-then-fold of the independently computed cross-join
// baseline, with a repeat of each spec required to agree and to reuse
// the plan. Each instance is also uploaded as a named dataset, whose
// bags are server-resident, so heads that fold top-down over the
// snapshot's own indexes are swept too: every spec over the dataset,
// and again after one seeded mutation batch.
func TestDifferentialAggregates(t *testing.T) {
	const queries = 50
	p, svc := newTestPlanner(t)
	ctx := context.Background()

	var wg sync.WaitGroup
	errs := make(chan error, queries)
	sem := make(chan struct{}, 8)
	for seed := 0; seed < queries; seed++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()

			r := rand.New(rand.NewSource(int64(seed)))
			q, db := RandomInstance(r, GenConfig{})
			rows, err := naiveCanonical(q, db)
			if err != nil {
				errs <- err
				return
			}
			for _, spec := range aggSweep(q) {
				want, err := join.AggregateRows(rows, spec)
				if err != nil {
					errs <- fmt.Errorf("seed %d %s: naive fold: %w", seed, join.FormatAggregate(spec), err)
					return
				}
				res, err := p.Eval(ctx, Request{Query: q, DB: db, Aggregate: &spec})
				if err != nil {
					errs <- fmt.Errorf("seed %d %s: %w", seed, join.FormatAggregate(spec), err)
					return
				}
				if res.Rows != nil {
					t.Errorf("seed %d %s: aggregate result carries rows", seed, join.FormatAggregate(spec))
					return
				}
				if res.Agg == nil || !reflect.DeepEqual(*res.Agg, want) {
					t.Errorf("seed %d %s: pushdown %+v, naive %+v\nquery: %s",
						seed, join.FormatAggregate(spec), res.Agg, want, join.FormatQuery(q))
					return
				}
				// The repeat must agree byte for byte and reuse the plan the
				// first run banked.
				again, err := p.Eval(ctx, Request{Query: q, DB: db, Aggregate: &spec})
				if err != nil {
					errs <- fmt.Errorf("seed %d %s repeat: %w", seed, join.FormatAggregate(spec), err)
					return
				}
				if !reflect.DeepEqual(again.Agg, res.Agg) {
					t.Errorf("seed %d %s: repeat aggregate disagrees", seed, join.FormatAggregate(spec))
				}
				if !again.PlanCacheHit && !again.PlanCoalesced {
					t.Errorf("seed %d %s: aggregate repeat did not reuse the plan", seed, join.FormatAggregate(spec))
				}
			}

			// The same sweep over a named dataset, then after one batch.
			name := fmt.Sprintf("agg-%d", seed)
			if _, err := svc.Datasets().Put("", name, db); err != nil {
				errs <- fmt.Errorf("seed %d put: %w", seed, err)
				return
			}
			d, _ := svc.Datasets().Get("", name)
			mirror := newMirror(db)
			for round := 0; round < 2; round++ {
				if round == 1 {
					batch := randomBatch(r, db, mirror, GenConfig{}.withDefaults().Domain)
					if _, err := d.Mutate(batch); err != nil {
						errs <- fmt.Errorf("seed %d mutate: %w", seed, err)
						return
					}
					mirror.apply(batch)
					if rows, err = naiveCanonical(q, mirror.materialise(db)); err != nil {
						errs <- err
						return
					}
				}
				for _, spec := range aggSweep(q) {
					want, err := join.AggregateRows(rows, spec)
					if err != nil {
						errs <- fmt.Errorf("seed %d %s: naive fold: %w", seed, join.FormatAggregate(spec), err)
						return
					}
					res, err := p.Eval(ctx, Request{Query: q, Dataset: name, Aggregate: &spec})
					if err != nil {
						errs <- fmt.Errorf("seed %d round %d %s over the dataset: %w", seed, round, join.FormatAggregate(spec), err)
						return
					}
					if res.Agg == nil || !reflect.DeepEqual(*res.Agg, want) {
						t.Errorf("seed %d round %d %s over the dataset: pushdown %+v, naive %+v\nquery: %s",
							seed, round, join.FormatAggregate(spec), res.Agg, want, join.FormatQuery(q))
						return
					}
				}
			}
		}(seed)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	st := p.Stats()
	if st.AggQueries != st.Answered || st.Answered == 0 {
		t.Fatalf("aggregate query counters: %+v", st)
	}
	sst := svc.Stats()
	if sst.SolverRuns > queries {
		t.Fatalf("%d solver runs for %d distinct structures: aggregates not sharing plans", sst.SolverRuns, queries)
	}
}

// TestEvalAggregatePlanShared: a row query and an aggregate over the
// same query share one cached plan, and the aggregate answers a query
// whose row form blows the row budget.
func TestEvalAggregatePlanShared(t *testing.T) {
	p, svc := newTestPlanner(t)
	q, err := join.ParseQuery("R(x,y), S(y,z)")
	if err != nil {
		t.Fatal(err)
	}
	r, s := join.NewRelation("a", "b"), join.NewRelation("a", "b")
	for i := 0; i < 30; i++ {
		r.Add(i, 0)
		s.Add(0, i)
	}
	db := join.Database{"R": r, "S": s}

	// Row form: 900 answers, budget 50 → ErrRowBudget. (The budget still
	// covers intermediates, so it must stay above the 30-row bags.)
	if _, err := p.Eval(context.Background(), Request{Query: q, DB: db, MaxRows: 50}); !errors.Is(err, join.ErrRowBudget) {
		t.Fatalf("row query: got %v, want ErrRowBudget", err)
	}
	// Aggregate form under the same budget: the count comes back.
	spec := join.AggSpec{Kind: join.AggCount}
	res, err := p.Eval(context.Background(), Request{Query: q, DB: db, MaxRows: 50, Aggregate: &spec})
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := res.Agg.Value(); !ok || v != 900 {
		t.Fatalf("aggregate count = %d (ok=%v), want 900", v, ok)
	}
	if !res.PlanCacheHit {
		t.Fatal("aggregate did not reuse the row query's cached plan")
	}
	if runs := svc.Stats().SolverRuns; runs != 1 {
		t.Fatalf("SolverRuns = %d, want 1 (row and aggregate share the plan)", runs)
	}

	// Invalid specs fail validation before planning.
	bad := join.AggSpec{Kind: join.AggSum, Var: "nope"}
	if _, err := p.Eval(context.Background(), Request{Query: q, DB: db, Aggregate: &bad}); err == nil {
		t.Fatal("aggregate over unknown variable must fail")
	}
}

// TestConcurrentIdenticalQueries: N submissions of one query race
// through the planner; all must agree, and the service must run at most
// one solver (coalescing or cache hits absorb the rest).
func TestConcurrentIdenticalQueries(t *testing.T) {
	p, svc := newTestPlanner(t)
	r := rand.New(rand.NewSource(99))
	q, db := RandomInstance(r, GenConfig{})
	want, err := naiveCanonical(q, db)
	if err != nil {
		t.Fatal(err)
	}

	const dup = 8
	var wg sync.WaitGroup
	results := make([]Result, dup)
	errsArr := make([]error, dup)
	for i := 0; i < dup; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errsArr[i] = p.Eval(context.Background(), Request{Query: q, DB: db})
		}(i)
	}
	wg.Wait()
	for i := 0; i < dup; i++ {
		if errsArr[i] != nil {
			t.Fatalf("query %d: %v", i, errsArr[i])
		}
		if !reflect.DeepEqual(results[i].Rows.Rows(), want.Rows()) {
			t.Fatalf("query %d disagrees with the naive baseline", i)
		}
	}
	if runs := svc.Stats().SolverRuns; runs != 1 {
		t.Fatalf("SolverRuns = %d for %d identical concurrent queries, want 1", runs, dup)
	}
}

func TestEvalValidation(t *testing.T) {
	p, svc := newTestPlanner(t)
	ctx := context.Background()
	db := join.Database{"R": join.NewRelation("a", "b").Add(1, 2)}
	if _, err := svc.Datasets().Put("", "d", db); err != nil {
		t.Fatal(err)
	}
	// A cyclic query whose first atom repeats a variable: without the
	// shape check it would be planned (a solver run) before failing.
	repeated, err := join.ParseQuery("R(x,x), R(x,y), R(y,z), R(z,x).")
	if err != nil {
		t.Fatal(err)
	}

	cases := map[string]Request{
		"empty query":      {DB: db},
		"missing relation": {Query: join.Query{Atoms: []join.Atom{{Relation: "S", Vars: []string{"x"}}}}, DB: db},
		"arity mismatch":   {Query: join.Query{Atoms: []join.Atom{{Relation: "R", Vars: []string{"x"}}}}, DB: db},
		"negative budget": {Query: join.Query{Atoms: []join.Atom{{Relation: "R", Vars: []string{"x", "y"}}}},
			DB: db, MaxRows: -1},
		"repeated variable":                {Query: repeated, DB: db},
		"repeated variable over a dataset": {Query: repeated, Dataset: "d"},
	}
	for name, req := range cases {
		if _, err := p.Eval(ctx, req); err == nil {
			t.Errorf("%s: Eval should fail", name)
		}
	}
	if st := p.Stats(); st.PlanFailures != int64(len(cases)) {
		t.Fatalf("validation failures not counted: %+v", st)
	}
	// Every case fails before planning: no solver ran for any of them.
	if st := svc.Stats(); st.SolverRuns != 0 {
		t.Fatalf("validation failures ran the solver: %+v", st)
	}
}

func TestEvalWidthCeiling(t *testing.T) {
	p, _ := newTestPlanner(t)
	// The triangle has hw = 2: a ceiling of 1 must yield ErrNoPlan with
	// the proven bound in the message, not a wrong answer.
	q, err := join.ParseQuery("R(x,y), S(y,z), T(z,x)")
	if err != nil {
		t.Fatal(err)
	}
	db := join.Database{
		"R": join.NewRelation("a", "b").Add(1, 2),
		"S": join.NewRelation("a", "b").Add(2, 3),
		"T": join.NewRelation("a", "b").Add(3, 1),
	}
	if _, err := p.Eval(context.Background(), Request{Query: q, DB: db, MaxWidth: 1}); !errors.Is(err, ErrNoPlan) {
		t.Fatalf("MaxWidth=1 on the triangle: got %v, want ErrNoPlan", err)
	}
	res, err := p.Eval(context.Background(), Request{Query: q, DB: db})
	if err != nil {
		t.Fatal(err)
	}
	if res.Width != 2 || res.Rows.Size() != 1 {
		t.Fatalf("triangle: width=%d rows=%d, want width 2, 1 row", res.Width, res.Rows.Size())
	}
	if !reflect.DeepEqual(res.Rows.Attrs, []string{"x", "y", "z"}) {
		t.Fatalf("canonical attrs: %v", res.Rows.Attrs)
	}
}

// coloringCSP poses the k-colouring of a graph, given as vertex-name
// pairs, as a CQ: one atom neq(u,v) per edge, all over one relation
// holding every pair of distinct colours.
func coloringCSP(edges [][2]string, colors int) (join.Query, join.Database) {
	neq := join.NewRelation("c1", "c2")
	for a := 0; a < colors; a++ {
		for b := 0; b < colors; b++ {
			if a != b {
				neq.Add(a, b)
			}
		}
	}
	var q join.Query
	for _, e := range edges {
		q.Atoms = append(q.Atoms, join.Atom{Relation: "neq", Vars: []string{e[0], e[1]}})
	}
	return q, join.Database{"neq": neq}
}

// prismEdges returns the edges of the n-prism: two n-cycles a0..a(n-1)
// and b0..b(n-1) joined by rungs (hw 3 for n ≥ 4), the graph
// examples/cspsolve colours.
func prismEdges(n int) [][2]string {
	var edges [][2]string
	for i := 0; i < n; i++ {
		j := (i + 1) % n
		edges = append(edges,
			[2]string{"a" + strconv.Itoa(i), "a" + strconv.Itoa(j)},
			[2]string{"b" + strconv.Itoa(i), "b" + strconv.Itoa(j)},
			[2]string{"a" + strconv.Itoa(i), "b" + strconv.Itoa(i)},
		)
	}
	return edges
}

// TestEvalColoringCSPs: a CSP is a CQ with self-joins, so the planner
// solves k-colouring. On every instance, inline and over a dataset, the
// rows equal the naive join's, the count aggregate equals the row
// count, an unsatisfiable CSP is an empty answer rather than an error,
// and the plan's width is the hypertree width: the first width a plain
// det-k loop (k = 1, 2, …) accepts.
func TestEvalColoringCSPs(t *testing.T) {
	square := [][2]string{{"a", "b"}, {"b", "c"}, {"c", "d"}, {"d", "a"}}
	triangle := [][2]string{{"a", "b"}, {"b", "c"}, {"c", "a"}}
	cases := []struct {
		name   string
		edges  [][2]string
		colors int
		rows   int
	}{
		{"square-2", square, 2, 2},
		{"triangle-2", triangle, 2, 0},
		{"triangle-3", triangle, 3, 6},
		{"prism8-3", prismEdges(8), 3, 7074},
	}
	p, svc := newTestPlanner(t)
	ctx := context.Background()
	count := &join.AggSpec{Kind: join.AggCount}
	for _, tc := range cases {
		q, db := coloringCSP(tc.edges, tc.colors)
		want, err := naiveCanonical(q, db)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if want.Size() != tc.rows {
			t.Fatalf("%s: naive join has %d rows, want %d", tc.name, want.Size(), tc.rows)
		}
		h, err := q.Hypergraph()
		if err != nil {
			t.Fatal(err)
		}
		hw := 0
		for k := 1; hw == 0; k++ {
			_, ok, err := detk.New(h, k).Decompose(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if ok {
				hw = k
			}
		}
		if _, err := svc.Datasets().Put("", tc.name, db); err != nil {
			t.Fatal(err)
		}
		for _, req := range []Request{{Query: q, DB: db}, {Query: q, Dataset: tc.name}} {
			src := "inline"
			if req.Dataset != "" {
				src = "dataset"
			}
			res, err := p.Eval(ctx, req)
			if err != nil {
				t.Fatalf("%s %s: %v", tc.name, src, err)
			}
			if !reflect.DeepEqual(res.Rows.Attrs, want.Attrs) || !reflect.DeepEqual(res.Rows.Rows(), want.Rows()) {
				t.Fatalf("%s %s: %d rows disagree with the naive join's %d", tc.name, src, res.Rows.Size(), want.Size())
			}
			if res.Width != hw {
				t.Fatalf("%s %s: plan width %d, det-k loop %d", tc.name, src, res.Width, hw)
			}
			req.Aggregate = count
			agg, err := p.Eval(ctx, req)
			if err != nil {
				t.Fatalf("%s %s count: %v", tc.name, src, err)
			}
			if v, ok := agg.Agg.Value(); !ok || v != int64(tc.rows) {
				t.Fatalf("%s %s: count = %d (ok %v), want %d", tc.name, src, v, ok, tc.rows)
			}
		}
	}
}

func TestEvalRowBudget(t *testing.T) {
	p, _ := newTestPlanner(t)
	// A cross-join-heavy query whose full answer set is large.
	q, err := join.ParseQuery("R(x,y), S(y,z)")
	if err != nil {
		t.Fatal(err)
	}
	r, s := join.NewRelation("a", "b"), join.NewRelation("a", "b")
	for i := 0; i < 30; i++ {
		r.Add(i, 0)
		s.Add(0, i)
	}
	db := join.Database{"R": r, "S": s}
	if _, err := p.Eval(context.Background(), Request{Query: q, DB: db, MaxRows: 10}); !errors.Is(err, join.ErrRowBudget) {
		t.Fatalf("row budget: got %v, want join.ErrRowBudget", err)
	}
	res, err := p.Eval(context.Background(), Request{Query: q, DB: db})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows.Size() != 900 {
		t.Fatalf("unbudgeted rows = %d, want 900", res.Rows.Size())
	}
	if st := p.Stats(); st.ExecFailures != 1 || st.RowsReturned != 900 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestEvalCancellation(t *testing.T) {
	p, _ := newTestPlanner(t)
	r := rand.New(rand.NewSource(7))
	q, db := RandomInstance(r, GenConfig{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.Eval(ctx, Request{Query: q, DB: db}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled context: got %v, want context.Canceled", err)
	}
}

// TestRandomInstanceDeterministic: the generator is a pure function of
// its rand source — the bench harness and the differential suite rely
// on replaying identical workloads.
func TestRandomInstanceDeterministic(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		q1, db1 := RandomInstance(rand.New(rand.NewSource(seed)), GenConfig{})
		q2, db2 := RandomInstance(rand.New(rand.NewSource(seed)), GenConfig{})
		if !reflect.DeepEqual(q1, q2) {
			t.Fatalf("seed %d: queries differ", seed)
		}
		if !reflect.DeepEqual(db1, db2) {
			t.Fatalf("seed %d: databases differ", seed)
		}
		if len(q1.Atoms) < 2 {
			t.Fatalf("seed %d: %d atoms", seed, len(q1.Atoms))
		}
	}
	// Degenerate bounds are clamped, not a panic.
	q, _ := RandomInstance(rand.New(rand.NewSource(1)), GenConfig{MaxAtoms: 1})
	if len(q.Atoms) != 2 {
		t.Fatalf("MaxAtoms=1 should clamp to 2 atoms, got %d", len(q.Atoms))
	}
}

// TestCanonicalAllocBudget is Canonical's allocation budget over a
// fixed 1,408-row, 4-column relation with duplicates and its attributes
// out of sorted order (several hundred rows repeat). Canonical sorts
// packed row keys in pooled buffers and unpacks each kept key once, so
// its allocations do not grow with the row count; one key or row slice
// per distinct row would add hundreds.
func TestCanonicalAllocBudget(t *testing.T) {
	const budget, tolerance = 14, 1.25
	r := rand.New(rand.NewSource(21))
	rel := join.NewRelation("d", "b", "a", "c")
	for i := 0; i < 1408; i++ {
		rel.Add(r.Intn(6), r.Intn(6), r.Intn(6), r.Intn(6))
	}
	var err error
	got := testing.AllocsPerRun(20, func() { _, err = Canonical(rel) })
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("canonical: %.1f allocs/op (budget %d at %.2fx)", got, budget, tolerance)
	if got > tolerance*budget {
		t.Errorf("canonical: %.1f allocs/op exceeds %.2fx the budget's %d", got, tolerance, budget)
	}
}

// TestStatsConservation: under a concurrent mix of row and aggregate
// queries, inline and dataset queries, row-budget failures, invalid
// requests and tenant rate rejections, every query is counted under
// exactly one outcome, and the counters equal what the callers were
// handed.
func TestStatsConservation(t *testing.T) {
	svc := service.New(service.Config{
		TokenBudget:    1,
		MaxConcurrent:  2,
		MaxQueue:       256,
		DefaultTimeout: time.Minute,
		MemoMaxGraphs:  64,
		// Two tenants of 320 queries each: a burst of 200 plus 100/s
		// runs dry within the test's fraction of a second.
		Tenants: tenant.Config{Rate: 100, Burst: 200},
	})
	t.Cleanup(func() { svc.Close() })
	p := NewPlanner(svc)

	const goroutines, queries = 16, 40
	var mu sync.Mutex
	var got Stats
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		r := rand.New(rand.NewSource(int64(g)))
		q, db := RandomInstance(r, GenConfig{})
		ten, name := strconv.Itoa(g%2), "d"+strconv.Itoa(g)
		if _, err := svc.Datasets().Put(ten, name, db); err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < queries; j++ {
				req := Request{Query: q, DB: db, Tenant: ten}
				switch j % 5 {
				case 1:
					req.Aggregate = &join.AggSpec{Kind: join.AggCount}
				case 2:
					req.MaxRows = 1
				case 3:
					req.MaxRows = -1
				case 4:
					req.DB, req.Dataset = nil, name
				}
				res, err := p.Eval(context.Background(), req)
				mu.Lock()
				switch {
				case err == nil:
					got.Answered++
					if res.Rows != nil {
						got.RowsReturned += int64(res.Rows.Size())
					} else {
						got.AggQueries++
					}
					if req.Dataset != "" {
						got.DatasetQueries++
					}
				case errors.Is(err, tenant.ErrLimited):
					got.TenantLimited++
				case errors.Is(err, join.ErrRowBudget):
					got.ExecFailures++
				default:
					got.PlanFailures++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()

	st := p.Stats()
	t.Logf("%d queries: answered %d, plan failures %d, exec failures %d, tenant-limited %d; %d rows, %d aggregates",
		st.Queries, got.Answered, got.PlanFailures, got.ExecFailures, got.TenantLimited, got.RowsReturned, got.AggQueries)
	if st.Queries != goroutines*queries || st.Queries != st.Answered+st.PlanFailures+st.ExecFailures+st.TenantLimited {
		t.Fatalf("Queries %d != Answered %d + PlanFailures %d + ExecFailures %d + TenantLimited %d (want %d queries)",
			st.Queries, st.Answered, st.PlanFailures, st.ExecFailures, st.TenantLimited, goroutines*queries)
	}
	for _, c := range []struct {
		name      string
		stat, got int64
	}{
		{"Answered", st.Answered, got.Answered},
		{"PlanFailures", st.PlanFailures, got.PlanFailures},
		{"ExecFailures", st.ExecFailures, got.ExecFailures},
		{"TenantLimited", st.TenantLimited, got.TenantLimited},
		{"RowsReturned", st.RowsReturned, got.RowsReturned},
		{"AggQueries", st.AggQueries, got.AggQueries},
		{"DatasetQueries", st.DatasetQueries, got.DatasetQueries},
		{"registry queries", svc.Datasets().Stats().Queries, got.DatasetQueries},
	} {
		if c.stat != c.got {
			t.Errorf("%s = %d, callers were handed %d", c.name, c.stat, c.got)
		}
	}
}
