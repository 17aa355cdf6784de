package join

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"testing"
	"time"

	"repro/internal/decomp"
	"repro/internal/logk"
)

// execOptsMatrix is every executor configuration the differential tests
// sweep: the test-only scan reference (scanref_test.go; run it through
// evalAs) and the indexed kernel.
func execOptsMatrix() map[string]EvalOptions {
	return map[string]EvalOptions{
		scanRef:   {},
		"indexed": {},
	}
}

// randomInstanceForExec builds a random connected CQ + database, sized
// by tuples per relation.
func randomInstanceForExec(r *rand.Rand, atoms, tuples, domain int) (Query, Database) {
	var q Query
	db := Database{}
	nv := atoms + 2
	for i := 0; i < atoms; i++ {
		arity := 2
		vars := make([]string, arity)
		vars[0] = "x" + strconv.Itoa(r.Intn(nv))
		for {
			v := "x" + strconv.Itoa(r.Intn(nv))
			if v != vars[0] {
				vars[1] = v
				break
			}
		}
		if i > 0 {
			// Keep the query connected: reuse a variable from atom 0.
			vars[0] = q.Atoms[0].Vars[r.Intn(2)]
			if vars[1] == vars[0] {
				vars[1] = "x" + strconv.Itoa(nv)
			}
		}
		name := "R" + strconv.Itoa(i)
		rel := NewRelation("a", "b")
		for j := 0; j < tuples; j++ {
			rel.Add(r.Intn(domain), r.Intn(domain))
		}
		db[name] = rel
		q.Atoms = append(q.Atoms, Atom{Relation: name, Vars: vars})
	}
	return q, db
}

func decomposeFor(t *testing.T, q Query) *decomp.Decomp {
	t.Helper()
	h, err := q.Hypergraph()
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= len(q.Atoms); k++ {
		d, ok, err := logk.New(h, logk.Options{K: k}).Decompose(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			return d
		}
	}
	t.Fatal("no decomposition found")
	return nil
}

// TestKernelsByteIdentical: the indexed kernel must produce not just
// the same row set as the scan reference but the very same tuple order,
// byte for byte.
func TestKernelsByteIdentical(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		r := rand.New(rand.NewSource(seed))
		q, db := randomInstanceForExec(r, 3+int(seed%4), 40, 6)
		d := decomposeFor(t, q)

		want, err := evaluateScan(context.Background(), q, db, d, 0)
		if err != nil {
			t.Fatalf("seed %d scan: %v", seed, err)
		}
		for name, opts := range execOptsMatrix() {
			if name == scanRef {
				continue
			}
			var stats ExecStats
			opts.Stats = &stats
			got, err := EvaluateCtx(context.Background(), q, db, d, opts)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, name, err)
			}
			if !reflect.DeepEqual(got.Attrs, want.Attrs) {
				t.Fatalf("seed %d %s: attrs %v, want %v", seed, name, got.Attrs, want.Attrs)
			}
			if !reflect.DeepEqual(got.Rows(), want.Rows()) {
				t.Fatalf("seed %d %s: tuple order diverged from the scan reference (%d vs %d rows)",
					seed, name, got.Size(), want.Size())
			}
			if stats.Joins == 0 && stats.Semijoins == 0 && len(q.Atoms) > 1 {
				t.Fatalf("seed %d %s: executor stats not populated: %+v", seed, name, stats)
			}
		}
	}
}

// TestExecEmptyRelation: an empty atom relation empties the whole
// answer, in every kernel, without errors.
func TestExecEmptyRelation(t *testing.T) {
	q := Query{Atoms: []Atom{
		{Relation: "R", Vars: []string{"x", "y"}},
		{Relation: "S", Vars: []string{"y", "z"}},
		{Relation: "T", Vars: []string{"z", "w"}},
	}}
	db := Database{
		"R": NewRelation("a", "b").Add(1, 2).Add(3, 4),
		"S": NewRelation("a", "b"), // empty
		"T": NewRelation("a", "b").Add(5, 6),
	}
	d := decomposeFor(t, q)
	for name, opts := range execOptsMatrix() {
		got, err := evalAs(context.Background(), name, q, db, d, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.Size() != 0 {
			t.Fatalf("%s: %d rows from a query over an empty relation", name, got.Size())
		}
	}
}

// TestExecDuplicateRows: duplicate input tuples must not produce
// duplicate answers, in every kernel. The executor deduplicates only at
// bag projection; the answer is a set because bags are sets, semijoins
// only filter, and the natural join of two sets is a set. Besides a
// fixed instance, seeded ones stress each step of that argument: base
// relations repeating tuples, a cycle whose width-2 plan joins two
// atoms in one λ-label, and a disconnected atom that makes the final
// join a cross product.
func TestExecDuplicateRows(t *testing.T) {
	check := func(t *testing.T, q Query, db Database) {
		t.Helper()
		d := decomposeFor(t, q)
		want, err := EvaluateNaive(q, db)
		if err != nil {
			t.Fatal(err)
		}
		for name, opts := range execOptsMatrix() {
			got, err := evalAs(context.Background(), name, q, db, d, opts)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if got.Size() != want.Size() {
				t.Fatalf("%s: %d rows, want %d (duplicate answers)", name, got.Size(), want.Size())
			}
			if !reflect.DeepEqual(got.Sorted(), want.Sorted()) {
				t.Fatalf("%s: %v, want %v", name, got.Sorted(), want.Sorted())
			}
		}
	}
	t.Run("fixed", func(t *testing.T) {
		q := Query{Atoms: []Atom{
			{Relation: "R", Vars: []string{"x", "y"}},
			{Relation: "S", Vars: []string{"y", "z"}},
		}}
		db := Database{
			"R": NewRelation("a", "b").Add(1, 2).Add(1, 2).Add(1, 2).Add(3, 2),
			"S": NewRelation("a", "b").Add(2, 9).Add(2, 9),
		}
		check(t, q, db)
	})
	// dupRelation draws n pairs over [0, domain) and appends a second
	// copy of about a third of them.
	dupRelation := func(r *rand.Rand, n, domain int) *Relation {
		rel := NewRelation("a", "b")
		for i := 0; i < n; i++ {
			a, b := r.Intn(domain), r.Intn(domain)
			rel.Add(a, b)
			if r.Intn(3) == 0 {
				rel.Add(a, b)
			}
		}
		return rel
	}
	for seed := int64(0); seed < 8; seed++ {
		t.Run("seed"+strconv.FormatInt(seed, 10), func(t *testing.T) {
			r := rand.New(rand.NewSource(seed))
			cycle := 3 + int(seed%3)
			var q Query
			db := Database{"U": dupRelation(r, 5, 3)}
			for i := 0; i < cycle; i++ {
				name := "C" + strconv.Itoa(i)
				db[name] = dupRelation(r, 20, 4)
				q.Atoms = append(q.Atoms, Atom{Relation: name,
					Vars: []string{"x" + strconv.Itoa(i), "x" + strconv.Itoa((i+1)%cycle)}})
			}
			q.Atoms = append(q.Atoms, Atom{Relation: "U", Vars: []string{"u", "v"}})
			multi := false
			decomposeFor(t, q).Root.Walk(func(n *decomp.Node) bool {
				multi = multi || len(n.Lambda) > 1
				return true
			})
			if !multi {
				t.Fatal("plan has no multi-atom λ-label")
			}
			check(t, q, db)
		})
	}
}

// TestExecSingleAtom: a one-atom query is a width-1 decomposition with a
// single bag; the answer is the deduplicated relation itself.
func TestExecSingleAtom(t *testing.T) {
	q := Query{Atoms: []Atom{{Relation: "R", Vars: []string{"x", "y"}}}}
	db := Database{"R": NewRelation("a", "b").Add(1, 2).Add(1, 2).Add(3, 4)}
	d := decomposeFor(t, q)
	for name, opts := range execOptsMatrix() {
		got, err := evalAs(context.Background(), name, q, db, d, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if want := [][]int{{1, 2}, {3, 4}}; !reflect.DeepEqual(got.Sorted(), want) {
			t.Fatalf("%s: %v, want %v", name, got.Sorted(), want)
		}
	}
	// The database relation itself must stay untouched.
	if want := [][]int{{1, 2}, {1, 2}, {3, 4}}; !reflect.DeepEqual(db["R"].Rows(), want) {
		t.Fatalf("single-atom evaluation mutated the database: %v", db["R"].Rows())
	}
}

// explodingInstance is a 3-atom query R(x,y) ⋈ S(y,z) ⋈ T(y,w) whose
// full answer has rows³ tuples — enough work that budgets and
// cancellations fire while the final join is genuinely in flight.
func explodingInstance(rows int) (Query, Database) {
	q := Query{Atoms: []Atom{
		{Relation: "R", Vars: []string{"x", "y"}},
		{Relation: "S", Vars: []string{"y", "z"}},
		{Relation: "T", Vars: []string{"y", "w"}},
	}}
	r := NewRelation("a", "b")
	s := NewRelation("a", "b")
	tt := NewRelation("a", "b")
	for i := 0; i < rows; i++ {
		r.Add(i, 0)
		s.Add(0, i)
		tt.Add(0, i)
	}
	return q, Database{"R": r, "S": s, "T": tt}
}

// TestExecRowBudgetMidParallel: ErrRowBudget fires inside the
// final-join probe loops.
func TestExecRowBudgetMidParallel(t *testing.T) {
	q, db := explodingInstance(300) // 27M answers
	d := decomposeFor(t, q)
	_, err := EvaluateCtx(context.Background(), q, db, d, EvalOptions{MaxRows: 1000})
	if !errors.Is(err, ErrRowBudget) {
		t.Fatalf("got %v, want ErrRowBudget", err)
	}
}

// cancelAtCall is a context whose Err reports context.Canceled from its
// k-th call on: a cancellation that lands at a chosen context check,
// with no timer and no race. calls counts every Err call.
type cancelAtCall struct {
	context.Context
	k, calls int
}

func (c *cancelAtCall) Err() error {
	c.calls++
	if c.calls >= c.k {
		return context.Canceled
	}
	return nil
}

// TestExecCancelAtEveryCheck: wherever a cancellation lands, the
// evaluation returns context.Canceled, never nil. A count over
// explodingInstance(600) finishes, so it is cancelled at each of the
// context checks its uncancelled run makes.
func TestExecCancelAtEveryCheck(t *testing.T) {
	cancelCountAtEveryCheck(t, EvalOptions{})
}

// TestExecCancelMidColumnarJoin: a cancellation landing while the
// columnar join loop writes its answer returns context.Canceled. The
// row query over explodingInstance(600) would materialise 216M answers,
// so it is cancelled at fixed checks, most of which only the probe
// loops' polls reach: an executor that checked the context between
// operations only would run on into the MaxRows safety net and fail
// with ErrRowBudget instead.
func TestExecCancelMidColumnarJoin(t *testing.T) {
	cancelRowsAtChecks(t, EvalOptions{})
}

// TestExecCancelMidParallel: options that still ask for parallelism
// (Parallelism and Tokens, set by perfbench's replica) change nothing —
// the count and the row query are cancelled at the same checks as
// without them, and the executor never touches the token source.
func TestExecCancelMidParallel(t *testing.T) {
	tok := &untouchedTokens{}
	opts := EvalOptions{Parallelism: 4, Tokens: tok}
	cancelCountAtEveryCheck(t, opts)
	cancelRowsAtChecks(t, opts)
	if tok.calls != 0 {
		t.Fatalf("executor called the ignored token source %d times", tok.calls)
	}
}

// untouchedTokens is a TokenSource that counts the calls it gets.
type untouchedTokens struct{ calls int }

func (t *untouchedTokens) TryAcquire(max int) int { t.calls++; return max }
func (t *untouchedTokens) Release(int)            { t.calls++ }

// cancelCountAtEveryCheck runs a count over explodingInstance(600)
// once uncancelled, then cancelled at each context check that run made,
// and requires context.Canceled every time.
func cancelCountAtEveryCheck(t *testing.T, opts EvalOptions) {
	t.Helper()
	q, db := explodingInstance(600)
	d := decomposeFor(t, q)
	count := AggSpec{Kind: AggCount}
	full := &cancelAtCall{Context: context.Background(), k: math.MaxInt}
	res, err := AggregateCtx(full, q, db, d, count, opts)
	if v, _ := res.Value(); err != nil || v != 600*600*600 {
		t.Fatalf("uncancelled count: %d, %v", v, err)
	}
	for k := 1; k <= full.calls; k++ {
		ctx := &cancelAtCall{Context: context.Background(), k: k}
		if _, err := AggregateCtx(ctx, q, db, d, count, opts); !errors.Is(err, context.Canceled) {
			t.Fatalf("count cancelled at check %d of %d: got %v, want context.Canceled", k, full.calls, err)
		}
	}
}

// cancelRowsAtChecks cancels the row query over explodingInstance(600)
// at fixed context checks 1 to 1024, under a MaxRows of 2^21 as a
// safety net, and requires context.Canceled every time.
func cancelRowsAtChecks(t *testing.T, opts EvalOptions) {
	t.Helper()
	q, db := explodingInstance(600)
	d := decomposeFor(t, q)
	opts.MaxRows = 1 << 21
	for _, k := range []int{1, 2, 3, 5, 8, 16, 64, 256, 1024} {
		ctx := &cancelAtCall{Context: context.Background(), k: k}
		if _, err := EvaluateCtx(ctx, q, db, d, opts); !errors.Is(err, context.Canceled) {
			t.Fatalf("rows cancelled at check %d: got %v, want context.Canceled", k, err)
		}
	}
}

// TestDownPassIndexesParentOnce: in the top-down pass, children sharing
// a column set probe one index of their parent — k children must not
// trigger k builds of the same index.
func TestDownPassIndexesParentOnce(t *testing.T) {
	parent := &bagNode{rel: NewRelation("a").Add(1).Add(2)}
	for i := 0; i < 4; i++ {
		child := NewRelation("a", "b").Add(1, 10+i).Add(3, 20+i)
		parent.children = append(parent.children, &bagNode{rel: child})
	}
	e := &executor{g: &guard{ctx: context.Background()}}
	if err := e.down(parent); err != nil {
		t.Fatal(err)
	}
	if n := e.stats.IndexBuilds; n != 1 {
		t.Fatalf("IndexBuilds = %d, want 1 (four children share the parent's index)", n)
	}
	for i, c := range parent.children {
		if c.rel.Size() != 1 || c.rel.Row(0)[0] != 1 {
			t.Fatalf("child %d not reduced against the parent: %v", i, c.rel.Rows())
		}
	}
}

// TestExecRowBudgetSkewedKey: a single join key whose match bucket alone
// exceeds the budget must abort mid-bucket — the check cannot wait for
// the next probe tuple.
func TestExecRowBudgetSkewedKey(t *testing.T) {
	// R has ONE tuple; S has 200k tuples all sharing the join key, so
	// the whole blow-up happens inside one probe tuple's bucket loop.
	q := Query{Atoms: []Atom{
		{Relation: "R", Vars: []string{"x", "y"}},
		{Relation: "S", Vars: []string{"y", "z"}},
	}}
	s := NewRelation("a", "b")
	for i := 0; i < 200_000; i++ {
		s.Add(0, i)
	}
	db := Database{"R": NewRelation("a", "b").Add(7, 0), "S": s}
	d := decomposeFor(t, q)
	start := time.Now()
	_, err := EvaluateCtx(context.Background(), q, db, d, EvalOptions{MaxRows: 1000})
	if !errors.Is(err, ErrRowBudget) {
		t.Fatalf("got %v, want ErrRowBudget", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("skewed-key budget abort took %v — the in-bucket check is gone", elapsed)
	}
}

// TestSemijoinPollsInsideProbeLoop: a deadline expiring in the middle of
// one huge semijoin must abort that operation from within its probe
// loop — the scan reference would only notice after finishing the scan.
func TestSemijoinPollsInsideProbeLoop(t *testing.T) {
	// One semijoin with a large probe side; the deadline lands mid-scan.
	big := NewRelation("a", "b")
	small := NewRelation("b", "c")
	for i := 0; i < 2_000_000; i++ {
		big.Add(i, i%7)
	}
	for i := 0; i < 7; i++ {
		small.Add(i, i)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already expired: the in-loop poll must fire on iteration 0
	e := &executor{g: &guard{ctx: ctx}}
	if _, err := e.semijoin(big, small); !errors.Is(err, context.Canceled) {
		t.Fatalf("in-loop poll did not fire: %v", err)
	}
}

// TestExecRowBudgetInsideJoinLoop: the indexed join aborts while
// producing rows, long before materialising the full cross product.
func TestExecRowBudgetInsideJoinLoop(t *testing.T) {
	q, db := explodingInstance(2000) // 4M answers if allowed to finish
	d := decomposeFor(t, q)
	start := time.Now()
	_, err := EvaluateCtx(context.Background(), q, db, d, EvalOptions{MaxRows: 500})
	if !errors.Is(err, ErrRowBudget) {
		t.Fatalf("got %v, want ErrRowBudget", err)
	}
	// Generous bound: producing 4M wide rows takes far longer than
	// aborting at 500; this guards against the check silently moving
	// back to "after the full operation".
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("budget abort took %v — the in-loop check is gone", elapsed)
	}
}

// TestRowBudgetCountsJoinsOnly: MaxRows counts join results and the
// answer, not the relations a query reads nor their projections and
// semijoin reductions. Over a 1,000-row R under MaxRows 100, a
// selective join and a count over R — alone or semijoined with a
// 1,000-row T that keeps all of it — answer on every configuration,
// plain and with IndexSets; row queries whose answer is R-sized fail.
func TestRowBudgetCountsJoinsOnly(t *testing.T) {
	r, s, tt := NewRelation("a", "b"), NewRelation("a", "b"), NewRelation("a", "b")
	for i := 0; i < 1000; i++ {
		r.Add(i, i)
		tt.Add(i, i)
	}
	s.Add(7, 70)
	plain := Database{"R": r, "S": s, "T": tt}
	for _, tc := range []struct {
		query       string
		rows, count int // rows < 0: the row form exceeds the budget
	}{
		{"R(x,y).", -1, 1000},
		{"R(x,y), S(y,z).", 1, 1},
		{"R(x,y), T(y,z).", -1, 1000},
	} {
		q, err := ParseQuery(tc.query)
		if err != nil {
			t.Fatal(err)
		}
		d := decomposeFor(t, q)
		for dbName, db := range map[string]Database{"plain": plain, "indexed": indexedDB(plain)} {
			for name, opts := range execOptsMatrix() {
				opts.MaxRows = 100
				got, err := evalAs(context.Background(), name, q, db, d, opts)
				switch {
				case tc.rows < 0 && !errors.Is(err, ErrRowBudget):
					t.Errorf("%s %s %s: rows %v, want ErrRowBudget", tc.query, dbName, name, err)
				case tc.rows >= 0 && (err != nil || got.Size() != tc.rows):
					t.Errorf("%s %s %s: %v, want %d rows", tc.query, dbName, name, err, tc.rows)
				}
				if name == scanRef {
					continue
				}
				agg, err := AggregateCtx(context.Background(), q, db, d, AggSpec{Kind: AggCount}, opts)
				if v, ok := agg.Value(); err != nil || !ok || v != int64(tc.count) {
					t.Errorf("%s %s %s: count %v (%v), want %d", tc.query, dbName, name, v, err, tc.count)
				}
			}
		}
	}
}
