package join

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math"
	"math/big"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/decomp"
)

// aggSpecs is the operator matrix every differential-style aggregate
// test sweeps: each kind, scalar and grouped, including a GROUP BY
// variable that is absent from some bags of multi-bag decompositions.
func aggSpecs(q Query) []AggSpec {
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
	specs := []AggSpec{
		{Kind: AggCount},
		{Kind: AggCountDistinct, Over: []string{first}},
		{Kind: AggSum, Var: last},
		{Kind: AggMin, Var: first},
		{Kind: AggMax, Var: last},
		{Kind: AggCount, GroupBy: []string{first}},
		{Kind: AggSum, Var: first, GroupBy: []string{last}},
		{Kind: AggMin, Var: last, GroupBy: []string{first}},
	}
	if len(order) > 2 {
		mid := order[len(order)/2]
		specs = append(specs,
			AggSpec{Kind: AggCountDistinct, Over: []string{first, mid}, GroupBy: []string{last}},
			AggSpec{Kind: AggMax, Var: mid, GroupBy: []string{first, last}},
			AggSpec{Kind: AggCount, GroupBy: []string{first, mid, last}},
		)
	}
	return specs
}

// checkAggAgainstNaive asserts the pushdown answer equals the naive
// materialise-then-fold answer for one spec.
func checkAggAgainstNaive(t *testing.T, q Query, db Database, spec AggSpec) {
	t.Helper()
	d := decompose(t, q, len(q.Atoms))
	rows, err := EvaluateCtx(context.Background(), q, db, d, EvalOptions{})
	if err != nil {
		t.Fatalf("%s: evaluate: %v", FormatAggregate(spec), err)
	}
	want, err := AggregateRows(rows, spec)
	if err != nil {
		t.Fatalf("%s: naive fold: %v", FormatAggregate(spec), err)
	}
	got, err := AggregateCtx(context.Background(), q, db, d, spec, EvalOptions{})
	if err != nil {
		t.Fatalf("%s: pushdown: %v", FormatAggregate(spec), err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: pushdown %+v, naive %+v\nquery: %s",
			FormatAggregate(spec), got, want, FormatQuery(q))
	}
}

func TestAggregateTriangle(t *testing.T) {
	q, db := triangleFixture()
	for _, spec := range aggSpecs(q) {
		checkAggAgainstNaive(t, q, db, spec)
	}
}

// TestAggregateTable pins down exact values on a hand-checkable
// instance: R(x,y) ⋈ S(y,z) with known answers
// (x,y,z) ∈ {(1,2,5),(1,2,7),(4,2,5),(4,2,7),(1,3,6)}.
func TestAggregateTable(t *testing.T) {
	q, err := ParseQuery("R(x,y), S(y,z)")
	if err != nil {
		t.Fatal(err)
	}
	db := Database{
		"R": NewRelation("c1", "c2").Add(1, 2).Add(4, 2).Add(1, 3),
		"S": NewRelation("c1", "c2").Add(2, 5).Add(2, 7).Add(3, 6),
	}
	d := decompose(t, q, 2)

	cases := []struct {
		spec   AggSpec
		groups [][]int
		values []int64
	}{
		{AggSpec{Kind: AggCount}, [][]int{{}}, []int64{5}},
		{AggSpec{Kind: AggCountDistinct, Over: []string{"x"}}, [][]int{{}}, []int64{2}},
		{AggSpec{Kind: AggCountDistinct, Over: []string{"x", "z"}}, [][]int{{}}, []int64{5}},
		{AggSpec{Kind: AggSum, Var: "z"}, [][]int{{}}, []int64{5 + 7 + 5 + 7 + 6}},
		{AggSpec{Kind: AggMin, Var: "z"}, [][]int{{}}, []int64{5}},
		{AggSpec{Kind: AggMax, Var: "z"}, [][]int{{}}, []int64{7}},
		{AggSpec{Kind: AggCount, GroupBy: []string{"x"}}, [][]int{{1}, {4}}, []int64{3, 2}},
		{AggSpec{Kind: AggCount, GroupBy: []string{"y"}}, [][]int{{2}, {3}}, []int64{4, 1}},
		{AggSpec{Kind: AggSum, Var: "z", GroupBy: []string{"x"}}, [][]int{{1}, {4}}, []int64{18, 12}},
		{AggSpec{Kind: AggMax, Var: "x", GroupBy: []string{"z"}}, [][]int{{5}, {6}, {7}}, []int64{4, 1, 4}},
		{AggSpec{Kind: AggCountDistinct, Over: []string{"z"}, GroupBy: []string{"x"}},
			[][]int{{1}, {4}}, []int64{3, 2}},
	}
	for _, c := range cases {
		got, err := AggregateCtx(context.Background(), q, db, d, c.spec, EvalOptions{})
		if err != nil {
			t.Fatalf("%s: %v", FormatAggregate(c.spec), err)
		}
		if !reflect.DeepEqual(got.Groups, c.groups) || !reflect.DeepEqual(got.Values, c.values) {
			t.Errorf("%s: got groups=%v values=%v, want groups=%v values=%v",
				FormatAggregate(c.spec), got.Groups, got.Values, c.groups, c.values)
		}
		checkAggAgainstNaive(t, q, db, c.spec)
	}
}

// TestAggregateEmptyAnswerSet pins the empty-set semantics: scalar
// COUNT/COUNT DISTINCT/SUM are 0, scalar MIN/MAX and grouped aggregates
// have no groups — identically for pushdown and naive fold.
func TestAggregateEmptyAnswerSet(t *testing.T) {
	q, err := ParseQuery("R(x,y), S(y,z)")
	if err != nil {
		t.Fatal(err)
	}
	db := Database{
		"R": NewRelation("c1", "c2").Add(1, 2),
		"S": NewRelation("c1", "c2"), // empty: no answers at all
	}
	for _, spec := range aggSpecs(q) {
		checkAggAgainstNaive(t, q, db, spec)
	}
	d := decompose(t, q, 2)
	res, err := AggregateCtx(context.Background(), q, db, d, AggSpec{Kind: AggCount}, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := res.Value(); !ok || v != 0 {
		t.Fatalf("scalar count over empty: value=%d ok=%v, want 0 true", v, ok)
	}
	res, err = AggregateCtx(context.Background(), q, db, d, AggSpec{Kind: AggMin, Var: "x"}, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res.Value(); ok || len(res.Groups) != 0 {
		t.Fatalf("scalar min over empty must have no value, got %+v", res)
	}
}

// TestAggregateSingleAtom: a one-atom query exercises the DP's trivial
// tree (root only, no lifts), with duplicate tuples deduplicated by
// answer semantics.
func TestAggregateSingleAtom(t *testing.T) {
	q, err := ParseQuery("R(x,y)")
	if err != nil {
		t.Fatal(err)
	}
	db := Database{
		// Duplicate rows: answers are distinct assignments, so (1,2)
		// counts once.
		"R": NewRelation("c1", "c2").Add(1, 2).Add(1, 2).Add(3, 4).Add(3, 9),
	}
	for _, spec := range aggSpecs(q) {
		checkAggAgainstNaive(t, q, db, spec)
	}
	d := decompose(t, q, 1)
	res, err := AggregateCtx(context.Background(), q, db, d, AggSpec{Kind: AggCount}, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := res.Value(); v != 3 {
		t.Fatalf("count with duplicate tuples = %d, want 3", v)
	}
}

// TestAggregateDuplicateRows: self-join with repeated tuples — bag
// relations contain duplicates until projection, and the same base
// relation feeds two atoms.
func TestAggregateDuplicateRows(t *testing.T) {
	q, err := ParseQuery("R(x,y), R(y,z)")
	if err != nil {
		t.Fatal(err)
	}
	db := Database{
		"R": NewRelation("c1", "c2").Add(1, 1).Add(1, 1).Add(1, 2).Add(2, 1),
	}
	for _, spec := range aggSpecs(q) {
		checkAggAgainstNaive(t, q, db, spec)
	}
}

// TestAggregateAgainstNaiveRandom is the join-level differential wall:
// on seeded random instances (shapes shared with the query-level wall),
// every aggregate kind must match the naive fold across decomposition
// widths.
func TestAggregateAgainstNaiveRandom(t *testing.T) {
	for seed := 0; seed < 12; seed++ {
		r := rand.New(rand.NewSource(int64(seed)))
		q, db := randomAggInstance(r)
		for _, spec := range aggSpecs(q) {
			checkAggAgainstNaive(t, q, db, spec)
		}
	}
}

// TestAggregateFoldAgainstNaive is the differential wall of the
// top-down fold over a snapshot: the random instances of
// TestAggregateAgainstNaiveRandom over maintained views with a bag
// cache, so that every bag is server-resident and each head whose
// watched variables lie in the root bag folds over the indexes the
// views maintain and the bags capture. Every head must equal the naive
// fold under the minimum-width plan and the one of width |atoms|: cold,
// warm, after an insert-only batch (two-layer index stacks) and after a
// mixed one (remapped indexes, carried bags).
func TestAggregateFoldAgainstNaive(t *testing.T) {
	for seed := 0; seed < 40; seed++ {
		r := rand.New(rand.NewSource(int64(seed)))
		q, db := randomAggInstance(r)
		plans := []*decomp.Decomp{decomposeFor(t, q), decompose(t, q, len(q.Atoms))}
		ms, views := mrelDB(db)
		bags := NewBagCache(views)
		for round := 0; round < 4; round++ {
			if round >= 2 {
				deltas := map[string]Delta{}
				for _, name := range slices.Sorted(maps.Keys(ms)) {
					m, arity := ms[name], len(views[name].Attrs)
					var ins [][]int
					for k := 0; k < 1+r.Intn(4); k++ {
						row := make([]int, arity)
						for j := range row {
							row[j] = r.Intn(5)
						}
						ins = append(ins, row)
					}
					if _, _, err := m.Insert(ins); err != nil {
						t.Fatal(err)
					}
					if live := views[name].Rows(); round == 3 && len(live) > 0 {
						if _, _, err := m.Delete([][]int{live[r.Intn(len(live))]}); err != nil {
							t.Fatal(err)
						}
					}
					m.Commit()
					deltas[name] = m.LastDelta()
				}
				views = viewDB(ms)
				bags = bags.Carry(views, deltas)
			}
			rows, err := EvaluateNaive(q, plainDB(views))
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range plans {
				for _, spec := range aggSpecs(q) {
					want, err := AggregateRows(rows, spec)
					if err != nil {
						t.Fatal(err)
					}
					got, err := AggregateCtx(context.Background(), q, views, d, spec, EvalOptions{Bags: bags})
					if err != nil {
						t.Fatalf("seed %d round %d %s: %v", seed, round, FormatAggregate(spec), err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("seed %d round %d %s: pushdown %+v, naive %+v\nquery: %s\nplan:\n%s",
							seed, round, FormatAggregate(spec), got, want, FormatQuery(q), d)
					}
				}
			}
		}
	}
}

// randomAggInstance is a compact local generator (internal/query's
// RandomInstance would be an import cycle): connected 2..4-atom queries
// over a small domain, arity ≤ 3, with self-joins possible.
func randomAggInstance(r *rand.Rand) (Query, Database) {
	nAtoms := 2 + r.Intn(3)
	nRels := 1 + r.Intn(nAtoms)
	arities := make([]int, nRels)
	for i := range arities {
		arities[i] = 1 + r.Intn(3)
	}
	var q Query
	var used []string
	seen := map[string]bool{}
	for i := 0; i < nAtoms; i++ {
		rel := r.Intn(nRels)
		picked := map[string]bool{}
		var vars []string
		if i > 0 {
			v := used[r.Intn(len(used))]
			picked[v] = true
			vars = append(vars, v)
		}
		for len(vars) < arities[rel] {
			v := fmt.Sprintf("x%d", r.Intn(5))
			if picked[v] {
				continue
			}
			picked[v] = true
			vars = append(vars, v)
		}
		for _, v := range vars {
			if !seen[v] {
				seen[v] = true
				used = append(used, v)
			}
		}
		q.Atoms = append(q.Atoms, Atom{Relation: fmt.Sprintf("R%d", rel), Vars: vars})
	}
	db := Database{}
	for i, arity := range arities {
		attrs := make([]string, arity)
		for j := range attrs {
			attrs[j] = fmt.Sprintf("c%d", j)
		}
		rel := NewRelation(attrs...)
		for n := r.Intn(15); n > 0; n-- {
			row := make([]int, arity)
			for j := range row {
				row[j] = r.Intn(4)
			}
			rel.Add(row...)
		}
		db[fmt.Sprintf("R%d", i)] = rel.Dedup()
	}
	return q, db
}

// TestCountCancellation is the bugfix regression: counting used to run
// an un-budgeted recursion that ignored its caller entirely; it must
// now stop on a cancelled context.
func TestCountCancellation(t *testing.T) {
	q, db := triangleFixture()
	d := decompose(t, q, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := AggregateCtx(ctx, q, db, d, AggSpec{Kind: AggCount}, EvalOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled count: got %v, want context.Canceled", err)
	}
	if _, err := AggregateCtx(ctx, q, db, d, AggSpec{Kind: AggSum, Var: "x"}, EvalOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled aggregate: got %v, want context.Canceled", err)
	}
}

// TestAggregateRowBudget: the DP's state is bounded by the group count,
// so a huge answer set with few groups fits a small budget — and a
// grouped aggregate with more groups than the budget aborts, at the
// same threshold whether it folds top-down or takes the reduced route.
func TestAggregateRowBudget(t *testing.T) {
	q, err := ParseQuery("R(x,y), S(y,z)")
	if err != nil {
		t.Fatal(err)
	}
	r, s := NewRelation("c1", "c2"), NewRelation("c1", "c2")
	for i := 0; i < 30; i++ {
		r.Add(i, 0)
		s.Add(0, i)
	}
	db := Database{"R": r, "S": s}
	// Width-1 plan: one atom per bag, so no intermediate materialises the
	// 900-row join and the DP's own state is what the budget measures.
	d := decompose(t, q, 1)

	// 900 answers, but a scalar count carries one cell per tuple: it
	// must succeed under a budget far below the answer count. (The bag
	// relations themselves have 30 rows, so budget 50 > every
	// intermediate.)
	res, err := AggregateCtx(context.Background(), q, db, d, AggSpec{Kind: AggCount}, EvalOptions{MaxRows: 50})
	if err != nil {
		t.Fatalf("scalar count under budget: %v", err)
	}
	if v, _ := res.Value(); v != 900 {
		t.Fatalf("count = %d, want 900", v)
	}

	// Grouping by both x and z yields 900 groups — that must blow a
	// 50-row budget.
	_, err = AggregateCtx(context.Background(), q, db, d,
		AggSpec{Kind: AggCount, GroupBy: []string{"x", "z"}}, EvalOptions{MaxRows: 50})
	if !errors.Is(err, ErrRowBudget) {
		t.Fatalf("900-group aggregate under 50-row budget: got %v, want ErrRowBudget", err)
	}

	// The plan λ{R} over λ{S}, over the inline relations and over
	// maintained views, where it is snapshot-backed. Grouped by x, a
	// root variable, the head folds top-down, with no semijoin, and its
	// state is the answer's 30 groups: it fails just below 30 and
	// answers at 30. Grouped by z, which resolves below the root, the
	// head takes the reduced route: the same threshold, and its two
	// semijoins.
	hand := handPlan(t, q, [][]int{{0}, {1}}, []int{-1, 0})
	_, views := mrelDB(db)
	for group, semijoins := range map[string]int64{"x": 0, "z": 2} {
		spec := AggSpec{Kind: AggCount, GroupBy: []string{group}}
		for name, over := range map[string]Database{"inline": db, "snapshot": views} {
			var st ExecStats
			if _, err := AggregateCtx(context.Background(), q, over, hand, spec, EvalOptions{MaxRows: 29}); !errors.Is(err, ErrRowBudget) {
				t.Errorf("%s group %s under 29 rows: %v, want ErrRowBudget", name, group, err)
			}
			res, err := AggregateCtx(context.Background(), q, over, hand, spec, EvalOptions{MaxRows: 30, Stats: &st})
			if err != nil || len(res.Groups) != 30 {
				t.Errorf("%s group %s under 30 rows: %d groups, %v; want 30", name, group, len(res.Groups), err)
			}
			if st.Semijoins != semijoins {
				t.Errorf("%s group %s: %d semijoins, want %d", name, group, st.Semijoins, semijoins)
			}
		}
	}
}

// TestAggregateOverflow: a COUNT or SUM past int64 fails with
// ErrAggregateOverflow instead of wrapping. Over R = {(i, 0) : i < 300}
// the star R(x1,y), …, R(xk,y) has 300^k answers: 300^8 ≈ 6.6e19 is
// past int64 and 300^7 = 2.187e17 is not, but SUM(x1) over the 7-atom
// star, 44,850 · 300^6 ≈ 3.3e19, is. Aggregates that do not read the
// count past int64 still answer. AggregateRows checks its sums too.
func TestAggregateOverflow(t *testing.T) {
	r := NewRelation("c1", "c2")
	for i := 0; i < 300; i++ {
		r.Add(i, 0)
	}
	db := Database{"R": r}
	aggregate := func(atoms int, spec AggSpec) (AggResult, error) {
		var q Query
		for i := 1; i <= atoms; i++ {
			q.Atoms = append(q.Atoms, Atom{Relation: "R", Vars: []string{fmt.Sprintf("x%d", i), "y"}})
		}
		return AggregateCtx(context.Background(), q, db, decompose(t, q, 1), spec, EvalOptions{})
	}
	if res, err := aggregate(8, AggSpec{Kind: AggCount}); !errors.Is(err, ErrAggregateOverflow) {
		t.Errorf("8-atom count: %+v, %v; want ErrAggregateOverflow", res, err)
	}
	res, err := aggregate(7, AggSpec{Kind: AggCount})
	if v, _ := res.Value(); err != nil || v != 218_700_000_000_000_000 {
		t.Errorf("7-atom count: %d, %v; want 300^7 = 218700000000000000", v, err)
	}
	if res, err := aggregate(7, AggSpec{Kind: AggSum, Var: "x1"}); !errors.Is(err, ErrAggregateOverflow) {
		t.Errorf("7-atom sum(x1): %+v, %v; want ErrAggregateOverflow", res, err)
	}
	// The aggregates that never read the count past int64 still answer:
	// MIN, MAX, COUNT DISTINCT, and a SUM whose values are all 0.
	for _, c := range []struct {
		spec AggSpec
		want int64
	}{
		{AggSpec{Kind: AggMin, Var: "x1"}, 0},
		{AggSpec{Kind: AggMax, Var: "x1"}, 299},
		{AggSpec{Kind: AggCountDistinct, Over: []string{"x1"}}, 300},
		{AggSpec{Kind: AggCountDistinct, Over: []string{"y"}}, 1},
		{AggSpec{Kind: AggSum, Var: "y"}, 0},
	} {
		res, err := aggregate(8, c.spec)
		if v, ok := res.Value(); err != nil || !ok || v != c.want {
			t.Errorf("8-atom %s: %+v, %v; want %d", c.spec.Kind, res, err, c.want)
		}
	}

	rel := NewRelation("x").Add(math.MaxInt64 / 2).Add(math.MaxInt64/2 + 2)
	if res, err := AggregateRows(rel, AggSpec{Kind: AggSum, Var: "x"}); !errors.Is(err, ErrAggregateOverflow) {
		t.Errorf("AggregateRows sum past int64: %+v, %v; want ErrAggregateOverflow", res, err)
	}

	// The checked operations agree with exact arithmetic at the edges,
	// negative operands included.
	edges := []int64{0, 1, -1, 2, -2, 3037000499, 3037000500, -3037000500,
		math.MaxInt64, math.MinInt64, math.MaxInt64 / 2, math.MinInt64 / 2}
	for _, a := range edges {
		for _, b := range edges {
			for _, op := range []struct {
				name  string
				fn    func(a, b int64) (int64, error)
				exact func(z, x, y *big.Int) *big.Int
			}{{"+", addInt64, (*big.Int).Add}, {"*", mulInt64, (*big.Int).Mul}} {
				want := op.exact(new(big.Int), big.NewInt(a), big.NewInt(b))
				got, err := op.fn(a, b)
				if fits := want.IsInt64(); fits != (err == nil) || fits && got != want.Int64() {
					t.Errorf("%d %s %d: got %d, %v; exact %v", a, op.name, b, got, err, want)
				}
			}
		}
	}
}

// TestAggregateFoldSumOverflowScope pins which partial sums the
// top-down fold adds up. The root row R(0,0) joins A's bucket y=0,
// whose two values sum past int64, and B's bucket y=0. A row's probes
// all run before any bucket is folded, so when B has no y=0 row the
// fold never adds up A's bucket and answers 0, as AggregateRows does.
// When B's y=0 row is ruled out only below B, by C, A's bucket (the
// first child) is folded before B's bucket reads empty: the fold fails
// with ErrAggregateOverflow although no answer reaches that sum.
func TestAggregateFoldSumOverflowScope(t *testing.T) {
	q, err := ParseQuery("R(x,y), A(y,v), B(y,z), C(z,w)")
	if err != nil {
		t.Fatal(err)
	}
	d := handPlan(t, q, [][]int{{0}, {1}, {2}, {3}}, []int{-1, 0, 0, 2})
	spec := AggSpec{Kind: AggSum, Var: "v"}
	a := NewRelation("c1", "c2").Add(0, math.MaxInt64/2).Add(0, math.MaxInt64/2+2)
	for _, c := range []struct {
		name     string
		b        *Relation
		overflow bool
	}{
		{"B misses y=0", NewRelation("c1", "c2").Add(1, 0), false},
		{"C misses B's z=0", NewRelation("c1", "c2").Add(0, 0), true},
	} {
		db := Database{"R": NewRelation("c1", "c2").Add(0, 0), "A": a, "B": c.b, "C": NewRelation("c1", "c2").Add(1, 1)}
		rows, err := EvaluateNaive(q, db)
		if err != nil {
			t.Fatal(err)
		}
		if want, err := AggregateRows(rows, spec); err != nil || want.Values[0] != 0 {
			t.Fatalf("%s: AggregateRows = %+v, %v; want 0", c.name, want, err)
		}
		res, err := AggregateCtx(context.Background(), q, db, d, spec, EvalOptions{})
		if c.overflow {
			if !errors.Is(err, ErrAggregateOverflow) {
				t.Errorf("%s: %+v, %v; want ErrAggregateOverflow", c.name, res, err)
			}
		} else if v, _ := res.Value(); err != nil || v != 0 {
			t.Errorf("%s: %d, %v; want 0", c.name, v, err)
		}
	}
}

func TestAggSpecValidate(t *testing.T) {
	q, _ := ParseQuery("R(x,y), S(y,z)")
	bad := []AggSpec{
		{Kind: AggCount, Var: "x"},                              // count takes no operand
		{Kind: AggSum},                                          // sum needs an operand
		{Kind: AggSum, Var: "w"},                                // not a query variable
		{Kind: AggCountDistinct},                                // empty projection
		{Kind: AggCountDistinct, Over: []string{"x", "x"}},      // repeated variable
		{Kind: AggCount, GroupBy: []string{"x", "x"}},           // repeated group variable
		{Kind: AggCount, GroupBy: []string{"q"}},                // unknown group variable
		{Kind: AggMin, Var: "x", Over: []string{"y"}},           // min takes no projection
		{Kind: AggCountDistinct, Over: []string{"x"}, Var: "y"}, // distinct takes no operand
		{Kind: AggKind(42)},                                     // unknown kind
	}
	for _, spec := range bad {
		if err := spec.Validate(q); err == nil {
			t.Errorf("spec %+v must fail validation", spec)
		}
	}
	good := []AggSpec{
		{Kind: AggCount},
		{Kind: AggCountDistinct, Over: []string{"x", "z"}, GroupBy: []string{"y"}},
		{Kind: AggMax, Var: "z", GroupBy: []string{"x", "y"}},
	}
	for _, spec := range good {
		if err := spec.Validate(q); err != nil {
			t.Errorf("spec %+v: unexpected validation error %v", spec, err)
		}
	}
}

func TestParseAggregateRoundTrip(t *testing.T) {
	cases := []string{
		"count",
		"count distinct(x)",
		"count distinct(x,y)",
		"sum(x)",
		"min(y)",
		"max(z)",
		"group x: count",
		"group x,y: sum(z)",
		"group y: count distinct(x,z)",
	}
	for _, src := range cases {
		spec, err := ParseAggregate(src)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		if got := FormatAggregate(spec); got != src {
			t.Errorf("round trip %q -> %q", src, got)
		}
	}
	bad := []string{
		"", "tally", "count(x)", "count distinct", "sum", "sum()", "sum(x,y)",
		"group : count", "group x count", "group x,: sum(y)", "min(a:b)",
	}
	for _, src := range bad {
		if _, err := ParseAggregate(src); err == nil {
			t.Errorf("%q must fail to parse", src)
		}
	}
}

func TestParseDocumentAggregate(t *testing.T) {
	src := strings.Join([]string{
		"% aggregate document",
		"query R(x,y), S(y,z).",
		"aggregate group x: count distinct(z)",
		"rel R(c1,c2)",
		"1 2",
		"end",
		"rel S(c1,c2)",
		"2 3",
		"end",
	}, "\n")
	doc, err := ParseDocument(src)
	if err != nil {
		t.Fatal(err)
	}
	want := AggSpec{Kind: AggCountDistinct, Over: []string{"z"}, GroupBy: []string{"x"}}
	if doc.Aggregate == nil || !reflect.DeepEqual(*doc.Aggregate, want) {
		t.Fatalf("parsed aggregate %+v, want %+v", doc.Aggregate, want)
	}
	re, err := ParseDocument(FormatDocument(doc))
	if err != nil {
		t.Fatalf("reparse formatted document: %v", err)
	}
	if !reflect.DeepEqual(re, doc) {
		t.Fatalf("document with aggregate does not round-trip")
	}

	// An aggregate over a variable the query does not bind is rejected
	// at parse time.
	if _, err := ParseDocument(strings.Replace(src, "distinct(z)", "distinct(w)", 1)); err == nil {
		t.Fatal("aggregate over unknown variable must fail")
	}
	// Duplicate aggregate lines are rejected.
	if _, err := ParseDocument(strings.Replace(src,
		"aggregate group x: count distinct(z)",
		"aggregate count\naggregate count", 1)); err == nil {
		t.Fatal("duplicate aggregate line must fail")
	}
}
