package join

import (
	"context"
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/decomp"
	"repro/internal/logk"
)

// countAnswers is q's scalar COUNT, answered by AggregateCtx.
func countAnswers(t *testing.T, q Query, db Database, d *decomp.Decomp) int64 {
	t.Helper()
	res, err := AggregateCtx(context.Background(), q, db, d, AggSpec{Kind: AggCount}, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	n, _ := res.Value()
	return n
}

func TestCountTriangle(t *testing.T) {
	q, db := triangleFixture()
	d := decompose(t, q, 2)
	got := countAnswers(t, q, db, d)
	want, err := EvaluateNaive(q, db)
	if err != nil {
		t.Fatal(err)
	}
	if got != int64(want.Size()) {
		t.Fatalf("Count = %d, naive size = %d", got, want.Size())
	}
}

func TestCountEmptyResult(t *testing.T) {
	q, db := triangleFixture()
	db["T"] = NewRelation("c1", "c2") // unsatisfiable
	d := decompose(t, q, 2)
	got := countAnswers(t, q, db, d)
	if got != 0 {
		t.Fatalf("Count = %d, want 0", got)
	}
}

func TestCountCrossProduct(t *testing.T) {
	// Two disconnected atoms: count = |R| × |S| (over distinct tuples).
	q := Query{Atoms: []Atom{
		{Relation: "R", Vars: []string{"x", "y"}},
		{Relation: "S", Vars: []string{"u", "v"}},
	}}
	db := Database{
		"R": NewRelation("a", "b").Add(1, 2).Add(3, 4),
		"S": NewRelation("a", "b").Add(5, 6).Add(7, 8).Add(9, 10),
	}
	d := decompose(t, q, 1)
	got := countAnswers(t, q, db, d)
	if got != 6 {
		t.Fatalf("Count = %d, want 6", got)
	}
}

func TestCountAgainstNaiveRandom(t *testing.T) {
	for seed := 0; seed < 12; seed++ {
		r := rand.New(rand.NewSource(int64(100 + seed)))
		nv := 4 + r.Intn(3)
		na := 3 + r.Intn(3)
		var q Query
		db := Database{}
		for i := 0; i < na; i++ {
			arity := 2
			perm := r.Perm(nv)[:arity]
			vars := make([]string, arity)
			for j, v := range perm {
				vars[j] = "x" + strconv.Itoa(v)
			}
			name := "R" + strconv.Itoa(i)
			rel := NewRelation("c1", "c2")
			for j := 0; j < 6+r.Intn(8); j++ {
				rel.Add(r.Intn(4), r.Intn(4))
			}
			db[name] = rel
			q.Atoms = append(q.Atoms, Atom{Relation: name, Vars: vars})
		}
		h, err := q.Hypergraph()
		if err != nil {
			t.Fatal(err)
		}
		var d *decomp.Decomp
		for k := 1; k <= 4; k++ {
			s := logk.New(h, logk.Options{K: k})
			dd, ok, derr := s.Decompose(context.Background())
			if derr != nil {
				t.Fatal(derr)
			}
			if ok {
				d = dd
				break
			}
		}
		if d == nil {
			t.Fatalf("seed %d: width > 4", seed)
		}
		got := countAnswers(t, q, db, d)
		want, err := EvaluateNaive(q, db)
		if err != nil {
			t.Fatal(err)
		}
		if got != int64(want.Size()) {
			t.Fatalf("seed %d: Count = %d, naive = %d", seed, got, want.Size())
		}
	}
}
