package join

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"testing"

	"repro/internal/decomp"
	"repro/internal/opt"
)

// The allocation budgets are deterministic: the same code makes the
// same allocations on any host and under the race detector, so unlike
// wall-clock gates they need no machine-speed calibration. Each budget
// is a measured figure times a tolerance. A change that moves a figure
// on purpose re-measures it (the tests log the fresh numbers) and
// updates the figure in the same commit.
const (
	// execBudgetTolerance is the executor budget's headroom over its
	// measured figures.
	execBudgetTolerance = 1.25
	// maintBudgetTolerance is wider: a one-tuple batch makes only 27
	// allocations, so any incidental one is a large share of it.
	maintBudgetTolerance = 1.5
)

// allocSample is heap allocations and bytes per operation.
type allocSample struct{ allocs, bytes float64 }

// measureAllocs runs fn once inside a MemStats window and divides the
// Mallocs and TotalAlloc deltas by ops. A forced GC first keeps
// earlier garbage out of the window.
func measureAllocs(t *testing.T, ops int, fn func() error) allocSample {
	t.Helper()
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	err := fn()
	runtime.ReadMemStats(&m1)
	if err != nil {
		t.Fatal(err)
	}
	return allocSample{
		allocs: float64(m1.Mallocs-m0.Mallocs) / float64(ops),
		bytes:  float64(m1.TotalAlloc-m0.TotalAlloc) / float64(ops),
	}
}

// checkBudget fails when got exceeds tol times the budget's figures.
func checkBudget(t *testing.T, name string, got, budget allocSample, tol float64) {
	t.Helper()
	t.Logf("%s: %.1f allocs/op, %.0f B/op (budget %.1f allocs/op, %.0f B/op at %.2fx)",
		name, got.allocs, got.bytes, budget.allocs, budget.bytes, tol)
	if got.allocs > tol*budget.allocs {
		t.Errorf("%s: %.1f allocs/op exceeds %.2fx the budget's %.1f", name, got.allocs, tol, budget.allocs)
	}
	if got.bytes > tol*budget.bytes {
		t.Errorf("%s: %.0f B/op exceeds %.2fx the budget's %.0f", name, got.bytes, tol, budget.bytes)
	}
}

// optimalPlan is the minimum-width plan the service would run q on.
func optimalPlan(t *testing.T, q Query) *decomp.Decomp {
	t.Helper()
	h, err := q.Hypergraph()
	if err != nil {
		t.Fatal(err)
	}
	_, d, ok, err := opt.New(h, 6).Solve(context.Background())
	if err != nil || !ok {
		t.Fatalf("no plan of width <= 6 (ok=%v err=%v)", ok, err)
	}
	return d
}

// budgetInstance is one query and database of the executor budget.
type budgetInstance struct {
	q  Query
	db Database
}

// chainInstances builds path queries R0(x0,x1) ⋈ … ⋈ Rk-1(xk-1,xk):
// acyclic width-1 plans whose cost is pure semijoin and join volume.
func chainInstances(atoms, n, tuples, domain int) []budgetInstance {
	out := make([]budgetInstance, n)
	for i := range out {
		r := rand.New(rand.NewSource(int64(7000 + 100*atoms + i)))
		db := Database{}
		var q Query
		for a := 0; a < atoms; a++ {
			name := "R" + strconv.Itoa(a)
			rel := NewRelation("a", "b")
			for j := 0; j < tuples; j++ {
				rel.Add(r.Intn(domain), r.Intn(domain))
			}
			db[name] = rel
			q.Atoms = append(q.Atoms, Atom{Relation: name,
				Vars: []string{"x" + strconv.Itoa(a), "x" + strconv.Itoa(a+1)}})
		}
		out[i] = budgetInstance{q, db}
	}
	return out
}

// starInstances builds star queries C(x0) ⋈ A1(x0,y1) ⋈ … ⋈ Ak(x0,yk)
// with about two matches per centre in every arm: the root bag has k
// sibling subtrees and the answer grows with k without exploding.
func starInstances(arms, n, centers, domain int) []budgetInstance {
	out := make([]budgetInstance, n)
	for i := range out {
		r := rand.New(rand.NewSource(int64(8000 + 100*arms + i)))
		c := NewRelation("a")
		for j := 0; j < centers; j++ {
			c.Add(j)
		}
		db := Database{"C": c}
		q := Query{Atoms: []Atom{{Relation: "C", Vars: []string{"x0"}}}}
		for a := 1; a <= arms; a++ {
			name := "A" + strconv.Itoa(a)
			rel := NewRelation("a", "b")
			for j := 0; j < centers; j++ {
				rel.Add(j, r.Intn(domain))
				rel.Add(j, r.Intn(domain))
			}
			db[name] = rel
			q.Atoms = append(q.Atoms, Atom{Relation: name,
				Vars: []string{"x0", "y" + strconv.Itoa(a)}})
		}
		out[i] = budgetInstance{q, db}
	}
	return out
}

// TestExecutorAllocBudget is the executor's allocation budget: serial
// EvaluateCtx over minimum-width plans of 8-atom chains and 6-arm
// stars, in allocs/op and bytes/op per instance. Before measuring, each
// answer must equal EvaluateNaive's as a row set and in size, so a
// duplicate answer row fails too.
func TestExecutorAllocBudget(t *testing.T) {
	ctx := context.Background()
	for _, b := range []struct {
		name      string
		instances []budgetInstance
		budget    allocSample
	}{
		{"chain8", chainInstances(8, 5, 4000, 8000), allocSample{779.4, 2639906}},
		{"star6", starInstances(6, 6, 800, 400), allocSample{645.0, 4601701}},
	} {
		t.Run(b.name, func(t *testing.T) {
			plans := make([]*decomp.Decomp, len(b.instances))
			for i, in := range b.instances {
				plans[i] = optimalPlan(t, in.q)
				got, err := EvaluateCtx(ctx, in.q, in.db, plans[i], EvalOptions{})
				if err != nil {
					t.Fatal(err)
				}
				want, err := EvaluateNaive(in.q, in.db)
				if err != nil {
					t.Fatal(err)
				}
				if got.Size() != want.Size() || !reflect.DeepEqual(sortedRowSet(t, got), sortedRowSet(t, want)) {
					t.Fatalf("instance %d: answer differs from EvaluateNaive (%d vs %d rows)",
						i, got.Size(), want.Size())
				}
			}
			got := measureAllocs(t, len(b.instances), func() error {
				for i, in := range b.instances {
					if _, err := EvaluateCtx(ctx, in.q, in.db, plans[i], EvalOptions{}); err != nil {
						return err
					}
				}
				return nil
			})
			checkBudget(t, b.name, got, b.budget, execBudgetTolerance)
		})
	}
}

// sortedRowSet is r's rows with columns in sorted attribute order,
// sorted: answers from different join orders compare as sets.
func sortedRowSet(t *testing.T, r *Relation) [][]int {
	t.Helper()
	attrs := append([]string(nil), r.Attrs...)
	sort.Strings(attrs)
	p, err := r.Project(attrs...)
	if err != nil {
		t.Fatal(err)
	}
	return p.Sorted()
}

// TestMaintenanceAllocBudget is the delta-maintenance allocation
// budget: allocations and bytes per batch of MRel Insert + Commit over
// two 30k-tuple relations whose query indexes are maintained, for
// sequences of 8 batches of 1 and of 100 inserted tuples. The same
// batches replayed with every maintained layer dropped before each
// Commit, so that every index is rebuilt from scratch, must allocate at
// least four times the bytes: the gap the layered indexes exist for.
func TestMaintenanceAllocBudget(t *testing.T) {
	const base, domain, batches = 30000, 30000, 8
	r := rand.New(rand.NewSource(10))
	baseR, baseS := randRows(r, base, domain), randRows(r, base, domain)
	q, err := ParseQuery("R(x,y), S(y,z).")
	if err != nil {
		t.Fatal(err)
	}
	plan := optimalPlan(t, q)

	for _, b := range []struct {
		delta  int
		budget allocSample
	}{
		{1, allocSample{27, 12146}},
		{100, allocSample{473, 346250}},
	} {
		name := fmt.Sprintf("delta%d", b.delta)
		t.Run(name, func(t *testing.T) {
			deltas := insertBatches(rand.New(rand.NewSource(int64(100+b.delta))), b.delta, batches, domain)
			maint := replayBatches(t, q, plan, baseR, baseS, deltas, false)
			rebuild := replayBatches(t, q, plan, baseR, baseS, deltas, true)
			checkBudget(t, name+" maint", maint, b.budget, maintBudgetTolerance)
			t.Logf("%s rebuild: %.1f allocs/op, %.0f B/op", name, rebuild.allocs, rebuild.bytes)
			if maint.bytes >= rebuild.bytes/4 {
				t.Errorf("%s: maintenance allocates %.0f B/batch, not below a quarter of the full rebuild's %.0f",
					name, maint.bytes, rebuild.bytes)
			}
		})
	}
}

// insertBatches draws n insert batches of size tuples split between R
// and S; a one-tuple batch alternates between them.
func insertBatches(r *rand.Rand, size, n, domain int) []map[string][][]int {
	out := make([]map[string][][]int, n)
	for i := range out {
		nR := size / 2
		if size%2 == 1 && i%2 == 0 {
			nR++
		}
		out[i] = map[string][][]int{"R": randRows(r, nR, domain), "S": randRows(r, size-nR, domain)}
	}
	return out
}

// replayBatches applies the batches to fresh maintained copies of the
// base relations and measures allocations per batch. A warm-up query
// first builds the column indexes q needs, which Commit adopts as
// maintained sets. With rebuild, every maintained layer of a mutated
// relation is dropped before its Commit.
func replayBatches(t *testing.T, q Query, plan *decomp.Decomp, baseR, baseS [][]int,
	batches []map[string][][]int, rebuild bool) allocSample {
	t.Helper()
	ms := map[string]*MRel{"R": NewMRel(relFromRows(baseR)), "S": NewMRel(relFromRows(baseS))}
	if _, err := EvaluateCtx(context.Background(), q, viewDB(ms), plan, EvalOptions{}); err != nil {
		t.Fatal(err)
	}
	for _, m := range ms {
		m.Commit()
	}
	return measureAllocs(t, len(batches), func() error {
		for _, batch := range batches {
			for _, name := range [2]string{"R", "S"} {
				if len(batch[name]) == 0 {
					continue
				}
				m := ms[name]
				if _, _, err := m.Insert(batch[name]); err != nil {
					return err
				}
				if rebuild {
					for _, st := range m.sets {
						st.layers = nil
					}
				}
				m.Commit()
			}
		}
		return nil
	})
}

func randRows(r *rand.Rand, n, domain int) [][]int {
	rows := make([][]int, n)
	for i := range rows {
		rows[i] = []int{r.Intn(domain), r.Intn(domain)}
	}
	return rows
}

func relFromRows(rows [][]int) *Relation {
	rel := NewRelation("c1", "c2")
	for _, row := range rows {
		rel.Add(row...)
	}
	return rel
}
