package join

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/decomp"
)

// handPlan builds the decomposition of q whose nodes have the given
// λ-labels, each with χ = vars(λ); parents[i] is the index of node i's
// parent (node 0, the root, has -1). It fails the test unless the
// result is a valid HD.
func handPlan(t *testing.T, q Query, lambdas [][]int, parents []int) *decomp.Decomp {
	t.Helper()
	h, err := q.Hypergraph()
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]*decomp.Node, len(lambdas))
	for i, l := range lambdas {
		nodes[i] = decomp.NewNode(l, h.Union(l))
		if i > 0 {
			p := nodes[parents[i]]
			p.Children = append(p.Children, nodes[i])
		}
	}
	d := &decomp.Decomp{H: h, Root: nodes[0]}
	if err := decomp.CheckHD(d); err != nil {
		t.Fatal(err)
	}
	return d
}

// indexedDB marks every relation of db a server-resident set: each
// gets an empty IndexSet the executor fills as it probes. Unlike an
// MRel view, it starts with no prebuilt rowset index.
func indexedDB(db Database) Database {
	out := make(Database, len(db))
	for name, rel := range db {
		rel = rel.Dedup()
		rel.indexes = newIndexSet()
		out[name] = rel
	}
	return out
}

// TestBagBuildSkipsNoOpWork is the work-count wall of bag build: over
// relations that carry an IndexSet, a bag is not semijoined with its
// own λ-atoms, and a bag whose λ-join is already a set over χ is not
// projected — so a single-atom leaf bag is the base view itself and the
// join pass probes its maintained index. A row answer runs no top-down
// semijoin pass, and the root skips its semijoin with its first child,
// so a two-bag plan runs one join and no semijoin at all. The join
// pass probes the index the bottom-up pass built on a reduced child,
// so a chain's non-leaf bags are indexed once, not twice. Counts, not
// times, so the wall holds on any host.
func TestBagBuildSkipsNoOpWork(t *testing.T) {
	atom := func(rel string, vars ...string) Atom { return Atom{Relation: rel, Vars: vars} }
	pairs := func(rows ...[2]int) *Relation {
		r := NewRelation("a", "b")
		for _, p := range rows {
			r.Add(p[0], p[1])
		}
		return r
	}
	for _, tc := range []struct {
		name      string
		q         Query
		db        Database
		lambdas   [][]int
		parents   []int
		semijoins int64
		// firstBuilds is the IndexBuilds of the first evaluation.
		firstBuilds int64
		// reuses and builds are the IndexReuses and IndexBuilds of a
		// repeat evaluation, once the first one captured its index
		// builds into the IndexSets.
		reuses, builds int64
	}{
		{
			// One node λ{R,S}: only T, hosted but outside λ, is
			// semijoined in (3 with the λ-atoms). A repeat reuses the
			// join's index on S and the semijoin's on T.
			name: "triangle",
			q:    Query{Atoms: []Atom{atom("R", "x", "y"), atom("S", "y", "z"), atom("T", "z", "x")}},
			db: Database{
				"R": pairs([2]int{1, 2}, [2]int{1, 3}, [2]int{4, 2}),
				"S": pairs([2]int{2, 5}, [2]int{3, 6}, [2]int{2, 7}),
				"T": pairs([2]int{5, 1}, [2]int{6, 4}, [2]int{7, 4}),
			},
			lambdas: [][]int{{0, 1}}, parents: []int{-1},
			semijoins: 1, firstBuilds: 2, reuses: 2, builds: 0,
		},
		{
			// λ{R,S} over λ{T,U}: every atom is in its host's λ, and the
			// root skips its one child's semijoin, so nothing is
			// semijoined (4 with the λ-atoms).
			// A repeat reuses the two λ-joins' indexes on S and U and
			// builds one on the fresh child bag for the join.
			name: "four-cycle",
			q: Query{Atoms: []Atom{atom("R", "a", "b"), atom("S", "b", "c"),
				atom("T", "c", "d"), atom("U", "d", "a")}},
			db: Database{
				"R": pairs([2]int{1, 2}, [2]int{1, 3}, [2]int{2, 2}),
				"S": pairs([2]int{2, 4}, [2]int{3, 4}, [2]int{2, 5}),
				"T": pairs([2]int{4, 6}, [2]int{5, 7}, [2]int{4, 7}),
				"U": pairs([2]int{6, 1}, [2]int{7, 1}, [2]int{7, 2}),
			},
			lambdas: [][]int{{0, 1}, {2, 3}}, parents: []int{-1, 0},
			semijoins: 0, firstBuilds: 3, reuses: 2, builds: 1,
		},
		{
			// λ{R} over λ{S}: the leaf bag is S's base view, so the
			// join probes it directly and a repeat reuses the index the
			// first run captured on S, building none (2 semijoins with
			// the λ-atoms).
			name:    "2-path",
			q:       Query{Atoms: []Atom{atom("R", "x", "y"), atom("S", "y", "z")}},
			db:      Database{"R": pairs([2]int{1, 2}, [2]int{1, 3}, [2]int{4, 9}), "S": pairs([2]int{2, 5}, [2]int{3, 6}, [2]int{2, 7})},
			lambdas: [][]int{{0}, {1}}, parents: []int{-1, 0},
			semijoins: 0, firstBuilds: 1, reuses: 1, builds: 0,
		},
		{
			// An 8-atom chain rooted at R0: the up pass semijoins 6
			// times (the root skips R1), indexing R7's base view and
			// each reduced bag R2..R6; the join pass probes those
			// indexes again and builds one more, on R1: 7 builds, not
			// 12. A repeat reuses R7's captured index twice.
			name:      "8-chain",
			q:         chainInstances(8, 1, 4000, 8000)[0].q,
			db:        chainInstances(8, 1, 4000, 8000)[0].db,
			lambdas:   [][]int{{0}, {1}, {2}, {3}, {4}, {5}, {6}, {7}},
			parents:   []int{-1, 0, 1, 2, 3, 4, 5, 6},
			semijoins: 6, firstBuilds: 7, reuses: 2, builds: 6,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := handPlan(t, tc.q, tc.lambdas, tc.parents)
			db := indexedDB(tc.db)
			want, err := EvaluateNaive(tc.q, db)
			if err != nil {
				t.Fatal(err)
			}
			for run := 0; run < 2; run++ {
				var st ExecStats
				got, err := EvaluateCtx(context.Background(), tc.q, db, d, EvalOptions{Stats: &st})
				if err != nil {
					t.Fatal(err)
				}
				if got.Size() != want.Size() || !reflect.DeepEqual(sortedRowSet(t, got), sortedRowSet(t, want)) {
					t.Fatalf("run %d: answer %v, want %v", run, sortedRowSet(t, got), sortedRowSet(t, want))
				}
				if st.Semijoins != tc.semijoins {
					t.Errorf("run %d: %d semijoins, want %d", run, st.Semijoins, tc.semijoins)
				}
				if run == 0 && st.IndexBuilds != tc.firstBuilds {
					t.Errorf("first run: %d index builds, want %d (%+v)", st.IndexBuilds, tc.firstBuilds, st)
				}
				if run == 1 && st.IndexReuses != tc.reuses {
					t.Errorf("repeat run: %d index reuses, want %d (%+v)", st.IndexReuses, tc.reuses, st)
				}
				if run == 1 && st.IndexBuilds != tc.builds {
					t.Errorf("repeat run: %d index builds, want %d (%+v)", st.IndexBuilds, tc.builds, st)
				}
			}
		})
	}
}

// TestAggregateBagColumnOrder: aggregate pushdown must not depend on
// the column order of the bags it folds. Parent and child list their
// shared attributes in opposite orders — as bags left in λ-join order
// by build do — and every aggregate must equal the fold of the
// materialised join.
func TestAggregateBagColumnOrder(t *testing.T) {
	p := NewRelation("x", "y", "a").Add(1, 2, 10).Add(2, 1, 20).Add(1, 3, 30).Add(3, 3, 40)
	c := NewRelation("y", "x", "b").Add(2, 1, 100).Add(2, 1, 200).Add(1, 2, 300).Add(3, 1, 400).Add(3, 3, 500)
	q := Query{Atoms: []Atom{{Relation: "P", Vars: p.Attrs}, {Relation: "C", Vars: c.Attrs}}}
	for _, pair := range [][2]*Relation{{p, c}, {c, p}} {
		parent, child := pair[0], pair[1]
		rows, err := parent.Join(child)
		if err != nil {
			t.Fatal(err)
		}
		for _, spec := range aggSpecs(q) {
			want, err := AggregateRows(rows, spec)
			if err != nil {
				t.Fatal(err)
			}
			root := &bagNode{rel: parent, children: []*bagNode{{rel: child}}}
			got, err := runExecutor(context.Background(), EvalOptions{}, func(e *executor) (AggResult, error) {
				if err := e.up(root, false); err != nil {
					return AggResult{}, err
				}
				if err := e.down(root); err != nil {
					return AggResult{}, err
				}
				return e.aggregateTree(root, spec)
			})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("parent %v, %s: pushdown %+v, fold of the join %+v",
					parent.Attrs, FormatAggregate(spec), got, want)
			}
		}
	}
}

// TestExecColumnsIndependentOfIndexSets: the answer's columns must not
// depend on whether the relations carry an IndexSet. On the one-node
// plan λ{R1,R3}, build skips the projection over indexed relations and
// keeps the λ-join's column order (z, y, x), while over plain ones it
// projects to χ order (x, z, y); both answers must be laid out alike,
// row for row.
func TestExecColumnsIndependentOfIndexSets(t *testing.T) {
	q := Query{Atoms: []Atom{
		{Relation: "R0", Vars: []string{"x", "z"}},
		{Relation: "R1", Vars: []string{"z", "y"}},
		{Relation: "R3", Vars: []string{"y", "x"}},
	}}
	plain := Database{
		"R0": NewRelation("a", "b").Add(1, 3).Add(2, 3).Add(1, 4),
		"R1": NewRelation("a", "b").Add(3, 5).Add(4, 5).Add(3, 6),
		"R3": NewRelation("a", "b").Add(5, 1).Add(6, 2).Add(5, 2),
	}
	d := handPlan(t, q, [][]int{{1, 2}}, []int{-1})
	want, err := EvaluateCtx(context.Background(), q, plain, d, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if want.Size() == 0 {
		t.Fatal("empty answer: the instance checks nothing")
	}
	_, views := mrelDB(plain)
	for name, db := range map[string]Database{"indexed": indexedDB(plain), "maintained": views} {
		got, err := EvaluateCtx(context.Background(), q, db, d, EvalOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Attrs, want.Attrs) || !reflect.DeepEqual(got.Rows(), want.Rows()) {
			t.Errorf("%s: answer %v %v, over plain relations %v %v",
				name, got.Attrs, got.Rows(), want.Attrs, want.Rows())
		}
	}
}
