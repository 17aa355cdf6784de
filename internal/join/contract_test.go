package join

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/decomp"
	"repro/internal/logk"
)

// contractShapes are the query shapes of perfbench's query workloads.
// builds marks the shapes whose hybrid plans had a bag inside a
// neighbour's before contraction.
var contractShapes = []struct {
	name, query, aggregate string
	builds                 bool
}{
	{"triangle-rows", "R(x,y), S(y,z), T(z,x).", "", true},
	{"triangle-sum", "R(x,y), S(y,z), T(z,x).", "sum(z)", true},
	{"selective-path-rows", "V(a,x), R(x,y), S(y,z).", "", false},
	{"bowtie-count", "R(x,y), S(y,z), T(z,x), U(x,w), V(w,u).", "count", true},
	{"four-cycle-rows", "R(x,y), S(y,z), T(z,w), U(w,x).", "", true},
	{"four-cycle-group", "R(x,y), S(y,z), T(z,w), U(w,x).", "group x: count", true},
	{"path-rows", "R(x,y), S(y,z).", "", false},
	{"path-count", "R(x,y), S(y,z), T(z,w).", "count", false},
	{"star-group", "R(x,y), S(x,z), T(x,w).", "group x: count", false},
}

// ladderPlan is the optimal-width plan logk.Optimal finds for q under
// the given hybrid metric (at the paper's threshold).
func ladderPlan(t *testing.T, q Query, metric logk.HybridMetric) *decomp.Decomp {
	t.Helper()
	h, err := q.Hypergraph()
	if err != nil {
		t.Fatal(err)
	}
	res, err := logk.Optimal(context.Background(), h, logk.OptimalConfig{
		Search: logk.Options{Hybrid: metric, HybridThreshold: logk.PaperHybridThreshold},
		KMax:   len(q.Atoms),
	})
	if err != nil || !res.Found {
		t.Fatalf("no plan (found=%v err=%v)", res.Found, err)
	}
	return res.Decomp
}

// countNodes is the number of nodes in the tree rooted at n.
func countNodes(n *decomp.Node) int {
	c := 0
	n.Walk(func(*decomp.Node) bool { c++; return true })
	return c
}

// TestContractionSolverIndependent is the wall of the execution tree:
// after contraction, the plans log-k-decomp and the paper's hybrid find
// for perfbench's query shapes have the same node count, and where the
// hybrid's plan had a bag inside its neighbour's, a warm evaluation
// builds as many indexes as log-k's. Counts, not times.
func TestContractionSolverIndependent(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	plain := Database{}
	for _, name := range []string{"R", "S", "T", "U", "V"} {
		rel := NewRelation("c1", "c2")
		for i := 0; i < 300; i++ {
			rel.Add(r.Intn(40), r.Intn(40))
		}
		plain[name] = rel
	}
	db := indexedDB(plain)
	for _, sh := range contractShapes {
		t.Run(sh.name, func(t *testing.T) {
			q, err := ParseQuery(sh.query)
			if err != nil {
				t.Fatal(err)
			}
			var nodes, builds [2]int64
			for i, metric := range []logk.HybridMetric{logk.HybridNone, logk.PaperHybrid} {
				d := ladderPlan(t, q, metric)
				tree, _, err := execTree(q, d)
				if err != nil {
					t.Fatal(err)
				}
				nodes[i] = int64(countNodes(tree))
				// The second run is warm: base indexes are reused, so
				// builds count the plan's own intermediates.
				var st ExecStats
				for run := 0; run < 2; run++ {
					st = ExecStats{}
					opts := EvalOptions{Stats: &st}
					if sh.aggregate != "" {
						spec, err := ParseAggregate(sh.aggregate)
						if err != nil {
							t.Fatal(err)
						}
						_, err = AggregateCtx(context.Background(), q, db, d, spec, opts)
					} else {
						_, err = EvaluateCtx(context.Background(), q, db, d, opts)
					}
					if err != nil {
						t.Fatal(err)
					}
				}
				builds[i] = st.IndexBuilds
			}
			t.Logf("nodes log-k/hybrid %d/%d, warm index builds %d/%d", nodes[0], nodes[1], builds[0], builds[1])
			if nodes[0] != nodes[1] {
				t.Errorf("contracted plans have %d (log-k) and %d (hybrid) nodes", nodes[0], nodes[1])
			}
			if sh.builds && builds[0] != builds[1] {
				t.Errorf("warm index builds: %d (log-k), %d (hybrid)", builds[0], builds[1])
			}
		})
	}
}

// TestContractionProperties: on random optimal-width HDs, contraction never
// adds a node, leaves the HD itself untouched (returning its very root
// when there is nothing to contract), yields a GHD no wider than the HD
// with every atom hosted at a node covering it, and keeps the answer
// equal to EvaluateNaive's.
func TestContractionProperties(t *testing.T) {
	contracted := 0
	for seed := int64(0); seed < 40; seed++ {
		r := rand.New(rand.NewSource(500 + seed))
		q, db := randomInstanceForExec(r, 2+int(seed%6), 25, 5)
		for _, metric := range []logk.HybridMetric{logk.HybridNone, logk.PaperHybrid} {
			d := ladderPlan(t, q, metric)
			before := d.String()
			tree, coverOf, err := execTree(q, d)
			if err != nil {
				t.Fatal(err)
			}
			if d.String() != before {
				t.Fatalf("seed %d: contraction mutated the HD:\n%s\nnow\n%s", seed, before, d.String())
			}
			n := countNodes(tree)
			if n > d.NumNodes() {
				t.Fatalf("seed %d: %d nodes after contraction, %d before", seed, n, d.NumNodes())
			}
			if n == d.NumNodes() && tree != d.Root {
				t.Fatalf("seed %d: nothing contracted, yet the root was copied", seed)
			}
			if n < d.NumNodes() {
				contracted++
			}
			jt := &decomp.Decomp{H: d.H, Root: tree}
			if err := decomp.CheckGHD(jt); err != nil {
				t.Fatalf("seed %d: execution tree is no join tree: %v\n%s", seed, err, jt)
			}
			if jt.Width() > d.Width() {
				t.Fatalf("seed %d: width %d after contraction, %d before", seed, jt.Width(), d.Width())
			}
			hosted := 0
			tree.Walk(func(u *decomp.Node) bool {
				for _, e := range coverOf[u] {
					if !d.H.Edge(e).SubsetOf(u.Bag) {
						t.Fatalf("seed %d: atom %d hosted at a node not covering it", seed, e)
					}
					hosted++
				}
				return true
			})
			if hosted != len(q.Atoms) {
				t.Fatalf("seed %d: %d of %d atoms hosted", seed, hosted, len(q.Atoms))
			}
			got, err := EvaluateCtx(context.Background(), q, db, d, EvalOptions{})
			if err != nil {
				t.Fatal(err)
			}
			want, err := EvaluateNaive(q, db)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Canonical().Rows(), want.Canonical().Rows()) {
				t.Fatalf("seed %d: answer differs from EvaluateNaive's", seed)
			}
		}
	}
	if contracted == 0 {
		t.Fatal("no plan had anything to contract: the instances check nothing")
	}
	t.Logf("%d of 80 plans contracted", contracted)
}
