// Package csp_test checks CSP solving end to end through the public API,
// the path examples/cspsolve takes. A CSP is a conjunctive query: each
// constraint table is a relation and each scope an atom over it, so
// htd.EvalQuery (decompose at the optimal width, then Yannakakis)
// enumerates its solutions and htd.EvalQueryNaive is the oracle. The
// directory holds tests only; there is no CSP-specific solver.
package csp_test

import (
	"context"
	"reflect"
	"strconv"
	"strings"
	"testing"

	htd "repro"
)

// square and triangle are the constraint graphs of the coloring tests:
// an even and an odd cycle.
var (
	square   = [][2]string{{"a", "b"}, {"b", "c"}, {"c", "d"}, {"d", "a"}}
	triangle = [][2]string{{"a", "b"}, {"b", "c"}, {"c", "a"}}
)

// csp is a CSP posed as a CQ over its constraint tables.
type csp struct {
	q  htd.CQ
	db htd.Database
}

// coloring poses the k-coloring of a graph, given as vertex-name pairs,
// as a CQ: one atom neq(u,v) per edge over a relation holding every
// pair of distinct colors 0..colors-1.
func coloring(t *testing.T, edges [][2]string, colors int) csp {
	t.Helper()
	neq := htd.NewRelation("c1", "c2")
	for a := 0; a < colors; a++ {
		for b := 0; b < colors; b++ {
			if a != b {
				neq.Add(a, b)
			}
		}
	}
	atoms := make([]string, len(edges))
	for i, e := range edges {
		atoms[i] = "neq(" + e[0] + "," + e[1] + ")"
	}
	q, err := htd.ParseCQ(strings.Join(atoms, ", ") + ".")
	if err != nil {
		t.Fatal(err)
	}
	return csp{q, htd.Database{"neq": neq}}
}

// ternaryChain is a chain of four ternary parity constraints over
// x0..x5, each sharing two variables with the next.
func ternaryChain(t *testing.T) csp {
	t.Helper()
	par := htd.NewRelation("p1", "p2", "p3")
	for a := 0; a < 3; a++ {
		for b := 0; b < 3; b++ {
			for c := 0; c < 3; c++ {
				if (a+b+c)%2 == 0 {
					par.Add(a, b, c)
				}
			}
		}
	}
	atoms := make([]string, 4)
	for i := range atoms {
		atoms[i] = "par(x" + strconv.Itoa(i) + ",x" + strconv.Itoa(i+1) + ",x" + strconv.Itoa(i+2) + ")"
	}
	q, err := htd.ParseCQ(strings.Join(atoms, ", ") + ".")
	if err != nil {
		t.Fatal(err)
	}
	return csp{q, htd.Database{"par": par}}
}

// prism returns the edges of the n-prism: two n-cycles a0..a(n-1) and
// b0..b(n-1) joined by rungs (hw 3 for n ≥ 4), the graph
// examples/cspsolve colours.
func prism(n int) [][2]string {
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

// solve answers p through a fresh service's query planner.
func solve(t *testing.T, p csp, maxWidth int) (htd.QueryResult, error) {
	t.Helper()
	svc := htd.NewService(htd.ServiceConfig{})
	t.Cleanup(func() { svc.Close() })
	return htd.EvalQuery(context.Background(), svc, htd.QueryRequest{Query: p.q, DB: p.db, MaxWidth: maxWidth})
}

func TestColoringCycleEven(t *testing.T) {
	// An even cycle is 2-colorable: exactly 2 solutions.
	res, err := solve(t, coloring(t, square, 2), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows.Size() != 2 {
		t.Fatalf("even cycle 2-coloring: %d solutions, want 2", res.Rows.Size())
	}
	if res.Width != 2 {
		t.Fatalf("cycle constraint graph width = %d, want 2", res.Width)
	}
}

func TestColoringCycleOddUnsat(t *testing.T) {
	// An odd cycle is not 2-colorable: an empty answer, not an error.
	res, err := solve(t, coloring(t, triangle, 2), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows.Size() != 0 {
		t.Fatalf("odd cycle 2-coloring: %d solutions, want 0", res.Rows.Size())
	}
}

func TestColoringTriangleThreeColors(t *testing.T) {
	res, err := solve(t, coloring(t, triangle, 3), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows.Size() != 6 {
		t.Fatalf("triangle 3-coloring: %d solutions, want 6 (=3!)", res.Rows.Size())
	}
}

// TestSolveMatchesBacktrack: on a chain of ternary constraints the
// decomposition's solutions are exactly the oracle's, the naive
// left-to-right join of every constraint table.
func TestSolveMatchesBacktrack(t *testing.T) {
	p := ternaryChain(t)
	res, err := solve(t, p, 0)
	if err != nil {
		t.Fatal(err)
	}
	naive, err := htd.EvalQueryNaive(p.q, p.db)
	if err != nil {
		t.Fatal(err)
	}
	want, err := htd.CanonicalRows(naive)
	if err != nil {
		t.Fatal(err)
	}
	if want.Size() == 0 {
		t.Fatal("ternary chain has no solutions; the comparison would be vacuous")
	}
	if !reflect.DeepEqual(res.Rows.Attrs, want.Attrs) || !reflect.DeepEqual(res.Rows.Rows(), want.Rows()) {
		t.Fatalf("decomposition found %d solutions, naive join %d, or the sets differ",
			res.Rows.Size(), want.Size())
	}
}

// TestSolveWidthIsOptimal: a CSP is decomposed at its constraint
// hypergraph's hypertree width, the first width a plain det-k loop
// (k = 1, 2, …) accepts, and that loop's decomposition is a valid HD of
// that width.
func TestSolveWidthIsOptimal(t *testing.T) {
	cases := []struct {
		name string
		p    csp
	}{
		{"square-2", coloring(t, square, 2)},
		{"triangle-2", coloring(t, triangle, 2)},
		{"triangle-3", coloring(t, triangle, 3)},
		{"ternary-chain", ternaryChain(t)},
		{"prism-8", coloring(t, prism(8), 3)},
	}
	ctx := context.Background()
	for _, tc := range cases {
		res, err := solve(t, tc.p, 4)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		h, err := tc.p.q.Hypergraph()
		if err != nil {
			t.Fatal(err)
		}
		want := 0
		for k := 1; want == 0; k++ {
			d, ok, err := htd.DecomposeDetK(ctx, h, k)
			if err != nil {
				t.Fatal(err)
			}
			if ok {
				want = k
				if err := htd.Validate(d); err != nil {
					t.Fatalf("%s: %v", tc.name, err)
				}
				if err := htd.ValidateWidth(d, k); err != nil {
					t.Fatalf("%s: %v", tc.name, err)
				}
			}
		}
		if res.Width != want {
			t.Fatalf("%s: plan width %d, det-k loop %d", tc.name, res.Width, want)
		}
	}
}

func TestSolveErrors(t *testing.T) {
	// The empty CSP, no constraints at all, is an error both ways.
	empty := csp{db: htd.Database{}}
	if _, err := solve(t, empty, 0); err == nil {
		t.Fatal("empty problem should error")
	}
	if _, err := htd.EvalQueryNaive(empty.q, empty.db); err == nil {
		t.Fatal("empty problem should error in the naive join too")
	}
}

func TestWidthBoundExceeded(t *testing.T) {
	// K_8's constraint graph has hw 4 > MaxWidth 1.
	var edges [][2]string
	for i := 0; i < 8; i++ {
		for j := i + 1; j < 8; j++ {
			edges = append(edges, [2]string{"v" + strconv.Itoa(i), "v" + strconv.Itoa(j)})
		}
	}
	if _, err := solve(t, coloring(t, edges, 3), 1); err == nil {
		t.Fatal("width bound 1 on a clique should error")
	}
}
