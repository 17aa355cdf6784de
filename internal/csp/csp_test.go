package csp

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"testing"

	"repro/internal/decomp"
	"repro/internal/detk"
)

// square and triangle are the constraint graphs of the coloring tests:
// an even and an odd cycle.
var (
	square   = [][2]string{{"a", "b"}, {"b", "c"}, {"c", "d"}, {"d", "a"}}
	triangle = [][2]string{{"a", "b"}, {"b", "c"}, {"c", "a"}}
)

// ternaryChain is a chain of four ternary parity constraints over
// x0..x5, each sharing two variables with the next.
func ternaryChain() *Problem {
	var p Problem
	for i := 0; i < 4; i++ {
		vars := []string{"x" + strconv.Itoa(i), "x" + strconv.Itoa(i+1), "x" + strconv.Itoa(i+2)}
		var rows [][]int
		for a := 0; a < 3; a++ {
			for b := 0; b < 3; b++ {
				for c := 0; c < 3; c++ {
					if (a+b+c)%2 == 0 {
						rows = append(rows, []int{a, b, c})
					}
				}
			}
		}
		p.AddConstraint(vars, rows)
	}
	return &p
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

func TestColoringCycleEven(t *testing.T) {
	// An even cycle is 2-colorable: exactly 2 solutions.
	p := Coloring(square, 2)
	res, err := Solve(context.Background(), p, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Solutions.Size() != 2 {
		t.Fatalf("even cycle 2-coloring: %d solutions, want 2", res.Solutions.Size())
	}
	if res.Width != 2 {
		t.Fatalf("cycle constraint graph width = %d, want 2", res.Width)
	}
}

func TestColoringCycleOddUnsat(t *testing.T) {
	// An odd cycle is not 2-colorable.
	p := Coloring(triangle, 2)
	res, err := Solve(context.Background(), p, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Solutions.Size() != 0 {
		t.Fatalf("odd cycle 2-coloring: %d solutions, want 0", res.Solutions.Size())
	}
}

func TestColoringTriangleThreeColors(t *testing.T) {
	p := Coloring(triangle, 3)
	res, err := Solve(context.Background(), p, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Solutions.Size() != 6 {
		t.Fatalf("triangle 3-coloring: %d solutions, want 6 (=3!)", res.Solutions.Size())
	}
}

func TestSolveMatchesBacktrack(t *testing.T) {
	// Random-ish structured CSP: a chain of ternary constraints.
	p := ternaryChain()
	res, err := Solve(context.Background(), p, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	bt, err := SolveBacktrack(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Solutions.Size() != len(bt) {
		t.Fatalf("decomposition solver found %d solutions, backtracking %d",
			res.Solutions.Size(), len(bt))
	}
	// Compare the actual assignment sets.
	vars := p.Variables()
	fromBT := map[string]bool{}
	for _, sol := range bt {
		fromBT[assignmentKey(sol, vars)] = true
	}
	proj, err := res.Solutions.Project(vars...)
	if err != nil {
		t.Fatal(err)
	}
	for _, tup := range proj.Sorted() {
		sol := map[string]int{}
		for i, v := range vars {
			sol[v] = tup[i]
		}
		if !fromBT[assignmentKey(sol, vars)] {
			t.Fatalf("decomposition solver produced spurious solution %v", sol)
		}
	}
}

// TestSolveWidthIsOptimal: Solve decomposes at the constraint
// hypergraph's hypertree width, the first width a plain det-k loop
// (k = 1, 2, …) accepts, and its decomposition is a valid HD of that
// width.
func TestSolveWidthIsOptimal(t *testing.T) {
	cases := []struct {
		name string
		p    *Problem
	}{
		{"square-2", Coloring(square, 2)},
		{"triangle-2", Coloring(triangle, 2)},
		{"triangle-3", Coloring(triangle, 3)},
		{"ternary-chain", ternaryChain()},
		{"prism-8", Coloring(prism(8), 3)},
	}
	ctx := context.Background()
	for _, tc := range cases {
		res, err := Solve(ctx, tc.p, SolveOptions{MaxWidth: 4, Workers: 2})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if err := decomp.CheckHD(res.Decomp); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if err := decomp.CheckWidth(res.Decomp, res.Width); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		q, _, err := tc.p.asQuery()
		if err != nil {
			t.Fatal(err)
		}
		h, err := q.Hypergraph()
		if err != nil {
			t.Fatal(err)
		}
		want := 0
		for k := 1; want == 0; k++ {
			_, ok, err := detk.New(h, k).Decompose(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if ok {
				want = k
			}
		}
		if res.Width != want {
			t.Fatalf("%s: Solve width %d, det-k loop %d", tc.name, res.Width, want)
		}
	}
}

func assignmentKey(sol map[string]int, vars []string) string {
	s := ""
	for _, v := range vars {
		s += fmt.Sprintf("%s=%d;", v, sol[v])
	}
	return s
}

func TestBacktrackSimple(t *testing.T) {
	var p Problem
	p.AddConstraint([]string{"x", "y"}, [][]int{{0, 1}, {1, 0}})
	sols, err := SolveBacktrack(&p)
	if err != nil {
		t.Fatal(err)
	}
	if len(sols) != 2 {
		t.Fatalf("got %d solutions, want 2", len(sols))
	}
}

func TestVariablesSorted(t *testing.T) {
	var p Problem
	p.AddConstraint([]string{"z", "a"}, [][]int{{0, 0}})
	p.AddConstraint([]string{"m"}, [][]int{{1}})
	vars := p.Variables()
	if !sort.StringsAreSorted(vars) || len(vars) != 3 {
		t.Fatalf("Variables = %v", vars)
	}
}

func TestSolveErrors(t *testing.T) {
	var empty Problem
	if _, err := Solve(context.Background(), &empty, SolveOptions{}); err == nil {
		t.Fatal("empty problem should error")
	}
	if _, err := SolveBacktrack(&empty); err == nil {
		t.Fatal("empty problem should error in backtracking too")
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
	p := Coloring(edges, 3)
	if _, err := Solve(context.Background(), p, SolveOptions{MaxWidth: 1}); err == nil {
		t.Fatal("width bound 1 on a clique should error")
	}
}
