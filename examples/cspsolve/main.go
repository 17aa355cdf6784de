// cspsolve: solve a constraint satisfaction problem through its
// hypertree decomposition — the paper's second motivating application.
//
// A CSP is a conjunctive query: each constraint table is a relation and
// each scope an atom over it, so the query planner that answers CQs
// (decompose at the optimal width, then run Yannakakis over the bags)
// enumerates the CSP's solutions. Here the CSP is 3-colouring of the
// 8-prism (two 8-cycles joined by rungs): one atom neq(u,v) per edge,
// all over one relation holding the pairs of distinct colours. Its
// hypergraph has hypertree width 3. The planner's answer is
// cross-checked against the naive left-to-right join.
//
// Run with: go run ./examples/cspsolve
package main

import (
	"context"
	"fmt"
	"log"
	"reflect"
	"strconv"
	"strings"
	"time"

	htd "repro"
)

// coloring poses the k-colouring of a graph, given as vertex-name
// pairs, as a CQ: one atom neq(u,v) per edge over a relation holding
// every pair of distinct colours 0..colors-1.
func coloring(edges [][2]string, colors int) (htd.CQ, htd.Database, error) {
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
	return q, htd.Database{"neq": neq}, err
}

func main() {
	// Prism graph edges: two concentric cycles a0..a7, b0..b7 plus rungs.
	const n = 8
	var edges [][2]string
	for i := 0; i < n; i++ {
		j := (i + 1) % n
		edges = append(edges,
			[2]string{"a" + strconv.Itoa(i), "a" + strconv.Itoa(j)},
			[2]string{"b" + strconv.Itoa(i), "b" + strconv.Itoa(j)},
			[2]string{"a" + strconv.Itoa(i), "b" + strconv.Itoa(i)},
		)
	}
	q, db, err := coloring(edges, 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("CSP: 3-coloring of the %d-prism as a CQ (%d atoms over neq)\n", n, len(q.Atoms))

	svc := htd.NewService(htd.ServiceConfig{})
	defer svc.Close()
	ctx := context.Background()
	start := time.Now()
	res, err := htd.EvalQuery(ctx, svc, htd.QueryRequest{Query: q, DB: db})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("decomposition width: %d\n", res.Width)
	fmt.Printf("solutions via decomposition: %d in %v\n", res.Rows.Size(), time.Since(start).Round(time.Microsecond))

	start = time.Now()
	naive, err := htd.EvalQueryNaive(q, db)
	if err != nil {
		log.Fatal(err)
	}
	canon, err := htd.CanonicalRows(naive)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("solutions via naive join:    %d in %v\n", canon.Size(), time.Since(start).Round(time.Microsecond))

	if !reflect.DeepEqual(res.Rows.Attrs, canon.Attrs) || !reflect.DeepEqual(res.Rows.Rows(), canon.Rows()) {
		log.Fatal("solution sets disagree — this is a bug")
	}
	fmt.Println("results agree ✓")

	// One concrete coloring, for show: the first canonical row, whose
	// columns are the variables in sorted order.
	if res.Rows.Size() > 0 {
		first := res.Rows.Rows()[0]
		fmt.Print("example coloring: ")
		for i, v := range res.Rows.Attrs {
			if i > 0 {
				fmt.Print(" ")
			}
			fmt.Printf("%s=%d", v, first[i])
		}
		fmt.Println()
	}
}
