// Quickstart: parse a conjunctive query's hypergraph, compute a
// hypertree decomposition with log-k-decomp, validate it, and print it.
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	htd "repro"
)

func main() {
	// The running example of the paper's Appendix B: a cyclic join query
	// over ten binary relations (hypertree width 2).
	src := `
		% cyclic conjunctive query, hw = 2
		R1(x1,x2), R2(x2,x3), R3(x3,x4), R4(x4,x5), R5(x5,x6),
		R6(x6,x7), R7(x7,x8), R8(x8,x9), R9(x9,x10), R10(x10,x1).`

	h, err := htd.ParseString(src)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("hypergraph: %d vertices, %d edges, acyclic=%v\n",
		h.NumVertices(), h.NumEdges(), h.IsAcyclic())

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// Width 1 must fail: the query is cyclic.
	if _, ok, err := htd.DecomposeK(ctx, h, 1); err != nil || ok {
		log.Fatalf("expected rejection at width 1 (ok=%v err=%v)", ok, err)
	}
	fmt.Println("width 1: no HD exists (query is cyclic)")

	// Width 2 succeeds; use 4 workers for the separator search.
	d, ok, err := htd.Decompose(ctx, h, htd.Options{K: 2, Workers: 4})
	if err != nil {
		log.Fatal(err)
	}
	if !ok {
		log.Fatal("expected an HD of width 2")
	}
	if err := htd.Validate(d); err != nil {
		log.Fatalf("validation failed: %v", err)
	}
	fmt.Printf("width 2: found a valid HD with %d nodes (depth %d)\n\n",
		d.NumNodes(), d.Depth())
	fmt.Print(d)

	// The exact width: every width below it refuted, up to width 5.
	w, _, ok, err := htd.DecomposeOptimal(ctx, h, htd.OptimalOptions{KMax: 5})
	if err != nil || !ok {
		log.Fatalf("optimal width: ok=%v err=%v", ok, err)
	}
	fmt.Printf("\noptimal hypertree width: %d\n", w)
}
