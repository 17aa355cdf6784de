// Serve example: the decomposition service as a library. It drives
// htd.Service directly — concurrent submissions over a shared worker
// budget, a batch, and the cross-request cache paying off on a
// repeated hypergraph — and exits non-zero on a wrong answer:
//
//	go run ./examples/serve
//
// cmd/htdserve serves the same Service over HTTP.
package main

import (
	"context"
	"fmt"
	"log"
	"sync"
	"time"

	htd "repro"
)

func main() {
	svc := htd.NewService(htd.ServiceConfig{
		TokenBudget:    4,
		MaxConcurrent:  4,
		DefaultTimeout: 30 * time.Second,
	})
	defer svc.Close()
	ctx := context.Background()

	// The paper's cyclic 10-relation query (hw = 2), submitted 8 times
	// concurrently: all jobs share the 4-token worker budget, and one
	// solver runs: the other seven share its result.
	cyclic, err := htd.ParseString(`
		R1(x1,x2), R2(x2,x3), R3(x3,x4), R4(x4,x5), R5(x5,x6),
		R6(x6,x7), R7(x7,x8), R8(x8,x9), R9(x9,x10), R10(x10,x1).`)
	if err != nil {
		log.Fatal(err)
	}
	var wg sync.WaitGroup
	results := make([]htd.ServiceResult, 8)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = svc.Submit(ctx, htd.ServiceRequest{H: cyclic, K: 2})
		}(i)
	}
	wg.Wait()
	shared := 0
	for i, r := range results {
		if r.Err != nil || !r.OK {
			log.Fatalf("job %d: ok=%v err=%v", i, r.OK, r.Err)
		}
		if r.CacheShared {
			shared++
		}
		fmt.Printf("job %d: width=%d nodes=%d cache_shared=%v elapsed=%v\n",
			i, r.Decomp.Width(), r.Decomp.NumNodes(), r.CacheShared, r.Elapsed.Round(time.Microsecond))
	}
	if runs := svc.Stats().SolverRuns; runs != 1 || shared != len(results)-1 {
		log.Fatalf("%d concurrent submissions: %d solver runs and %d cache_shared, want 1 and %d",
			len(results), runs, shared, len(results)-1)
	}

	// A mixed batch, results in request order.
	triangle, err := htd.ParseString("r1(x,y), r2(y,z), r3(z,x).")
	if err != nil {
		log.Fatal(err)
	}
	batch := svc.Batch(ctx, []htd.ServiceRequest{
		{H: triangle, K: 2},
		{H: triangle, K: 1}, // definitive NO
		{H: cyclic, K: 2},   // answered from the cache
	})
	fmt.Println("\nbatch:")
	for i, r := range batch {
		fmt.Printf("  [%d] ok=%v cache_hit=%v lower_bound=%d err=%v\n", i, r.OK, r.CacheHit, r.LowerBound, r.Err)
	}
	if r := batch[0]; !r.OK || r.Err != nil {
		log.Fatalf("triangle k=2: ok=%v err=%v, want YES", r.OK, r.Err)
	}
	if r := batch[1]; r.OK || r.Err != nil || r.LowerBound != 2 {
		log.Fatalf("triangle k=1: ok=%v err=%v lower_bound=%d, want NO with lower bound 2", r.OK, r.Err, r.LowerBound)
	}
	if r := batch[2]; !r.OK || !r.CacheHit {
		log.Fatalf("repeated cyclic query: ok=%v cache_hit=%v, want a cache hit", r.OK, r.CacheHit)
	}

	st := svc.Stats()
	fmt.Printf("\nservice stats: submitted=%d completed=%d solver_runs=%d cache_reuses=%d memo_graphs=%d memo_entries=%d tokens_high_water=%d/%d\n",
		st.Submitted, st.Completed, st.SolverRuns, st.CacheReuses, st.MemoGraphs, st.MemoEntries,
		st.TokensHighWater, st.TokenBudget)
}
