// scaling: a miniature of the paper's Figure 1 — measure how the
// log-k-decomp separator search speeds up with the number of workers on
// a single instance. At each worker count it times the full
// optimal-width solve, logk.Optimal's width ladder k = 1..k.
//
// Run with: go run ./examples/scaling [-n 36] [-k 3]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"runtime"
	"strconv"
	"time"

	"repro/internal/hypergraph"
	"repro/internal/logk"
)

func main() {
	n := flag.Int("n", 36, "cylinder length (3n edges)")
	k := flag.Int("k", 3, "width bound")
	flag.Parse()

	h := cylinder(*n)
	fmt.Printf("instance: cylinder(%d) — %d edges, %d vertices, k = %d\n",
		*n, h.NumEdges(), h.NumVertices(), *k)
	fmt.Printf("machine: GOMAXPROCS = %d\n\n", runtime.GOMAXPROCS(0))
	fmt.Printf("%-8s  %-12s  %s\n", "workers", "optimal", "speedup")

	var base time.Duration
	for _, workers := range []int{1, 2, 4, 8} {
		if workers > runtime.GOMAXPROCS(0) {
			break
		}
		// Like the paper's Figure 1 we time the full optimal-width
		// solve: refuting widths 1..k-1 plus finding the width-k HD.
		// Refutations explore the entire separator search space, which
		// is where partitioning it across workers pays off. Median of 3.
		var times []time.Duration
		for rep := 0; rep < 3; rep++ {
			start := time.Now()
			res, err := logk.Optimal(context.Background(), h, logk.OptimalConfig{
				Search: logk.Options{Workers: workers,
					Hybrid: logk.PaperHybrid, HybridThreshold: logk.PaperHybridThreshold},
				KMax: *k,
			})
			if err != nil {
				log.Fatalf("workers=%d: %v", workers, err)
			}
			if !res.Found || res.Width != *k {
				log.Fatalf("workers=%d: found=%v width=%d, want %d", workers, res.Found, res.Width, *k)
			}
			times = append(times, time.Since(start))
		}
		t := median(times)
		if workers == 1 {
			base = t
		}
		fmt.Printf("%-8d  %-12v  %.2fx\n", workers, t.Round(time.Microsecond), float64(base)/float64(t))
	}
}

func cylinder(n int) *hypergraph.Hypergraph {
	var b hypergraph.Builder
	for i := 0; i < n; i++ {
		j := (i + 1) % n
		b.MustAddEdge("", "a"+strconv.Itoa(i), "a"+strconv.Itoa(j))
		b.MustAddEdge("", "b"+strconv.Itoa(i), "b"+strconv.Itoa(j))
		b.MustAddEdge("", "a"+strconv.Itoa(i), "b"+strconv.Itoa(i))
	}
	return b.Build()
}

func median(ts []time.Duration) time.Duration {
	for i := 1; i < len(ts); i++ {
		for j := i; j > 0 && ts[j] < ts[j-1]; j-- {
			ts[j], ts[j-1] = ts[j-1], ts[j]
		}
	}
	return ts[len(ts)/2]
}
