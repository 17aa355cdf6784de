// Command logk decomposes a hypergraph file.
//
// Usage:
//
//	logk -graph query.hg -k 3 [-method hybrid] [-workers 8] [-timeout 1h]
//
// The input uses the HyperBench format (name(v1,v2,...) terms separated
// by commas). Methods:
//
//	logk    log-k-decomp (default)
//	hybrid  log-k-decomp with det-k-decomp hybridisation
//	detk    det-k-decomp
//	basic   the unoptimised Algorithm 1 (tiny inputs only)
//	ghd     generalized HD search: det-k-decomp on the hypergraph
//	        augmented with its subedges e ∩ (e₁ ∪ … ∪ e_j), j ≤ k
//
// With -k 0 the tool computes the optimal width with logk, hybrid or
// detk: logk.Optimal decides widths 1, 2, … up to -maxk and stops at the
// first that admits an HD. detk runs as log-k-decomp whose hybrid hands
// the whole hypergraph to det-k-decomp, which is det-k-decomp itself.
// The search answers NO when no width up to -maxk admits one, and
// UNKNOWN with the lower bound it proved when -timeout runs out first.
// A run at -k K > 0 that -timeout stops answers UNKNOWN for width K.
// NO and UNKNOWN exit 1.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"time"

	"repro/internal/decomp"
	"repro/internal/detk"
	"repro/internal/hypergraph"
	"repro/internal/logk"
)

func main() {
	var (
		graphPath = flag.String("graph", "", "hypergraph file (HyperBench format); '-' for stdin")
		k         = flag.Int("k", 0, "width bound; 0 searches for the optimal width")
		method    = flag.String("method", "logk", "logk | hybrid | detk | basic | ghd")
		workers   = flag.Int("workers", 1, "parallel workers for logk/hybrid")
		timeout   = flag.Duration("timeout", time.Hour, "solve budget")
		maxK      = flag.Int("maxk", 10, "width search bound when -k 0")
		dot       = flag.Bool("dot", false, "emit Graphviz dot instead of the tree rendering")
		quiet     = flag.Bool("quiet", false, "print only the verdict line")
		stats     = flag.Bool("stats", false, "print solver statistics (logk/hybrid/detk)")
	)
	flag.Parse()
	if *graphPath == "" {
		fmt.Fprintln(os.Stderr, "logk: -graph is required")
		flag.Usage()
		os.Exit(2)
	}

	h, err := readGraph(*graphPath)
	if err != nil {
		fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	start := time.Now()
	d, width, ok, solverStats, err := solve(ctx, h, *method, *k, *maxK, *workers)
	elapsed := time.Since(start)
	if !ok {
		line, err := noVerdict(*graphPath, *k, *maxK, width, err)
		if err != nil {
			fatal(fmt.Errorf("solve: %w", err))
		}
		fmt.Printf("%s  [%s, %v]\n", line, *method, elapsed)
		os.Exit(1)
	}

	// Re-verify before reporting.
	var verr error
	if *method == "ghd" {
		verr = decomp.CheckGHD(d)
	} else {
		verr = decomp.CheckHD(d)
	}
	if verr == nil {
		verr = decomp.CheckWidth(d, width)
	}
	if verr != nil {
		fatal(fmt.Errorf("internal error: produced decomposition failed validation: %w", verr))
	}

	fmt.Printf("YES: width %d  [%s, %d nodes, depth %d, %v]\n",
		width, *method, d.NumNodes(), d.Depth(), elapsed)
	if !*quiet {
		if *dot {
			fmt.Print(d.DOT())
		} else {
			fmt.Print(d.String())
		}
	}
	if *stats && solverStats != nil {
		fmt.Printf("stats: candidates=%d parent-candidates=%d max-recursion-depth=%d hybrid-calls=%d detk-candidates=%d\n",
			solverStats.Candidates, solverStats.ParentCands, solverStats.MaxDepth, solverStats.HybridCalls, solverStats.DetKCandidates)
	}
}

func readGraph(path string) (*hypergraph.Hypergraph, error) {
	if path == "-" {
		return hypergraph.Parse(os.Stdin)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return hypergraph.Parse(f)
}

// searchOptions returns the log-k-decomp configuration of method, and
// false for a method that is not one: detk hands the whole hypergraph
// to det-k-decomp, as no EdgeCount reaches an infinite threshold.
func searchOptions(method string, workers int) (logk.Options, bool) {
	switch method {
	case "logk":
		return logk.Options{Workers: workers}, true
	case "hybrid":
		return logk.Options{Workers: workers, Hybrid: logk.PaperHybrid, HybridThreshold: logk.PaperHybridThreshold}, true
	case "detk":
		return logk.Options{Hybrid: logk.HybridEdgeCount, HybridThreshold: math.Inf(1)}, true
	}
	return logk.Options{}, false
}

// noVerdict is the answer line of a run that found no decomposition of
// width at most k, or with k = 0 none up to maxK. A run that runs out of
// budget answers UNKNOWN: a width search with lb, the lower bound it
// proved, a decide run with the width it left undecided. Any other
// error is returned as it is.
func noVerdict(graph string, k, maxK, lb int, err error) (string, error) {
	switch {
	case k == 0 && errors.Is(err, context.DeadlineExceeded):
		return fmt.Sprintf("UNKNOWN: hw(%s) >= %d, budget exhausted", graph, lb), nil
	case errors.Is(err, context.DeadlineExceeded):
		return fmt.Sprintf("UNKNOWN: hw(%s) <= %d not decided, budget exhausted", graph, k), nil
	case k == 0:
		k = maxK
	}
	return fmt.Sprintf("NO: hw(%s) > %d", graph, k), err
}

// solve runs method on h at width k, or with k = 0 searches for the
// optimal width up to maxK. The returned width is the decomposition's
// when ok; a width search that finds none returns its proven lower
// bound instead, every smaller width refuted.
func solve(ctx context.Context, h *hypergraph.Hypergraph, method string, k, maxK, workers int) (*decomp.Decomp, int, bool, *logk.Stats, error) {
	opts, isLogK := searchOptions(method, workers)
	if k == 0 {
		if !isLogK {
			return nil, 0, false, nil, fmt.Errorf("width search (-k 0) supports methods logk/hybrid/detk")
		}
		res, err := logk.Optimal(ctx, h, logk.OptimalConfig{Search: opts, KMax: maxK})
		if !res.Found {
			return nil, res.LowerBound, false, &res.Stats, err
		}
		return res.Decomp, res.Width, true, &res.Stats, err
	}

	switch {
	case isLogK:
		opts.K = k
		s := logk.New(h, opts)
		d, ok, err := s.Decompose(ctx)
		st := s.Stats()
		return d, k, ok, &st, err
	case method == "basic":
		d, ok, err := logk.NewBasic(h, k).Decompose(ctx)
		return d, k, ok, nil, err
	case method == "ghd":
		d, ok, err := detk.NewGHD(h, k).Decompose(ctx)
		return d, k, ok, nil, err
	default:
		return nil, 0, false, nil, fmt.Errorf("unknown method %q", method)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "logk:", err)
	os.Exit(1)
}
