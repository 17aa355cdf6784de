// Command benchtab regenerates the tables and figures of the paper's
// evaluation (§5 and Appendix D) over the HyperBench-sim suite, at a
// configurable scale and timeout. It is its flags plus one call to
// harness.Run, the experiment driver `go test -bench=.` runs at fixed
// bench scale; benchtab is the knob-turning tool.
//
// Usage:
//
//	benchtab -experiment all -timeout 2s -scale 2 -workers 8
//	benchtab -experiment table1,table5 -scale 4 -timeout 1s
//	benchtab -experiment figure3 -csv scatter.csv
//
// Experiments: table1 table2 table3 table4 table5 figure1 figure3
// depth ghd, or all. -experiment takes a comma-separated list, and one
// invocation runs each (method configuration, instance, budget) once,
// whichever listed experiments read it: Tables 1, 3 and 4 and Figure 3
// are views of one roster run, Table 5's 1× column is its HtdLEO
// column, Table 2 and Figure 1 reuse its det-k, HtdLEO and hybrid runs
// on the large instances, and the GHD comparison its hybrid runs.
//
// The service's layers are measured end to end by perfbench/ (see
// perfbench/README.md) against a live htdserve. Their allocation and
// disk-I/O budgets are `go test` tests: TestExecutorAllocBudget and
// TestMaintenanceAllocBudget in internal/join, TestDiskTierIOBudget in
// internal/service.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/harness"
	"repro/internal/hyperbench"
)

func main() {
	var (
		experiment = flag.String("experiment", "all", "comma-separated experiments to run: table1 table2 table3 table4 table5 figure1 figure3 depth ghd, or all")
		timeout    = flag.Duration("timeout", 500*time.Millisecond, "budget per width tried for width-parameterised methods (det-k, log-k, hybrid), per instance for optimal ones (HtdLEO stand-in, width ladder)")
		scale      = flag.Int("scale", 1, "suite scale factor")
		seed       = flag.Int64("seed", 2022, "suite seed")
		kmax       = flag.Int("kmax", 6, "maximum width to try")
		workers    = flag.Int("workers", runtime.GOMAXPROCS(0), "workers for parallel methods")
		csvPath    = flag.String("csv", "", "write figure3 scatter CSV here")
		quiet      = flag.Bool("quiet", false, "suppress progress output")
	)
	flag.Parse()

	cfg := harness.Config{
		Suite:   hyperbench.Suite(hyperbench.Config{Scale: *scale, Seed: *seed}),
		Timeout: *timeout,
		KMax:    *kmax,
		Workers: *workers,
	}
	if !*quiet {
		cfg.Progress = func(done, total int) {
			if done%25 == 0 || done == total {
				fmt.Fprintf(os.Stderr, "\r%d/%d runs", done, total)
				if done == total {
					fmt.Fprintln(os.Stderr)
				}
			}
		}
	}
	csv, err := harness.Run(context.Background(), cfg, *experiment, os.Stdout)
	if err == nil && *csvPath != "" && csv != "" {
		if err = os.WriteFile(*csvPath, []byte(csv), 0o644); err == nil {
			fmt.Printf("scatter data written to %s\n", *csvPath)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchtab:", err)
		os.Exit(1)
	}
}
