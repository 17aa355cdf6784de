// Command benchtab regenerates the tables and figures of the paper's
// evaluation (§5 and Appendix D) over the HyperBench-sim suite, at a
// configurable scale and timeout. `go test -bench=.` runs the same
// experiments at fixed bench scale; benchtab is the knob-turning tool.
//
// Usage:
//
//	benchtab -experiment all -timeout 2s -scale 2 -workers 8
//	benchtab -experiment figure3 -csv scatter.csv
//
// Experiments: table1 table2 table3 table4 table5 figure1 figure3
// depth ghd race all
//
// The race experiment compares the serial k = 1..kmax width ladder
// against the optimal-width racing service pipeline.
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
	"strings"
	"time"

	"repro/internal/harness"
	"repro/internal/hyperbench"
	"repro/internal/logk"
)

func main() {
	var (
		experiment = flag.String("experiment", "all", "which experiment to run")
		timeout    = flag.Duration("timeout", 500*time.Millisecond, "budget per width tried for width-parameterised methods (det-k, log-k, hybrid), per instance for optimal ones (HtdLEO stand-in, racer)")
		scale      = flag.Int("scale", 1, "suite scale factor")
		seed       = flag.Int64("seed", 2022, "suite seed")
		kmax       = flag.Int("kmax", 6, "maximum width to try")
		workers    = flag.Int("workers", runtime.GOMAXPROCS(0), "workers for parallel methods")
		csvPath    = flag.String("csv", "", "write figure3 scatter CSV here")
		rounds     = flag.Int("rounds", 3, "traffic rounds for the race experiment")
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
	ctx := context.Background()

	run := func(name string) error {
		fmt.Printf("\n### %s ###\n\n", name)
		switch name {
		case "table1":
			tab, results := harness.Table1(ctx, cfg)
			if err := firstErr(results); err != nil {
				return err
			}
			fmt.Print(tab.Render())
		case "table2":
			tab, results := harness.Table2(ctx, cfg)
			if err := firstErr(results); err != nil {
				return err
			}
			fmt.Print(tab.Render())
		case "table3":
			tab, results := harness.Table3(ctx, cfg)
			if err := firstErr(results); err != nil {
				return err
			}
			fmt.Print(tab.Render())
		case "table4":
			_, results := harness.Table3(ctx, cfg)
			if err := firstErr(results); err != nil {
				return err
			}
			fmt.Print(harness.Table4(results, len(cfg.Suite), cfg.KMax).Render())
		case "table5":
			tab, results := harness.Table5(ctx, cfg)
			if err := firstErr(results); err != nil {
				return err
			}
			fmt.Print(tab.Render())
		case "figure1":
			cores := []int{1, 2, 3, 4, 5, 6}
			if runtime.GOMAXPROCS(0) < 6 {
				cores = []int{1, 2}
			}
			tab, _ := harness.Figure1(ctx, cfg, cores)
			fmt.Print(tab.Render())
		case "figure3":
			r := harness.Runner{Timeout: cfg.Timeout, KMax: cfg.KMax}
			methods := []harness.Method{
				harness.MethodDetK(), harness.MethodOpt(),
				harness.MethodLogKHybrid(cfg.Workers, logk.PaperHybrid, logk.PaperHybridThreshold),
			}
			results := r.RunAll(ctx, methods, cfg.Suite, cfg.Progress)
			if err := firstErr(results); err != nil {
				return err
			}
			csv, tab := harness.Figure3(results)
			fmt.Print(tab.Render())
			if *csvPath != "" {
				if err := os.WriteFile(*csvPath, []byte(csv), 0o644); err != nil {
					return err
				}
				fmt.Printf("scatter data written to %s\n", *csvPath)
			}
		case "race":
			tab, err := raceExperiment(ctx, cfg, *rounds)
			if err != nil {
				return err
			}
			fmt.Print(tab.Render())
		case "depth":
			fmt.Print(harness.DepthExperiment(ctx, []int{16, 32, 64, 128, 256, 512}).Render())
		case "ghd":
			var small []hyperbench.Instance
			for _, in := range cfg.Suite {
				if in.Edges() <= 30 {
					small = append(small, in)
				}
			}
			gcfg := cfg
			gcfg.Suite = small
			tab, err := harness.GHDComparison(ctx, gcfg)
			if err != nil {
				return err
			}
			fmt.Print(tab.Render())
		default:
			return fmt.Errorf("unknown experiment %q", name)
		}
		return nil
	}

	names := []string{*experiment}
	if *experiment == "all" {
		names = []string{"table1", "table2", "table3", "table4", "table5",
			"figure1", "figure3", "depth", "ghd", "race"}
	}
	for _, n := range names {
		if err := run(strings.TrimSpace(n)); err != nil {
			fmt.Fprintln(os.Stderr, "benchtab:", err)
			os.Exit(1)
		}
	}
}

func firstErr(results []harness.Result) error {
	for _, r := range results {
		if r.Err != nil {
			return fmt.Errorf("%s on %s: %w", r.Method, r.Instance.Name, r.Err)
		}
	}
	return nil
}
