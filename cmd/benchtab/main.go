// Command benchtab regenerates the tables and figures of the paper's
// evaluation (§5 and Appendix D) over the HyperBench-sim suite, at a
// configurable scale and timeout. `go test -bench=.` runs the same
// experiments at fixed bench scale; benchtab is the knob-turning tool.
//
// Usage:
//
//	benchtab -experiment all -timeout 2s -scale 2 -workers 8
//	benchtab -experiment table1,table5 -scale 4 -timeout 1s
//	benchtab -experiment figure3 -csv scatter.csv
//
// Experiments: table1 table2 table3 table4 table5 figure1 figure3
// depth ghd, or all. -experiment takes a comma-separated list; one
// invocation runs the paper sweep (harness.PaperSweep) behind table1,
// table3, table4, table5 and figure3 once and prints each view of it.
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
	"io"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"

	"repro/internal/harness"
	"repro/internal/hyperbench"
)

// allExperiments is what "-experiment all" runs, in order.
var allExperiments = []string{"table1", "table2", "table3", "table4", "table5",
	"figure1", "figure3", "depth", "ghd"}

// sweepExperiments are the views of one harness.PaperSweep.
var sweepExperiments = []string{"table1", "table3", "table4", "table5", "figure3"}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchtab:", err)
		os.Exit(1)
	}
}

// experiments parses the -experiment value: a comma-separated list of
// experiment names, where "all" stands for every one. It fails on the
// first unknown name.
func experiments(spec string) ([]string, error) {
	var names []string
	for _, n := range strings.Split(spec, ",") {
		n = strings.TrimSpace(n)
		switch {
		case n == "all":
			names = append(names, allExperiments...)
		case slices.Contains(allExperiments, n):
			names = append(names, n)
		default:
			return nil, fmt.Errorf("unknown experiment %q", n)
		}
	}
	return names, nil
}

// run is benchtab with its arguments, printing the tables to stdout.
// Every experiment name is checked before the first run starts, and the
// paper sweep behind sweepExperiments runs at most once.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchtab", flag.ExitOnError)
	var (
		experiment = fs.String("experiment", "all", "comma-separated experiments to run: "+strings.Join(allExperiments, " ")+", or all")
		timeout    = fs.Duration("timeout", 500*time.Millisecond, "budget per width tried for width-parameterised methods (det-k, log-k, hybrid), per instance for optimal ones (HtdLEO stand-in, width ladder)")
		scale      = fs.Int("scale", 1, "suite scale factor")
		seed       = fs.Int64("seed", 2022, "suite seed")
		kmax       = fs.Int("kmax", 6, "maximum width to try")
		workers    = fs.Int("workers", runtime.GOMAXPROCS(0), "workers for parallel methods")
		csvPath    = fs.String("csv", "", "write figure3 scatter CSV here")
		quiet      = fs.Bool("quiet", false, "suppress progress output")
	)
	fs.Parse(args)
	names, err := experiments(*experiment)
	if err != nil {
		return err
	}

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

	var sweep []harness.Result
	for _, name := range names {
		if slices.Contains(sweepExperiments, name) && sweep == nil {
			sweep = harness.PaperSweep(ctx, cfg)
			if err := firstErr(sweep); err != nil {
				return err
			}
		}
		fmt.Fprintf(stdout, "\n### %s ###\n\n", name)
		switch name {
		case "table1":
			fmt.Fprint(stdout, harness.Table1(cfg, sweep).Render())
		case "table3":
			fmt.Fprint(stdout, harness.Table3(sweep).Render())
		case "table4":
			fmt.Fprint(stdout, harness.Table4(sweep, len(cfg.Suite), cfg.KMax).Render())
		case "table5":
			tab, long := harness.Table5(ctx, cfg, sweep)
			if err := firstErr(long); err != nil {
				return err
			}
			fmt.Fprint(stdout, tab.Render())
		case "figure3":
			csv, tab := harness.Figure3(sweep)
			fmt.Fprint(stdout, tab.Render())
			if *csvPath != "" {
				if err := os.WriteFile(*csvPath, []byte(csv), 0o644); err != nil {
					return err
				}
				fmt.Fprintf(stdout, "scatter data written to %s\n", *csvPath)
			}
		case "table2":
			tab, results := harness.Table2(ctx, cfg)
			if err := firstErr(results); err != nil {
				return err
			}
			fmt.Fprint(stdout, tab.Render())
		case "figure1":
			cores := []int{1, 2, 3, 4, 5, 6}
			if runtime.GOMAXPROCS(0) < 6 {
				cores = []int{1, 2}
			}
			tab, _ := harness.Figure1(ctx, cfg, cores)
			fmt.Fprint(stdout, tab.Render())
		case "depth":
			fmt.Fprint(stdout, harness.DepthExperiment(ctx, []int{16, 32, 64, 128, 256, 512}).Render())
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
			fmt.Fprint(stdout, tab.Render())
		}
	}
	return nil
}

func firstErr(results []harness.Result) error {
	for _, r := range results {
		if r.Err != nil {
			return fmt.Errorf("%s on %s: %w", r.Method, r.Instance.Name, r.Err)
		}
	}
	return nil
}
