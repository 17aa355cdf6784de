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
// ablation depth ghd race store query exec agg mem persist incr all
//
// The race experiment compares the serial k = 1..kmax width ladder
// against the optimal-width racing service pipeline; the store
// experiment measures the unified decomposition store (cold-vs-warm
// repeat traffic and request coalescing); the query experiment drives
// the end-to-end conjunctive-query pipeline (Yannakakis over
// store-cached decompositions) with cold-plan vs warm-plan traffic;
// the exec experiment races the serial and parallel indexed executor
// over identical plans;
// the agg experiment compares aggregate pushdown against
// materialise-then-fold on high-output star queries (BENCH_PR6.json);
// the mem experiment is the memory-diet harness — the indexed executor
// vs the naive join oracle, recording allocs/op, bytes/op, GC pauses,
// and peak RSS, with answer identity enforced in-experiment
// (BENCH_PR8.json);
// the persist experiment measures the disk-backed store tier — cold
// solve-and-append traffic vs a same-process warm pass vs a full
// process restart over the same -store-dir, with zero solver runs
// enforced on the restarted service (BENCH_PR9.json);
// the incr experiment measures incremental dataset maintenance — per
// delta batch, O(delta) layered index maintenance vs a full index
// rebuild vs a full re-upload, across delta sizes 1/100/10k, plus the
// unchanged-data fast paths (warm dataset query with zero index
// builds, parse-cache coalescing), with byte-identity and a
// maintenance-beats-rebuild wall enforced in-experiment
// (BENCH_PR10.json).
// With -benchjson any of them writes its measurements as a JSON
// benchmark artifact (BENCH_PR5.json in CI) so the perf trajectory is
// tracked across PRs.
//
// With -compare the fresh -benchjson artifact is additionally diffed
// against a committed baseline and the process exits non-zero when any
// gated entry (-gate prefixes, default the warm-plan suite) regressed
// its ns/op by more than -tolerance — the CI bench-regression gate:
//
//	benchtab -experiment query -benchjson fresh.json \
//	    -compare BENCH_PR4.json -tolerance 0.25 -calibrate query-cold
//
// -calibrate divides the median fresh/baseline ratio of the named
// entries (machine speed) out of every gated ratio, so a committed
// baseline from one host gates code, not hardware, on another.
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
)

func main() {
	var (
		experiment = flag.String("experiment", "all", "which experiment to run")
		timeout    = flag.Duration("timeout", 500*time.Millisecond, "per-(instance,width) budget")
		scale      = flag.Int("scale", 1, "suite scale factor")
		seed       = flag.Int64("seed", 2022, "suite seed")
		kmax       = flag.Int("kmax", 6, "maximum width to try")
		workers    = flag.Int("workers", runtime.GOMAXPROCS(0), "workers for parallel methods")
		csvPath    = flag.String("csv", "", "write figure3 scatter CSV here")
		benchJSON  = flag.String("benchjson", "", "write race-experiment benchmark JSON here")
		rounds     = flag.Int("rounds", 3, "traffic rounds for the race experiment")
		quiet      = flag.Bool("quiet", false, "suppress progress output")
		compare    = flag.String("compare", "", "baseline benchmark JSON to gate the fresh -benchjson run against")
		tolerance  = flag.Float64("tolerance", 0.25, "max fractional ns/op regression for gated entries")
		gate       = flag.String("gate", "query-warmup", "comma-separated entry-name prefixes the -compare gate enforces (default: the warm-plan suite aggregate; per-bucket entries are sub-ms and too noisy to gate)")
		calibrate  = flag.String("calibrate", "", "entry-name prefix whose median fresh/baseline ratio is divided out as machine speed (e.g. query-cold)")
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
				harness.MethodLogKHybrid(cfg.Workers, 2 /* WeightedCount */, 40),
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
		case "ablation":
			var medium []hyperbench.Instance
			for _, in := range cfg.Suite {
				if in.KnownHW > 0 && in.Edges() > 10 && in.Edges() <= 60 {
					medium = append(medium, in)
				}
			}
			acfg := cfg
			acfg.Suite = medium
			fmt.Print(harness.AblationExperiment(ctx, acfg).Render())
		case "race":
			tab, err := raceExperiment(ctx, cfg, *rounds, *benchJSON)
			if err != nil {
				return err
			}
			fmt.Print(tab.Render())
		case "store":
			tab, err := storeExperiment(ctx, cfg, *benchJSON)
			if err != nil {
				return err
			}
			fmt.Print(tab.Render())
		case "query":
			tab, err := queryExperiment(ctx, cfg, *benchJSON)
			if err != nil {
				return err
			}
			fmt.Print(tab.Render())
		case "exec":
			tab, err := execExperiment(ctx, cfg, *benchJSON)
			if err != nil {
				return err
			}
			fmt.Print(tab.Render())
		case "agg":
			tab, err := aggExperiment(ctx, cfg, *benchJSON)
			if err != nil {
				return err
			}
			fmt.Print(tab.Render())
		case "mem":
			tab, err := memExperiment(ctx, cfg, *rounds, *benchJSON)
			if err != nil {
				return err
			}
			fmt.Print(tab.Render())
		case "persist":
			tab, err := persistExperiment(ctx, cfg, *benchJSON)
			if err != nil {
				return err
			}
			fmt.Print(tab.Render())
		case "incr":
			tab, err := incrExperiment(ctx, cfg, *benchJSON)
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
			"figure1", "figure3", "ablation", "depth", "ghd", "race", "store", "query", "exec", "agg", "mem", "persist", "incr"}
	}
	for _, n := range names {
		if err := run(strings.TrimSpace(n)); err != nil {
			fmt.Fprintln(os.Stderr, "benchtab:", err)
			os.Exit(1)
		}
	}

	if *compare != "" {
		if *benchJSON == "" {
			fmt.Fprintln(os.Stderr, "benchtab: -compare requires -benchjson (the fresh run to gate)")
			os.Exit(2)
		}
		fresh, err := readBenchJSON(*benchJSON)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchtab:", err)
			os.Exit(2)
		}
		baseline, err := readBenchJSON(*compare)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchtab:", err)
			os.Exit(2)
		}
		report, failures := compareBench(fresh, baseline, strings.Split(*gate, ","), *tolerance, *calibrate)
		fmt.Print(report)
		if len(failures) > 0 {
			fmt.Fprintf(os.Stderr, "benchtab: bench-regression gate FAILED (%d violations):\n", len(failures))
			for _, f := range failures {
				fmt.Fprintln(os.Stderr, "  -", f)
			}
			os.Exit(1)
		}
		fmt.Println("bench-regression gate passed")
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
