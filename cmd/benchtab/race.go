package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	htd "repro"
	"repro/internal/harness"
	"repro/internal/hyperbench"
	"repro/internal/logk"
)

// benchEntry is one measurement in the benchmark JSON artifact.
type benchEntry struct {
	Name    string  `json:"name"`
	NsPerOp float64 `json:"ns_per_op"`
	Ops     int     `json:"ops"`
	Solved  int     `json:"solved"`
	WallMS  float64 `json:"wall_ms"`
	Workers int     `json:"workers"`
	Rounds  int     `json:"rounds"`
	Notes   string  `json:"notes,omitempty"`
}

// benchFile is the benchmark-artifact schema (BENCH_PR9.json): a flat
// benchmark list plus enough context to compare runs across machines.
type benchFile struct {
	Experiment  string       `json:"experiment"`
	GeneratedBy string       `json:"generated_by"`
	KMax        int          `json:"kmax"`
	Timestamp   string       `json:"timestamp"`
	Benchmarks  []benchEntry `json:"benchmarks"`
}

// raceExperiment compares, per HyperBench-sim size bucket, the serial
// width ladder (the pre-racer pipeline: decide k = 1, 2, … with the
// hybrid solver until the first success, one instance after another)
// against the racing service pipeline (ModeOptimal jobs submitted
// concurrently to an htd.Service, sharing the worker budget, the
// negative-memo cache, and the bounds cache). Both sides run `rounds`
// passes over the bucket, modelling repeat traffic: the service banks
// refutations as width bounds, so later rounds start from tight bounds
// while the serial ladder re-proves everything from scratch.
func raceExperiment(ctx context.Context, cfg harness.Config, rounds int, jsonPath string) (*harness.Table, error) {
	if rounds < 1 {
		rounds = 1
	}
	type bucketRun struct {
		bucket    string
		instances []hyperbench.Instance
	}
	var runs []bucketRun
	for _, bucket := range []string{"|E| <= 10", "10 < |E| <= 50"} {
		var ins []hyperbench.Instance
		for _, in := range cfg.Suite {
			// Known moderate widths only, so the serial side terminates
			// at every timeout setting and solved counts are comparable.
			if hyperbench.SizeBucket(in.Edges()) == bucket && in.KnownHW >= 1 && in.KnownHW <= 4 {
				ins = append(ins, in)
			}
		}
		if len(ins) > 0 {
			runs = append(runs, bucketRun{bucket, ins})
		}
	}

	out := benchFile{
		Experiment:  "race",
		GeneratedBy: "cmd/benchtab",
		KMax:        cfg.KMax,
		Timestamp:   time.Now().UTC().Format(time.RFC3339),
	}
	t := &harness.Table{
		Title: "Race: serial width ladder vs racing service pipeline",
		Headers: []string{"Bucket", "N", "Rounds",
			"serial-ms", "serial-solved", "race-ms", "race-solved", "speedup"},
	}

	for _, br := range runs {
		serialMS, serialSolved, err := serialLadder(ctx, br.instances, cfg, rounds)
		if err != nil {
			return nil, err
		}
		raceMS, raceSolved, err := raceService(ctx, br.instances, cfg, rounds)
		if err != nil {
			return nil, err
		}
		ops := rounds * len(br.instances)
		out.Benchmarks = append(out.Benchmarks,
			benchEntry{
				Name:    "serial-ladder/" + br.bucket,
				NsPerOp: serialMS * 1e6 / float64(ops),
				Ops:     ops, Solved: serialSolved, WallMS: serialMS,
				Workers: cfg.Workers, Rounds: rounds,
				Notes: "library ladder k=1..kmax, hybrid solver, no cross-request state",
			},
			benchEntry{
				Name:    "race-service/" + br.bucket,
				NsPerOp: raceMS * 1e6 / float64(ops),
				Ops:     ops, Solved: raceSolved, WallMS: raceMS,
				Workers: cfg.Workers, Rounds: rounds,
				Notes: "ModeOptimal jobs, concurrent submissions, shared memo+bounds caches",
			})
		t.AddRow(br.bucket, len(br.instances), rounds,
			fmt.Sprintf("%.1f", serialMS), serialSolved,
			fmt.Sprintf("%.1f", raceMS), raceSolved,
			fmt.Sprintf("%.2fx", serialMS/raceMS))
	}
	t.Notes = append(t.Notes,
		"serial: one decide per width per instance, sequential (the pre-racer pipeline)",
		"race: optimal-mode service jobs under concurrent load; later rounds reuse banked bounds")

	if jsonPath != "" {
		if err := writeBenchJSON(jsonPath, out); err != nil {
			return nil, err
		}
		t.Notes = append(t.Notes, "benchmark JSON written to "+jsonPath)
	}
	return t, nil
}

// writeBenchJSON serialises a benchmark artifact the same way for every
// experiment (indented, trailing newline).
func writeBenchJSON(path string, f benchFile) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// serialLadder times the pre-racer optimal pipeline: for each instance,
// decide hw ≤ k for k = 1, 2, … until the first success.
func serialLadder(ctx context.Context, ins []hyperbench.Instance, cfg harness.Config, rounds int) (ms float64, solved int, err error) {
	start := time.Now()
	for r := 0; r < rounds; r++ {
		for _, in := range ins {
			found := false
			for k := 1; k <= cfg.KMax && !found; k++ {
				runCtx, cancel := context.WithTimeout(ctx, cfg.Timeout)
				s := logk.New(in.H, logk.Options{
					K: k, Workers: cfg.Workers,
					Hybrid: logk.HybridWeightedCount, HybridThreshold: 40,
				})
				_, ok, derr := s.Decompose(runCtx)
				cancel()
				if derr != nil {
					if ctx.Err() != nil {
						return 0, 0, ctx.Err()
					}
					break // per-width timeout: instance unsolved this round
				}
				found = ok
			}
			if found {
				solved++
			}
		}
	}
	return float64(time.Since(start)) / float64(time.Millisecond), solved, nil
}

// raceService times the racing pipeline: every instance of the round is
// submitted concurrently as a ModeOptimal job against one shared
// service, so probes of different jobs contend for (and share) the same
// worker budget, memo tables, and width bounds.
func raceService(ctx context.Context, ins []hyperbench.Instance, cfg harness.Config, rounds int) (ms float64, solved int, err error) {
	svc := htd.NewService(htd.ServiceConfig{
		TokenBudget:    cfg.Workers,
		MaxConcurrent:  4,
		MaxQueue:       4 * len(ins),
		DefaultTimeout: time.Duration(cfg.KMax) * cfg.Timeout,
	})
	defer svc.Close()

	var solvedCount int
	var mu sync.Mutex
	start := time.Now()
	for r := 0; r < rounds; r++ {
		var wg sync.WaitGroup
		for _, in := range ins {
			wg.Add(1)
			go func(in hyperbench.Instance) {
				defer wg.Done()
				res := svc.Submit(ctx, htd.ServiceRequest{
					H: in.H, K: cfg.KMax, Mode: htd.ModeOptimal,
					Workers: cfg.Workers,
					Hybrid:  htd.HybridWeightedCount, HybridThreshold: 40,
				})
				if res.Err == nil && res.OK {
					mu.Lock()
					solvedCount++
					mu.Unlock()
				}
			}(in)
		}
		wg.Wait()
		if ctx.Err() != nil {
			return 0, 0, ctx.Err()
		}
	}
	return float64(time.Since(start)) / float64(time.Millisecond), solvedCount, nil
}
