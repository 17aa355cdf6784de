package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	htd "repro"
	"repro/internal/harness"
	"repro/internal/hyperbench"
	"repro/internal/logk"
)

// raceExperiment compares, per HyperBench-sim size bucket, the serial
// width ladder (decide k = 1, 2, … with the hybrid solver until the
// first success, one instance after another) against the service
// pipeline (ModeOptimal jobs submitted concurrently to an htd.Service,
// sharing the worker budget, the structural bound, the negative-memo
// cache, and the bounds cache). Both sides run `rounds`
// passes over the bucket, modelling repeat traffic: the service banks
// refutations as width bounds, so later rounds start from tight bounds
// while the serial ladder re-proves everything from scratch.
func raceExperiment(ctx context.Context, cfg harness.Config, rounds int) (*harness.Table, error) {
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

	t := &harness.Table{
		Title: "Race: serial width ladder vs concurrent optimal-mode service jobs",
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
		t.AddRow(br.bucket, len(br.instances), rounds,
			fmt.Sprintf("%.1f", serialMS), serialSolved,
			fmt.Sprintf("%.1f", raceMS), raceSolved,
			fmt.Sprintf("%.2fx", serialMS/raceMS))
	}
	t.Notes = append(t.Notes,
		"serial: one decide per width per instance, sequential",
		"race: optimal-mode service jobs under concurrent load; later rounds reuse banked bounds")
	return t, nil
}

// serialLadder times the plain optimal pipeline: for each instance,
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
					Hybrid: logk.PaperHybrid, HybridThreshold: logk.PaperHybridThreshold,
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

// raceService times the service pipeline: every instance of the round is
// submitted concurrently as a ModeOptimal job against one shared
// service, so the searches of different jobs contend for (and share) the same
// worker budget, memo tables, and width bounds. A job searches with
// TokenBudget+1 workers, so a budget of cfg.Workers-1 keeps one job
// within the serial ladder's cfg.Workers (0 would mean GOMAXPROCS-1).
func raceService(ctx context.Context, ins []hyperbench.Instance, cfg harness.Config, rounds int) (ms float64, solved int, err error) {
	budget := cfg.Workers - 1
	if budget == 0 {
		budget = -1
	}
	svc := htd.NewService(htd.ServiceConfig{
		TokenBudget:    budget,
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
