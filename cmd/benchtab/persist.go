package main

import (
	"context"
	"fmt"
	"os"
	"sync"
	"time"

	htd "repro"
	"repro/internal/harness"
	"repro/internal/hyperbench"
)

// persistExperiment measures what the disk-backed store tier costs and
// buys, per HyperBench-sim size bucket:
//
//   - cold: every instance submitted as a ModeOptimal job against a
//     fresh disk-backed service (per-append fsync — the strictest
//     durability setting, so the cost measured is the worst case).
//   - warm: the identical traffic against the same process — memory-
//     front hits, the disk tier untouched on the read path.
//   - reopen: the service is closed, a NEW service is opened on the
//     same directory (a simulated process restart — the log replays,
//     the memory front starts empty), and the traffic replayed again.
//     The experiment fails unless the reopened service answers with
//     ZERO solver runs: warm restarts must be hits, not re-solves.
//
// The headline ratio is cold vs reopen: what a restart costs with the
// disk tier versus re-solving the world (which is what cold measures).
// With -benchjson the measurements are the BENCH_PR9.json artifact.
func persistExperiment(ctx context.Context, cfg harness.Config, jsonPath string) (*harness.Table, error) {
	type bucketRun struct {
		bucket    string
		instances []hyperbench.Instance
	}
	var runs []bucketRun
	for _, bucket := range []string{"|E| <= 10", "10 < |E| <= 50"} {
		var ins []hyperbench.Instance
		for _, in := range cfg.Suite {
			// Known moderate widths only, so every pass terminates at
			// every timeout setting and solved counts are comparable.
			if hyperbench.SizeBucket(in.Edges()) == bucket && in.KnownHW >= 1 && in.KnownHW <= 4 {
				ins = append(ins, in)
			}
		}
		if len(ins) > 0 {
			runs = append(runs, bucketRun{bucket, ins})
		}
	}

	out := benchFile{
		Experiment:  "persist",
		GeneratedBy: "cmd/benchtab",
		KMax:        cfg.KMax,
		Timestamp:   time.Now().UTC().Format(time.RFC3339),
	}
	t := &harness.Table{
		Title: "Persist: disk-backed store tier, cold vs warm vs restart",
		Headers: []string{"Bucket", "N",
			"cold-ms", "solved", "warm-ms", "reopen-ms", "restart-speedup",
			"disk-KiB", "appends"},
	}

	openDisk := func(dir string, instances int) (*htd.Service, error) {
		return htd.OpenService(htd.ServiceConfig{
			TokenBudget:    cfg.Workers,
			MaxConcurrent:  4,
			MaxQueue:       4*instances + 16,
			DefaultTimeout: time.Duration(cfg.KMax) * cfg.Timeout,
			MemoMaxGraphs:  2 * instances,
			StoreDir:       dir,
			StoreFsync:     0, // fsync every append: worst-case durability cost
		})
	}

	var totalCold, totalWarm, totalReopen float64
	var totalN, totalSolved int
	for _, br := range runs {
		dir, err := os.MkdirTemp("", "benchtab-persist-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)

		svc, err := openDisk(dir, len(br.instances))
		if err != nil {
			return nil, err
		}
		coldMS, coldSolved, err := submitAll(ctx, svc, br.instances, cfg)
		if err != nil {
			svc.Close()
			return nil, err
		}
		warmMS, warmSolved, err := submitAll(ctx, svc, br.instances, cfg)
		diskStats := svc.Store().Stats().Disk
		if cerr := svc.Close(); err == nil && cerr != nil {
			err = cerr
		}
		if err != nil {
			return nil, err
		}
		if warmSolved != coldSolved {
			return nil, fmt.Errorf("bucket %s: warm pass solved %d, cold pass %d", br.bucket, warmSolved, coldSolved)
		}

		// The simulated restart: a brand-new service over the same
		// directory. The memory front is empty; everything comes off the
		// replayed log.
		svc, err = openDisk(dir, len(br.instances))
		if err != nil {
			return nil, fmt.Errorf("bucket %s: reopen: %w", br.bucket, err)
		}
		reopenMS, reopenSolved, err := submitAll(ctx, svc, br.instances, cfg)
		st := svc.Stats()
		if cerr := svc.Close(); err == nil && cerr != nil {
			err = cerr
		}
		if err != nil {
			return nil, err
		}
		if reopenSolved != coldSolved {
			return nil, fmt.Errorf("bucket %s: reopen pass solved %d, cold pass %d", br.bucket, reopenSolved, coldSolved)
		}
		// The wall: a warm restart that runs even one solver is a broken
		// disk tier, however fast it was.
		if st.SolverRuns != 0 {
			return nil, fmt.Errorf("bucket %s: reopened service ran %d solvers, want 0", br.bucket, st.SolverRuns)
		}

		n := len(br.instances)
		totalCold += coldMS
		totalWarm += warmMS
		totalReopen += reopenMS
		totalN += n
		totalSolved += coldSolved
		out.Benchmarks = append(out.Benchmarks,
			benchEntry{
				Name:    "persist-cold/" + br.bucket,
				NsPerOp: coldMS * 1e6 / float64(n),
				Ops:     n, Solved: coldSolved, WallMS: coldMS,
				Workers: cfg.Workers, Rounds: 1,
				Notes: "first pass: empty disk store, every job solves + appends (fsync per append)",
			},
			benchEntry{
				Name:    "persist-warm/" + br.bucket,
				NsPerOp: warmMS * 1e6 / float64(n),
				Ops:     n, Solved: warmSolved, WallMS: warmMS,
				Workers: cfg.Workers, Rounds: 1,
				Notes: fmt.Sprintf("same-process repeat: memory-front hits over the disk tier (%d appends, %d KiB on disk)",
					diskStats.Appends, diskStats.Bytes/1024),
			},
			benchEntry{
				Name:    "persist-reopen/" + br.bucket,
				NsPerOp: reopenMS * 1e6 / float64(n),
				Ops:     n, Solved: reopenSolved, WallMS: reopenMS,
				Workers: cfg.Workers, Rounds: 1,
				Notes: fmt.Sprintf("after process restart: log replayed, 0 solver runs, %d positive hits; %.1fx faster than cold",
					st.PositiveHits, coldMS/reopenMS),
			})
		t.AddRow(br.bucket, n,
			fmt.Sprintf("%.1f", coldMS), coldSolved,
			fmt.Sprintf("%.2f", warmMS),
			fmt.Sprintf("%.2f", reopenMS),
			fmt.Sprintf("%.0fx", coldMS/reopenMS),
			diskStats.Bytes/1024,
			diskStats.Appends)
	}
	if totalN > 0 && totalReopen > 0 {
		out.Benchmarks = append(out.Benchmarks,
			benchEntry{
				Name:    "persist-warm/suite",
				NsPerOp: totalWarm * 1e6 / float64(totalN),
				Ops:     totalN, Solved: totalSolved, WallMS: totalWarm,
				Workers: cfg.Workers, Rounds: 1,
				Notes: fmt.Sprintf("whole suite, same process: cold %.1fms vs warm %.2fms", totalCold, totalWarm),
			},
			benchEntry{
				Name:    "persist-reopen/suite",
				NsPerOp: totalReopen * 1e6 / float64(totalN),
				Ops:     totalN, Solved: totalSolved, WallMS: totalReopen,
				Workers: cfg.Workers, Rounds: 1,
				Notes: fmt.Sprintf("whole suite across a restart: cold %.1fms vs reopen %.2fms = %.1fx, zero solver runs",
					totalCold, totalReopen, totalCold/totalReopen),
			})
		t.AddRow("suite total", totalN,
			fmt.Sprintf("%.1f", totalCold), totalSolved,
			fmt.Sprintf("%.2f", totalWarm),
			fmt.Sprintf("%.2f", totalReopen),
			fmt.Sprintf("%.0fx", totalCold/totalReopen), "-", "-")
	}
	t.Notes = append(t.Notes,
		"cold: ModeOptimal jobs against an empty disk-backed store, fsync on every append",
		"warm: identical traffic, same process (memory-front hits)",
		"reopen: identical traffic after closing and reopening the service on the same directory — a process restart; zero solver runs enforced",
		"restart-speedup: cold-ms / reopen-ms, what the disk tier saves a restarted process")

	if jsonPath != "" {
		if err := writeBenchJSON(jsonPath, out); err != nil {
			return nil, err
		}
		t.Notes = append(t.Notes, "benchmark JSON written to "+jsonPath)
	}
	return t, nil
}

// submitAll submits every instance concurrently as a ModeOptimal job
// and reports wall time and the number solved.
func submitAll(ctx context.Context, svc *htd.Service, ins []hyperbench.Instance, cfg harness.Config) (ms float64, solved int, err error) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
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
				solved++
				mu.Unlock()
			}
		}(in)
	}
	wg.Wait()
	if ctx.Err() != nil {
		return 0, 0, ctx.Err()
	}
	return float64(time.Since(start)) / float64(time.Millisecond), solved, nil
}
