package main

import (
	"context"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	htd "repro"
	"repro/internal/harness"
	"repro/internal/join"
)

// memExperiment is the memory-diet harness behind `make bench-mem`
// (BENCH_PR8.json): per workload bucket it runs the same pre-computed
// plans through two evaluators —
//
//   - naive: EvaluateNaive, the left-deep join of every atom with no
//     plan — the semantic oracle, untuned code that also serves as the
//     machine-speed calibration of the CI gate;
//   - indexed: the hash-indexed executor on columnar storage;
//
// — and records allocs/op, bytes/op, GC pause totals, and wall time
// for a cold pass and a best-of-rounds warm pass each, plus the
// process's peak RSS (VmHWM). Before anything is written, the indexed
// answer must equal the naive one as a row set on every instance.
//
// Counters come from runtime.MemStats deltas around each pass (after
// a forced GC, so carry-over garbage doesn't pollute the window);
// result canonicalisation for the identity wall happens outside the
// window, so engines are charged for evaluation only. Allocation
// counts are machine-independent; the committed artifact gates them
// in CI without speed calibration (see compareBench).
func memExperiment(ctx context.Context, cfg harness.Config, rounds int, jsonPath string) (*harness.Table, error) {
	if rounds < 1 {
		rounds = 1
	}
	type bucket struct {
		name string
		gen  func() []execInstance
	}
	buckets := []bucket{
		{"chain8", func() []execInstance { return chainInstances(8, 5, 4000, 8000) }},
		{"star6", func() []execInstance { return starInstances(6, 6, 800, 400) }},
	}

	out := benchFile{
		Experiment:  "mem",
		GeneratedBy: "cmd/benchtab",
		KMax:        cfg.KMax,
		Timestamp:   time.Now().UTC().Format(time.RFC3339),
	}
	t := &harness.Table{
		Title: "Memory diet: naive join vs columnar indexed executor",
		Headers: []string{"Bucket", "N", "engine",
			"warm-ms", "allocs/op", "KB/op", "gc-pause-ms", "vs-naive-allocs"},
	}

	for _, b := range buckets {
		instances := b.gen()
		for i := range instances {
			h, err := instances[i].q.Hypergraph()
			if err != nil {
				return nil, fmt.Errorf("bucket %s: %w", b.name, err)
			}
			_, d, ok, err := htd.OptimalWidth(ctx, h, cfg.KMax)
			if err != nil || !ok {
				return nil, fmt.Errorf("bucket %s %s: no plan (ok=%v err=%v)", b.name, instances[i].name, ok, err)
			}
			instances[i].d = d
		}
		// Each engine evaluates every instance inside the measurement
		// window; the identity wall reads the results outside it.
		engines := []struct {
			name string
			eval func(execInstance) (*join.Relation, error)
		}{
			{"naive", func(in execInstance) (*join.Relation, error) {
				return join.EvaluateNaive(in.q, in.db)
			}},
			{"indexed", func(in execInstance) (*join.Relation, error) {
				return join.EvaluateCtx(ctx, in.q, in.db, in.d, join.EvalOptions{})
			}},
		}

		n := float64(len(instances))
		var warm [2]memSample
		var reference [][][]int
		for ei, eng := range engines {
			var cold memSample
			best := memSample{ns: -1}
			var lastRes any
			for pass := 0; pass <= rounds; pass++ {
				s, res, err := measurePass(func() (any, error) { return evalAll(instances, eng.eval) })
				if err != nil {
					return nil, fmt.Errorf("bucket %s engine %s: %w", b.name, eng.name, err)
				}
				lastRes = res
				if pass == 0 {
					cold = s
				} else if best.ns < 0 || s.ns < best.ns {
					best = s
				}
			}
			warm[ei] = best

			// The identity wall: the same answer set as the naive oracle.
			rows := canonicalRows(lastRes.([]*join.Relation))
			if ei == 0 {
				reference = rows
			} else {
				for i := range rows {
					if !reflect.DeepEqual(rows[i], reference[i]) {
						return nil, fmt.Errorf("bucket %s %s: engine %s diverged from the naive join",
							b.name, instances[i].name, eng.name)
					}
				}
			}

			for _, e := range []struct {
				prefix string
				s      memSample
			}{{"mem-", best}, {"mem-cold-", cold}} {
				out.Benchmarks = append(out.Benchmarks, benchEntry{
					Name:        e.prefix + eng.name + "/" + b.name,
					NsPerOp:     e.s.ns / n,
					Ops:         len(instances),
					Solved:      len(instances),
					WallMS:      e.s.ns / 1e6,
					Workers:     1,
					Rounds:      rounds,
					AllocsPerOp: e.s.allocs / n,
					BytesPerOp:  e.s.bytes / n,
					Notes: fmt.Sprintf("gc pause %.2fms over the pass; %s",
						e.s.pause/1e6, engineNote(eng.name)),
				})
			}
			t.AddRow(b.name, len(instances), eng.name,
				fmt.Sprintf("%.1f", best.ns/1e6),
				fmt.Sprintf("%.0f", best.allocs/n),
				fmt.Sprintf("%.0f", best.bytes/n/1024),
				fmt.Sprintf("%.2f", best.pause/1e6),
				fmt.Sprintf("%.2fx", warm[0].allocs/best.allocs))
		}
	}

	if hwm, err := peakRSSKB(); err == nil {
		out.Benchmarks = append(out.Benchmarks, benchEntry{
			Name: "mem-peak-rss/suite", Ops: 1, Solved: 1, Workers: 1, Rounds: rounds,
			BytesPerOp: float64(hwm) * 1024,
			Notes:      fmt.Sprintf("process peak RSS (VmHWM) %d KB after the full mem suite", hwm),
		})
		t.Notes = append(t.Notes, fmt.Sprintf("process peak RSS (VmHWM): %d KB", hwm))
	}
	t.Notes = append(t.Notes,
		"identical pre-computed minimum-width plans for all engines; warm = best of -rounds passes after a cold pass",
		"naive: EvaluateNaive's left-deep join without a plan, the semantic oracle and the speed calibration",
		"answers verified equal as row sets across both engines before anything is written")

	if jsonPath != "" {
		if err := writeBenchJSON(jsonPath, out); err != nil {
			return nil, err
		}
		t.Notes = append(t.Notes, "benchmark JSON written to "+jsonPath)
	}
	return t, nil
}

// memSample is one measured pass: wall time plus MemStats deltas.
type memSample struct {
	ns, allocs, bytes, pause float64
}

// canonicalRows materialises each answer with its columns in sorted
// attribute order and its rows sorted, so answers from different join
// orders compare as sets.
func canonicalRows(rels []*join.Relation) [][][]int {
	rows := make([][][]int, len(rels))
	for i, r := range rels {
		attrs := append([]string(nil), r.Attrs...)
		sort.Strings(attrs)
		p, err := r.Project(attrs...)
		if err != nil {
			panic(err) // attrs are r's own
		}
		p.SortRows()
		rows[i] = p.Rows()
	}
	return rows
}

// evalAll evaluates every instance with eval.
func evalAll(instances []execInstance, eval func(execInstance) (*join.Relation, error)) (any, error) {
	res := make([]*join.Relation, len(instances))
	for i, in := range instances {
		r, err := eval(in)
		if err != nil {
			return nil, err
		}
		res[i] = r
	}
	return res, nil
}

// measurePass runs one engine pass inside a MemStats window: forced GC
// first (so earlier passes' garbage doesn't leak into the deltas),
// then Mallocs / TotalAlloc / PauseTotalNs deltas around the run.
func measurePass(run func() (any, error)) (memSample, any, error) {
	var s memSample
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	res, err := run()
	s.ns = float64(time.Since(start))
	runtime.ReadMemStats(&m1)
	if err != nil {
		return s, nil, err
	}
	s.allocs = float64(m1.Mallocs - m0.Mallocs)
	s.bytes = float64(m1.TotalAlloc - m0.TotalAlloc)
	s.pause = float64(m1.PauseTotalNs - m0.PauseTotalNs)
	return s, res, nil
}

// peakRSSKB reads the process high-water RSS from /proc/self/status.
func peakRSSKB() (int, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		return strconv.Atoi(fields[1])
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}

func engineNote(name string) string {
	return map[string]string{
		"naive":   "EvaluateNaive: left-deep join of every atom, no plan, no semijoin reduction, serial",
		"indexed": "hash-indexed kernel over columnar arena storage: offset-range CSR indexes, open-addressing dedup, serial",
	}[name]
}
