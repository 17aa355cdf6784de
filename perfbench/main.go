// Command perfbench is the repository's end-to-end benchmark. It boots
// a real htdserve process, drives it over loopback HTTP with a fixed,
// seeded list of requests, checks every answer, and prints the
// end-to-end metrics (--trace 0) or the per-layer metrics of a traced
// in-process replay of the same list (--trace 1). The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": 1200, "failed": 0, "metrics": {...}}
//
// Usage (from the repository root; run.sh builds both binaries):
//
//	perfbench -server htdserve --workload query-warm --seed 1 --seconds 12 --trace 0
//
// See README.md in this directory for the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() {
	var (
		workload = flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", ")+", or all")
		seed     = flag.Int64("seed", 1, "workload seed")
		seconds  = flag.Int("seconds", 12, "nominal run length; fixes the op count of the list")
		trace    = flag.Int("trace", 0, "1 = report per-layer metrics from a traced replay")
		bin      = flag.String("server", "", "htdserve binary")
		record   = flag.String("record", "", "directory for run records and spans (empty = none)")
	)
	flag.Parse()
	if *bin == "" || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -server, --seconds >= 1 and --trace 0|1")
		os.Exit(2)
	}
	names := []string{*workload}
	if *workload == "all" {
		names = workloadNames
	}
	cfg := runConfig{bin: *bin, seed: *seed, seconds: *seconds, traced: *trace == 1, record: *record}
	code := 0
	for _, name := range names {
		res, err := runWorkload(name, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
			os.Exit(1)
		}
		line, _ := json.Marshal(res)
		fmt.Println(string(line))
		if !res.Correct {
			code = 1
		}
	}
	os.Exit(code)
}

type runConfig struct {
	bin     string
	seed    int64
	seconds int
	traced  bool
	record  string
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runLimit bounds one workload's run, set-ups and replays included.
const runLimit = 160 * time.Second

// setups is the number of set-ups of an end-to-end run; setup_s is
// their median.
const setups = 5

// httpRun is what the end-to-end part of a run measured.
type httpRun struct {
	setup         []float64 // seconds per set-up
	answers       []answer
	wall          time.Duration
	cpuSeconds    float64
	rssMB         float64
	steal         float64
	before, after serverStats
}

func runWorkload(name string, cfg runConfig) (*result, error) {
	// SIGINT and SIGTERM cancel the run, so the server is stopped on the
	// way out.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, runLimit)
	defer cancel()
	w, err := generate(name, cfg.seed, opCount(name, cfg.seconds))
	if err != nil {
		return nil, err
	}
	n := setups
	if cfg.traced {
		// A traced run reports no setup_s; one set-up serves.
		n = 1
	}
	hr, err := runHTTP(ctx, cfg.bin, w, n)
	if err != nil {
		return nil, err
	}

	// The answers are checked after the timed window. Query answers
	// are compared with an in-process replay of the same list;
	// decompose-cold witnesses are checked on their own.
	var pair *pairRun
	var ref []outcome
	switch {
	case cfg.traced:
		if pair, err = replayPair(ctx, w); err != nil {
			return nil, err
		}
		if w.Name != "decompose-cold" {
			ref = pair.plain.outcomes
		}
	case w.Name != "decompose-cold":
		if ref, err = referenceAnswers(ctx, w); err != nil {
			return nil, err
		}
	}
	reports := checkAnswers(w, hr.answers, ref)
	res := &result{Attempted: len(w.Ops), Metrics: map[string]metric{}}
	for _, rep := range reports {
		if rep.err != nil {
			res.Failed++
			if res.Failed <= 5 {
				fmt.Fprintln(os.Stderr, "perfbench: check failed:", rep.err)
			}
		}
	}
	if err := checkRun(w, hr, reports, pair); err != nil {
		// A failed run-level check counts as one failed op, so
		// fail_frac is never 0 on a run that failed a check.
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", err)
		res.Failed++
	}
	res.Correct = res.Failed == 0

	e2e := endToEnd(w, hr)
	if cfg.traced {
		for k, v := range perLayer(w, hr, reports, pair) {
			res.Metrics[k] = v
		}
	} else {
		for _, m := range e2eMetrics {
			res.Metrics[m.name] = e2e[m.name]
		}
	}
	printSummary(w, hr, e2e, res, cfg.traced)
	quality := qualityRecord(w, hr, cfg)
	line, _ := json.Marshal(map[string]any{"run_quality": quality})
	fmt.Println(string(line))
	if cfg.record != "" {
		if err := writeRecord(cfg, w, quality, hr.answers, e2e, res, pair); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: write record:", err)
		}
	}
	return res, nil
}

// runHTTP runs the set-ups and the timed list against fresh htdserve
// processes. Every set-up but the last stops its server again; the
// timed list runs on the last one.
func runHTTP(ctx context.Context, bin string, w *Workload, setups int) (*httpRun, error) {
	hr := &httpRun{}
	var srv *server
	defer func() {
		if srv != nil {
			srv.stop()
		}
	}()
	for i := 0; i < setups; i++ {
		start := time.Now()
		var err error
		srv, err = startServer(bin)
		if err != nil {
			return nil, err
		}
		if err := setUpServer(ctx, srv, w); err != nil {
			return nil, err
		}
		hr.setup = append(hr.setup, time.Since(start).Seconds())
		if i < setups-1 {
			srv.stop()
			srv = nil
		}
	}
	pid := srv.cmd.Process.Pid
	var err error
	if hr.before, err = srv.stats(); err != nil {
		return nil, err
	}
	host0, err := readHostCPU()
	if err != nil {
		return nil, err
	}
	cpu0, err := cpuSeconds(pid)
	if err != nil {
		return nil, err
	}
	// The driver's own garbage collector stays off during the timed
	// window, so it takes no CPU from the server; the window allocates
	// little more than the answers it keeps.
	runtime.GC()
	gcPercent := debug.SetGCPercent(-1)
	start := time.Now()
	hr.answers, err = srv.sendAll(ctx, w.Ops)
	hr.wall = time.Since(start)
	debug.SetGCPercent(gcPercent)
	if err != nil {
		return nil, fmt.Errorf("timed list: %w", err)
	}
	cpu1, err := cpuSeconds(pid)
	if err != nil {
		return nil, err
	}
	host1, err := readHostCPU()
	if err != nil {
		return nil, err
	}
	hr.cpuSeconds = cpu1 - cpu0
	hr.steal = stealFrac(host0, host1)
	if hr.after, err = srv.stats(); err != nil {
		return nil, err
	}
	if hr.rssMB, err = peakRSSMB(pid); err != nil {
		return nil, err
	}
	return hr, nil
}

// setUpServer waits for the server, uploads the dataset and runs the
// warm-up list; every answer must be 200.
func setUpServer(ctx context.Context, srv *server, w *Workload) error {
	if err := srv.waitReady(10 * time.Second); err != nil {
		return err
	}
	if w.Dataset != "" {
		status, body, err := srv.do("PUT", "/data/"+datasetName, w.Dataset)
		if err != nil || status != 200 {
			return fmt.Errorf("upload dataset: status %d err %v: %.200s", status, err, body)
		}
	}
	answers, err := srv.sendAll(ctx, w.Warmup)
	if err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	for i, a := range answers {
		if a.err != nil || a.status != 200 {
			return fmt.Errorf("warm-up op %d: status %d err %v: %.200s", i, a.status, a.err, a.body)
		}
	}
	return nil
}

// e2eMetrics are the end-to-end metrics, in BENCHMARK.json order.
var e2eMetrics = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"ops_s", "1/s"},
	{"p50_ms", "ms"},
	{"p99_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"rss_mb", "MB"},
}

func endToEnd(w *Workload, hr *httpRun) map[string]metric {
	n := float64(len(w.Ops))
	lat := latenciesMS(hr.answers, func(int) bool { return true })
	return map[string]metric{
		"setup_s":       {median(hr.setup), "s"},
		"ops_s":         {n / hr.wall.Seconds(), "1/s"},
		"p50_ms":        {quantile(lat, 0.50), "ms"},
		"p99_ms":        {quantile(lat, 0.99), "ms"},
		"cpu_ms_per_op": {hr.cpuSeconds * 1000 / n, "ms"},
		"rss_mb":        {hr.rssMB, "MB"},
	}
}

func latenciesMS(answers []answer, keep func(int) bool) []float64 {
	var out []float64
	for i, a := range answers {
		if keep(i) {
			out = append(out, a.latency.Seconds()*1000)
		}
	}
	return out
}

// quantile is the linearly interpolated q-quantile of xs; 0 when xs is
// empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// printSummary writes a readable report to standard error.
func printSummary(w *Workload, hr *httpRun, e2e map[string]metric, res *result, traced bool) {
	fmt.Fprintf(os.Stderr, "perfbench %s seed=%d ops=%d wall=%.2fs steal=%.1f%% correct=%v\n",
		w.Name, w.Seed, len(w.Ops), hr.wall.Seconds(), 100*hr.steal, res.Correct)
	for _, m := range e2eMetrics {
		fmt.Fprintf(os.Stderr, "  %-16s %12.4f %s\n", m.name, e2e[m.name].Value, m.unit)
	}
	fmt.Fprintf(os.Stderr, "  %-16s %12.4f %s\n", "fail_frac", float64(res.Failed)/float64(res.Attempted), "ratio")
	if w.Name == "query-rw" {
		fmt.Fprintf(os.Stderr, "  %-16s %12.4f %s\n", "write_p50_ms", writeP50(w, hr.answers), "ms")
	}
	if traced {
		for _, k := range sortedKeys(res.Metrics) {
			fmt.Fprintf(os.Stderr, "  %-36s %14.4f %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
		}
	}
}

func writeP50(w *Workload, answers []answer) float64 {
	return median(latenciesMS(answers, func(i int) bool { return w.Ops[i].Kind == kindMutate }))
}

// qualityRecord describes the conditions a run measured under, so a
// noisy pair of runs can be explained.
func qualityRecord(w *Workload, hr *httpRun, cfg runConfig) map[string]any {
	return map[string]any{
		"workload":          w.Name,
		"seed":              w.Seed,
		"ops":               len(w.Ops),
		"seconds":           cfg.seconds,
		"trace":             cfg.traced,
		"steal_frac":        hr.steal,
		"server_cpu_s":      hr.cpuSeconds,
		"server_gomaxprocs": hr.after.TokenBudget + 1, // default budget is GOMAXPROCS-1
		"driver_gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":             runtime.NumCPU(),
		"go_version":        runtime.Version(),
		"setup_s_each":      hr.setup,
		"mix":               classCounts(w),
	}
}

// writeRecord stores the run's record, and the spans of a traced run,
// under the record directory.
func writeRecord(cfg runConfig, w *Workload, quality map[string]any, answers []answer, e2e map[string]metric, res *result, pair *pairRun) error {
	if err := os.MkdirAll(cfg.record, 0o755); err != nil {
		return err
	}
	classes := make([]string, len(w.Ops))
	for i, op := range w.Ops {
		classes[i] = w.class(op)
	}
	stem := filepath.Join(cfg.record, fmt.Sprintf("%s-seed%d-trace%v-%d", w.Name, w.Seed, cfg.traced, time.Now().Unix()))
	rec, err := json.MarshalIndent(map[string]any{
		"quality": quality, "end_to_end": e2e, "result": res,
		"latencies_ms": latenciesMS(answers, func(int) bool { return true }),
		"classes":      classes,
	}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(stem+".json", rec, 0o644); err != nil {
		return err
	}
	if pair == nil {
		return nil
	}
	spans, err := json.Marshal(pair.traced.tr.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(stem+"-spans.json", spans, 0o644)
}
