package main

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"sort"
	"strings"
)

// readBenchJSON loads a benchmark artifact written by writeBenchJSON.
func readBenchJSON(path string) (benchFile, error) {
	var f benchFile
	data, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// compareBench diffs a fresh benchmark run against a committed baseline
// artifact: every baseline entry whose name starts with one of the gate
// prefixes must exist in the fresh run and must not regress its
// per-operation time by more than tol (0.25 = 25% slower). A prefix
// that matches no baseline entry is itself a violation: the gate would
// check nothing. It returns a human-readable report and the list of
// violations (empty = gate passes). Entries outside the gate prefixes
// are reported for context but never fail the comparison.
//
// Baselines are committed artifacts measured on whatever machine cut
// the PR, while the fresh run executes on an arbitrary (CI) host, so
// raw ns/op ratios would gate on hardware speed as much as on code.
// When calibrate is non-empty, the median fresh/baseline ratio over the
// entries matching that prefix is treated as the machine-speed factor
// and divided out of every gated ratio before the tolerance check.
func compareBench(fresh, baseline benchFile, prefixes []string, tol float64, calibrate string) (string, []string) {
	freshBy := make(map[string]benchEntry, len(fresh.Benchmarks))
	for _, b := range fresh.Benchmarks {
		freshBy[b.Name] = b
	}
	gated := func(name string) bool {
		for _, p := range prefixes {
			if p != "" && strings.HasPrefix(name, p) {
				return true
			}
		}
		return false
	}

	var rep strings.Builder
	var failures []string
	for _, p := range prefixes {
		if p == "" || !slices.ContainsFunc(baseline.Benchmarks, func(b benchEntry) bool { return strings.HasPrefix(b.Name, p) }) {
			failures = append(failures, fmt.Sprintf(
				"gate prefix %q matched no baseline entries; the gate would check nothing", p))
		}
	}
	speed := 1.0
	if calibrate != "" {
		var ratios []float64
		for _, b := range baseline.Benchmarks {
			if !strings.HasPrefix(b.Name, calibrate) || b.NsPerOp <= 0 {
				continue
			}
			if f, ok := freshBy[b.Name]; ok && f.NsPerOp > 0 {
				ratios = append(ratios, f.NsPerOp/b.NsPerOp)
			}
		}
		if len(ratios) > 0 {
			sort.Float64s(ratios)
			speed = ratios[len(ratios)/2]
		} else {
			// A calibration prefix that matches nothing means the gate
			// would silently compare raw timings across machines — the
			// failure mode calibration exists to prevent. Fail loudly.
			failures = append(failures, fmt.Sprintf(
				"calibration prefix %q matched no entries present in both runs; gate cannot normalise machine speed", calibrate))
		}
	}
	fmt.Fprintf(&rep, "bench comparison: fresh %q vs baseline %q (tolerance %.0f%% on %s)\n",
		fresh.Experiment, baseline.Experiment, tol*100, strings.Join(prefixes, ", "))
	if calibrate != "" {
		fmt.Fprintf(&rep, "machine-speed calibration: median fresh/baseline over %q entries = %.2fx (divided out of gated ratios)\n",
			calibrate, speed)
	}
	names := make([]string, 0, len(baseline.Benchmarks))
	baseBy := make(map[string]benchEntry, len(baseline.Benchmarks))
	for _, b := range baseline.Benchmarks {
		names = append(names, b.Name)
		baseBy[b.Name] = b
	}
	sort.Strings(names)
	for _, name := range names {
		base := baseBy[name]
		f, ok := freshBy[name]
		mark := " "
		switch {
		case !ok:
			if gated(name) {
				failures = append(failures, fmt.Sprintf("%s: present in baseline but missing from the fresh run", name))
				mark = "✗"
			}
			fmt.Fprintf(&rep, "%s %-32s baseline %12.0f ns/op   fresh (missing)\n", mark, name, base.NsPerOp)
			continue
		case base.NsPerOp <= 0:
			fmt.Fprintf(&rep, "%s %-32s baseline has no timing, skipped\n", mark, name)
			continue
		}
		ratio := f.NsPerOp / base.NsPerOp
		if gated(name) {
			if ratio/speed > 1+tol {
				failures = append(failures, fmt.Sprintf("%s: %.0f ns/op vs baseline %.0f ns/op = %.2fx calibrated (limit %.2fx)",
					name, f.NsPerOp, base.NsPerOp, ratio/speed, 1+tol))
				mark = "✗"
			} else {
				mark = "✓"
			}
		}
		fmt.Fprintf(&rep, "%s %-32s baseline %12.0f ns/op   fresh %12.0f ns/op   %5.2fx\n",
			mark, name, base.NsPerOp, f.NsPerOp, ratio)
	}
	return rep.String(), failures
}
