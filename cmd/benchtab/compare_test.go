package main

import (
	"strings"
	"testing"
)

func bench(name string, ns float64) benchEntry {
	return benchEntry{Name: name, NsPerOp: ns, Ops: 1}
}

// TestCompareBenchGate: gated entries fail past the tolerance, ungated
// entries never do, and a gated entry missing from the fresh run is a
// violation (a renamed benchmark must not silently disable the gate),
// as is a gate prefix that matches no baseline entry at all.
func TestCompareBenchGate(t *testing.T) {
	baseline := benchFile{Experiment: "query", Benchmarks: []benchEntry{
		bench("query-warm/a", 100),
		bench("query-warm/b", 100),
		bench("query-cold/a", 100),
	}}

	// Within tolerance everywhere: no violations.
	fresh := benchFile{Experiment: "query", Benchmarks: []benchEntry{
		bench("query-warm/a", 120),
		bench("query-warm/b", 90),
		bench("query-cold/a", 500), // ungated: regression ignored
	}}
	report, failures := compareBench(fresh, baseline, []string{"query-warm"}, 0.25, "")
	if len(failures) != 0 {
		t.Fatalf("unexpected violations: %v\n%s", failures, report)
	}
	if !strings.Contains(report, "query-cold/a") {
		t.Fatalf("ungated entries should still be reported:\n%s", report)
	}

	// A gated entry past the tolerance fails.
	fresh.Benchmarks[0] = bench("query-warm/a", 126)
	_, failures = compareBench(fresh, baseline, []string{"query-warm"}, 0.25, "")
	if len(failures) != 1 || !strings.Contains(failures[0], "query-warm/a") {
		t.Fatalf("expected one query-warm/a violation, got %v", failures)
	}

	// A gated entry missing from the fresh run fails too.
	fresh.Benchmarks = fresh.Benchmarks[1:]
	_, failures = compareBench(fresh, baseline, []string{"query-warm"}, 0.5, "")
	if len(failures) != 1 || !strings.Contains(failures[0], "missing") {
		t.Fatalf("expected a missing-entry violation, got %v", failures)
	}

	// Multiple gate prefixes compose.
	_, failures = compareBench(fresh, baseline, []string{"query-warm", "query-cold"}, 0.25, "")
	if len(failures) != 2 {
		t.Fatalf("expected 2 violations with the cold gate on, got %v", failures)
	}

	// A prefix naming no baseline entry (a retired experiment, a typo)
	// fails loudly instead of passing with nothing checked; so does an
	// empty prefix, which is what an unset -gate splits into.
	fresh.Benchmarks = baseline.Benchmarks
	for _, prefixes := range [][]string{{"query-warmup"}, {"query-warm", "no-such-entry"}, {""}} {
		_, failures = compareBench(fresh, baseline, prefixes, 0.25, "")
		if len(failures) != 1 || !strings.Contains(failures[0], "matched no baseline entries") {
			t.Fatalf("gate %q: want one unmatched-prefix violation, got %v", prefixes, failures)
		}
	}
}

// TestCompareBenchCalibration: on a uniformly slower machine every raw
// ratio exceeds the tolerance, but dividing out the median ratio of the
// calibration entries (machine speed) keeps the gate quiet — while a
// genuine regression on top of the slowdown still fails.
func TestCompareBenchCalibration(t *testing.T) {
	baseline := benchFile{Experiment: "query", Benchmarks: []benchEntry{
		bench("query-cold/a", 100),
		bench("query-cold/b", 100),
		bench("query-cold/c", 100),
		bench("query-warm/a", 100),
		bench("query-warm/b", 100),
	}}
	// The whole run is 2x slower (a slow CI runner), warm unchanged
	// relative to cold.
	fresh := benchFile{Experiment: "query", Benchmarks: []benchEntry{
		bench("query-cold/a", 190),
		bench("query-cold/b", 200),
		bench("query-cold/c", 210),
		bench("query-warm/a", 200),
		bench("query-warm/b", 210),
	}}
	report, failures := compareBench(fresh, baseline, []string{"query-warm"}, 0.25, "")
	if len(failures) != 2 {
		t.Fatalf("uncalibrated: want 2 hardware-induced violations, got %v\n%s", failures, report)
	}
	report, failures = compareBench(fresh, baseline, []string{"query-warm"}, 0.25, "query-cold")
	if len(failures) != 0 {
		t.Fatalf("calibrated: hardware slowdown must not trip the gate: %v\n%s", failures, report)
	}
	if !strings.Contains(report, "calibration") {
		t.Fatalf("report should state the calibration factor:\n%s", report)
	}

	// A real 2x regression of one warm entry on the slow machine: only
	// that entry fails after calibration.
	fresh.Benchmarks[4] = bench("query-warm/b", 420)
	_, failures = compareBench(fresh, baseline, []string{"query-warm"}, 0.25, "query-cold")
	if len(failures) != 1 || !strings.Contains(failures[0], "query-warm/b") {
		t.Fatalf("calibrated: want the real regression only, got %v", failures)
	}

	// A calibration prefix matching nothing must fail the gate loudly,
	// not silently fall back to raw cross-machine timings.
	_, failures = compareBench(fresh, baseline, []string{"query-warm/a"}, 0.25, "no-such-prefix")
	found := false
	for _, f := range failures {
		if strings.Contains(f, "matched no entries") {
			found = true
		}
	}
	if !found {
		t.Fatalf("want a loud calibration-miss violation, got %v", failures)
	}
}
