package main

import (
	"encoding/json"
	"net/http"
	"slices"
	"strings"
	"testing"

	htd "repro"
)

// TestStatsValuesGolden pins the values of GET /stats after a fixed
// serial request script on a one-worker server: the outcome counters of
// every layer (service, tenant wall, query planner with its executor
// totals, dataset registry, parse cache). Fields that depend on
// scheduling or time are left out: the token high-water mark, tenant
// tokens and latency quantiles, and the solver's effort (search
// counters, memo tables and states, width probes and their
// cancellations). TestWireKeysGolden pins the key sets.
func TestStatsValuesGolden(t *testing.T) {
	ts, _ := newEdgeServer(t, htd.ServiceConfig{TokenBudget: 1, MaxConcurrent: 1}, 0)

	const cycle5 = `"hypergraph":"r1(a,b), r2(b,c), r3(c,d), r4(d,e), r5(e,a)."`
	const dsQuery = `{"query":"R(x,y), S(y,z), T(z,x).","dataset":"tri"`
	script := []struct {
		method, path, body string
		status             int
	}{
		{http.MethodPut, "/data/tri", triangleData, http.StatusOK},
		{http.MethodPost, "/decompose", `{` + cycle5 + `,"k":2}`, http.StatusOK}, // cold
		{http.MethodPost, "/decompose", `{` + cycle5 + `,"k":2}`, http.StatusOK}, // positive hit
		{http.MethodPost, "/decompose", `{` + cycle5 + `,"k":1}`, http.StatusOK}, // refuted width
		{http.MethodPost, "/decompose", `{` + cycle5 + `,"k":1}`, http.StatusOK}, // negative hit
		{http.MethodPost, "/query", dsQuery + `}`, http.StatusOK},                // cold plan
		// The same triangle at the same version reads the cached bag.
		{http.MethodPost, "/query", dsQuery + `,"aggregate":"count"}`, http.StatusOK},
		{http.MethodPost, "/query", `{"query":"R(x,y","dataset":"tri"}`, http.StatusBadRequest},
		{http.MethodPost, "/query", `{"query":"R(x,y), U(y,z).","dataset":"tri"}`, http.StatusBadRequest},
		{http.MethodPost, "/query", triangleQueryBody, http.StatusOK}, // parse miss
		{http.MethodPost, "/query", triangleQueryBody, http.StatusOK}, // parse hit
		{http.MethodPost, "/data/tri/mutate", `{"op":"insert","rel":"R","rows":[[4,3]]}`, http.StatusOK},
	}
	for i, step := range script {
		req, err := http.NewRequest(step.method, ts.URL+step.path, strings.NewReader(step.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != step.status {
			t.Fatalf("step %d %s %s: status %d, want %d", i, step.method, step.path, resp.StatusCode, step.status)
		}
	}

	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"Submitted": 8, "Completed": 8, "Failed": 0, "Rejected": 0, "Running": 0, "Waiting": 0,
		"TokenBudget": 1, "TokensInUse": 0,
		"SolverRuns": 3, "PositiveHits": 4, "NegativeHits": 1, "Coalesced": 0,
		"StoreEntries": 2, "StoreTrees": 2, "StoreEvictions": 0, "CacheReuses": 5,
		"OptimalJobs": 4, "BoundsGraphs": 2, "BoundsReuses": 3,

		"Tenants.default.admitted": 11, "Tenants.default.rate_rejected": 0,
		"Tenants.default.load_rejected": 0, "Tenants.default.completed": 10,
		"Tenants.default.failed": 1, "Tenants.default.in_flight": 0, "Tenants.default.queued": 0,

		"query.Queries": 5, "query.Answered": 4, "query.PlanCacheHits": 3, "query.PlanCoalesced": 0,
		"query.PlanFailures": 1, "query.ExecFailures": 0, "query.TenantLimited": 0,
		"query.RowsReturned": 6, "query.AggQueries": 1, "query.AggGroups": 1, "query.DatasetQueries": 3,
		"query.ExecIndexBuilds": 4, "query.ExecIndexReuses": 3,
		"query.ExecIndexProbes": 21, "query.ExecBagReuses": 1,

		"datasets.datasets": 1, "datasets.queries": 3, "datasets.mutations": 1,
		"parse_cache.hits": 1, "parse_cache.misses": 1, "parse_cache.coalesced": 0,
	}
	skip := []string{
		"TokensHighWater", "Tenants.default.tokens", "Tenants.default.p50_ms", "Tenants.default.p99_ms",
		"Solver.", "MemoGraphs", "MemoEntries", "ProbesLaunched", "ProbesCancelled", "CancelledByWidth.",
	}
	seen := map[string]bool{}
	var walk func(path string, v any)
	walk = func(path string, v any) {
		if m, ok := v.(map[string]any); ok {
			for k, x := range m {
				walk(strings.TrimPrefix(path+"."+k, "."), x)
			}
			return
		}
		if slices.ContainsFunc(skip, func(p string) bool { return strings.HasPrefix(path, p) }) {
			return
		}
		w, ok := want[path]
		if !ok {
			t.Errorf("%s = %v: not in the golden table", path, v)
			return
		}
		seen[path] = true
		if v != w {
			t.Errorf("%s = %v, want %v", path, v, w)
		}
	}
	walk("", stats)
	for path := range want {
		if !seen[path] {
			t.Errorf("%s missing from /stats", path)
		}
	}
}
