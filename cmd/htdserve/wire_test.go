package main

import (
	"encoding/json"
	"maps"
	"net/http"
	"slices"
	"testing"
)

// TestWireKeysGolden pins the JSON key sets of GET /stats and of the
// exec object in a /query response. The other tests decode these
// payloads into the server's own Go types, where a renamed key reads as
// zero; external readers such as perfbench match on the raw keys.
func TestWireKeysGolden(t *testing.T) {
	ts, _ := newTestServer(t)

	resp, out, raw := postQuery(t, ts.URL+"/query", triangleQueryBody)
	if resp.StatusCode != http.StatusOK || !out.OK {
		t.Fatalf("query: status %d: %s", resp.StatusCode, raw)
	}
	var query map[string]json.RawMessage
	if err := json.Unmarshal(raw, &query); err != nil {
		t.Fatal(err)
	}
	checkKeys(t, "query exec", query["exec"], []string{
		"index_builds", "index_reuses", "index_probes", "bag_reuses", "semijoins",
		"joins",
	})

	sresp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var stats json.RawMessage
	if err := json.NewDecoder(sresp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	top := checkKeys(t, "stats", stats, []string{
		"Submitted", "Completed", "Failed", "Rejected", "Running", "Waiting",
		"TokenBudget", "TokensInUse", "TokensHighWater",
		"SolverRuns", "StructuralRefutations", "PositiveHits", "NegativeHits", "Coalesced",
		"StoreEntries", "StoreTrees", "StoreEvictions",
		"MemoGraphs", "MemoEntries", "CacheReuses",
		"OptimalJobs", "ProbesLaunched", "BoundsGraphs", "BoundsReuses",
		"Solver", "Tenants",
		"query", "datasets",
	})
	checkKeys(t, "stats Solver", top["Solver"], []string{
		"Candidates", "ParentCands", "MaxDepth", "HybridCalls", "DetKCandidates", "TokensGrabbed", "MemoHits",
	})
	checkKeys(t, "stats query", top["query"], []string{
		"Queries", "Answered", "PlanCacheHits", "PlanCoalesced", "PlanFailures",
		"ExecFailures", "TenantLimited", "RowsReturned", "AggQueries", "AggGroups",
		"DatasetQueries", "ExecIndexBuilds", "ExecIndexReuses",
		"ExecIndexProbes", "ExecBagReuses",
	})
	checkKeys(t, "stats datasets", top["datasets"], []string{"datasets", "queries", "mutations"})
}

// checkKeys fails unless the JSON object raw has exactly the keys want,
// and returns its members.
func checkKeys(t *testing.T, name string, raw json.RawMessage, want []string) map[string]json.RawMessage {
	t.Helper()
	var obj map[string]json.RawMessage
	if err := json.Unmarshal(raw, &obj); err != nil || obj == nil {
		t.Fatalf("%s: not a JSON object (%v): %s", name, err, raw)
	}
	got := slices.Sorted(maps.Keys(obj))
	want = slices.Sorted(slices.Values(want))
	if !slices.Equal(got, want) {
		t.Fatalf("%s keys:\n got %q\nwant %q", name, got, want)
	}
	return obj
}
