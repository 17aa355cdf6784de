package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	htd "repro"
)

// edgeCase is one request and what the HTTP edge answers it with: the
// status, whether a Retry-After header comes with it, and the exact keys
// of the response body.
type edgeCase struct {
	name         string
	method, path string
	tenant, body string
	status       int
	retryAfter   bool
	keys         []string
	// errHas, when set, is a substring of the error that names the
	// class of an ok:false answer.
	errHas string
}

// The body keys of the error responses.
var (
	errorKeys     = []string{"error"}
	tenantKeys    = []string{"error", "retry_after_ms"}
	decomposeKeys = []string{"ok", "elapsed_ms", "cache_shared", "error"}
	submitKeys    = []string{"ok", "elapsed_ms", "cache_shared", "stats", "error"}
	queryKeys     = []string{"ok", "row_count", "plan_cache_hit", "plan_ms", "exec_ms", "error"}
)

func (c edgeCase) run(t *testing.T, base string) {
	t.Run(c.name, func(t *testing.T) {
		req, err := http.NewRequest(c.method, base+c.path, strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		if c.tenant != "" {
			req.Header.Set("X-Tenant", c.tenant)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != c.status {
			t.Fatalf("status %d, want %d: %.300s", resp.StatusCode, c.status, raw)
		}
		ra := resp.Header.Get("Retry-After")
		if secs, err := strconv.Atoi(ra); c.retryAfter && (err != nil || secs < 1) {
			t.Fatalf("Retry-After %q, want a positive number of seconds", ra)
		}
		if !c.retryAfter && ra != "" {
			t.Fatalf("Retry-After %q on a response that must not carry one", ra)
		}
		checkKeys(t, c.name, raw, c.keys)
		if !strings.Contains(string(raw), c.errHas) {
			t.Fatalf("error does not name %q: %s", c.errHas, raw)
		}
	})
}

// gridGraph is the m×m grid as a HyperBench hypergraph; a decide at
// k = 4 on the 10×10 grid runs far past a millisecond.
func gridGraph(m int) string {
	var b strings.Builder
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			if j+1 < m {
				fmt.Fprintf(&b, "h%d_%d(g%d_%d,g%d_%d), ", i, j, i, j, i, j+1)
			}
			if i+1 < m {
				fmt.Fprintf(&b, "v%d_%d(g%d_%d,g%d_%d), ", i, j, i, j, i+1, j)
			}
		}
	}
	return strings.TrimSuffix(b.String(), ", ") + "."
}

// TestEdgeStatusTable is the wall of the HTTP edge's error table: one
// request per endpoint and error class that a client can trigger, each
// with its status, its Retry-After header (only on a tenant-limited
// 429) and the keys of its error body. Deadlines, missing plans, row
// budgets and aggregate overflows are answers (200, ok:false); a body
// past the cap and a dataset over its limit 413; a missing dataset 404;
// an evicted version 410; the tenant wall and a full run queue 429; a
// closed service 503; anything else 400.
func TestEdgeStatusTable(t *testing.T) {
	const maxBody = 64 << 10
	huge := `{"hypergraph":"` + strings.Repeat("a", maxBody) + `","k":1}`
	tri := `{"hypergraph":"r1(x,y), r2(y,z), r3(z,x).","k":2}`
	dsQuery := func(extra string) string {
		return `{"query":"R(x,y), S(y,z), T(z,x).","dataset":"tri"` + extra + `}`
	}

	t.Run("plain", func(t *testing.T) {
		ts, _ := newEdgeServer(t, htd.ServiceConfig{
			TokenBudget: 2,
			MaxRows:     -1,
			Datasets:    htd.DatasetConfig{MaxTuples: 9},
		}, maxBody)
		// tri is at version 2 with version 1 evicted by the replacement.
		for range 2 {
			if resp, out := doData(t, http.MethodPut, ts.URL+"/data/tri", "", triangleData); resp.StatusCode != http.StatusOK {
				t.Fatalf("put tri: status %d %v", resp.StatusCode, out)
			}
		}
		// The slow /query below times out in execution, its plan cached.
		const path = `"query":"R(x,y), S(y,z).","omit_rows":true`
		if resp, out, raw := postQuery(t, ts.URL+"/query", `{`+path+`,"database":"rel R(c1,c2)\n1 0\nend\nrel S(c1,c2)\n0 1\nend\n"}`); resp.StatusCode != http.StatusOK || !out.OK {
			t.Fatalf("warm-up: status %d %s", resp.StatusCode, raw)
		}
		var r, s strings.Builder
		for i := range 2000 {
			fmt.Fprintf(&r, "%d 0\\n", i)
			fmt.Fprintf(&s, "0 %d\\n", i)
		}
		slow := `{` + path + `,"timeout_ms":20,"database":"rel R(c1,c2)\n` + r.String() + `end\nrel S(c1,c2)\n` + s.String() + `end\n"}`

		for _, c := range []edgeCase{
			{name: "decompose/invalid-json", method: "POST", path: "/decompose", body: `{not json`, status: 400, keys: errorKeys},
			{name: "decompose/oversized", method: "POST", path: "/decompose", body: huge, status: 413, keys: errorKeys},
			{name: "decompose/bad-k", method: "POST", path: "/decompose", body: `{"hypergraph":"r1(x,y).","k":0}`, status: 400, keys: decomposeKeys},
			{name: "decompose/bad-mode", method: "POST", path: "/decompose", body: `{"hypergraph":"r1(x,y).","k":1,"mode":"fast"}`, status: 400, keys: decomposeKeys},
			{name: "decompose/long-tenant", method: "POST", path: "/decompose", tenant: strings.Repeat("t", maxTenantIDLen+1), body: tri, status: 400, keys: errorKeys},
			{name: "decompose/deadline", method: "POST", path: "/decompose",
				body:   `{"hypergraph":"` + gridGraph(10) + `","k":4,"timeout_ms":1}`,
				status: 200, errHas: "deadline exceeded", keys: slices.Concat(submitKeys, []string{"timed_out"})},

			{name: "query/invalid-json", method: "POST", path: "/query", body: `{not json`, status: 400, keys: errorKeys},
			{name: "query/oversized", method: "POST", path: "/query", body: huge, status: 413, keys: errorKeys},
			{name: "query/missing-query", method: "POST", path: "/query", body: `{"database":"rel R(a)\nend\n"}`, status: 400, keys: queryKeys},
			{name: "query/parse", method: "POST", path: "/query", body: `{"query":"R(x","database":""}`, status: 400, keys: queryKeys},
			{name: "query/unknown-relation", method: "POST", path: "/query", body: `{"query":"Q(x).","database":"rel R(a)\n1\nend\n"}`, status: 400, keys: queryKeys},
			{name: "query/future-version", method: "POST", path: "/query", body: dsQuery(`,"at_version":99`), status: 400, keys: queryKeys},
			{name: "query/not-found", method: "POST", path: "/query", body: `{"query":"R(x,y).","dataset":"nope"}`, status: 404, keys: queryKeys},
			{name: "query/version-gone", method: "POST", path: "/query", body: dsQuery(`,"at_version":1`), status: 410, keys: queryKeys},
			{name: "query/no-plan", method: "POST", path: "/query", body: dsQuery(`,"max_width":1`), status: 200, errHas: "no decomposition", keys: queryKeys},
			{name: "query/row-budget", method: "POST", path: "/query", body: dsQuery(`,"max_rows":1`), status: 200, errHas: "row budget", keys: queryKeys},
			{name: "query/aggregate-overflow", method: "POST", path: "/query",
				body:   `{"query":"R(x).","aggregate":"sum(x)","database":"rel R(c1)\n9223372036854775807\n1\nend\n"}`,
				status: 200, errHas: "overflows", keys: queryKeys},
			{name: "query/deadline", method: "POST", path: "/query", body: slow, status: 200, errHas: "deadline exceeded", keys: slices.Concat(queryKeys, []string{"timed_out"})},

			{name: "data/put-over-cap", method: "PUT", path: "/data/big", body: triangleData + "rel U(c1)\n1\nend\n", status: 413, keys: errorKeys},
			{name: "data/put-oversized", method: "PUT", path: "/data/big", body: strings.Repeat("#", maxBody+1), status: 413, keys: errorKeys},
			{name: "data/put-parse", method: "PUT", path: "/data/bad", body: "rel R(\n", status: 400, keys: errorKeys},
			{name: "data/get-not-found", method: "GET", path: "/data/nope", status: 404, keys: errorKeys},
			{name: "data/delete-not-found", method: "DELETE", path: "/data/nope", status: 404, keys: errorKeys},
			{name: "data/mutate-not-found", method: "POST", path: "/data/nope/mutate", body: `{"op":"insert","rel":"R","rows":[[9,9]]}`, status: 404, keys: errorKeys},
			{name: "data/mutate-over-cap", method: "POST", path: "/data/tri/mutate", body: `{"op":"insert","rel":"R","rows":[[9,9]]}`, status: 413, keys: errorKeys},
			{name: "data/mutate-oversized", method: "POST", path: "/data/tri/mutate", body: strings.Repeat(" ", maxBody+1), status: 413, keys: errorKeys},
			{name: "data/mutate-bad-op", method: "POST", path: "/data/tri/mutate", body: `{"op":"upsert","rel":"R","rows":[[1,1]]}`, status: 400, keys: errorKeys},

			{name: "cache/bad-max", method: "GET", path: "/cache?max=-1", status: 400, keys: errorKeys},
		} {
			c.run(t, ts.URL)
		}
	})

	t.Run("tenant-limited", func(t *testing.T) {
		ts, _ := newEdgeServer(t, htd.ServiceConfig{
			TokenBudget: 2,
			Tenants:     htd.TenantConfig{Rate: 0.001, Burst: 1},
		}, maxBody)
		// The greedy tenant spends its one admission.
		if resp, out := doData(t, http.MethodPut, ts.URL+"/data/tri", "greedy", triangleData); resp.StatusCode != http.StatusOK {
			t.Fatalf("put tri: status %d %v", resp.StatusCode, out)
		}
		for _, c := range []edgeCase{
			{name: "decompose", method: "POST", path: "/decompose", body: tri, keys: slices.Concat(submitKeys, []string{"retry_after_ms"})},
			{name: "query", method: "POST", path: "/query", body: dsQuery(""), keys: slices.Concat(queryKeys, []string{"retry_after_ms"})},
			{name: "data/put", method: "PUT", path: "/data/tri", body: triangleData, keys: tenantKeys},
			{name: "data/mutate", method: "POST", path: "/data/tri/mutate", body: `{"op":"insert","rel":"R","rows":[[9,9]]}`, keys: tenantKeys},
		} {
			c.tenant, c.status, c.retryAfter = "greedy", 429, true
			c.run(t, ts.URL)
		}
	})

	t.Run("overloaded", func(t *testing.T) {
		ts, svc := newEdgeServer(t, htd.ServiceConfig{TokenBudget: 1, MaxConcurrent: 1, MaxQueue: 1}, maxBody)
		// One grid search holds the run slot and another fills the queue;
		// neither finishes before the cancel.
		ctx, cancel := context.WithCancel(context.Background())
		var wg sync.WaitGroup
		defer wg.Wait()
		defer cancel()
		for _, m := range []int{8, 9} {
			h, err := htd.ParseString(gridGraph(m))
			if err != nil {
				t.Fatal(err)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				svc.Submit(ctx, htd.ServiceRequest{H: h, K: 4})
			}()
		}
		deadline := time.Now().Add(10 * time.Second)
		for st := svc.Stats(); st.Running != 1 || st.Waiting != 1; st = svc.Stats() {
			if time.Now().After(deadline) {
				t.Fatalf("jobs did not settle into run+wait: %+v", st)
			}
			time.Sleep(time.Millisecond)
		}
		for _, c := range []edgeCase{
			{name: "decompose", method: "POST", path: "/decompose", body: tri, keys: submitKeys},
			{name: "query", method: "POST", path: "/query", body: triangleQueryBody, keys: queryKeys},
		} {
			c.status = 429
			c.run(t, ts.URL)
		}
	})

	t.Run("closed", func(t *testing.T) {
		ts, svc := newEdgeServer(t, htd.ServiceConfig{TokenBudget: 2}, maxBody)
		svc.Close()
		for _, c := range []edgeCase{
			{name: "decompose", method: "POST", path: "/decompose", body: tri, keys: submitKeys},
			{name: "query", method: "POST", path: "/query", body: triangleQueryBody, keys: queryKeys},
		} {
			c.status = 503
			c.run(t, ts.URL)
		}
	})
}
