package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	htd "repro"
)

// startServer serves h on a loopback test server closed when the test
// ends. net/http recovers a handler's panic and only logs it, so the
// server's error log fails the test on any line naming a panic; other
// lines go to the test log.
func startServer(t *testing.T, h http.Handler) *httptest.Server {
	t.Helper()
	ts := httptest.NewUnstartedServer(h)
	ts.Config.ErrorLog = log.New(panicFailer{t}, "", 0)
	ts.Start()
	t.Cleanup(ts.Close)
	return ts
}

// panicFailer is a server error log that fails t on a panic line.
type panicFailer struct{ t *testing.T }

func (p panicFailer) Write(b []byte) (int, error) {
	if bytes.Contains(b, []byte("panic")) {
		p.t.Errorf("server logged a panic: %s", b)
	} else {
		p.t.Logf("server log: %s", b)
	}
	return len(b), nil
}

func newTestServer(t *testing.T) (*httptest.Server, *htd.Service) {
	t.Helper()
	svc := htd.NewService(htd.ServiceConfig{
		TokenBudget:    2,
		MaxConcurrent:  4,
		MaxQueue:       64,
		DefaultTimeout: 30 * time.Second,
	})
	ts := startServer(t, newHandler(svc, 0))
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})
	return ts, svc
}

func postJSON(t *testing.T, url, body string) (*http.Response, apiResponse) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out apiResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return resp, out
}

func TestServeDecomposeEndToEnd(t *testing.T) {
	ts, _ := newTestServer(t)

	// Width-2 triangle: expect a valid tree and a width of 2.
	resp, out := postJSON(t, ts.URL+"/decompose",
		`{"hypergraph":"r1(x,y), r2(y,z), r3(z,x).","k":2,"render":true}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if !out.OK || out.Width != 2 || out.Tree == nil {
		t.Fatalf("unexpected result: %+v", out)
	}
	if len(out.Tree.Lambda) == 0 || len(out.Tree.Bag) == 0 {
		t.Fatalf("tree not resolved to names: %+v", out.Tree)
	}
	if !strings.Contains(out.Rendering, "lambda=") {
		t.Fatalf("rendering missing: %q", out.Rendering)
	}
	if out.Stats == nil || out.Stats.Candidates+out.Stats.DetKCandidates == 0 {
		t.Fatalf("solver stats missing: %+v", out.Stats)
	}

	// Same structure again: the cross-request memo table must be found.
	_, again := postJSON(t, ts.URL+"/decompose",
		`{"hypergraph":"r1(x,y), r2(y,z), r3(z,x).","k":2}`)
	if !again.CacheShared {
		t.Fatalf("second identical request should share the memo cache: %+v", again)
	}

	// Definitive NO is a 200 with ok=false and no error.
	resp, no := postJSON(t, ts.URL+"/decompose",
		`{"hypergraph":"r1(x,y), r2(y,z), r3(z,x).","k":1}`)
	if resp.StatusCode != http.StatusOK || no.OK || no.Error != "" {
		t.Fatalf("k=1 triangle: status=%d %+v", resp.StatusCode, no)
	}

	// Bad inputs are 400s.
	for _, body := range []string{
		`{"hypergraph":"r1(x,y).","k":0}`,
		`{"k":2}`,
		`{"hypergraph":"not a ( graph","k":2}`,
		`{invalid json`,
	} {
		resp, _ := postJSON(t, ts.URL+"/decompose", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("body %q: status %d, want 400", body, resp.StatusCode)
		}
	}
}

// TestServeDecideCachedRefutationReportsBound: a decide job answered NO
// from the cached bounds reports the bound it was answered with, as an
// optimal job answered from the cache does. That is K+1 only when the
// cached bound is: the first triangle at k:1 is refuted by the
// structural bound, which banks LB 2, and its repeat is a cache hit
// with lower_bound 2 from "memo"; an optimal job on the 5-clique banks
// LB 3, and a decide job at k:1 after it reports 3 from "memo".
func TestServeDecideCachedRefutationReportsBound(t *testing.T) {
	const (
		triangle = `"r1(x,y), r2(y,z), r3(z,x)."`
		clique5  = `"e01(v0,v1), e02(v0,v2), e03(v0,v3), e04(v0,v4), e12(v1,v2), e13(v1,v3), e14(v1,v4), e23(v2,v3), e24(v2,v4), e34(v3,v4)."`
	)
	for _, tc := range []struct {
		name, prime, decide string
		primeOK             bool   // the prime's answer
		lb                  int    // the bound the prime banks and the decide job reports
		primeFrom           string // the prime's lower_bound_from
	}{
		{"triangle", `{"hypergraph":` + triangle + `,"k":1}`, `{"hypergraph":` + triangle + `,"k":1}`, false, 2, "structural"},
		{"clique5-after-optimal", `{"hypergraph":` + clique5 + `,"k":5,"mode":"optimal"}`, `{"hypergraph":` + clique5 + `,"k":1}`, true, 3, "structural"},
	} {
		ts, _ := newTestServer(t)
		_, first := postJSON(t, ts.URL+"/decompose", tc.prime)
		if first.OK != tc.primeOK || first.CacheHit || first.LowerBound != tc.lb || first.LowerBoundFrom != tc.primeFrom {
			t.Fatalf("%s: prime %+v, want ok=%v with lower bound %d from %q", tc.name, first, tc.primeOK, tc.lb, tc.primeFrom)
		}
		resp, again := postJSON(t, ts.URL+"/decompose", tc.decide)
		if resp.StatusCode != http.StatusOK || again.OK || again.Error != "" || !again.CacheHit {
			t.Fatalf("%s: decide status=%d %+v, want a cached NO", tc.name, resp.StatusCode, again)
		}
		if again.LowerBound != tc.lb || again.LowerBoundFrom != "memo" {
			t.Fatalf("%s: decide lower bound %d from %q, want %d from memo", tc.name, again.LowerBound, again.LowerBoundFrom, tc.lb)
		}
	}
}

// TestServeDecideSearchRefutationReportsBound: a decide job that a
// search refutes reports lower_bound K+1 from "probe", as structural and
// cached refutations report theirs. earedPrism(8) at k=2 is one the
// structural bound (2) leaves to the search; its repeat is a cache hit
// with the same bound from "memo".
func TestServeDecideSearchRefutationReportsBound(t *testing.T) {
	ts, _ := newTestServer(t)
	body, _ := json.Marshal(map[string]any{"hypergraph": earedPrism(8), "k": 2})
	_, first := postJSON(t, ts.URL+"/decompose", string(body))
	if first.OK || first.Error != "" || first.CacheHit || first.Stats == nil || first.Stats.DetKCandidates+first.Stats.Candidates == 0 {
		t.Fatalf("earedPrism(8) k=2: %+v, want a NO found by a search", first)
	}
	if first.LowerBound != 3 || first.LowerBoundFrom != "probe" {
		t.Fatalf("earedPrism(8) k=2: lower bound %d from %q, want 3 from probe", first.LowerBound, first.LowerBoundFrom)
	}
	_, again := postJSON(t, ts.URL+"/decompose", string(body))
	if again.OK || !again.CacheHit || again.LowerBound != 3 || again.LowerBoundFrom != "memo" {
		t.Fatalf("repeat: %+v, want a cached NO with lower bound 3 from memo", again)
	}
}

// prism8 is the 8-prism C_8 × K_2 (hw 3) in HyperBench syntax. In this
// vertex order the structural lower bound is 3: it refutes width 2
// without a search.
func prism8() string {
	var b strings.Builder
	for i := 0; i < 8; i++ {
		j := (i + 1) % 8
		fmt.Fprintf(&b, "ra%d(a%d,a%d), rb%d(b%d,b%d), rr%d(a%d,b%d), ", i, i, j, i, i, j, i, i, i)
	}
	return strings.TrimSuffix(strings.TrimSpace(b.String()), ",") + "."
}

// earedPrism is the n-prism with a private vertex added to rungs 0 and
// 1 (hw 3). Two three-vertex edges cover the five vertices a bag of the
// prism needs, so its structural lower bound is 2: width 2 is refuted
// by a search.
// At k=2 the hybrid hands it to det-k-decomp whole up to n = 13 and
// searches the root with log-k-decomp from n = 14 on.
func earedPrism(n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		j := (i + 1) % n
		fmt.Fprintf(&b, "ra%d(a%d,a%d), rb%d(b%d,b%d), ", i, i, j, i, i, j)
		if i < 2 {
			fmt.Fprintf(&b, "rr%d(a%d,b%d,p%d), ", i, i, i, i)
		} else {
			fmt.Fprintf(&b, "rr%d(a%d,b%d), ", i, i, i)
		}
	}
	return strings.TrimSuffix(strings.TrimSpace(b.String()), ",") + "."
}

// TestOneSolverConfiguration: every job follows one rule. Each rung
// runs det-k-decomp first on a fixed label budget and falls back to the
// paper's hybrid only when that runs out. earedPrism(8), whose width-2
// refutation the structural lower bound leaves to the search, is
// decided by det-k at k = 2 and 3: a decide job, an optimal job and a
// cold /query plan each raise /stats' Solver.DetKCandidates and run no
// log-k search (Candidates and HybridCalls stay 0). earedPrism(20)'s
// width-2 refutation outlasts the budget, so its jobs fall back and
// report log-k Candidates. A body that still sends the retired
// "hybrid":"none", "workers" or "max_probes" gets the same rule. The
// decompose answers agree, also with a timeout_ms too large to convert
// to nanoseconds, which the server clamps to its -timeout. Each request
// gets a fresh server so none comes from the plan cache.
func TestOneSolverConfiguration(t *testing.T) {
	solverStats := func(t *testing.T, url string) htd.SolverStats {
		t.Helper()
		resp, err := http.Get(url + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st htd.ServiceStats
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return st.Solver
	}
	const armBudget = 1 << 16 // det-k's label budget per rung
	// detkOnly reports whether st is the effort of rungs det-k decided.
	detkOnly := func(st htd.SolverStats) bool {
		return st.DetKCandidates > 0 && st.HybridCalls == 0 && st.Candidates == 0 && st.ParentCands == 0
	}
	for _, tc := range []struct {
		n, k     int
		fallback bool
	}{{8, 2, false}, {8, 3, false}, {20, 2, true}} {
		var answers []apiResponse
		for _, extra := range []map[string]any{
			{},
			{"hybrid": "none"},
			{"mode": "optimal"},
			{"workers": 1},
			{"mode": "optimal", "max_probes": 1},
			{"timeout_ms": int64(76480200929599801)},
			{"timeout_ms": int64(18446744073710)},
		} {
			req := map[string]any{"hypergraph": earedPrism(tc.n), "k": tc.k}
			for key, v := range extra {
				req[key] = v
			}
			body, _ := json.Marshal(req)
			ts, _ := newTestServer(t)
			resp, out := postJSON(t, ts.URL+"/decompose", string(body))
			if resp.StatusCode != http.StatusOK || out.Error != "" || out.CacheHit || out.Stats == nil {
				t.Fatalf("n=%d k=%d %v: status %d %+v", tc.n, tc.k, extra, resp.StatusCode, out)
			}
			if tc.fallback {
				if out.Stats.DetKCandidates <= armBudget || out.Stats.Candidates == 0 {
					t.Fatalf("n=%d k=%d %v: job did not fall back to log-k: %+v", tc.n, tc.k, extra, out.Stats)
				}
				if got := solverStats(t, ts.URL); got.Candidates == 0 {
					t.Fatalf("n=%d k=%d %v: /stats Solver %+v, want log-k candidates", tc.n, tc.k, extra, got)
				}
			} else {
				if !detkOnly(*out.Stats) {
					t.Fatalf("n=%d k=%d %v: job was not decided by det-k alone: %+v", tc.n, tc.k, extra, out.Stats)
				}
				if got := solverStats(t, ts.URL); !detkOnly(got) {
					t.Fatalf("n=%d k=%d %v: /stats Solver %+v", tc.n, tc.k, extra, got)
				}
			}
			answers = append(answers, out)
		}
		for _, a := range answers[1:] {
			if a.OK != answers[0].OK || a.Width != answers[0].Width {
				t.Fatalf("n=%d k=%d: answers disagree: ok/width %v/%d vs %v/%d",
					tc.n, tc.k, answers[0].OK, answers[0].Width, a.OK, a.Width)
			}
		}
		if want := tc.k == 3; answers[0].OK != want || (want && answers[0].Width != 3) {
			t.Fatalf("n=%d k=%d: ok=%v width=%d, want ok=%v width 3", tc.n, tc.k, answers[0].OK, answers[0].Width, want)
		}
	}

	ts, _ := newTestServer(t)
	if resp, out, raw := postQuery(t, ts.URL+"/query", triangleQueryBody); resp.StatusCode != http.StatusOK || out.PlanCacheHit {
		t.Fatalf("cold /query: status %d %s", resp.StatusCode, raw)
	}
	if got := solverStats(t, ts.URL); !detkOnly(got) {
		t.Fatalf("cold /query plan: /stats Solver %+v", got)
	}
}

func TestServeOptimalMode(t *testing.T) {
	ts, _ := newTestServer(t)

	// Optimal mode on a width-3 prism (cylinder): exact width, valid
	// tree, and a lower bound the structural bound proves before any
	// probe runs.
	body, _ := json.Marshal(map[string]any{
		"hypergraph": prism8(),
		"k":          6,
		"mode":       "optimal",
	})
	resp, out := postJSON(t, ts.URL+"/decompose", string(body))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if !out.OK || out.Width != 3 || out.Tree == nil {
		t.Fatalf("optimal result: %+v", out)
	}
	if out.LowerBound != 3 || out.LowerBoundFrom != "structural" {
		t.Fatalf("lower bound %d from %q, want 3 from structural", out.LowerBound, out.LowerBoundFrom)
	}
	if out.ProbesLaunched != 1 {
		t.Fatalf("probes launched %d, want 1: the bound is tight, so the ladder's first width finds the witness", out.ProbesLaunched)
	}

	// A second optimal request on the same structure starts from the
	// cached bounds.
	_, again := postJSON(t, ts.URL+"/decompose", string(body))
	if !again.OK || again.Width != 3 {
		t.Fatalf("repeat optimal request: %+v", again)
	}
	if !again.BoundsShared || again.LowerBoundFrom != "memo" {
		t.Fatalf("repeat should reuse cached bounds: shared=%v from=%q",
			again.BoundsShared, again.LowerBoundFrom)
	}

	// /stats surfaces the optimal-mode counters.
	sresp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var st htd.ServiceStats
	if err := json.NewDecoder(sresp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.OptimalJobs != 2 || st.ProbesLaunched == 0 || st.BoundsReuses != 1 {
		t.Fatalf("optimal stats not surfaced: %+v", st)
	}

	// An unknown mode is a 400.
	resp, _ = postJSON(t, ts.URL+"/decompose",
		`{"hypergraph":"r1(x,y).","k":2,"mode":"nope"}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown mode: status %d, want 400", resp.StatusCode)
	}
}

// TestRetiredWorkersFieldIgnored: a request cannot lower its own search
// parallelism. A "workers":1 body still searches with the service's
// TokenBudget+1 workers, so a cold refutation of earedPrism(20) at k=2
// (1,830 root candidates) on a server with two spare tokens grabs at
// least one.
func TestRetiredWorkersFieldIgnored(t *testing.T) {
	ts, _ := newTestServer(t)
	body, _ := json.Marshal(map[string]any{
		"hypergraph": earedPrism(20),
		"k":          2,
		"workers":    1,
	})
	resp, out := postJSON(t, ts.URL+"/decompose", string(body))
	if resp.StatusCode != http.StatusOK || out.Error != "" || out.OK || out.Stats == nil {
		t.Fatalf("status %d %+v, want a NO with stats", resp.StatusCode, out)
	}
	if out.Stats.TokensGrabbed < 1 {
		t.Fatalf("TokensGrabbed=%d: the job searched with fewer workers than the service's", out.Stats.TokensGrabbed)
	}
}

func TestServeBatchStreamsInOrder(t *testing.T) {
	ts, _ := newTestServer(t)

	lines := []string{
		`{"hypergraph":"r1(x,y), r2(y,z), r3(z,x).","k":2}`,
		`{"hypergraph":"r1(x,y), r2(y,z), r3(z,x).","k":1}`,
		`{"bad":`,
		`{"hypergraph":"p1(a,b), p2(b,c).","k":1}`,
	}
	resp, err := http.Post(ts.URL+"/batch", "application/x-ndjson",
		strings.NewReader(strings.Join(lines, "\n")+"\n"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}

	var results []apiResponse
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var r apiResponse
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("line %d: %v", len(results), err)
		}
		results = append(results, r)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(results) != len(lines) {
		t.Fatalf("got %d results for %d lines", len(results), len(lines))
	}
	if !results[0].OK || results[0].Width != 2 {
		t.Fatalf("line 0: %+v", results[0])
	}
	if results[1].OK || results[1].Error != "" {
		t.Fatalf("line 1 should be a definitive NO: %+v", results[1])
	}
	if results[2].Error == "" {
		t.Fatalf("line 2 should be a parse error: %+v", results[2])
	}
	if !results[3].OK || results[3].Width != 1 {
		t.Fatalf("line 3: %+v", results[3])
	}
}

func TestServeHealthzAndStats(t *testing.T) {
	ts, _ := newTestServer(t)

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	var health map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health["status"] != "ok" {
		t.Fatalf("healthz: %v", health)
	}

	// Drive some traffic, then check the counters moved.
	postJSON(t, ts.URL+"/decompose", `{"hypergraph":"r1(x,y), r2(y,z), r3(z,x).","k":2}`)
	postJSON(t, ts.URL+"/decompose", `{"hypergraph":"r1(x,y), r2(y,z), r3(z,x).","k":2}`)

	resp2, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var st htd.ServiceStats
	if err := json.NewDecoder(resp2.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Submitted < 2 || st.Completed < 2 {
		t.Fatalf("stats did not count jobs: %+v", st)
	}
	if st.CacheReuses == 0 {
		t.Fatalf("identical requests should reuse the memo cache: %+v", st)
	}
	if st.TokenBudget != 2 {
		t.Fatalf("token budget %d, want 2", st.TokenBudget)
	}
}

// TestServeCacheEndpoints drives the store over HTTP: a repeat request
// is a cache hit, GET /cache lists the entry, and POST /cache/purge
// makes the next request cold again.
func TestServeCacheEndpoints(t *testing.T) {
	ts, _ := newTestServer(t)
	body := `{"hypergraph":"r1(x,y), r2(y,z), r3(z,x).","k":2}`

	// First request solves; the repeat must be a validated cache hit.
	if _, out := postJSON(t, ts.URL+"/decompose", body); !out.OK {
		t.Fatalf("first request: %+v", out)
	}
	_, hit := postJSON(t, ts.URL+"/decompose", body)
	if !hit.OK || !hit.CacheHit || hit.Tree == nil {
		t.Fatalf("repeat request should be a cache hit with a tree: %+v", hit)
	}

	// GET /cache lists the cached entry with its bounds.
	cresp, err := http.Get(ts.URL + "/cache")
	if err != nil {
		t.Fatal(err)
	}
	defer cresp.Body.Close()
	var cache struct {
		Store   map[string]json.RawMessage `json:"store"`
		Entries []htd.StoreEntryInfo       `json:"entries"`
	}
	if err := json.NewDecoder(cresp.Body).Decode(&cache); err != nil {
		t.Fatal(err)
	}
	if string(cache.Store["entries"]) != "1" || len(cache.Entries) != 1 {
		t.Fatalf("cache listing: %+v", cache)
	}
	if !cache.Entries[0].HasTree || cache.Entries[0].Bounds.UB != 2 {
		t.Fatalf("cached entry: %+v", cache.Entries[0])
	}
	if _, ok := cache.Store["restored"]; ok {
		t.Fatal(`/cache still reports the import-only "restored" counter`)
	}

	// Purge makes the same request cold again.
	if resp, _ := postJSON(t, ts.URL+"/cache/purge", ``); resp.StatusCode != http.StatusOK {
		t.Fatalf("purge: status %d", resp.StatusCode)
	}
	_, cold := postJSON(t, ts.URL+"/decompose", body)
	if !cold.OK || cold.CacheHit {
		t.Fatalf("request after purge cannot be a cache hit: %+v", cold)
	}
}

// TestServeCoalescedBatch: duplicate lines in one /batch run a single
// solver; every line still gets a full result.
func TestServeCoalescedBatch(t *testing.T) {
	ts, svc := newTestServer(t)
	line := `{"hypergraph":"c1(a,b), c2(b,c), c3(c,d), c4(d,e), c5(e,f), c6(f,a).","k":2}`
	lines := strings.Repeat(line+"\n", 4)
	resp, err := http.Post(ts.URL+"/batch", "application/x-ndjson", strings.NewReader(lines))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	n := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var r apiResponse
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatal(err)
		}
		if !r.OK || r.Width != 2 {
			t.Fatalf("line %d: %+v", n, r)
		}
		n++
	}
	if n != 4 {
		t.Fatalf("got %d results, want 4", n)
	}
	// Identical in-flight lines coalesce; late lines may instead hit
	// the positive cache. Either way: exactly one solver ran.
	if st := svc.Stats(); st.SolverRuns != 1 {
		t.Fatalf("SolverRuns=%d, want 1 for four identical lines", st.SolverRuns)
	}
}

// triangleQueryBody is the /query body for the triangle fixture whose
// full answer set is exactly {(1,2,5), (4,2,7)}.
const triangleQueryBody = `{"query":"R(x,y), S(y,z), T(z,x).",` +
	`"database":"rel R(c1,c2)\n1 2\n1 3\n4 2\nend\nrel S(c1,c2)\n2 5\n3 6\n2 7\nend\nrel T(c1,c2)\n5 1\n6 4\n7 4\nend\n"}`

func postQuery(t *testing.T, url, body string) (*http.Response, queryAPIResponse, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var out queryAPIResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("decode response %q: %v", raw, err)
	}
	return resp, out, raw
}

// rawRows extracts the uninterpreted "rows" JSON of a /query response,
// for byte-identity comparisons across repeat requests.
func rawRows(t *testing.T, raw []byte) []byte {
	t.Helper()
	var probe struct {
		Rows json.RawMessage `json:"rows"`
	}
	if err := json.Unmarshal(raw, &probe); err != nil {
		t.Fatal(err)
	}
	return probe.Rows
}

// TestServeQueryInheritsServerTimeout: a /query that sends no
// timeout_ms still runs under the server's -timeout, execution
// included. The plan is cached first, so only execution — a 2-path
// whose 4M answers share one join key — can run out of time; the
// server runs without a row ceiling, which would stop it first.
func TestServeQueryInheritsServerTimeout(t *testing.T) {
	ts, _ := newEdgeServer(t, htd.ServiceConfig{DefaultTimeout: 20 * time.Millisecond, MaxRows: -1}, 0)
	const q = `"query":"R(x,y), S(y,z).","omit_rows":true`
	warm := `{` + q + `,"database":"rel R(c1,c2)\n1 0\nend\nrel S(c1,c2)\n0 1\nend\n"}`
	if resp, out, raw := postQuery(t, ts.URL+"/query", warm); resp.StatusCode != http.StatusOK || !out.OK {
		t.Fatalf("warm-up: status %d %s", resp.StatusCode, raw)
	}
	var r, s strings.Builder
	for i := 0; i < 2000; i++ {
		fmt.Fprintf(&r, "%d 0\\n", i)
		fmt.Fprintf(&s, "0 %d\\n", i)
	}
	slow := `{` + q + `,"database":"rel R(c1,c2)\n` + r.String() + `end\nrel S(c1,c2)\n` + s.String() + `end\n"}`
	_, out, raw := postQuery(t, ts.URL+"/query", slow)
	if out.OK || !out.TimedOut || !strings.Contains(out.Error, "execution failed") {
		t.Fatalf("slow /query without timeout_ms: %s", raw)
	}
}

// TestServeQueryRowCeiling: a cross product near the body cap, sent
// with no max_rows, stops at the server's default row ceiling — a
// definitive 200 with ok:false and the row-budget error — after a
// bounded amount of allocation. Its answer of over 10^9 rows would
// otherwise be materialised until the process ran out of memory (the
// 2 s server timeout only keeps a server without a ceiling from doing
// so here).
func TestServeQueryRowCeiling(t *testing.T) {
	const maxBody = 1 << 20
	ts, _ := newEdgeServer(t, htd.ServiceConfig{DefaultTimeout: 2 * time.Second}, maxBody)
	var r, s strings.Builder
	n := 0
	head := `{"query":"R(a,b), S(c,d).","omit_rows":true,"database":"rel R(c1,c2)\n`
	for ; len(head)+r.Len()+s.Len() < maxBody-200; n++ {
		fmt.Fprintf(&r, "%d %d\\n", n, n)
		fmt.Fprintf(&s, "%d %d\\n", n, n)
	}
	body := head + r.String() + `end\nrel S(c1,c2)\n` + s.String() + `end\n"}`
	if len(body) > maxBody {
		t.Fatalf("body of %d bytes is over the %d-byte cap", len(body), maxBody)
	}

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	resp, out, raw := postQuery(t, ts.URL+"/query", body)
	runtime.ReadMemStats(&m1)
	if resp.StatusCode != http.StatusOK || out.OK || !strings.Contains(out.Error, "row budget") {
		t.Fatalf("cross product without max_rows: status %d: %.300s", resp.StatusCode, raw)
	}
	const allocBound = 64 << 20
	alloc := m1.TotalAlloc - m0.TotalAlloc
	t.Logf("%d-byte body, %d rows per relation: %s; allocated %.1f MB", len(body), n, out.Error, float64(alloc)/(1<<20))
	if alloc > allocBound {
		t.Fatalf("allocated %d bytes, bound %d", alloc, allocBound)
	}
	// A request's max_rows can tighten the ceiling, never raise it.
	for _, tc := range []struct{ maxRows, budget int }{{1000, 1000}, {10 * htd.DefaultMaxRows, htd.DefaultMaxRows}} {
		capped := strings.Replace(body, `"omit_rows":true`, fmt.Sprintf(`"omit_rows":true,"max_rows":%d`, tc.maxRows), 1)
		_, out, raw := postQuery(t, ts.URL+"/query", capped)
		if out.OK || !strings.Contains(out.Error, fmt.Sprintf("budget is %d", tc.budget)) {
			t.Fatalf("max_rows %d: want the row-budget error at %d: %.300s", tc.maxRows, tc.budget, raw)
		}
	}
}

// TestServeQueryGolden pins the full /query contract on the triangle
// fixture: canonical vars and rows, plan metadata, and the plan-cache
// behaviour of a repeated identical request — byte-identical rows,
// plan_cache_hit=true, and no additional solver run.
func TestServeQueryGolden(t *testing.T) {
	ts, svc := newTestServer(t)

	resp, out, raw := postQuery(t, ts.URL+"/query", triangleQueryBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	if !out.OK || out.Error != "" {
		t.Fatalf("query failed: %+v", out)
	}
	if !reflect.DeepEqual(out.Vars, []string{"x", "y", "z"}) {
		t.Fatalf("vars = %v, want [x y z]", out.Vars)
	}
	wantRows := [][]int{{1, 2, 5}, {4, 2, 7}}
	if !reflect.DeepEqual(out.Rows, wantRows) || out.RowCount != 2 {
		t.Fatalf("rows = %v (count %d), want %v", out.Rows, out.RowCount, wantRows)
	}
	if out.Width != 2 {
		t.Fatalf("plan width = %d, want 2 (triangle hw)", out.Width)
	}
	if out.PlanCacheHit {
		t.Fatalf("first query cannot be a plan-cache hit: %+v", out)
	}

	// The repeat: byte-identical rows, plan from the cache, and the
	// service must not have run another solver.
	runsBefore := svc.Stats().SolverRuns
	resp2, again, raw2 := postQuery(t, ts.URL+"/query", triangleQueryBody)
	if resp2.StatusCode != http.StatusOK || !again.OK {
		t.Fatalf("repeat query: status=%d %+v", resp2.StatusCode, again)
	}
	if !again.PlanCacheHit {
		t.Fatalf("repeat query must hit the plan cache: %+v", again)
	}
	if got, want := rawRows(t, raw2), rawRows(t, raw); !bytes.Equal(got, want) {
		t.Fatalf("repeat rows not byte-identical:\n%s\nvs\n%s", got, want)
	}
	if runsAfter := svc.Stats().SolverRuns; runsAfter != runsBefore {
		t.Fatalf("repeat query ran a solver: SolverRuns %d -> %d", runsBefore, runsAfter)
	}

	// /stats surfaces the query-pipeline counters under "query".
	sresp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var st statsResponse
	if err := json.NewDecoder(sresp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Query.Queries != 2 || st.Query.Answered != 2 || st.Query.PlanCacheHits != 1 {
		t.Fatalf("query stats not surfaced: %+v", st.Query)
	}
}

func TestServeQueryModes(t *testing.T) {
	ts, _ := newTestServer(t)

	// omit_rows: counts and plan metadata only.
	_, out, raw := postQuery(t, ts.URL+"/query",
		`{"query":"R(x,y), S(y,z), T(z,x).",`+
			`"database":"rel R(c1,c2)\n1 2\n1 3\n4 2\nend\nrel S(c1,c2)\n2 5\n3 6\n2 7\nend\nrel T(c1,c2)\n5 1\n6 4\n7 4\nend\n",`+
			`"omit_rows":true}`)
	if !out.OK || out.RowCount != 2 || out.Rows != nil {
		t.Fatalf("omit_rows: %+v (%s)", out, raw)
	}

	// max_width below the triangle's hw=2: a definitive no-plan answer,
	// not a server error.
	resp, noPlan, _ := postQuery(t, ts.URL+"/query",
		`{"query":"R(x,y), S(y,z), T(z,x).",`+
			`"database":"rel R(c1,c2)\nend\nrel S(c1,c2)\nend\nrel T(c1,c2)\nend\n",`+
			`"max_width":1}`)
	if resp.StatusCode != http.StatusOK || noPlan.OK || !strings.Contains(noPlan.Error, "width") {
		t.Fatalf("max_width=1: status=%d %+v", resp.StatusCode, noPlan)
	}

	// A tiny row budget aborts with a budget error, also a 200.
	resp, budget, _ := postQuery(t, ts.URL+"/query",
		`{"query":"R(x,y), S(y,z).",`+
			`"database":"rel R(c1,c2)\n1 1\n2 1\n3 1\nend\nrel S(c1,c2)\n1 1\n1 2\n1 3\nend\n",`+
			`"max_rows":2}`)
	if resp.StatusCode != http.StatusOK || budget.OK || !strings.Contains(budget.Error, "row budget") {
		t.Fatalf("row budget: status=%d %+v", resp.StatusCode, budget)
	}

	// Bad inputs are 400s: missing fields, parse errors, unknown
	// relations, arity mismatches, negative timeouts.
	for _, body := range []string{
		`{invalid json`,
		`{"database":"rel R(a)\nend\n"}`,
		`{"query":"R(x","database":""}`,
		`{"query":"R(x).","database":"rel R(a)\n1 2\nend\n"}`,
		`{"query":"R(x).","database":"not a database"}`,
		`{"query":"R(x,y).","database":"rel R(a)\n1\nend\n"}`,
		`{"query":"R(x).","database":"rel R(a)\nend\n","timeout_ms":-1}`,
	} {
		resp, _, raw := postQuery(t, ts.URL+"/query", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("body %q: status %d, want 400 (%s)", body, resp.StatusCode, raw)
		}
	}
}

// TestServeQueryIgnoresParallelism: the executor is serial, so
// "parallelism" is an unknown field the decoder ignores — any value,
// negative included, answers 200 with the rows of the same request
// without it and echoes no "parallelism" key. So does a timeout_ms too
// large to convert to nanoseconds, which the server clamps to its
// -timeout. Each answer carries its executor counters, and /stats sums
// them.
func TestServeQueryIgnoresParallelism(t *testing.T) {
	ts, _ := newTestServer(t)

	_, plain, rawPlain := postQuery(t, ts.URL+"/query", triangleQueryBody)
	if !plain.OK || plain.Exec == nil || plain.Exec.Semijoins == 0 {
		t.Fatalf("query without parallelism: %+v", plain)
	}
	fields := []string{`"parallelism":4`, `"parallelism":-1`,
		`"timeout_ms":76480200929599801`, `"timeout_ms":18446744073710`}
	for _, field := range fields {
		body := strings.TrimSuffix(triangleQueryBody, "}") + "," + field + "}"
		resp, out, raw := postQuery(t, ts.URL+"/query", body)
		if resp.StatusCode != http.StatusOK || !out.OK {
			t.Fatalf("%s: status %d: %s", field, resp.StatusCode, raw)
		}
		if got, want := rawRows(t, raw), rawRows(t, rawPlain); !bytes.Equal(got, want) {
			t.Fatalf("%s: rows not byte-identical to the request without it:\n%s\nvs\n%s", field, got, want)
		}
		var keys map[string]json.RawMessage
		if err := json.Unmarshal(raw, &keys); err != nil {
			t.Fatal(err)
		}
		if _, ok := keys["parallelism"]; ok {
			t.Fatalf("%s: response echoes a parallelism key: %s", field, raw)
		}
		if out.Exec == nil || out.Exec.IndexBuilds+out.Exec.IndexReuses == 0 {
			t.Fatalf("%s: executor counters missing: %+v", field, out.Exec)
		}
	}

	sresp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var st statsResponse
	if err := json.NewDecoder(sresp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Query.Answered != int64(1+len(fields)) || st.Query.ExecIndexBuilds == 0 {
		t.Fatalf("executor counters not summed in /stats: %+v", st.Query)
	}
}

// TestServeQueryBatch drives /querybatch: NDJSON in, NDJSON out in
// input order, per-line errors isolated, and duplicate lines planning
// once through the shared store.
func TestServeQueryBatch(t *testing.T) {
	ts, svc := newTestServer(t)

	good := `{"query":"R(x,y), S(y,z), T(z,x).",` +
		`"database":"rel R(c1,c2)\n1 2\n1 3\n4 2\nend\nrel S(c1,c2)\n2 5\n3 6\n2 7\nend\nrel T(c1,c2)\n5 1\n6 4\n7 4\nend\n"}`
	lines := []string{
		good,
		`{"bad":`,
		`{"query":"R(x,y).","database":"rel R(c1,c2)\n7 8\nend\n"}`,
		good,
		good,
	}
	resp, err := http.Post(ts.URL+"/querybatch", "application/x-ndjson",
		strings.NewReader(strings.Join(lines, "\n")+"\n"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	var results []queryAPIResponse
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var r queryAPIResponse
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("line %d: %v", len(results), err)
		}
		results = append(results, r)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(results) != len(lines) {
		t.Fatalf("got %d results for %d lines", len(results), len(lines))
	}
	for _, i := range []int{0, 3, 4} {
		if !results[i].OK || results[i].RowCount != 2 {
			t.Fatalf("line %d: %+v", i, results[i])
		}
	}
	if results[1].Error == "" || results[1].OK {
		t.Fatalf("line 1 should be a JSON error: %+v", results[1])
	}
	if !results[2].OK || results[2].RowCount != 1 || results[2].Width != 1 {
		t.Fatalf("line 2: %+v", results[2])
	}
	triangle := [][]int{{1, 2, 5}, {4, 2, 7}}
	for i, want := range map[int][][]int{0: triangle, 2: {{7, 8}}, 3: triangle, 4: triangle} {
		if !reflect.DeepEqual(results[i].Rows, want) {
			t.Fatalf("line %d: rows %v, want %v", i, results[i].Rows, want)
		}
	}
	// The three identical triangle lines share one plan: at most one
	// solver ran for them (plus one for the single-atom query's plan).
	if runs := svc.Stats().SolverRuns; runs > 2 {
		t.Fatalf("SolverRuns = %d, want <= 2 for 2 distinct query structures", runs)
	}
}

// TestServeQueryAggregate pins the /query aggregate contract: an
// "aggregate" head returns the aggregate and no rows, a query whose row
// form blows max_rows still aggregates under the same budget, grouped
// heads come back in canonical order, aggregates flow through
// /querybatch, and malformed heads are 400s.
func TestServeQueryAggregate(t *testing.T) {
	ts, svc := newTestServer(t)

	// Scalar count on the triangle fixture (2 answers).
	_, out, raw := postQuery(t, ts.URL+"/query",
		strings.TrimSuffix(triangleQueryBody, "}")+`,"aggregate":"count"}`)
	if !out.OK || out.Aggregate == nil {
		t.Fatalf("aggregate count: %+v (%s)", out, raw)
	}
	if out.Aggregate.Value == nil || *out.Aggregate.Value != 2 || out.Aggregate.Spec != "count" {
		t.Fatalf("aggregate answer: %+v", out.Aggregate)
	}
	if out.Rows != nil || out.RowCount != 0 {
		t.Fatalf("aggregate response must carry no rows: %+v", out)
	}

	// The aggregate shares the row query's plan structure: a repeat is a
	// plan-cache hit and runs no extra solver.
	runsBefore := svc.Stats().SolverRuns
	_, again, _ := postQuery(t, ts.URL+"/query",
		strings.TrimSuffix(triangleQueryBody, "}")+`,"aggregate":"count"}`)
	if !again.OK || !again.PlanCacheHit {
		t.Fatalf("aggregate repeat must hit the plan cache: %+v", again)
	}
	if runs := svc.Stats().SolverRuns; runs != runsBefore {
		t.Fatalf("aggregate repeat ran a solver: %d -> %d", runsBefore, runs)
	}

	// A cross-product query under a row budget: the row form fails, the
	// aggregate form answers (the ErrRowBudget-to-feature flip).
	crossDB := func() string {
		var r, s strings.Builder
		for i := 0; i < 30; i++ {
			fmt.Fprintf(&r, "%d 0\\n", i)
			fmt.Fprintf(&s, "0 %d\\n", i)
		}
		return `"database":"rel R(c1,c2)\n` + r.String() + `end\nrel S(c1,c2)\n` + s.String() + `end\n"`
	}()
	rowBody := `{"query":"R(x,y), S(y,z).",` + crossDB + `,"max_rows":50}`
	resp, rows, _ := postQuery(t, ts.URL+"/query", rowBody)
	if resp.StatusCode != http.StatusOK || rows.OK || !strings.Contains(rows.Error, "row budget") {
		t.Fatalf("row form under budget: status=%d %+v", resp.StatusCode, rows)
	}
	_, agg, _ := postQuery(t, ts.URL+"/query",
		strings.TrimSuffix(rowBody, "}")+`,"aggregate":"count"}`)
	if !agg.OK || agg.Aggregate == nil || agg.Aggregate.Value == nil || *agg.Aggregate.Value != 900 {
		t.Fatalf("aggregate under the same budget: %+v", agg.Aggregate)
	}

	// A count past int64 is an answer that fails, like the row budget:
	// 300^8 answers of the 8-atom star over R = {(i, 0) : i < 300}.
	var rows300, atoms8 strings.Builder
	for i := 0; i < 300; i++ {
		fmt.Fprintf(&rows300, "%d 0\\n", i)
	}
	for i := 1; i <= 8; i++ {
		fmt.Fprintf(&atoms8, "R(x%d,y), ", i)
	}
	overflowBody := `{"query":"` + strings.TrimSuffix(atoms8.String(), ", ") + `.",` +
		`"database":"rel R(c1,c2)\n` + rows300.String() + `end\n","aggregate":"count"}`
	resp, over, raw := postQuery(t, ts.URL+"/query", overflowBody)
	if resp.StatusCode != http.StatusOK || over.OK || !strings.Contains(over.Error, "overflows int64") {
		t.Fatalf("count past int64: status=%d %s", resp.StatusCode, raw)
	}

	// Grouped head: canonical group columns and sorted groups.
	_, grouped, _ := postQuery(t, ts.URL+"/query",
		strings.TrimSuffix(triangleQueryBody, "}")+`,"aggregate":"group x: count"}`)
	if !grouped.OK || grouped.Aggregate == nil {
		t.Fatalf("grouped aggregate: %+v", grouped)
	}
	ga := grouped.Aggregate
	if !reflect.DeepEqual(ga.GroupVars, []string{"x"}) ||
		!reflect.DeepEqual(ga.Groups, [][]int{{1}, {4}}) ||
		!reflect.DeepEqual(ga.Values, []int64{1, 1}) ||
		ga.GroupCount != 2 || ga.Value != nil {
		t.Fatalf("grouped answer: %+v", ga)
	}

	// Aggregates through /querybatch.
	aggLine := strings.TrimSuffix(triangleQueryBody, "}") + `,"aggregate":"max(z)"}`
	bresp, err := http.Post(ts.URL+"/querybatch", "application/x-ndjson",
		strings.NewReader(aggLine+"\n"+triangleQueryBody+"\n"))
	if err != nil {
		t.Fatal(err)
	}
	defer bresp.Body.Close()
	var results []queryAPIResponse
	sc := bufio.NewScanner(bresp.Body)
	for sc.Scan() {
		var r queryAPIResponse
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatal(err)
		}
		results = append(results, r)
	}
	if len(results) != 2 || !results[0].OK || results[0].Aggregate == nil ||
		results[0].Aggregate.Value == nil || *results[0].Aggregate.Value != 7 {
		t.Fatalf("batch aggregate line: %+v", results)
	}
	if !results[1].OK || results[1].RowCount != 2 || results[1].Aggregate != nil {
		t.Fatalf("batch row line: %+v", results[1])
	}

	// Malformed or invalid aggregate heads are the client's fault.
	for _, head := range []string{"tally", "sum(unknown)", "group w: count", "sum(x,y)"} {
		resp, _, raw := postQuery(t, ts.URL+"/query",
			strings.TrimSuffix(triangleQueryBody, "}")+`,"aggregate":"`+head+`"}`)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("aggregate %q: status %d, want 400 (%s)", head, resp.StatusCode, raw)
		}
	}
}
