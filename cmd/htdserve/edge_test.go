package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	htd "repro"
)

// newEdgeServer builds a test server with full control over the service
// config (tenant wall) and the handler's body cap.
func newEdgeServer(t *testing.T, cfg htd.ServiceConfig, maxBody int64) (*httptest.Server, *htd.Service) {
	t.Helper()
	if cfg.MaxConcurrent == 0 {
		cfg.MaxConcurrent = 4
	}
	if cfg.MaxQueue == 0 {
		cfg.MaxQueue = 64
	}
	if cfg.DefaultTimeout == 0 {
		cfg.DefaultTimeout = 30 * time.Second
	}
	svc := htd.NewService(cfg)
	ts := startServer(t, newHandler(svc, maxBody))
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})
	return ts, svc
}

func postRaw(t *testing.T, url, body string, header map[string]string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range header {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// TestOversizedBody413 pins the MaxBytesReader satellite: a body over
// the -max-body cap must answer 413 (not 400) on every single-shot
// endpoint that reads a body, while an in-budget malformed body keeps
// its 400.
func TestOversizedBody413(t *testing.T) {
	ts, _ := newEdgeServer(t, htd.ServiceConfig{TokenBudget: 2}, 512)

	huge := `{"hypergraph":"` + strings.Repeat("a", 2048) + `","k":1}`
	for _, ep := range []string{"/decompose", "/query"} {
		resp := postRaw(t, ts.URL+ep, huge, nil)
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s oversized body: status %d, want 413", ep, resp.StatusCode)
		}
	}

	// A small but invalid body is still the client's fault, not a size
	// problem.
	resp := postRaw(t, ts.URL+"/decompose", "{not json", nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed small body: status %d, want 400", resp.StatusCode)
	}
}

// TestBatchLineTooLongEmitsErrorLine pins the scanner-overflow
// satellite: a /batch line beyond the 16 MiB line cap must not end the
// stream silently — the last NDJSON object names bufio.ErrTooLong.
func TestBatchLineTooLongEmitsErrorLine(t *testing.T) {
	ts, _ := newEdgeServer(t, htd.ServiceConfig{TokenBudget: 2}, 0)

	body := `{"hypergraph":"r1(x,y).","k":1}` + "\n" +
		strings.Repeat("x", maxBatchLine+16) + "\n"
	resp := postRaw(t, ts.URL+"/batch", body, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d, want 200 (stream started)", resp.StatusCode)
	}

	var lines []map[string]any
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		var obj map[string]any
		if err := json.Unmarshal(sc.Bytes(), &obj); err != nil {
			t.Fatalf("non-JSON stream line %q: %v", sc.Text(), err)
		}
		lines = append(lines, obj)
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("read stream: %v", err)
	}
	if len(lines) != 2 {
		t.Fatalf("got %d stream lines, want 2 (result + final error)", len(lines))
	}
	if ok, _ := lines[0]["ok"].(bool); !ok {
		t.Fatalf("first line not a successful result: %v", lines[0])
	}
	last := lines[len(lines)-1]
	if ok, _ := last["ok"].(bool); ok {
		t.Fatalf("final line claims ok: %v", last)
	}
	msg, _ := last["error"].(string)
	if !strings.Contains(msg, bufio.ErrTooLong.Error()) {
		t.Fatalf("final error %q does not name bufio.ErrTooLong", msg)
	}
}

// failingWriter simulates a client that vanished: every write fails.
type failingWriter struct {
	header http.Header
	writes atomic.Int64
}

func (w *failingWriter) Header() http.Header { return w.header }
func (w *failingWriter) WriteHeader(int)     {}
func (w *failingWriter) Write(p []byte) (int, error) {
	w.writes.Add(1)
	return 0, errors.New("client gone")
}

// TestStreamStopsAfterWriteFailure pins the dead-client satellite at
// the streaming core: once a response write fails, the scanner must
// stop accepting lines, so a disconnected batch client cannot make the
// server chew through the rest of a large batch.
func TestStreamStopsAfterWriteFailure(t *testing.T) {
	s := &server{batchLimit: 2}

	const total = 200
	var body strings.Builder
	for i := 0; i < total; i++ {
		body.WriteString(fmt.Sprintf("{\"n\":%d}\n", i))
	}
	req := httptest.NewRequest(http.MethodPost, "/batch", strings.NewReader(body.String()))

	var handled atomic.Int64
	w := &failingWriter{header: make(http.Header)}
	streamNDJSON(s, w, req, func(line []byte) map[string]bool {
		handled.Add(1)
		time.Sleep(time.Millisecond)
		return map[string]bool{"ok": true}
	}, writeJSONLine)

	// The first failed write marks the client dead; only lines already
	// in flight (≈ batchLimit + the pending buffer) may still run.
	if got := handled.Load(); got >= total/2 {
		t.Fatalf("handled %d of %d lines after the client died, want far fewer", got, total)
	}
	if w.writes.Load() == 0 {
		t.Fatal("writer never saw a write")
	}
}

// TestBatchClientDisconnectStopsSubmission is the end-to-end version:
// a real client opens /batch, receives one result, disconnects — job
// submission must stop and the handler's goroutines must drain.
func TestBatchClientDisconnectStopsSubmission(t *testing.T) {
	ts, svc := newEdgeServer(t, htd.ServiceConfig{TokenBudget: 2}, 0)
	baseline := runtime.NumGoroutine()

	pr, pw := io.Pipe()
	req, err := http.NewRequestWithContext(context.Background(), http.MethodPost, ts.URL+"/batch", pr)
	if err != nil {
		t.Fatal(err)
	}
	// Feed the first line from a goroutine: Do only returns once the
	// server has flushed the first response line, which needs a request
	// line first.
	go io.WriteString(pw, `{"hypergraph":"r1(x,y), r2(y,z).","k":1}`+"\n")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	line := make([]byte, 1)
	if _, err := resp.Body.Read(line); err != nil {
		t.Fatalf("read first response byte: %v", err)
	}

	// Disconnect mid-stream, with the server still waiting for lines.
	resp.Body.Close()
	pw.Close()

	// Submission must settle: once the disconnect propagates, no new
	// jobs may be submitted even if the client had more lines queued.
	deadline := time.Now().Add(5 * time.Second)
	var last int64 = -1
	for time.Now().Before(deadline) {
		cur := svc.Stats().Submitted
		if cur == last {
			break
		}
		last = cur
		time.Sleep(50 * time.Millisecond)
	}
	if last > 1 {
		t.Fatalf("Submitted = %d after disconnect, want at most the 1 job sent", last)
	}

	// The handler goroutines (scanner, writer, workers) must all exit.
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline+2 {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("goroutines did not drain: baseline %d, now %d", baseline, runtime.NumGoroutine())
}

// TestTenant429WithRetryAfter pins the tenant wall at the HTTP edge: a
// tenant over its rate budget gets 429 with a Retry-After header and a
// retry_after_ms body hint, on /decompose and /query alike, while other
// tenants keep flowing.
func TestTenant429WithRetryAfter(t *testing.T) {
	ts, _ := newEdgeServer(t, htd.ServiceConfig{
		TokenBudget: 2,
		Tenants:     htd.TenantConfig{Rate: 0.001, Burst: 1},
	}, 0)

	job := `{"hypergraph":"r1(x,y), r2(y,z), r3(z,x).","k":2}`
	hdr := map[string]string{"X-Tenant": "greedy"}

	if resp := postRaw(t, ts.URL+"/decompose", job, hdr); resp.StatusCode != http.StatusOK {
		t.Fatalf("first decompose: status %d, want 200", resp.StatusCode)
	}

	resp := postRaw(t, ts.URL+"/decompose", job, hdr)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second decompose: status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Fatalf("Retry-After header = %q, want a positive number of seconds", ra)
	}
	var out apiResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.RetryAfterMS < 1 {
		t.Fatalf("retry_after_ms = %d, want >= 1", out.RetryAfterMS)
	}

	// The query path admits through the same wall.
	resp = postRaw(t, ts.URL+"/query", triangleQueryBody, hdr)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("query for exhausted tenant: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("query 429 is missing the Retry-After header")
	}

	// A polite tenant is untouched by the greedy one's exhaustion.
	if resp := postRaw(t, ts.URL+"/decompose", job, map[string]string{"X-Tenant": "polite"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("other tenant: status %d, want 200", resp.StatusCode)
	}
}

// TestStatsReportsTenants pins the observability satellite: /stats must
// carry a per-tenant section with admission counters and latency
// quantiles.
func TestStatsReportsTenants(t *testing.T) {
	ts, _ := newEdgeServer(t, htd.ServiceConfig{TokenBudget: 2}, 0)

	job := `{"hypergraph":"r1(x,y), r2(y,z), r3(z,x).","k":2}`
	for _, tenantName := range []string{"alice", "alice", "bob"} {
		if resp := postRaw(t, ts.URL+"/decompose", job, map[string]string{"X-Tenant": tenantName}); resp.StatusCode != http.StatusOK {
			t.Fatalf("decompose as %s: status %d", tenantName, resp.StatusCode)
		}
	}

	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		Tenants map[string]htd.TenantStats `json:"Tenants"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	alice, ok := stats.Tenants["alice"]
	if !ok {
		t.Fatalf("stats missing tenant alice: %v", stats.Tenants)
	}
	if alice.Admitted != 2 || alice.Completed != 2 {
		t.Fatalf("alice = %+v, want Admitted 2, Completed 2", alice)
	}
	if alice.P99Millis < alice.P50Millis || alice.P50Millis < 0 {
		t.Fatalf("alice latency quantiles implausible: p50 %v, p99 %v", alice.P50Millis, alice.P99Millis)
	}
	if bob := stats.Tenants["bob"]; bob.Admitted != 1 {
		t.Fatalf("bob = %+v, want Admitted 1", bob)
	}
}

// TestTenantHeaderTooLong pins the header bound: X-Tenant ids become
// stats map keys, so an oversized header is rejected up front.
func TestTenantHeaderTooLong(t *testing.T) {
	ts, _ := newEdgeServer(t, htd.ServiceConfig{TokenBudget: 2}, 0)
	hdr := map[string]string{"X-Tenant": strings.Repeat("t", maxTenantIDLen+1)}
	for _, ep := range []string{"/decompose", "/batch", "/query", "/querybatch"} {
		if resp := postRaw(t, ts.URL+ep, `{"hypergraph":"r1(x,y).","k":1}`, hdr); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s with oversized X-Tenant: status %d, want 400", ep, resp.StatusCode)
		}
	}
}
