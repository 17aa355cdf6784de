package main

import (
	"bufio"
	"encoding/json"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"

	htd "repro"
)

// mainArgsEnv carries a child's htdserve flags, JSON-encoded, from
// TestServeDiskStoreWarmRestart to TestMainChild. A normal `go test`
// run leaves it unset, so the child entry point skips.
const mainArgsEnv = "HTDSERVE_CHILD_ARGS"

// TestMainChild is the child body of TestServeDiskStoreWarmRestart: it
// runs the real main() with the flags in mainArgsEnv and serves until
// the parent kills it.
func TestMainChild(t *testing.T) {
	raw := os.Getenv(mainArgsEnv)
	if raw == "" {
		t.Skip("child entry point; driven by TestServeDiskStoreWarmRestart")
	}
	var args []string
	if err := json.Unmarshal([]byte(raw), &args); err != nil {
		t.Fatal(err)
	}
	os.Args = append([]string{"htdserve"}, args...)
	main()
}

// bootMain starts the test binary as a child running main() with args
// plus an -addr on a free loopback port, waits for /healthz, and
// returns the base URL and a function that kills the child with
// SIGKILL and waits for it.
func bootMain(t *testing.T, args ...string) (string, func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	enc, err := json.Marshal(append([]string{"-addr", addr}, args...))
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(os.Args[0], "-test.run", "^TestMainChild$")
	cmd.Env = append(os.Environ(), mainArgsEnv+"="+string(enc))
	var out strings.Builder
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	killed := false
	kill := func() {
		if !killed {
			killed = true
			cmd.Process.Kill()
			<-exited
		}
	}
	t.Cleanup(kill)

	url := "http://" + addr
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		if resp, err := http.Get(url + "/healthz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return url, kill
			}
		}
		select {
		case err := <-exited:
			killed = true
			t.Fatalf("htdserve %s exited before serving (%v); output:\n%s", enc, err, out.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("htdserve %s did not come up; output so far:\n%s", enc, out.String())
		}
	}
}

// TestServeDiskStoreWarmRestart: a real htdserve (main() in a child
// process) with -store-dir answers three jobs and one structural NO,
// is killed with SIGKILL, and a second one booted on the same
// directory must answer all four from the disk tier: every one a cache
// hit, the NO with its bound from the memo, and /stats reading zero
// solver runs. The second boot also arms the tenant wall from its
// flags, so a fifth request past the burst gets 429.
func TestServeDiskStoreWarmRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("re-execs the test binary")
	}
	dir := t.TempDir()
	jobs := []string{
		`{"hypergraph":"r1(x,y), r2(y,z), r3(z,x).","k":2}`,
		`{"hypergraph":"a(x,y), b(y,z), c(z,w), d(w,x).","k":2}`,
		`{"hypergraph":"e1(a,b), e2(b,c), e3(c,d), e4(d,e), e5(e,a).","k":2,"mode":"optimal"}`,
		`{"hypergraph":"r1(x,y), r2(y,z), r3(z,x).","k":1}`,
	}
	// check holds the answer to jobs[i] to its boot's expectation: the
	// first three YES, the triangle at k=1 NO with lower bound 2.
	check := func(boot string, i int, r apiResponse, from string, hit bool) {
		t.Helper()
		yes := i < 3
		if r.OK != yes || r.Error != "" || r.CacheHit != hit {
			t.Errorf("%s job %d: %+v, want ok=%v cache_hit=%v and no error", boot, i, r, yes, hit)
		}
		if !yes && (r.LowerBound != 2 || r.LowerBoundFrom != from) {
			t.Errorf("%s job %d: lower bound %d from %q, want 2 from %q", boot, i, r.LowerBound, r.LowerBoundFrom, from)
		}
	}

	url, kill := bootMain(t, "-store-dir", dir)
	resp, err := http.Post(url+"/batch", "application/x-ndjson", strings.NewReader(strings.Join(jobs, "\n")+"\n"))
	if err != nil {
		t.Fatal(err)
	}
	var n int
	sc := bufio.NewScanner(resp.Body)
	for ; sc.Scan(); n++ {
		var r apiResponse
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("cold batch line %d: %v", n, err)
		}
		if n < len(jobs) {
			check("cold", n, r, "structural", false)
		}
	}
	resp.Body.Close()
	if err := sc.Err(); err != nil || n != len(jobs) {
		t.Fatalf("cold batch: %d lines (%v), want %d", n, err, len(jobs))
	}
	kill()

	url, _ = bootMain(t, "-store-dir", dir, "-tenant-rate", "0.01", "-tenant-burst", "4", "-fair-share=false")
	for i, job := range jobs {
		_, r := postJSON(t, url+"/decompose", job)
		check("warm", i, r, "memo", true)
	}
	st := loadStats(t, http.DefaultClient, url)
	if st.SolverRuns != 0 || st.PositiveHits != 3 || st.NegativeHits != 1 {
		t.Errorf("warm /stats: SolverRuns=%d PositiveHits=%d NegativeHits=%d, want 0, 3, 1",
			st.SolverRuns, st.PositiveHits, st.NegativeHits)
	}
	// The burst of 4 is spent and the rate refills one token per 100 s.
	resp429, _ := postJSON(t, url+"/decompose", jobs[0])
	if resp429.StatusCode != http.StatusTooManyRequests || resp429.Header.Get("Retry-After") == "" {
		t.Errorf("fifth request: status %d, Retry-After %q, want 429 with the header",
			resp429.StatusCode, resp429.Header.Get("Retry-After"))
	}
	// /cache exposes the disk tier's counters: one entry per hypergraph.
	cresp, err := http.Get(url + "/cache?max=0")
	if err != nil {
		t.Fatal(err)
	}
	defer cresp.Body.Close()
	var cache struct {
		Store struct {
			Disk *htd.DiskStoreStats `json:"disk"`
		} `json:"store"`
	}
	if err := json.NewDecoder(cresp.Body).Decode(&cache); err != nil {
		t.Fatal(err)
	}
	if cache.Store.Disk == nil || cache.Store.Disk.Entries != 3 {
		t.Errorf("cache stats: disk tier %+v, want 3 entries", cache.Store.Disk)
	}
}
