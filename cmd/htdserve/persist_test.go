package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	htd "repro"
)

// TestServeDiskStoreWarmRestart: an htdserve handler stack over a
// -store-dir service, torn down and rebuilt on the same directory,
// must answer the repeat request as a cache hit with zero solver runs
// — the two-process scripts/warm_restart.sh contract, in-process.
func TestServeDiskStoreWarmRestart(t *testing.T) {
	dir := t.TempDir()
	open := func() (*httptest.Server, *htd.Service) {
		svc, err := htd.OpenService(htd.ServiceConfig{
			TokenBudget: 2, MaxConcurrent: 4, DefaultTimeout: 30 * time.Second,
			StoreDir: dir,
		})
		if err != nil {
			t.Fatal(err)
		}
		return startServer(t, newHandler(svc, 0)), svc
	}
	const job = `{"hypergraph":"r1(x,y), r2(y,z), r3(z,x), r4(x,z).","k":2}`

	ts, svc := open()
	_, out := postJSON(t, ts.URL+"/decompose", job)
	if !out.OK || out.CacheHit {
		t.Fatalf("cold request: %+v", out)
	}
	ts.Close()
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}

	ts, svc = open()
	defer ts.Close()
	defer svc.Close()
	_, out = postJSON(t, ts.URL+"/decompose", job)
	if !out.OK || !out.CacheHit {
		t.Fatalf("warm request after restart not a cache hit: %+v", out)
	}
	if runs := svc.Stats().SolverRuns; runs != 0 {
		t.Fatalf("warm restart ran %d solvers, want 0", runs)
	}
	// /stats reports the disk tier so operators can see the log.
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st struct {
		PositiveHits int64 `json:"PositiveHits"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.PositiveHits != 1 {
		t.Fatalf("stats PositiveHits=%d, want 1", st.PositiveHits)
	}
	// /cache exposes Disk counters through the store stats.
	cresp, err := http.Get(ts.URL + "/cache?max=0")
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
	if cache.Store.Disk == nil || cache.Store.Disk.Entries != 1 {
		t.Fatalf("cache stats missing the disk tier: %+v", cache.Store.Disk)
	}
}
