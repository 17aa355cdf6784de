package main

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	htd "repro"
)

// loadQueries are the /query bodies of the load test: four query
// shapes over inline databases. The first is the greedy tenant's hot
// query.
var loadQueries = []string{
	triangleQueryBody,
	`{"query":"R(x,y), S(y,z).","database":"rel R(c1,c2)\n1 2\n3 2\nend\nrel S(c1,c2)\n2 5\n2 6\nend\n"}`,
	`{"query":"R(a,b), S(b,c), T(c,d), U(d,a).","database":"rel R(c1,c2)\n1 2\nend\nrel S(c1,c2)\n2 3\nend\n` +
		`rel T(c1,c2)\n3 4\nend\nrel U(c1,c2)\n4 1\n4 2\nend\n"}`,
	`{"query":"R(x,y,z), S(z,w), T(w,x).","database":"rel R(c1,c2,c3)\n1 2 3\n1 4 3\nend\n` +
		`rel S(c1,c2)\n3 5\nend\nrel T(c1,c2)\n5 1\nend\n"}`,
}

// loadMutations are the NDJSON batches a writing tenant posts against
// its own triangleData dataset. Set semantics make every batch a valid
// delta whatever ran before it.
var loadMutations = []string{
	`{"op":"insert","rel":"R","rows":[[9,2]]}`,
	`{"op":"delete","rel":"R","rows":[[9,2]]}` + "\n" + `{"op":"insert","rel":"S","rows":[[2,8],[3,8]]}`,
	`{"op":"delete","rel":"S","rows":[[2,8]]}`,
}

// loadTenant is one open-loop traffic source.
type loadTenant struct {
	name   string
	qps    float64
	hot    bool // four queries in five are loadQueries[0]
	writes bool // every fifth request mutates the tenant's dataset "load"
}

// loadSample is one finished request; status 0 is a transport error.
type loadSample struct {
	latency time.Duration
	status  int
	ok      bool // answered: see sendLoad
	write   bool
}

// TestTenantIsolationUnderLoad is the load wall. A greedy tenant offers
// ten times its reserved rate of 40/s, mostly one hot query, beside a
// polite tenant at a quarter of its rate whose traffic is a fifth
// dataset mutations; one query shape is planned inside the window. The
// wall must reject greedy traffic while every polite request is
// answered inside the latency bounds, and /stats must account for
// every request each tenant sent.
func TestTenantIsolationUnderLoad(t *testing.T) {
	ts, _ := newEdgeServer(t, htd.ServiceConfig{
		Tenants: htd.TenantConfig{Rate: 40, MaxInFlight: 8, MaxQueue: 16, FairShare: true},
	}, 0)
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 256}, Timeout: 10 * time.Second}
	t.Cleanup(client.CloseIdleConnections)

	// Plan every shape but the last once, under a tenant of its own:
	// the last is planned inside the window, under contention.
	for _, body := range loadQueries[:len(loadQueries)-1] {
		if s := sendLoad(client, http.MethodPost, ts.URL+"/query", "warmup", body); !s.ok {
			t.Fatalf("warm-up query not answered: status %d", s.status)
		}
	}
	if s := sendLoad(client, http.MethodPut, ts.URL+"/data/load", "polite", triangleData); !s.ok {
		t.Fatalf("polite dataset upload: status %d", s.status)
	}
	before := loadStats(t, client, ts.URL)

	tenants := []loadTenant{
		{name: "greedy", qps: 400, hot: true},
		{name: "polite", qps: 10, writes: true},
	}
	samples := make([][]loadSample, len(tenants))
	var wg sync.WaitGroup
	for i, lt := range tenants {
		wg.Add(1)
		go func() {
			defer wg.Done()
			samples[i] = driveLoad(client, ts.URL, lt, 3*time.Second)
		}()
	}
	wg.Wait()

	stats := loadStats(t, client, ts.URL)
	runs := stats.SolverRuns - before.SolverRuns
	t.Logf("solver runs inside the window: %d", runs)
	if runs == 0 {
		t.Errorf("no solver run inside the window: the cold shape was not planned under load")
	}

	var all []time.Duration
	for i, lt := range tenants {
		var ok, rejected, writes int
		var lats []time.Duration
		for _, s := range samples[i] {
			if s.write {
				writes++
			}
			switch {
			case s.ok:
				ok++
				// A rejection is fast by design and would flatter the tail.
				lats = append(lats, s.latency)
			case s.status == http.StatusTooManyRequests:
				rejected++
			}
		}
		all = append(all, lats...)
		sent := len(samples[i])
		slices.Sort(lats)
		p99 := loadQuantile(lats, 0.99)
		t.Logf("%s: sent %d (%d writes), ok %d, rejected %d, p50 %v, p99 %v",
			lt.name, sent, writes, ok, rejected, loadQuantile(lats, 0.50), p99)

		want := int64(sent)
		if lt.writes {
			want++ // the dataset upload
		}
		st := stats.Tenants[lt.name]
		if got := st.Admitted + st.RateRejected + st.LoadRejected; got != want {
			t.Errorf("%s: /stats admitted+rejected = %d, want the %d requests sent", lt.name, got, want)
		}
		if got := st.RateRejected + st.LoadRejected; got != int64(rejected) {
			t.Errorf("%s: /stats rejections = %d, client saw %d 429s", lt.name, got, rejected)
		}
		switch lt.name {
		case "greedy":
			if rejected == 0 {
				t.Errorf("greedy: no request rejected at 10x its rate: the wall is not engaged")
			}
		case "polite":
			if writes == 0 {
				t.Errorf("polite: no mutation sent: the write path is not exercised")
			}
			// Stricter than the error-rate bound of 0.01 it replaces.
			if ok != sent {
				t.Errorf("polite: %d of %d requests answered (error rate %.4f, 429s included), want all",
					ok, sent, float64(sent-ok)/float64(sent))
			}
			if p99 > 250*time.Millisecond {
				t.Errorf("polite: p99 %v exceeds 250ms", p99)
			}
		}
	}
	slices.Sort(all)
	p99 := loadQuantile(all, 0.99)
	t.Logf("server: p99 %v over %d answered requests", p99, len(all))
	if p99 > 500*time.Millisecond {
		t.Errorf("server: p99 %v exceeds 500ms", p99)
	}
}

// driveLoad sends lt's requests on a fixed schedule for window and
// returns every sample. Each request runs in its own goroutine, so a
// slow answer never delays the next send (open-loop load); at most 256
// are in flight, to protect the client itself.
func driveLoad(client *http.Client, url string, lt loadTenant, window time.Duration) []loadSample {
	var (
		mu  sync.Mutex
		out []loadSample
		wg  sync.WaitGroup
	)
	sem := make(chan struct{}, 256)
	tick := time.NewTicker(time.Duration(float64(time.Second) / lt.qps))
	defer tick.Stop()
	for i, end := 0, time.Now().Add(window); time.Now().Before(end); i++ {
		path, body := "/query", loadQueries[i%len(loadQueries)]
		switch {
		case lt.writes && i%5 == 4:
			path, body = "/data/load/mutate", loadMutations[i%len(loadMutations)]
		case lt.hot && i%5 != 0:
			body = loadQueries[0]
		}
		sem <- struct{}{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := sendLoad(client, http.MethodPost, url+path, lt.name, body)
			s.write = path != "/query"
			mu.Lock()
			out = append(out, s)
			mu.Unlock()
			<-sem
		}()
		<-tick.C
	}
	wg.Wait()
	return out
}

// sendLoad sends one request as tenant and times it to the end of the
// response body. A /query is answered by a 200 whose body reads
// "ok":true (a deadline, a missing plan or the row budget answer 200
// with ok:false); any other request by its 200 alone.
func sendLoad(client *http.Client, method, url, tenant, body string) loadSample {
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		return loadSample{}
	}
	req.Header.Set("X-Tenant", tenant)
	start := time.Now()
	resp, err := client.Do(req)
	if err != nil {
		return loadSample{latency: time.Since(start)}
	}
	out := struct {
		OK bool `json:"ok"`
	}{OK: true}
	if strings.HasSuffix(url, "/query") {
		out.OK = false
		err = json.NewDecoder(resp.Body).Decode(&out)
	}
	if _, cerr := io.Copy(io.Discard, resp.Body); err == nil {
		err = cerr
	}
	resp.Body.Close()
	if err != nil {
		return loadSample{latency: time.Since(start)}
	}
	return loadSample{
		latency: time.Since(start),
		status:  resp.StatusCode,
		ok:      resp.StatusCode == http.StatusOK && out.OK,
	}
}

// loadStats reads the server's /stats.
func loadStats(t *testing.T, client *http.Client, url string) htd.ServiceStats {
	t.Helper()
	resp, err := client.Get(url + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st htd.ServiceStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// loadQuantile is the nearest-rank q-quantile of sorted latencies, 0
// when there are none.
func loadQuantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[max(0, int(math.Ceil(q*float64(len(sorted))))-1)]
}
