package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"

	htd "repro"
)

// doData sends one /data request with an optional tenant header and
// returns the response with its decoded JSON body.
func doData(t *testing.T, method, url, tenant, body string) (*http.Response, map[string]any) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
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
	var out map[string]any
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("decode %s %s response %q: %v", method, url, raw, err)
	}
	return resp, out
}

// postQueryTenant is postQuery with an X-Tenant header.
func postQueryTenant(t *testing.T, url, tenant, body string) (*http.Response, queryAPIResponse, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
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
	var out queryAPIResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("decode query response %q: %v", raw, err)
	}
	return resp, out, raw
}

// triangleData is the triangle fixture's database as an upload body.
const triangleData = "rel R(c1,c2)\n1 2\n1 3\n4 2\nend\n" +
	"rel S(c1,c2)\n2 5\n3 6\n2 7\nend\n" +
	"rel T(c1,c2)\n5 1\n6 4\n7 4\nend\n"

// TestServeQueryDataset: the dataset-reference query flow — upload
// once, query by name (byte-identical to the inline answer), mutate,
// re-query at the new and at the pinned old version.
func TestServeQueryDataset(t *testing.T) {
	ts, _ := newTestServer(t)

	// Upload.
	resp, up := doData(t, http.MethodPut, ts.URL+"/data/tri", "", triangleData)
	if resp.StatusCode != http.StatusOK || up["version"].(float64) != 1 {
		t.Fatalf("put: status=%d %v", resp.StatusCode, up)
	}

	// The dataset answer must be byte-identical to the inline answer.
	_, inline, rawInline := postQuery(t, ts.URL+"/query", triangleQueryBody)
	if !inline.OK {
		t.Fatalf("inline query: %+v", inline)
	}
	dsBody := `{"query":"R(x,y), S(y,z), T(z,x).","dataset":"tri"}`
	resp, ds, rawDS := postQuery(t, ts.URL+"/query", dsBody)
	if resp.StatusCode != http.StatusOK || !ds.OK {
		t.Fatalf("dataset query: status=%d %+v", resp.StatusCode, ds)
	}
	if ds.DatasetVersion != 1 {
		t.Fatalf("dataset_version = %d, want 1", ds.DatasetVersion)
	}
	if got, want := rawRows(t, rawDS), rawRows(t, rawInline); !bytes.Equal(got, want) {
		t.Fatalf("dataset rows differ from inline rows:\n%s\nvs\n%s", got, want)
	}

	// A repeat query reuses the snapshot's maintained indexes: no
	// builds, only reuses — the unchanged-data fast path.
	_, again, _ := postQuery(t, ts.URL+"/query", dsBody)
	if !again.OK || again.Exec == nil || again.Exec.IndexReuses == 0 || again.Exec.IndexBuilds != 0 {
		t.Fatalf("repeat dataset query should only reuse indexes: %+v", again.Exec)
	}

	// Mutate: insert R(4,3), delete S(2,7) — one batch, one version.
	mut := `{"op":"insert","rel":"R","rows":[[4,3]]}` + "\n" +
		`{"op":"delete","rel":"S","rows":[[2,7]]}` + "\n"
	resp, mres := doData(t, http.MethodPost, ts.URL+"/data/tri/mutate", "", mut)
	if resp.StatusCode != http.StatusOK || mres["version"].(float64) != 2 {
		t.Fatalf("mutate: status=%d %v", resp.StatusCode, mres)
	}
	if mres["inserted"].(float64) != 1 || mres["deleted"].(float64) != 1 {
		t.Fatalf("mutate counts: %v", mres)
	}

	// The incremental answer must match an inline evaluation over the
	// mutated state rebuilt from scratch.
	mutatedInline := `{"query":"R(x,y), S(y,z), T(z,x).",` +
		`"database":"rel R(c1,c2)\n1 2\n1 3\n4 2\n4 3\nend\nrel S(c1,c2)\n2 5\n3 6\nend\nrel T(c1,c2)\n5 1\n6 4\n7 4\nend\n"}`
	_, _, rawWant := postQuery(t, ts.URL+"/query", mutatedInline)
	resp, ds2, rawGot := postQuery(t, ts.URL+"/query", dsBody)
	if resp.StatusCode != http.StatusOK || !ds2.OK || ds2.DatasetVersion != 2 {
		t.Fatalf("post-mutation query: status=%d %+v", resp.StatusCode, ds2)
	}
	if got, want := rawRows(t, rawGot), rawRows(t, rawWant); !bytes.Equal(got, want) {
		t.Fatalf("incremental rows differ from from-scratch rows:\n%s\nvs\n%s", got, want)
	}

	// Pinning version 1 still answers with the pre-mutation rows.
	pinBody := `{"query":"R(x,y), S(y,z), T(z,x).","dataset":"tri","at_version":1}`
	resp, pin, rawPin := postQuery(t, ts.URL+"/query", pinBody)
	if resp.StatusCode != http.StatusOK || !pin.OK || pin.DatasetVersion != 1 {
		t.Fatalf("pinned query: status=%d %+v", resp.StatusCode, pin)
	}
	if got, want := rawRows(t, rawPin), rawRows(t, rawInline); !bytes.Equal(got, want) {
		t.Fatalf("pinned rows differ from the version-1 answer:\n%s\nvs\n%s", got, want)
	}

	// Clear errors, never wrong rows: unknown name is 404, a future
	// version 400, both dataset and database 400.
	for _, bad := range []struct {
		body   string
		status int
	}{
		{`{"query":"R(x,y), S(y,z), T(z,x).","dataset":"nope"}`, http.StatusNotFound},
		{`{"query":"R(x,y), S(y,z), T(z,x).","dataset":"tri","at_version":99}`, http.StatusBadRequest},
		{`{"query":"R(x,y).","database":"rel R(a,b)\n1 2\nend\n","dataset":"tri"}`, http.StatusBadRequest},
	} {
		resp, _, raw := postQuery(t, ts.URL+"/query", bad.body)
		if resp.StatusCode != bad.status {
			t.Fatalf("body %q: status %d, want %d (%s)", bad.body, resp.StatusCode, bad.status, raw)
		}
	}

	// Replacing the dataset evicts all pinnable versions: the old pin
	// is 410 Gone, not silently answered from different data.
	if resp, up := doData(t, http.MethodPut, ts.URL+"/data/tri", "", triangleData); resp.StatusCode != http.StatusOK || up["version"].(float64) != 3 {
		t.Fatalf("replacement put: status=%d %v", resp.StatusCode, up)
	}
	resp, _, raw := postQuery(t, ts.URL+"/query", `{"query":"R(x,y), S(y,z), T(z,x).","dataset":"tri","at_version":2}`)
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("pin to replaced version: status %d, want 410 (%s)", resp.StatusCode, raw)
	}
}

// TestServeDataLifecycle: upload, metadata, list, drop, and the tenant
// wall around names — tenants see only their own datasets.
func TestServeDataLifecycle(t *testing.T) {
	ts, _ := newTestServer(t)

	resp, up := doData(t, http.MethodPut, ts.URL+"/data/mine", "alice", triangleData)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("put: status=%d %v", resp.StatusCode, up)
	}
	if up["relations"].(float64) != 3 || up["tuples"].(float64) != 9 {
		t.Fatalf("put summary: %v", up)
	}

	// Metadata for the owner; 404 for everyone else.
	resp, info := doData(t, http.MethodGet, ts.URL+"/data/mine", "alice", "")
	if resp.StatusCode != http.StatusOK || info["version"].(float64) != 1 || info["tuples"].(float64) != 9 {
		t.Fatalf("get: status=%d %v", resp.StatusCode, info)
	}
	if resp, _ := doData(t, http.MethodGet, ts.URL+"/data/mine", "bob", ""); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("cross-tenant get: status=%d, want 404", resp.StatusCode)
	}
	dsBody := `{"query":"R(x,y), S(y,z), T(z,x).","dataset":"mine"}`
	if resp, _, _ := postQueryTenant(t, ts.URL+"/query", "bob", dsBody); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("cross-tenant query: status=%d, want 404", resp.StatusCode)
	}
	if resp, _, _ := postQueryTenant(t, ts.URL+"/query", "alice", dsBody); resp.StatusCode != http.StatusOK {
		t.Fatalf("owner query: status=%d, want 200", resp.StatusCode)
	}

	// List is tenant-scoped.
	_, list := doData(t, http.MethodGet, ts.URL+"/data", "alice", "")
	if n := len(list["datasets"].([]any)); n != 1 {
		t.Fatalf("alice sees %d datasets, want 1", n)
	}
	_, empty := doData(t, http.MethodGet, ts.URL+"/data", "bob", "")
	if ds := empty["datasets"]; ds != nil && len(ds.([]any)) != 0 {
		t.Fatalf("bob sees %v, want none", ds)
	}

	// A mutation against a missing dataset is 404; a malformed batch is
	// 400 and leaves the version untouched.
	if resp, _ := doData(t, http.MethodPost, ts.URL+"/data/mine/mutate", "bob",
		`{"op":"insert","rel":"R","rows":[[9,9]]}`); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("cross-tenant mutate: status=%d, want 404", resp.StatusCode)
	}
	for _, bad := range []string{
		`{"op":"upsert","rel":"R","rows":[[1,1]]}`,
		`{"op":"insert","rel":"Nope","rows":[[1,1]]}`,
		`{"op":"insert","rel":"R","rows":[[1]]}`,
		`not json`,
	} {
		if resp, _ := doData(t, http.MethodPost, ts.URL+"/data/mine/mutate", "alice", bad); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("mutation %q: status=%d, want 400", bad, resp.StatusCode)
		}
	}
	if _, info := doData(t, http.MethodGet, ts.URL+"/data/mine", "alice", ""); info["version"].(float64) != 1 {
		t.Fatalf("failed mutations must not advance the version: %v", info)
	}

	// Bad uploads: malformed text and oversized names are 400s.
	if resp, _ := doData(t, http.MethodPut, ts.URL+"/data/bad", "alice", "rel R(\n"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed upload: status=%d, want 400", resp.StatusCode)
	}
	if resp, _ := doData(t, http.MethodPut, ts.URL+"/data/"+strings.Repeat("x", 200), "alice", triangleData); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized name: status=%d, want 400", resp.StatusCode)
	}

	// /stats surfaces the dataset registry and parse-cache counters
	// (read before the drop below — the registry aggregates over live
	// datasets).
	sresp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var st statsResponse
	if err := json.NewDecoder(sresp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Datasets.Datasets != 1 || st.Datasets.Queries == 0 || st.Query.DatasetQueries == 0 {
		t.Fatalf("dataset counters not surfaced in /stats: %+v %+v", st.Datasets, st.Query)
	}

	// Drop, then 404.
	if resp, _ := doData(t, http.MethodDelete, ts.URL+"/data/mine", "bob", ""); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("cross-tenant delete: status=%d, want 404", resp.StatusCode)
	}
	if resp, _ := doData(t, http.MethodDelete, ts.URL+"/data/mine", "alice", ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("delete: status=%d, want 200", resp.StatusCode)
	}
	if resp, _ := doData(t, http.MethodGet, ts.URL+"/data/mine", "alice", ""); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("get after delete: status=%d, want 404", resp.StatusCode)
	}
}

// TestServeDataPutCountsDistinctTuples: a PUT whose rel blocks repeat
// tuples reports the tuples the new version holds, duplicates
// collapsed, as GET of that version does.
func TestServeDataPutCountsDistinctTuples(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, up := doData(t, http.MethodPut, ts.URL+"/data/dup", "", "rel R(a,b)\n1 2\n1 2\n3 4\nend\n")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("put: status=%d %v", resp.StatusCode, up)
	}
	_, info := doData(t, http.MethodGet, ts.URL+"/data/dup", "", "")
	if up["version"] != info["version"] || up["tuples"] != info["tuples"] || info["tuples"].(float64) != 2 {
		t.Fatalf("put reported %v, get %v: want version 1 with 2 tuples from both", up, info)
	}
}

// TestServeQueryInlineDuplicateTuples: an inline database whose
// relations repeat tuples answers over their distinct tuples, on its
// first request and on a repeat, for a row query and for a count.
func TestServeQueryInlineDuplicateTuples(t *testing.T) {
	ts, _ := newTestServer(t)
	const r = `rel R(c1,c2)\n1 2\n1 2\n3 2\nend\n`
	const s = `rel S(c1,c2)\n2 5\n2 6\n2 5\nend\n`
	// R has 2 distinct tuples and S 2, all on y = 2: 4 answers.
	const answers = 4
	for _, tc := range []struct{ name, db, head string }{
		{"rows", r + s, ""},
		{"count", s + r, `,"aggregate":"count"`},
	} {
		body := `{"query":"R(x,y), S(y,z).","database":"` + tc.db + `"` + tc.head + `}`
		for _, pass := range []string{"first", "repeat"} {
			resp, out, raw := postQuery(t, ts.URL+"/query", body)
			if resp.StatusCode != http.StatusOK || !out.OK {
				t.Fatalf("%s %s: status=%d %s", tc.name, pass, resp.StatusCode, raw)
			}
			got := out.RowCount
			if out.Aggregate != nil && out.Aggregate.Value != nil {
				got = int(*out.Aggregate.Value)
			}
			if got != answers {
				t.Fatalf("%s %s: %d answers, want %d distinct (%s)", tc.name, pass, got, answers, raw)
			}
		}
	}
}

// TestServeQueryDatasetPastRowCeiling: the server's row ceiling bounds
// what a query's joins create and its answer, not the data a dataset
// holds. With no max_rows, a dataset whose relations exceed the
// ceiling still answers counts — over one relation and over a join
// whose semijoins keep all of it — and a selective join; only a row
// query whose answer exceeds the ceiling gets the row-budget answer.
func TestServeQueryDatasetPastRowCeiling(t *testing.T) {
	const ceiling = 100
	ts, _ := newEdgeServer(t, htd.ServiceConfig{MaxRows: ceiling}, 0)
	var data strings.Builder
	for _, rel := range []string{"R", "T"} {
		fmt.Fprintf(&data, "rel %s(c1,c2)\n", rel)
		for i := 0; i < 10*ceiling; i++ {
			fmt.Fprintf(&data, "%d %d\n", i, i)
		}
		data.WriteString("end\n")
	}
	data.WriteString("rel S(c1,c2)\n7 70\nend\n")
	if resp, up := doData(t, http.MethodPut, ts.URL+"/data/big", "", data.String()); resp.StatusCode != http.StatusOK {
		t.Fatalf("put: status=%d %v", resp.StatusCode, up)
	}
	for _, tc := range []struct{ query, aggregate string }{
		{"R(x,y).", "count"},
		{"R(x,y), T(y,z).", "count"},
		{"R(x,y), S(y,z).", ""},
	} {
		body := fmt.Sprintf(`{"query":%q,"dataset":"big","aggregate":%q}`, tc.query, tc.aggregate)
		resp, out, raw := postQuery(t, ts.URL+"/query", body)
		if resp.StatusCode != http.StatusOK || !out.OK {
			t.Fatalf("%s %s: status %d: %s", tc.query, tc.aggregate, resp.StatusCode, raw)
		}
		if tc.aggregate != "" && (out.Aggregate == nil || out.Aggregate.Value == nil || *out.Aggregate.Value != 10*ceiling) {
			t.Fatalf("%s %s: %s, want %d", tc.query, tc.aggregate, raw, 10*ceiling)
		}
		if tc.aggregate == "" && !reflect.DeepEqual(out.Rows, [][]int{{7, 7, 70}}) {
			t.Fatalf("%s: rows %v, want [[7 7 70]]", tc.query, out.Rows)
		}
	}
	resp, out, raw := postQuery(t, ts.URL+"/query", `{"query":"R(x,y).","dataset":"big"}`)
	if resp.StatusCode != http.StatusOK || out.OK || !strings.Contains(out.Error, fmt.Sprintf("budget is %d", ceiling)) {
		t.Fatalf("row query past the ceiling: status %d: %s", resp.StatusCode, raw)
	}
}
