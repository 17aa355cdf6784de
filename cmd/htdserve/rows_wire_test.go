package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	htd "repro"
)

var updateWire = flag.Bool("update", false, "rewrite the /query wire golden")

// rowsWireCases are the /query bodies TestServeQueryRowsWireGolden
// pins: the answer shapes whose row encoding can go wrong.
func rowsWireCases() []struct{ name, body string } {
	var r, s strings.Builder
	// A path-rows-shaped answer: every y joins 25 R-rows to 10 S-rows,
	// 2,500 answers in all.
	for i := 0; i < 250; i++ {
		fmt.Fprintf(&r, "%d %d\n", i*7919, i%10)
	}
	for j := 0; j < 100; j++ {
		fmt.Fprintf(&s, "%d %d\n", j%10, -j*104729)
	}
	path := "rel R(c1,c2)\n" + r.String() + "end\nrel S(c1,c2)\n" + s.String() + "end\n"
	extremes := "rel R(c1,c2)\n-1 0\n2147483647 -2147483648\n2147483648 -2147483649\n" +
		"9223372036854775807 -9223372036854775808\n-9223372036854775807 9223372036854775806\n" +
		"-9223372036854775808 9223372036854775807\n0 0\nend\n"
	return []struct{ name, body string }{
		{"triangle", triangleQueryBody},
		{"empty", `{"query":"R(x,y), S(y,z).","database":"rel R(c1,c2)\n1 2\nend\nrel S(c1,c2)\n3 4\nend\n"}`},
		{"omit_rows", strings.TrimSuffix(triangleQueryBody, "}") + `,"omit_rows":true}`},
		{"extremes", `{"query":"R(b,a).","database":` + jsonString(extremes) + `}`},
		{"one-var-escaped", `{"query":"R(x<&>\"\\é).","database":"rel R(c1)\n3\n-7\n1\n3\nend\n"}`},
		{"path-rows", `{"query":"R(x,y), S(y,z).","database":` + jsonString(path) + `}`},
	}
}

func jsonString(s string) string {
	b, err := json.Marshal(s)
	if err != nil {
		panic(err)
	}
	return string(b)
}

// wireTimings matches the two wall-clock fields of a query response.
var wireTimings = regexp.MustCompile(`"(plan_ms|exec_ms)":[-+.eE0-9]+`)

// TestServeQueryRowsWireGolden pins the full response bytes of /query
// and of /querybatch for answers of every shape — a small answer, an
// empty one, omit_rows, int32/int64 extremes, one escaped variable and
// several thousand rows — with plan_ms and exec_ms masked. The server
// writes rows straight from the canonical relation, so this is what
// holds that writer to the bytes encoding/json gave for the answer's
// row slices. Every /query runs first, on a one-line-at-a-time server,
// so the /querybatch lines are plan-cache hits.
// Regenerate with -update only for an intended change of the wire.
func TestServeQueryRowsWireGolden(t *testing.T) {
	svc := htd.NewService(htd.ServiceConfig{
		TokenBudget: 1, MaxConcurrent: 1, MaxQueue: 64, DefaultTimeout: 30 * time.Second,
	})
	ts := startServer(t, newHandler(svc, 0))
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})

	var got bytes.Buffer
	post := func(path, body string) {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&got, "%d %s\n", resp.StatusCode, resp.Header.Get("Content-Type"))
		got.Write(wireTimings.ReplaceAll(raw, []byte(`"$1":0`)))
	}
	cases := rowsWireCases()
	var batch []string
	for _, c := range cases {
		fmt.Fprintf(&got, "== POST /query %s\n", c.name)
		post("/query", c.body)
		batch = append(batch, c.body)
	}
	batch = append(batch, `{"bad":`, `{"query":"R(x,y).","database":"rel R(c1)\n1\nend\n"}`)
	fmt.Fprintf(&got, "== POST /querybatch\n")
	post("/querybatch", strings.Join(batch, "\n")+"\n")

	path := filepath.Join("testdata", "query_rows_wire.golden")
	if *updateWire {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		g, w := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := range min(len(g), len(w)) {
			if g[i] != w[i] {
				t.Fatalf("wire diverges from %s at line %d:\n got %.300s\nwant %.300s", path, i+1, g[i], w[i])
			}
		}
		t.Fatalf("wire has %d lines, %s has %d", len(g), path, len(w))
	}
}
