package main

import (
	"net/http"
	"strings"
	"testing"

	htd "repro"
)

// TestPprofMuxServesEndpoints: the dedicated profiling mux answers the
// standard pprof surface.
func TestPprofMuxServesEndpoints(t *testing.T) {
	srv := startServer(t, pprofMux())
	for _, path := range []string{
		"/debug/pprof/",
		"/debug/pprof/heap",
		"/debug/pprof/allocs",
		"/debug/pprof/goroutine",
		"/debug/pprof/cmdline",
		"/debug/pprof/symbol",
	} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d, want 200", path, resp.StatusCode)
		}
	}
}

// TestServingHandlerNeverRoutesPprof: the serving handler must 404 the
// profiling paths regardless of flags — profiling is only reachable
// through the separate -pprof-addr listener.
func TestServingHandlerNeverRoutesPprof(t *testing.T) {
	svc := htd.NewService(htd.ServiceConfig{})
	defer svc.Close()
	srv := startServer(t, newHandler(svc, 0))
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/heap", "/debug/pprof/profile"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s: status %d on the serving handler, want 404", path, resp.StatusCode)
		}
	}
	// Sanity: the same handler does serve its own endpoints.
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz: status %d", resp.StatusCode)
	}
	if !strings.HasPrefix(resp.Header.Get("Content-Type"), "application/json") {
		t.Fatalf("/healthz content type %q", resp.Header.Get("Content-Type"))
	}
}
