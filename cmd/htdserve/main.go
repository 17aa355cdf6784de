// Command htdserve serves hypertree decompositions over HTTP, backed by
// htd.Service: a shared worker-token budget, admission control with
// per-job timeouts, and a unified cross-request store (width bounds,
// cached witness decompositions, negative-memo tables; an exact LRU
// under one lock) with request coalescing and optional disk persistence
// (-store-dir).
//
// Usage:
//
//	htdserve -addr :8080 [-budget 8] [-max-concurrent 8] [-timeout 30s]
//	         [-max-rows 250000]
//	         [-store-dir cache.d] [-store-fsync 100ms]
//	         [-tenant-rate 50] [-tenant-inflight 4] [-fair-share=false]
//	         [-pprof-addr localhost:6060]
//
// Profiling: -pprof-addr exposes the standard net/http/pprof endpoints
// (/debug/pprof/...) on a separate listener — off by default, and never
// routed by the serving handler, so heap and CPU profiles are only
// reachable where the operator points them (typically localhost).
//
// Multi-tenant admission: every request may carry an X-Tenant header
// (absent = the default tenant). The -tenant-* flags arm a per-tenant
// load wall in front of the global admission control — token-bucket
// rate limiting, an in-flight cap with a bounded FIFO queue — and fair
// share (on by default; -fair-share=false turns it off) lets unused
// per-tenant budget flow to a shared spare pool so one tenant on an
// idle box still gets full throughput. Over-limit calls get 429 with a
// Retry-After header; /stats reports per-tenant counters and p50/p99
// latency.
//
// Statuses: every single-shot and /data response takes its status from
// one table, status in server.go, and its error body from apiError;
// batch lines carry the same body with no status of their own.
//
// Endpoints:
//
//	POST /decompose    one job; JSON body {"hypergraph":"r1(x,y), ...","k":2}
//	POST /batch        NDJSON job lines in, NDJSON results out (streamed,
//	                   input order)
//	POST /query        answer a conjunctive query: over a named dataset
//	                   ({"query":..., "dataset":"name"}) or inline data
//	                   ({"query":..., "database":"rel R(a,b)\n1 2\nend"})
//	POST /querybatch   NDJSON query lines in, NDJSON answers out
//	PUT  /data/{name}  upload (create or replace) a named dataset
//	GET  /data/{name}  dataset metadata: version, relations, tuples
//	DEL  /data/{name}  drop a dataset
//	POST /data/{name}/mutate  apply an NDJSON delta batch (one version bump)
//	GET  /data         list the caller's datasets
//	GET  /healthz      liveness probe
//	GET  /stats        service counters (jobs, tokens, store, solver)
//	GET  /cache        store introspection: counters + cached entries
//	POST /cache/purge  drop all cached entries
//
// Datasets: PUT /data/{name} uploads a database once; queries then
// reference it by name ({"dataset":"name"}) instead of shipping data
// per request, reading an immutable snapshot whose relations carry
// delta-maintained hash indexes (repeat queries skip parsing and index
// building; responses report the snapshot's "dataset_version").
// Mutation batches advance the version in O(delta); "at_version" pins a
// query to a recent version (-dataset-retain controls how many stay
// pinnable). Datasets are tenant-namespaced by X-Tenant.
//
// Persistence: with -store-dir, the cross-request store is
// disk-backed: the in-memory LRU store becomes the working set
// over a crash-safe append-only log in that directory, every result is
// persisted as it is computed, and a restart (graceful or kill -9)
// serves the whole cached history warm with zero solver runs.
// -store-fsync trades durability for append latency: 0 (the default)
// fsyncs every append, larger values fsync on that cadence and can lose
// at most the unsynced tail on a crash. The closed directory is the
// export format: to move a warm cache, stop the server (shutdown
// flushes and fsyncs the log) and copy the directory. Without
// -store-dir the plan cache lives in memory only; datasets are
// memory-only either way.
//
// Try it:
//
//	curl -s localhost:8080/decompose -d '{"hypergraph":"r1(x,y), r2(y,z), r3(z,x).","k":2}'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	htd "repro"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		budget     = flag.Int("budget", 0, "global extra-worker token budget (0 = GOMAXPROCS-1, -1 = none)")
		maxConc    = flag.Int("max-concurrent", 0, "max jobs decomposing at once (0 = GOMAXPROCS)")
		maxQueue   = flag.Int("max-queue", 0, "max jobs waiting before rejection (0 = 64)")
		timeout    = flag.Duration("timeout", 30*time.Second, "default per-job timeout (0 = none)")
		maxRows    = flag.Int("max-rows", 0, "row ceiling of the relations a query creates and its answer; a request's max_rows can only tighten it (0 = 250000, -1 = none)")
		memoGraphs = flag.Int("memo-graphs", 0, "hypergraphs cached in the store (0 = 32)")
		storeDir   = flag.String("store-dir", "", "disk-backed store directory: every result persists as computed, restarts serve warm")
		storeFsync = flag.Duration("store-fsync", 0, "disk store fsync cadence (0 = every append)")

		tenantRate     = flag.Float64("tenant-rate", 0, "per-tenant admissions per second (0 = unlimited)")
		tenantBurst    = flag.Float64("tenant-burst", 0, "per-tenant burst size (0 = max(rate, 1))")
		tenantInflight = flag.Int("tenant-inflight", 0, "per-tenant max jobs in flight (0 = unlimited)")
		tenantQueue    = flag.Int("tenant-queue", 0, "per-tenant queue depth behind the in-flight cap (0 = none)")
		fairShare      = flag.Bool("fair-share", true, "let unused per-tenant rate flow to a shared spare pool")
		globalRate     = flag.Float64("global-rate", 0, "whole-server admissions per second feeding the fair-share pool (0 = sum of reserved rates only)")
		maxBody        = flag.Int64("max-body", 0, "max bytes of one request body on single-shot endpoints (0 = 8 MiB)")
		pprofAddr      = flag.String("pprof-addr", "", "serve net/http/pprof on this separate address (empty = disabled)")

		dsMax    = flag.Int("dataset-max", 0, "max named datasets across all tenants (0 = 64)")
		dsTuples = flag.Int("dataset-tuples", 0, "max live tuples per dataset (0 = 2M)")
		dsRetain = flag.Int("dataset-retain", 0, "dataset versions kept pinnable for at_version reads (0 = 4)")
	)
	flag.Parse()

	cfg := htd.ServiceConfig{
		TokenBudget:    *budget,
		MaxConcurrent:  *maxConc,
		MaxQueue:       *maxQueue,
		DefaultTimeout: *timeout,
		MaxRows:        *maxRows,
		MemoMaxGraphs:  *memoGraphs,
		StoreDir:       *storeDir,
		StoreFsync:     *storeFsync,
		Tenants: htd.TenantConfig{
			Rate:        *tenantRate,
			Burst:       *tenantBurst,
			MaxInFlight: *tenantInflight,
			MaxQueue:    *tenantQueue,
			FairShare:   *fairShare,
			GlobalRate:  *globalRate,
		},
		Datasets: htd.DatasetConfig{
			MaxDatasets: *dsMax,
			MaxTuples:   *dsTuples,
			Retain:      *dsRetain,
		},
	}
	svc, err := htd.OpenService(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "htdserve: open store %s: %v\n", *storeDir, err)
		os.Exit(1)
	}
	if *storeDir != "" {
		if st := svc.Store().Stats(); st.Disk != nil {
			fmt.Fprintf(os.Stderr, "htdserve: disk store %s: %d entries, %d segments, %d bytes\n",
				*storeDir, st.Disk.Entries, st.Disk.Segments, st.Disk.Bytes)
		}
	}
	handler := newHandler(svc, *maxBody)
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
	}

	// The profiling listener is separate from the serving one: exposing
	// heap and CPU profiles is an operator decision (-pprof-addr, e.g.
	// bound to localhost), never a side effect of serving traffic.
	var pprofSrv *http.Server
	if *pprofAddr != "" {
		pprofSrv = &http.Server{
			Addr:              *pprofAddr,
			Handler:           pprofMux(),
			ReadHeaderTimeout: 10 * time.Second,
		}
		go func() {
			if err := pprofSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintf(os.Stderr, "htdserve: pprof listener: %v\n", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "htdserve: pprof on %s\n", *pprofAddr)
	}

	// shutdown is the single exit path: drain in-flight HTTP requests,
	// then close the service. Both the signal arm and the listener-error
	// arm run it, so a crashed listener flushes the disk store exactly
	// like a graceful SIGTERM does.
	shutdown := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "htdserve: shutdown: %v\n", err)
		}
		if pprofSrv != nil {
			if err := pprofSrv.Shutdown(ctx); err != nil {
				fmt.Fprintf(os.Stderr, "htdserve: pprof shutdown: %v\n", err)
			}
		}
		// Close drains in-flight jobs, then flushes and closes the disk
		// store (when -store-dir owns one).
		if err := svc.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "htdserve: close store: %v\n", err)
		}
	}

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "htdserve: listening on %s\n", *addr)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "htdserve: %v, draining\n", sig)
		shutdown()
	case err := <-errc:
		if !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "htdserve: %v\n", err)
			shutdown()
			os.Exit(1)
		}
	}
}
