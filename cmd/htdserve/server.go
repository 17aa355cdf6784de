package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	htd "repro"
)

// apiRequest is the JSON body of POST /decompose and one NDJSON line of
// POST /batch. It selects the problem, not the solver: every job runs
// the service's one rule (det-k-decomp on a label budget, then the
// paper's hybrid) with the service's parallelism. Like any field it
// does not know, the decoder
// ignores a "hybrid", "hybrid_threshold", "workers" or "max_probes" an
// older client still sends.
type apiRequest struct {
	// Hypergraph in HyperBench syntax: name(v1,v2,...) terms separated
	// by commas.
	Hypergraph string `json:"hypergraph"`
	// Mode selects the problem: "decide" (default) answers hw ≤ k,
	// "optimal" computes hw exactly over widths 1..k with the width
	// ladder.
	Mode string `json:"mode,omitempty"`
	// K is the width bound (required, ≥ 1); the search ceiling in
	// optimal mode.
	K int `json:"k"`
	// TimeoutMS tightens the server's per-job timeout in milliseconds
	// (it cannot exceed the server's -timeout).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Render asks for the indented tree rendering in the response.
	Render bool `json:"render,omitempty"`
}

// apiNode is one decomposition node in a response, with edge and vertex
// names resolved.
type apiNode struct {
	Lambda   []string   `json:"lambda"`
	Bag      []string   `json:"bag"`
	Children []*apiNode `json:"children,omitempty"`
}

// apiResponse is the JSON result of one job.
type apiResponse struct {
	OK          bool             `json:"ok"`
	Width       int              `json:"width,omitempty"`
	Nodes       int              `json:"nodes,omitempty"`
	Tree        *apiNode         `json:"tree,omitempty"`
	Rendering   string           `json:"rendering,omitempty"`
	ElapsedMS   float64          `json:"elapsed_ms"`
	CacheShared bool             `json:"cache_shared"`
	CacheHit    bool             `json:"cache_hit,omitempty"`
	Coalesced   bool             `json:"coalesced,omitempty"`
	Stats       *htd.SolverStats `json:"stats,omitempty"`
	apiError

	// The proven lower bound (sound even on timeouts) and where it came
	// from, a logk.BoundSource name ("structural", "probe", "memo",
	// "trivial"): optimal jobs set
	// both; a decide job answered NO sets them too, to K+1 from
	// "structural" or "probe" when the structural bound or its search
	// refuted K, or to the cached bound (K+1 or more) from "memo". Then
	// the widths an optimal job searched.
	LowerBound     int    `json:"lower_bound,omitempty"`
	LowerBoundFrom string `json:"lower_bound_from,omitempty"`
	ProbesLaunched int    `json:"probes_launched,omitempty"`
	BoundsShared   bool   `json:"bounds_shared,omitempty"`
}

// apiError is the error half of every response body: the message,
// whether a deadline ended the job, and the tenant wall's backoff hint
// on 429 rejections (also sent as a Retry-After header on single-shot
// responses; batch lines only have this field). err keeps the
// underlying error for status; the wire carries only the fields.
type apiError struct {
	Error        string `json:"error,omitempty"`
	TimedOut     bool   `json:"timed_out,omitempty"`
	RetryAfterMS int64  `json:"retry_after_ms,omitempty"`
	err          error
}

// newAPIError is the error half of a response to a request that
// failed with err.
func newAPIError(err error) apiError {
	e := apiError{Error: err.Error(), TimedOut: errors.Is(err, context.DeadlineExceeded), err: err}
	var le *htd.TenantLimitError
	if errors.As(err, &le) {
		e.RetryAfterMS = max(le.RetryAfter.Milliseconds(), 1)
	}
	return e
}

// status is the HTTP edge's one error table: the status code of every
// single-shot and /data response, from the error the request ended
// with (nil on success).
func status(err error) int {
	switch {
	case err == nil:
		return http.StatusOK
	case errors.As(err, new(*http.MaxBytesError)), errors.Is(err, htd.ErrDatasetLimit):
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, htd.ErrDatasetNotFound):
		return http.StatusNotFound
	case errors.Is(err, htd.ErrDatasetVersionGone):
		// 410, not 404: the version existed and is gone for good —
		// clients should re-resolve to the current version, not retry.
		return http.StatusGone
	case errors.Is(err, htd.ErrTenantLimited), errors.Is(err, htd.ErrOverloaded):
		return http.StatusTooManyRequests
	case errors.Is(err, htd.ErrServiceClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled),
		errors.Is(err, htd.ErrNoQueryPlan), errors.Is(err, htd.ErrRowBudget),
		errors.Is(err, htd.ErrAggregateOverflow):
		// Answers: the job ran and its verdict is ok:false.
		return http.StatusOK
	}
	// Anything else is a bad request: malformed JSON, a parse error,
	// an unknown relation or arity mismatch, a future version.
	return http.StatusBadRequest
}

// writeHead starts the response to a request that ended with err (nil
// on success) with the status the table gives err. A tenant-limited
// 429 carries the Retry-After header (whole seconds, rounded up,
// minimum 1), so compliant clients back off by the bucket's actual
// deficit instead of guessing.
func writeHead(w http.ResponseWriter, err error) {
	code := status(err)
	if code == http.StatusTooManyRequests {
		// Declared here, not above: le escapes, and a success must not
		// pay for its allocation.
		var le *htd.TenantLimitError
		if errors.As(err, &le) {
			w.Header().Set("Retry-After", strconv.Itoa(max(int(math.Ceil(le.RetryAfter.Seconds())), 1)))
		}
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
}

// writeJSON writes v as the response to a request that ended with err
// (nil on success).
func writeJSON(w http.ResponseWriter, err error, v any) {
	writeHead(w, err)
	json.NewEncoder(w).Encode(v)
}

// writeError answers a request that failed with err before it had a
// response of its own.
func writeError(w http.ResponseWriter, err error) {
	writeJSON(w, err, newAPIError(err))
}

// tenanted resolves the caller's tenant from the X-Tenant header before
// h runs. An absent or blank header means the default tenant (mapped
// downstream); one over maxTenantIDLen bytes is a 400.
func tenanted(h func(w http.ResponseWriter, r *http.Request, tenant string)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		t := strings.TrimSpace(r.Header.Get("X-Tenant"))
		if len(t) > maxTenantIDLen {
			writeError(w, fmt.Errorf("X-Tenant exceeds %d bytes", maxTenantIDLen))
			return
		}
		h(w, r, t)
	}
}

// server wires an htd.Service into HTTP handlers.
type server struct {
	svc *htd.Service
	mux *http.ServeMux
	// planner answers /query and /querybatch over svc; it shares the
	// service's plan cache with /decompose traffic (a decomposed
	// hypergraph is a warm plan for a structurally identical query).
	planner *htd.QueryPlanner
	// batchLimit bounds how many lines of one batch are in flight at
	// once: the service's MaxConcurrent, so a large batch feeds it at
	// full rate and queues inside the handler instead of tripping the
	// service's admission control.
	batchLimit int
	// maxBody bounds every single-shot request body (decompose, query,
	// dataset uploads); one oversized POST must never balloon
	// server memory. Batch bodies are streamed and bounded per line
	// instead (maxBatchLine).
	maxBody int64
	started time.Time
}

// maxBatchLine bounds one NDJSON line of /batch and /querybatch.
const maxBatchLine = 16 * 1024 * 1024

// maxTenantIDLen bounds the X-Tenant header; ids are map keys in the
// per-tenant stats, so a hostile header must not be able to make them
// arbitrarily large.
const maxTenantIDLen = 128

func newHandler(svc *htd.Service, maxBody int64) *server {
	if maxBody <= 0 {
		maxBody = 8 * 1024 * 1024
	}
	s := &server{
		svc:        svc,
		planner:    htd.NewQueryPlanner(svc),
		batchLimit: svc.Config().MaxConcurrent,
		maxBody:    maxBody,
		started:    time.Now(),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /decompose", tenanted(s.handleDecompose))
	mux.HandleFunc("POST /batch", tenanted(s.handleBatch))
	mux.HandleFunc("POST /query", tenanted(s.handleQuery))
	mux.HandleFunc("POST /querybatch", tenanted(s.handleQueryBatch))
	mux.HandleFunc("GET /data", tenanted(s.handleDataList))
	mux.HandleFunc("PUT /data/{name}", tenanted(s.admitted(s.handleDataPut)))
	mux.HandleFunc("GET /data/{name}", tenanted(s.handleDataGet))
	mux.HandleFunc("DELETE /data/{name}", tenanted(s.handleDataDelete))
	mux.HandleFunc("POST /data/{name}/mutate", tenanted(s.admitted(s.handleDataMutate)))
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /cache", s.handleCache)
	mux.HandleFunc("POST /cache/purge", s.handleCachePurge)
	s.mux = mux
	return s
}

func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// requestTimeout converts a request's timeout_ms. It rejects negative
// values and saturates instead of overflowing, so that any value past
// the server's -timeout is clamped to it by the service.
func requestTimeout(ms int64) (time.Duration, error) {
	if ms < 0 {
		return 0, errors.New("\"timeout_ms\" must be >= 0")
	}
	return time.Duration(min(ms, math.MaxInt64/int64(time.Millisecond))) * time.Millisecond, nil
}

// parseRequest turns an API request into a service request.
func parseRequest(a apiRequest) (htd.ServiceRequest, error) {
	var req htd.ServiceRequest
	if strings.TrimSpace(a.Hypergraph) == "" {
		return req, errors.New("missing \"hypergraph\"")
	}
	if a.K < 1 {
		return req, errors.New("\"k\" must be >= 1")
	}
	timeout, err := requestTimeout(a.TimeoutMS)
	if err != nil {
		return req, err
	}
	h, err := htd.ParseString(a.Hypergraph)
	if err != nil {
		return req, fmt.Errorf("parse hypergraph: %w", err)
	}
	req = htd.ServiceRequest{
		H:       h,
		K:       a.K,
		Timeout: timeout,
	}
	switch a.Mode {
	case "", "decide":
		req.Mode = htd.ModeDecide
	case "optimal":
		req.Mode = htd.ModeOptimal
	default:
		return req, fmt.Errorf("unknown mode %q (want decide or optimal)", a.Mode)
	}
	return req, nil
}

// runJob submits one parsed request and shapes the result for the wire.
func (s *server) runJob(ctx context.Context, a apiRequest, tenant string) *apiResponse {
	req, err := parseRequest(a)
	if err != nil {
		return &apiResponse{apiError: newAPIError(err)}
	}
	req.Tenant = tenant
	res := s.svc.Submit(ctx, req)
	resp := &apiResponse{
		OK:             res.OK,
		ElapsedMS:      float64(res.Elapsed) / float64(time.Millisecond),
		CacheShared:    res.CacheShared,
		CacheHit:       res.CacheHit,
		Coalesced:      res.Coalesced,
		Stats:          &res.Stats,
		LowerBound:     res.LowerBound,
		LowerBoundFrom: res.LowerBoundFrom,
		ProbesLaunched: res.ProbesLaunched,
		BoundsShared:   res.BoundsShared,
	}
	if res.Err != nil {
		resp.apiError = newAPIError(res.Err)
		return resp
	}
	if res.OK {
		resp.Width = res.Decomp.Width()
		resp.Nodes = res.Decomp.NumNodes()
		resp.Tree = toAPINode(res.Decomp, res.Decomp.Root)
		if a.Render {
			resp.Rendering = res.Decomp.String()
		}
	}
	return resp
}

func toAPINode(d *htd.Decomposition, n *htd.Node) *apiNode {
	out := &apiNode{Lambda: make([]string, len(n.Lambda))}
	for i, e := range n.Lambda {
		out.Lambda[i] = d.H.EdgeName(e)
	}
	n.Bag.ForEach(func(v int) { out.Bag = append(out.Bag, d.H.VertexName(v)) })
	for _, c := range n.Children {
		out.Children = append(out.Children, toAPINode(d, c))
	}
	return out
}

func (s *server) handleDecompose(w http.ResponseWriter, r *http.Request, tenant string) {
	r.Body = http.MaxBytesReader(w, r.Body, s.maxBody)
	var a apiRequest
	if err := json.NewDecoder(r.Body).Decode(&a); err != nil {
		writeError(w, fmt.Errorf("invalid JSON: %w", err))
		return
	}
	resp := s.runJob(r.Context(), a, tenant)
	writeJSON(w, resp.err, resp)
}

// streamNDJSON reads NDJSON request lines and streams NDJSON responses
// in input order, each line flushed as soon as its job finishes. At
// most batchLimit jobs run at once; handle turns one line into one
// response, and write writes that response as one NDJSON line.
//
// A failed response write marks the client dead: the scanner stops
// accepting lines, so a disconnected batch client stops consuming
// solver budget (already-running jobs finish and their results are
// discarded). A read error ends the stream with a final NDJSON error
// object — in particular a line beyond the maxBatchLine cap names
// bufio.ErrTooLong, so clients can tell "input rejected" from
// "connection died".
func streamNDJSON[T any](s *server, w http.ResponseWriter, r *http.Request,
	handle func([]byte) T, write func(io.Writer, T) error) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	// The stream writes responses while the request body is still being
	// read; on HTTP/1.x that concurrency needs full-duplex mode, or the
	// first flush blocks trying to drain a body the client is still
	// sending. Writers that can't do it (HTTP/2 allows it natively) just
	// keep their default behaviour.
	http.NewResponseController(w).EnableFullDuplex()
	// A stream that stops early leaves an unread tail. Closing the body
	// here reads a bounded tail (net/http drops the connection past
	// that); left to the server after return, a full-duplex body's read
	// to EOF starts a background read the next request panics on.
	defer r.Body.Close()
	flusher, _ := w.(http.Flusher)

	// pending preserves input order; the writer drains one result
	// channel at a time while jobs run concurrently behind it.
	var clientDead atomic.Bool
	pending := make(chan chan T, s.batchLimit)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for ch := range pending {
			v := <-ch
			if clientDead.Load() {
				// Keep draining so in-flight producers can finish, but
				// stop encoding to a dead connection.
				continue
			}
			if err := write(w, v); err != nil {
				clientDead.Store(true)
				continue
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
	}()

	sem := make(chan struct{}, s.batchLimit)
	scanner := bufio.NewScanner(r.Body)
	scanner.Buffer(make([]byte, 0, 64*1024), maxBatchLine)
	for scanner.Scan() {
		if clientDead.Load() {
			break
		}
		line := bytes.TrimSpace(scanner.Bytes())
		if len(line) == 0 {
			continue
		}
		ch := make(chan T, 1)
		pending <- ch
		sem <- struct{}{}
		go func(line []byte) {
			defer func() { <-sem }()
			ch <- handle(line)
		}(append([]byte(nil), line...))
	}
	close(pending)
	<-done
	if err := scanner.Err(); err != nil && !clientDead.Load() {
		// Too late for a status code, but not for a final NDJSON error
		// line telling the client why the batch ended early.
		msg := "batch aborted: " + err.Error()
		if errors.Is(err, bufio.ErrTooLong) {
			msg = fmt.Sprintf("batch aborted: %v (one line exceeds the %d-byte batch line limit)",
				bufio.ErrTooLong, maxBatchLine)
		}
		writeJSONLine(w, map[string]any{"ok": false, "error": msg})
	}
}

// handleBatch streams decomposition jobs: NDJSON apiRequest lines in,
// apiResponse lines out, input order preserved.
func (s *server) handleBatch(w http.ResponseWriter, r *http.Request, tenant string) {
	streamNDJSON(s, w, r, func(line []byte) *apiResponse {
		var a apiRequest
		if err := json.Unmarshal(line, &a); err != nil {
			return &apiResponse{apiError: newAPIError(fmt.Errorf("invalid JSON: %w", err))}
		}
		return s.runJob(r.Context(), a, tenant)
	}, writeJSONLine)
}

// queryAPIRequest is the JSON body of POST /query and one NDJSON line
// of POST /querybatch.
type queryAPIRequest struct {
	// Query is the conjunctive query: "R(x,y), S(y,z), T(z,x)."
	Query string `json:"query"`
	// Dataset names a server-resident dataset (PUT /data/{name}) to run
	// over instead of shipping the data inline: the query reads a
	// consistent snapshot whose relations carry maintained indexes, so
	// repeat queries skip parsing and index building. Mutually
	// exclusive with Database.
	Dataset string `json:"dataset,omitempty"`
	// AtVersion pins a dataset query to a specific version (0 =
	// current). Evicted or future versions are a clear error, never
	// wrong rows.
	AtVersion uint64 `json:"at_version,omitempty"`
	// Database is the inline compatibility path: the data shipped with
	// the request as rel blocks in the document text format:
	// "rel R(c1,c2)\n1 2\nend\n...". Relation names and arities must
	// match the query's atoms. Prefer Dataset for repeat queries —
	// an inline database is shipped and parsed with every request.
	Database string `json:"database,omitempty"`
	// MaxWidth is the plan's width ceiling (0 = number of atoms, so a
	// plan always exists).
	MaxWidth int `json:"max_width,omitempty"`
	// MaxRows caps every join result and the answer (not the relations
	// the query reads); exceeding it aborts the query. Unset, the
	// server's -max-rows applies; set, it can only tighten it.
	MaxRows int `json:"max_rows,omitempty"`
	// TimeoutMS bounds the whole query (planning + execution). Unset,
	// the server's -timeout applies; set, it can only tighten it.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// OmitRows asks for counts and plan metadata only — the answer rows
	// are computed but not serialised (cheap for large results).
	OmitRows bool `json:"omit_rows,omitempty"`
	// Aggregate, when non-empty, answers this aggregate head instead of
	// returning rows ("count", "sum(x)", "group x: count distinct(y)"
	// — see docs/QUERY_FORMAT.md). The aggregate is pushed down the join
	// tree, so max_rows then bounds the group count, not the answer
	// count: queries whose row form would exceed the budget still
	// aggregate cheaply.
	Aggregate string `json:"aggregate,omitempty"`
}

// queryAPIResponse is the JSON result of one query.
type queryAPIResponse struct {
	OK bool `json:"ok"`
	// Vars and Rows are the canonical answer: attributes in sorted
	// variable order, tuples sorted — a repeat of an identical query
	// returns byte-identical rows. Rows is the field a reader decodes;
	// the server leaves it nil and writeQueryResponse writes the rows
	// from answer in its place.
	Vars     []string `json:"vars,omitempty"`
	Rows     [][]int  `json:"rows,omitempty"`
	RowCount int      `json:"row_count"`
	// Width is the hypertree width of the executed plan; PlanCacheHit
	// reports it came from the store with zero solver runs.
	Width         int     `json:"width,omitempty"`
	PlanCacheHit  bool    `json:"plan_cache_hit"`
	PlanCoalesced bool    `json:"plan_coalesced,omitempty"`
	PlanMS        float64 `json:"plan_ms"`
	ExecMS        float64 `json:"exec_ms"`
	// Exec carries the executor's effort counters for this query.
	Exec *htd.QueryExecStats `json:"exec,omitempty"`
	// DatasetVersion is the dataset version the query read (dataset
	// requests only): the snapshot that answered it.
	DatasetVersion uint64 `json:"dataset_version,omitempty"`
	// Aggregate is the answer of an aggregate request; rows are never
	// serialised for aggregates (RowCount stays 0).
	Aggregate *aggWire `json:"aggregate,omitempty"`
	apiError

	// answer is the canonical answer whose rows go on the wire; nil
	// for errors, aggregates and omit_rows.
	answer *htd.Relation
}

// aggWire is the JSON shape of an aggregate answer: the canonical spec
// echoed back, group columns/rows in sorted order, and the scalar value
// when the spec has no GROUP BY.
type aggWire struct {
	Spec       string   `json:"spec"`
	GroupVars  []string `json:"group_vars,omitempty"`
	Groups     [][]int  `json:"groups,omitempty"`
	Values     []int64  `json:"values"`
	GroupCount int      `json:"group_count"`
	// Value is the scalar answer of a no-GROUP-BY aggregate; absent for
	// grouped aggregates and for MIN/MAX over an empty answer set.
	Value *int64 `json:"value,omitempty"`
}

// runQuery answers one parsed query request and shapes the result for
// the wire.
func (s *server) runQuery(ctx context.Context, a queryAPIRequest, tenant string) *queryAPIResponse {
	fail := func(err error) *queryAPIResponse { return &queryAPIResponse{apiError: newAPIError(err)} }
	if strings.TrimSpace(a.Query) == "" {
		return fail(errors.New("missing \"query\""))
	}
	timeout, err := requestTimeout(a.TimeoutMS)
	if err != nil {
		return fail(err)
	}
	q, err := htd.ParseCQ(a.Query)
	if err != nil {
		return fail(fmt.Errorf("parse query: %v", err))
	}
	var db htd.Database
	if a.Dataset != "" {
		if a.Database != "" {
			return fail(errors.New("set exactly one of \"dataset\" or \"database\""))
		}
		// db stays nil: the planner resolves the named dataset to a
		// pinned snapshot behind the tenant wall.
	} else {
		// Inline path: the text is parsed per request, as PUT
		// /data/{name} parses an upload.
		db, err = htd.ParseRelations(a.Database)
		if err != nil {
			return fail(fmt.Errorf("parse database: %v", err))
		}
	}
	var spec *htd.AggregateSpec
	if strings.TrimSpace(a.Aggregate) != "" {
		parsed, err := htd.ParseAggregate(a.Aggregate)
		if err != nil {
			return fail(fmt.Errorf("parse aggregate: %v", err))
		}
		spec = &parsed
	}
	res, err := s.planner.Eval(ctx, htd.QueryRequest{
		Query:     q,
		Dataset:   a.Dataset,
		AtVersion: a.AtVersion,
		DB:        db,
		MaxWidth:  a.MaxWidth,
		MaxRows:   a.MaxRows,
		Timeout:   timeout,
		Aggregate: spec,
		Tenant:    tenant,
	})
	if err != nil {
		return fail(err)
	}
	resp := &queryAPIResponse{
		OK:             true,
		Width:          res.Width,
		PlanCacheHit:   res.PlanCacheHit,
		PlanCoalesced:  res.PlanCoalesced,
		PlanMS:         float64(res.PlanElapsed) / float64(time.Millisecond),
		ExecMS:         float64(res.ExecElapsed) / float64(time.Millisecond),
		DatasetVersion: res.DatasetVersion,
		Exec:           &res.Exec,
	}
	if res.Agg != nil {
		resp.Aggregate = &aggWire{
			Spec:       htd.FormatAggregate(*spec),
			GroupVars:  res.Agg.GroupVars,
			Groups:     res.Agg.Groups,
			Values:     res.Agg.Values,
			GroupCount: len(res.Agg.Groups),
		}
		if v, ok := res.Agg.Value(); ok {
			resp.Aggregate.Value = &v
		}
		return resp
	}
	resp.RowCount = res.Rows.Size()
	if !a.OmitRows {
		resp.Vars = res.Rows.Attrs
		resp.answer = res.Rows
	}
	return resp
}

func (s *server) handleQuery(w http.ResponseWriter, r *http.Request, tenant string) {
	r.Body = http.MaxBytesReader(w, r.Body, s.maxBody)
	var a queryAPIRequest
	if err := json.NewDecoder(r.Body).Decode(&a); err != nil {
		writeError(w, fmt.Errorf("invalid JSON: %w", err))
		return
	}
	resp := s.runQuery(r.Context(), a, tenant)
	writeHead(w, resp.err)
	writeQueryResponse(w, resp)
}

// respBufs pools writeQueryResponse's buffers; one that grew past
// maxRespBuf (a single very wide row) is dropped rather than kept.
var respBufs = sync.Pool{New: func() any { b := make([]byte, 0, 64<<10); return &b }}

const maxRespBuf = 256 << 10

// writeQueryResponse writes resp as one line, the bytes encoding/json
// writes for resp with Rows holding the answer's rows — the one writer
// of /query and /querybatch responses. The rows go from the answer's
// columns straight to w through a pooled buffer of bounded size, so
// the encode's memory does not grow with the answer.
func writeQueryResponse(w io.Writer, resp *queryAPIResponse) error {
	head, err := json.Marshal(resp)
	if err != nil {
		return err
	}
	bp := respBufs.Get().(*[]byte)
	buf := (*bp)[:0]
	if resp.answer != nil && resp.answer.Size() > 0 {
		// "rows" goes just before "row_count", which is never omitted.
		// encoding/json escapes every quote inside a string, so the
		// first `,"row_count":` is that key.
		i := bytes.Index(head, []byte(`,"row_count":`))
		buf = append(append(buf, head[:i]...), `,"rows":`...)
		buf, err = resp.answer.WriteJSON(w, buf)
		head = head[i:]
	}
	if err == nil {
		_, err = w.Write(append(append(buf, head...), '\n'))
	}
	if cap(buf) <= maxRespBuf {
		*bp = buf[:0]
		respBufs.Put(bp)
	}
	return err
}

// handleQueryBatch streams query jobs: NDJSON queryAPIRequest lines in,
// queryAPIResponse lines out, input order preserved. Duplicate queries
// inside one batch plan once: the first line's solve is coalesced with
// or cached for the rest.
func (s *server) handleQueryBatch(w http.ResponseWriter, r *http.Request, tenant string) {
	streamNDJSON(s, w, r, func(line []byte) *queryAPIResponse {
		var a queryAPIRequest
		if err := json.Unmarshal(line, &a); err != nil {
			return &queryAPIResponse{apiError: newAPIError(fmt.Errorf("invalid JSON: %w", err))}
		}
		return s.runQuery(r.Context(), a, tenant)
	}, writeQueryResponse)
}

// handleCache lists the store: backend counters plus up to ?max cached
// entries (default 100) with bounds, witness width and memo summaries.
func (s *server) handleCache(w http.ResponseWriter, r *http.Request) {
	max := 100
	if q := r.URL.Query().Get("max"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 0 {
			writeError(w, errors.New("invalid max"))
			return
		}
		max = n
	}
	st := s.svc.Store()
	entries := []htd.StoreEntryInfo{}
	if max > 0 {
		// max=0 means counters only; Backend.Info's 0 means unbounded,
		// which an HTTP query must never request implicitly.
		entries = st.Info(max)
	}
	writeJSON(w, nil, map[string]any{
		"store":   st.Stats(),
		"entries": entries,
	})
}

func (s *server) handleCachePurge(w http.ResponseWriter, r *http.Request) {
	before := s.svc.Store().Stats().Entries
	s.svc.Store().Purge()
	writeJSON(w, nil, map[string]any{"purged": before})
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, nil, map[string]any{
		"status":         "ok",
		"uptime_seconds": time.Since(s.started).Seconds(),
	})
}

// statsResponse flattens the service counters at the top level (the
// shape existing clients read) and nests the query-pipeline counters
// under "query".
type statsResponse struct {
	htd.ServiceStats
	Query htd.QueryStats `json:"query"`
	// Datasets covers the data half: the dataset registry's totals.
	Datasets htd.DatasetStats `json:"datasets"`
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, nil, statsResponse{
		ServiceStats: s.svc.Stats(),
		Query:        s.planner.Stats(),
		Datasets:     s.svc.Datasets().Stats(),
	})
}

// writeJSONLine writes v as one line of JSON.
func writeJSONLine[T any](w io.Writer, v T) error {
	return json.NewEncoder(w).Encode(v)
}
