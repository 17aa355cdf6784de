package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"runtime/metrics"
	"strings"
	"time"

	"repro/internal/dataset"
	"repro/internal/decomp"
	"repro/internal/hypergraph"
	"repro/internal/join"
	"repro/internal/query"
	"repro/internal/service"
	"repro/internal/tenant"
)

// The in-process replays run a workload's list against a service built
// in the driver process, with the configuration htdserve uses by
// default. The untraced replay calls the same entry points the HTTP
// handlers call (query.Planner.Eval, service.Submit, Dataset.Mutate).
// The traced replay makes the calls query.Planner.Eval makes, one
// layer at a time, and records a span around each; instrumentation
// inside the program is not part of this benchmark.

// span is one timed call of the traced replay.
type span struct {
	Name   string        `json:"name"`
	Op     int           `json:"op"` // op index; -1 for set-up
	Parent int           `json:"parent"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// Span names. rootSpan covers one whole op of the traced replay;
// probeSpan is measured after the op, outside its root span.
const (
	rootSpan  = "replay.op"
	probeSpan = "decomp.check_hd"
)

// tracer keeps spans in memory; they are written out when the run
// ends.
type tracer struct {
	epoch time.Time
	spans []span
	stack []int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) begin(name string, op int) int {
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: time.Since(t.epoch)})
	id := len(t.spans) - 1
	t.stack = append(t.stack, id)
	return id
}

func (t *tracer) end(id int) {
	t.spans[id].End = time.Since(t.epoch)
	t.stack = t.stack[:len(t.stack)-1]
}

// input is one op decoded from its request body, outside every timed
// window.
type input struct {
	query, aggregate string
	mutations        []dataset.Mutation
	graph            string
	k                int
}

func decodeInputs(ops []Op) ([]input, error) {
	out := make([]input, len(ops))
	for i, op := range ops {
		switch op.Kind {
		case kindQuery:
			var a struct{ Query, Aggregate string }
			if err := json.Unmarshal([]byte(op.Body), &a); err != nil {
				return nil, err
			}
			out[i] = input{query: a.Query, aggregate: a.Aggregate}
		case kindMutate:
			sc := bufio.NewScanner(strings.NewReader(op.Body))
			sc.Buffer(nil, 1<<20)
			for sc.Scan() {
				var m dataset.Mutation
				if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
					return nil, err
				}
				out[i].mutations = append(out[i].mutations, m)
			}
			if err := sc.Err(); err != nil {
				return nil, err
			}
		case kindDecompose:
			var a struct {
				Hypergraph string
				K          int
			}
			if err := json.Unmarshal([]byte(op.Body), &a); err != nil {
				return nil, err
			}
			out[i] = input{graph: a.Hypergraph, k: a.K}
		}
	}
	return out, nil
}

// outcome is what one op answered, in the form the checks compare.
type outcome struct {
	digest    string
	version   uint64
	ok        bool
	compacted bool
}

// opResult is what one op returned; the answer is digested after the
// op's timing ends.
type opResult struct {
	rows      *join.Relation
	agg       *join.AggResult
	version   uint64
	ok        bool
	compacted bool
}

func (r opResult) outcome() outcome {
	o := outcome{version: r.version, ok: r.ok, compacted: r.compacted}
	if r.rows != nil || r.agg != nil {
		o.digest = resultDigest(r.rows, r.agg)
	}
	return o
}

// env is one in-process service with the query planner over it.
type env struct {
	svc     *service.Service
	planner *query.Planner
}

// newEnv builds the service htdserve builds with no flags set.
func newEnv() *env {
	svc := service.New(service.Config{Tenants: tenant.Config{FairShare: true}})
	return &env{svc: svc, planner: query.NewPlanner(svc)}
}

// setUp uploads the dataset and runs the warm-up list through the
// untraced path, recording the upload's two layer calls on tr when it
// is not nil. It returns the dataset version the list starts from.
func (e *env) setUp(ctx context.Context, w *Workload, tr *tracer) (uint64, error) {
	var version uint64
	if w.Dataset != "" {
		var id int
		if tr != nil {
			id = tr.begin("join.parse_relations", -1)
		}
		db, err := join.ParseRelations(w.Dataset)
		if tr != nil {
			tr.end(id)
			id = tr.begin("dataset.put", -1)
		}
		if err == nil {
			version, err = e.svc.Datasets().Put("", datasetName, db)
		}
		if tr != nil {
			tr.end(id)
		}
		if err != nil {
			return 0, fmt.Errorf("upload dataset: %w", err)
		}
	}
	warm, err := decodeInputs(w.Warmup)
	if err != nil {
		return 0, err
	}
	for i, op := range w.Warmup {
		if _, err := e.plainOp(ctx, op.Kind, warm[i]); err != nil {
			return 0, fmt.Errorf("warm-up op %d: %w", i, err)
		}
	}
	return version, nil
}

// plainOp runs one op through the entry points the HTTP handlers call.
func (e *env) plainOp(ctx context.Context, kind string, in input) (opResult, error) {
	switch kind {
	case kindQuery:
		q, spec, err := parseQuery(in)
		if err != nil {
			return opResult{}, err
		}
		res, err := e.planner.Eval(ctx, query.Request{Query: q, Dataset: datasetName, Aggregate: spec})
		if err != nil {
			return opResult{}, err
		}
		return opResult{rows: res.Rows, agg: res.Agg, version: res.DatasetVersion, ok: true}, nil
	case kindMutate:
		lease, err := e.svc.Tenants().Admit(ctx, "")
		if err != nil {
			return opResult{}, err
		}
		res, err := e.mutate(in)
		lease.Done(err != nil)
		if err != nil {
			return opResult{}, err
		}
		return opResult{version: res.Version, ok: true, compacted: res.Compacted}, nil
	default:
		h, err := hypergraph.ParseString(in.graph)
		if err != nil {
			return opResult{}, err
		}
		res := e.svc.Submit(ctx, service.Request{H: h, K: in.k})
		if res.Err != nil {
			return opResult{}, res.Err
		}
		return opResult{ok: res.OK}, nil
	}
}

func (e *env) mutate(in input) (dataset.MutationResult, error) {
	d, ok := e.svc.Datasets().Get("", datasetName)
	if !ok {
		return dataset.MutationResult{}, dataset.ErrNotFound
	}
	return d.Mutate(in.mutations)
}

func parseQuery(in input) (join.Query, *join.AggSpec, error) {
	q, err := join.ParseQuery(in.query)
	if err != nil || in.aggregate == "" {
		return q, nil, err
	}
	spec, err := join.ParseAggregate(in.aggregate)
	return q, &spec, err
}

// tracedOp makes the calls of one op layer by layer, a span around
// each, all under one root span.
func (e *env) tracedOp(ctx context.Context, tr *tracer, i int, kind string, in input) (opResult, error) {
	root := tr.begin(rootSpan, i)
	out, plan, err := e.tracedBody(ctx, tr, i, kind, in)
	tr.end(root)
	if err != nil || plan == nil {
		return out, err
	}
	// A plan-cache hit re-validates the cached tree inside Submit; the
	// benchmark re-runs the same check on the plan it got back to time
	// it, outside the op's root span.
	id := tr.begin(probeSpan, i)
	err = decomp.CheckHD(plan)
	tr.end(id)
	return out, err
}

// tracedBody returns the op's outcome and, for queries, the plan the
// op executed.
func (e *env) tracedBody(ctx context.Context, tr *tracer, i int, kind string, in input) (opResult, *decomp.Decomp, error) {
	step := func(name string, f func() error) error {
		id := tr.begin(name, i)
		err := f()
		tr.end(id)
		return err
	}
	switch kind {
	case kindQuery:
		var (
			q     join.Query
			spec  *join.AggSpec
			lease *tenant.Lease
			snap  dataset.Snapshot
			h     *hypergraph.Hypergraph
			plan  service.Result
			rel   *join.Relation
			agg   join.AggResult
			rows  *join.Relation
		)
		err := step("join.parse_query", func() (err error) { q, spec, err = parseQuery(in); return })
		if err == nil {
			err = step("tenant.admit", func() (err error) { lease, err = e.svc.Tenants().Admit(ctx, ""); return })
		}
		if err != nil {
			return opResult{}, nil, err
		}
		defer func() { lease.Done(err != nil) }()
		err = step("dataset.resolve", func() (err error) { snap, err = e.svc.Datasets().Resolve("", datasetName, 0); return })
		if err == nil {
			err = step("join.hypergraph", func() (err error) { h, err = q.Hypergraph(); return })
		}
		if err == nil {
			err = step("service.submit", func() error {
				plan = e.svc.Submit(ctx, service.Request{
					H: h, Mode: service.ModeOptimal, K: h.NumEdges(), TenantAdmitted: true,
				})
				if plan.Err == nil && !plan.OK {
					return errors.New("no plan")
				}
				return plan.Err
			})
		}
		if err == nil {
			err = step("join.eval", func() (err error) {
				opts := join.EvalOptions{Parallelism: 1, Tokens: e.svc.Budget(), Stats: &join.ExecStats{}}
				if spec != nil {
					agg, err = join.AggregateCtx(ctx, q, snap.DB, plan.Decomp, *spec, opts)
				} else {
					rel, err = join.EvaluateCtx(ctx, q, snap.DB, plan.Decomp, opts)
				}
				return
			})
		}
		if err == nil && spec == nil {
			err = step("query.canonical", func() (err error) { rows, err = query.Canonical(rel); return })
		}
		if err != nil {
			return opResult{}, nil, err
		}
		out := opResult{rows: rows, version: snap.Version, ok: true}
		if spec != nil {
			out.agg = &agg
		}
		return out, plan.Decomp, nil
	case kindMutate:
		var lease *tenant.Lease
		var res dataset.MutationResult
		err := step("tenant.admit", func() (err error) { lease, err = e.svc.Tenants().Admit(ctx, ""); return })
		if err != nil {
			return opResult{}, nil, err
		}
		err = step("dataset.mutate", func() (err error) { res, err = e.mutate(in); return })
		lease.Done(err != nil)
		if err != nil {
			return opResult{}, nil, err
		}
		return opResult{version: res.Version, ok: true, compacted: res.Compacted}, nil, nil
	default:
		// Submit admits a job through the tenant wall itself; the
		// replica takes the lease first, as the query planner does, so
		// the wall gets a span of its own.
		var (
			h     *hypergraph.Hypergraph
			lease *tenant.Lease
			res   service.Result
		)
		err := step("hypergraph.parse", func() (err error) { h, err = hypergraph.ParseString(in.graph); return })
		if err == nil {
			err = step("tenant.admit", func() (err error) { lease, err = e.svc.Tenants().Admit(ctx, ""); return })
		}
		if err != nil {
			return opResult{}, nil, err
		}
		err = step("service.submit", func() error {
			res = e.svc.Submit(ctx, service.Request{H: h, K: in.k, TenantAdmitted: true})
			return res.Err
		})
		lease.Done(err != nil)
		if err != nil {
			return opResult{}, nil, err
		}
		return opResult{ok: res.OK}, nil, nil
	}
}

// resultDigest hashes a canonical answer: row relations by attribute
// names and tuples, aggregates by group variables, groups and values.
func resultDigest(rows *join.Relation, agg *join.AggResult) string {
	d := sha256.New()
	var buf [8]byte
	putInt := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		d.Write(buf[:])
	}
	writeDigest := func(names []string, tuples [][]int, values []int64) {
		putInt(int64(len(names)))
		for _, n := range names {
			putInt(int64(len(n)))
			d.Write([]byte(n))
		}
		putInt(int64(len(tuples)))
		for _, t := range tuples {
			putInt(int64(len(t)))
			for _, v := range t {
				putInt(int64(v))
			}
		}
		putInt(int64(len(values)))
		for _, v := range values {
			putInt(v)
		}
	}
	if agg != nil {
		d.Write([]byte("agg"))
		writeDigest(agg.GroupVars, agg.Groups, agg.Values)
	} else {
		d.Write([]byte("rows"))
		writeDigest(rows.Attrs, rows.Rows(), nil)
	}
	return hex.EncodeToString(d.Sum(nil))
}

// referenceAnswers replays the list in process for the answer checks
// only: a query whose shape already ran at the same dataset version
// reuses that answer instead of running again.
func referenceAnswers(ctx context.Context, w *Workload) ([]outcome, error) {
	in, err := decodeInputs(w.Ops)
	if err != nil {
		return nil, err
	}
	e := newEnv()
	defer e.svc.Close()
	version, err := e.setUp(ctx, w, nil)
	if err != nil {
		return nil, err
	}
	type answerKey struct {
		shape   int
		version uint64
	}
	answers := map[answerKey]outcome{}
	out := make([]outcome, len(w.Ops))
	for i, op := range w.Ops {
		key := answerKey{op.Shape, version}
		if o, ok := answers[key]; ok && op.Kind == kindQuery {
			out[i] = o
			continue
		}
		res, err := e.plainOp(ctx, op.Kind, in[i])
		if err != nil {
			return nil, fmt.Errorf("replay op %d (%s): %w", i, op.Kind, err)
		}
		out[i] = res.outcome()
		switch op.Kind {
		case kindQuery:
			answers[key] = out[i]
		case kindMutate:
			version = out[i].version
		}
	}
	return out, nil
}

// replayRun is one of the two replays of a traced run.
type replayRun struct {
	outcomes []outcome
	// opTime is each op's wall time: the whole call in the untraced
	// replay, the root span in the traced one.
	opTime []time.Duration
	tr     *tracer
}

// pairRun holds the untraced and the traced replay of a list.
type pairRun struct {
	plain, traced replayRun
	// The driver's runtime counters over both replays.
	allocBytes      float64
	gcCPU, totalCPU float64
}

// replayPair runs the list twice in process, on two fresh services,
// interleaved op by op: untraced through the handlers' entry points,
// and traced layer by layer. Which of the two runs an op first
// alternates from op to op, so neither replay gains from running
// second and trace.overhead_frac measures the spans, not the order.
func replayPair(ctx context.Context, w *Workload) (*pairRun, error) {
	in, err := decodeInputs(w.Ops)
	if err != nil {
		return nil, err
	}
	pe, te := newEnv(), newEnv()
	defer pe.svc.Close()
	defer te.svc.Close()
	n := len(w.Ops)
	p := &pairRun{
		plain:  replayRun{outcomes: make([]outcome, n), opTime: make([]time.Duration, n)},
		traced: replayRun{outcomes: make([]outcome, n), opTime: make([]time.Duration, n), tr: newTracer()},
	}
	if _, err := pe.setUp(ctx, w, nil); err != nil {
		return nil, err
	}
	if _, err := te.setUp(ctx, w, p.traced.tr); err != nil {
		return nil, err
	}
	before := readRuntime()
	for i, op := range w.Ops {
		plain := func() error {
			start := time.Now()
			res, err := pe.plainOp(ctx, op.Kind, in[i])
			p.plain.opTime[i] = time.Since(start)
			p.plain.outcomes[i] = res.outcome()
			return err
		}
		traced := func() error {
			res, err := te.tracedOp(ctx, p.traced.tr, i, op.Kind, in[i])
			p.traced.outcomes[i] = res.outcome()
			return err
		}
		first, second := plain, traced
		if i%2 == 1 {
			first, second = traced, plain
		}
		if err := first(); err != nil {
			return nil, fmt.Errorf("replay op %d (%s): %w", i, op.Kind, err)
		}
		if err := second(); err != nil {
			return nil, fmt.Errorf("replay op %d (%s): %w", i, op.Kind, err)
		}
	}
	after := readRuntime()
	p.allocBytes = after[0] - before[0]
	p.gcCPU = after[1] - before[1]
	p.totalCPU = after[2] - before[2]
	for _, s := range p.traced.tr.spans {
		if s.Name == rootSpan {
			p.traced.opTime[s.Op] = s.dur()
		}
	}
	return p, nil
}

var runtimeSamples = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

// readRuntime reads the driver's allocation and CPU-class counters.
func readRuntime() [3]float64 {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	var out [3]float64
	for i := range s {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			out[i] = s[i].Value.Float64()
		}
	}
	return out
}
