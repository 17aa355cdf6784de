package main

import "time"

// layerMetrics lists every per-layer metric with its unit. A traced
// run reports all of them on every workload; a layer the workload does
// not reach reads 0.
var layerMetrics = []struct{ name, unit string }{
	{"htdserve.edge_ms", "ms"},
	{"htdserve.write_p50_ms", "ms"},
	{"tenant.admit_ms", "ms"},
	{"dataset.resolve_ms", "ms"},
	{"dataset.mutate_ms", "ms"},
	{"dataset.compactions_per_write", "count"},
	{"dataset.put_ms", "ms"},
	{"join.parse_relations_ms", "ms"},
	{"join.parse_query_ms", "ms"},
	{"join.hypergraph_ms", "ms"},
	{"join.eval_ms", "ms"},
	{"join.index_builds_per_op", "count"},
	{"join.index_reuses_per_op", "count"},
	{"join.probes_per_op", "count"},
	{"query.canonical_ms", "ms"},
	{"query.rows_per_op", "count"},
	{"service.submit_ms", "ms"},
	{"service.plan_hit_ratio", "ratio"},
	{"service.solver_runs_per_op", "count"},
	{"decomp.check_hd_ms", "ms"},
	{"hypergraph.parse_ms", "ms"},
	{"logk.candidates_per_op", "count"},
	{"logk.parent_cands_per_op", "count"},
	{"logk.max_depth", "count"},
	{"logk.tokens_grabbed_per_op", "count"},
	{"logk.memo_hits_per_op", "count"},
	{"store.entries", "count"},
	{"store.evictions_per_op", "count"},
	{"store.memo_states", "count"},
	{"runtime.alloc_mb_per_op", "MB"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"trace.unaccounted_frac", "ratio"},
	{"trace.overhead_frac", "ratio"},
}

// spanLayers are the spans of the traced replay whose self time is
// reported as trace.self_ms_per_op.<name>; rootSpan's self time is the
// part of an op no layer span covers.
var spanLayers = []string{
	rootSpan,
	"join.parse_query",
	"tenant.admit",
	"dataset.resolve",
	"join.hypergraph",
	"service.submit",
	"join.eval",
	"query.canonical",
	"dataset.mutate",
	"hypergraph.parse",
}

// timedLayers maps span names to the *_ms metric that reports the
// median duration of the span over the ops (or set-ups) that made it.
var timedLayers = map[string]string{
	"tenant.admit":         "tenant.admit_ms",
	"dataset.resolve":      "dataset.resolve_ms",
	"dataset.mutate":       "dataset.mutate_ms",
	"dataset.put":          "dataset.put_ms",
	"join.parse_relations": "join.parse_relations_ms",
	"join.parse_query":     "join.parse_query_ms",
	"join.hypergraph":      "join.hypergraph_ms",
	"join.eval":            "join.eval_ms",
	"query.canonical":      "query.canonical_ms",
	"service.submit":       "service.submit_ms",
	"decomp.check_hd":      "decomp.check_hd_ms",
	"hypergraph.parse":     "hypergraph.parse_ms",
}

func ms(d time.Duration) float64 { return d.Seconds() * 1000 }

// perLayer computes the per-layer metrics from the HTTP answers, the
// /stats deltas and the two in-process replays.
func perLayer(w *Workload, hr *httpRun, reports []opReport, pair *pairRun) map[string]metric {
	plain, traced := &pair.plain, &pair.traced
	vals := map[string]float64{}
	n := float64(len(w.Ops))

	// Span durations and self times.
	durs := map[string][]float64{}
	child := make([]time.Duration, len(traced.tr.spans))
	for _, s := range traced.tr.spans {
		durs[s.Name] = append(durs[s.Name], ms(s.dur()))
		if s.Parent >= 0 {
			child[s.Parent] += s.dur()
		}
	}
	for name, metricName := range timedLayers {
		vals[metricName] = median(durs[name])
	}
	self := map[string]time.Duration{}
	var rootTotal, rootSelf time.Duration
	for i, s := range traced.tr.spans {
		self[s.Name] += s.dur() - child[i]
		if s.Name == rootSpan {
			rootTotal += s.dur()
			rootSelf += s.dur() - child[i]
		}
	}
	for _, name := range spanLayers {
		vals["trace.self_ms_per_op."+name] = ms(self[name]) / n
	}
	if rootTotal > 0 {
		vals["trace.unaccounted_frac"] = rootSelf.Seconds() / rootTotal.Seconds()
	}
	var plainTotal time.Duration
	for _, d := range plain.opTime {
		plainTotal += d
	}
	if plainTotal > 0 {
		vals["trace.overhead_frac"] = (rootTotal.Seconds() - plainTotal.Seconds()) / plainTotal.Seconds()
	}

	// The edge: HTTP latency minus the traced in-process time, per op.
	edge := make([]float64, len(w.Ops))
	for i, a := range hr.answers {
		edge[i] = ms(a.latency - traced.opTime[i])
	}
	vals["htdserve.edge_ms"] = median(edge)
	vals["htdserve.write_p50_ms"] = writeP50(w, hr.answers)

	// Counters read from the answers.
	var queries, writes, compactions, builds, reuses, probes, rows float64
	var cands, parents, grabs, memo float64
	var maxDepth int64
	for i, rep := range reports {
		switch w.Ops[i].Kind {
		case kindQuery:
			queries++
			builds += float64(rep.indexBuilds)
			reuses += float64(rep.indexReuses)
			probes += float64(rep.probes)
			rows += float64(rep.rows)
		case kindMutate:
			writes++
			if rep.compacted {
				compactions++
			}
		}
		cands += float64(rep.solver.Candidates)
		parents += float64(rep.solver.ParentCands)
		grabs += float64(rep.solver.TokensGrabbed)
		memo += float64(rep.solver.MemoHits)
		maxDepth = max(maxDepth, rep.solver.MaxDepth)
	}
	if queries > 0 {
		vals["join.index_builds_per_op"] = builds / queries
		vals["join.index_reuses_per_op"] = reuses / queries
		vals["join.probes_per_op"] = probes / queries
		vals["query.rows_per_op"] = rows / queries
	}
	if writes > 0 {
		vals["dataset.compactions_per_write"] = compactions / writes
	}
	vals["logk.candidates_per_op"] = cands / n
	vals["logk.parent_cands_per_op"] = parents / n
	vals["logk.tokens_grabbed_per_op"] = grabs / n
	vals["logk.memo_hits_per_op"] = memo / n
	vals["logk.max_depth"] = float64(maxDepth)

	// /stats deltas over the timed list.
	b, a := hr.before, hr.after
	if sub := a.Submitted - b.Submitted; sub > 0 {
		hits := (a.PositiveHits - b.PositiveHits) + (a.NegativeHits - b.NegativeHits)
		vals["service.plan_hit_ratio"] = float64(hits) / float64(sub)
	}
	vals["service.solver_runs_per_op"] = float64(a.SolverRuns-b.SolverRuns) / n
	vals["store.entries"] = float64(a.StoreEntries)
	vals["store.evictions_per_op"] = float64(a.StoreEvictions-b.StoreEvictions) / n
	vals["store.memo_states"] = float64(a.MemoEntries)

	// The driver's runtime over the two replays, per replayed op.
	vals["runtime.alloc_mb_per_op"] = pair.allocBytes / 1e6 / (2 * n)
	if pair.totalCPU > 0 {
		vals["runtime.gc_cpu_frac"] = pair.gcCPU / pair.totalCPU
	}

	out := map[string]metric{}
	for _, m := range layerMetrics {
		out[m.name] = metric{vals[m.name], m.unit}
	}
	for _, name := range spanLayers {
		key := "trace.self_ms_per_op." + name
		out[key] = metric{vals[key], "ms"}
	}
	return out
}
