package main

import (
	"encoding/json"
	"fmt"
	"net/http"

	htd "repro"
	"repro/internal/decomp"
	"repro/internal/hypergraph"
	"repro/internal/join"
)

// Wire shapes of the answers the checks read.
type queryAnswer struct {
	OK             bool     `json:"ok"`
	Vars           []string `json:"vars"`
	Rows           [][]int  `json:"rows"`
	RowCount       int      `json:"row_count"`
	DatasetVersion uint64   `json:"dataset_version"`
	Aggregate      *struct {
		GroupVars []string `json:"group_vars"`
		Groups    [][]int  `json:"groups"`
		Values    []int64  `json:"values"`
	} `json:"aggregate"`
	Exec *struct {
		IndexBuilds int64 `json:"index_builds"`
		IndexReuses int64 `json:"index_reuses"`
		IndexProbes int64 `json:"index_probes"`
	} `json:"exec"`
	Error string `json:"error"`
}

type treeNode struct {
	Lambda   []string    `json:"lambda"`
	Bag      []string    `json:"bag"`
	Children []*treeNode `json:"children"`
}

type decomposeAnswer struct {
	OK       bool             `json:"ok"`
	Tree     *treeNode        `json:"tree"`
	Stats    *htd.SolverStats `json:"stats"`
	Error    string           `json:"error"`
	TimedOut bool             `json:"timed_out"`
}

type mutateAnswer struct {
	Version   uint64 `json:"version"`
	Compacted bool   `json:"compacted"`
}

// opReport is what the checks learned about one HTTP answer.
type opReport struct {
	err error
	// Counters read from the answer.
	rows                             int
	indexBuilds, indexReuses, probes int64
	compacted                        bool
	solver                           htd.SolverStats
}

// checkAnswers checks every HTTP answer of the timed list. ref holds
// the in-process replay's outcome per op; it may be nil for
// decompose-cold, whose answers are checked on their own.
func checkAnswers(w *Workload, answers []answer, ref []outcome) []opReport {
	reports := make([]opReport, len(answers))
	for i, a := range answers {
		rep := &reports[i]
		switch {
		case a.err != nil:
			rep.err = a.err
		case a.status != http.StatusOK:
			rep.err = fmt.Errorf("status %d: %.200s", a.status, a.body)
		default:
			op := w.Ops[i]
			var want *outcome
			if ref != nil {
				want = &ref[i]
			}
			switch op.Kind {
			case kindQuery:
				rep.err = checkQuery(a.body, want, rep)
			case kindMutate:
				rep.err = checkMutate(a.body, want, rep)
			case kindDecompose:
				rep.err = checkDecompose(a.body, w.Graphs[op.Graph], op.K, rep)
			}
		}
		if rep.err != nil {
			rep.err = fmt.Errorf("op %d (%s): %w", i, w.Ops[i].Kind, rep.err)
		}
	}
	return reports
}

func checkQuery(body []byte, want *outcome, rep *opReport) error {
	var qa queryAnswer
	if err := json.Unmarshal(body, &qa); err != nil {
		return err
	}
	if !qa.OK {
		return fmt.Errorf("query failed: %s", qa.Error)
	}
	var digest string
	if qa.Aggregate != nil {
		rep.rows = len(qa.Aggregate.Groups)
		digest = resultDigest(nil, &join.AggResult{
			GroupVars: qa.Aggregate.GroupVars, Groups: qa.Aggregate.Groups, Values: qa.Aggregate.Values,
		})
	} else {
		if len(qa.Rows) != qa.RowCount {
			return fmt.Errorf("row_count %d but %d rows", qa.RowCount, len(qa.Rows))
		}
		rep.rows = qa.RowCount
		rel := join.NewRelation(qa.Vars...)
		for _, row := range qa.Rows {
			rel.AddRow(row)
		}
		digest = resultDigest(rel, nil)
	}
	if qa.Exec != nil {
		rep.indexBuilds, rep.indexReuses, rep.probes = qa.Exec.IndexBuilds, qa.Exec.IndexReuses, qa.Exec.IndexProbes
	}
	if want == nil {
		return fmt.Errorf("no reference answer")
	}
	if qa.DatasetVersion != want.version {
		return fmt.Errorf("read dataset version %d, replay read %d", qa.DatasetVersion, want.version)
	}
	if digest != want.digest {
		return fmt.Errorf("answer digest %.12s differs from the in-process replay's %.12s", digest, want.digest)
	}
	return nil
}

func checkMutate(body []byte, want *outcome, rep *opReport) error {
	var ma mutateAnswer
	if err := json.Unmarshal(body, &ma); err != nil {
		return err
	}
	rep.compacted = ma.Compacted
	if want == nil {
		return fmt.Errorf("no reference answer")
	}
	if ma.Version != want.version || ma.Compacted != want.compacted {
		return fmt.Errorf("mutation gave version %d compacted=%v, replay %d compacted=%v",
			ma.Version, ma.Compacted, want.version, want.compacted)
	}
	return nil
}

// checkDecompose checks a witness by rebuilding it over the request's
// hypergraph and running the independent HD checkers, and a
// refutation against the generator's known width.
func checkDecompose(body []byte, g Graph, k int, rep *opReport) error {
	var da decomposeAnswer
	if err := json.Unmarshal(body, &da); err != nil {
		return err
	}
	if da.Error != "" || da.TimedOut {
		return fmt.Errorf("decompose failed: %s (timed out %v)", da.Error, da.TimedOut)
	}
	if da.Stats != nil {
		rep.solver = *da.Stats
	}
	if k < g.HW {
		if da.OK {
			return fmt.Errorf("%s: witness at k=%d below the known width %d", g.Family, k, g.HW)
		}
		return nil
	}
	if !da.OK || da.Tree == nil {
		return fmt.Errorf("%s: refuted at k=%d, known width %d", g.Family, k, g.HW)
	}
	h, err := hypergraph.ParseString(g.Text)
	if err != nil {
		return err
	}
	root, err := rebuildNode(h, da.Tree)
	if err != nil {
		return err
	}
	d := &decomp.Decomp{H: h, Root: root}
	if err := htd.Validate(d); err != nil {
		return err
	}
	return htd.ValidateWidth(d, k)
}

func rebuildNode(h *hypergraph.Hypergraph, n *treeNode) (*decomp.Node, error) {
	edges := map[string]int{}
	for i := 0; i < h.NumEdges(); i++ {
		edges[h.EdgeName(i)] = i
	}
	var build func(n *treeNode) (*decomp.Node, error)
	build = func(n *treeNode) (*decomp.Node, error) {
		lambda := make([]int, len(n.Lambda))
		for i, name := range n.Lambda {
			e, ok := edges[name]
			if !ok {
				return nil, fmt.Errorf("witness names unknown edge %q", name)
			}
			lambda[i] = e
		}
		bag := h.NewVertexSet()
		for _, name := range n.Bag {
			v, ok := h.VertexID(name)
			if !ok {
				return nil, fmt.Errorf("witness names unknown vertex %q", name)
			}
			bag.Set(v)
		}
		out := decomp.NewNode(lambda, bag)
		for _, c := range n.Children {
			child, err := build(c)
			if err != nil {
				return nil, err
			}
			out.Children = append(out.Children, child)
		}
		return out, nil
	}
	return build(n)
}

// checkRun makes the run-level checks: the /stats deltas, the warm
// index reuse of query-warm, and, in a traced run, that the traced
// replay answered every op as the untraced one did.
func checkRun(w *Workload, hr *httpRun, reports []opReport, pair *pairRun) error {
	if err := checkStats(w, hr.before, hr.after); err != nil {
		return err
	}
	if w.Name == "query-warm" {
		if err := checkWarmIndexes(w, reports); err != nil {
			return err
		}
	}
	if pair != nil {
		for i := range pair.traced.outcomes {
			if pair.traced.outcomes[i] != pair.plain.outcomes[i] {
				return fmt.Errorf("traced replay op %d answered differently from the untraced replay", i)
			}
		}
	}
	return nil
}

// checkStats checks the /stats deltas of the timed list.
func checkStats(w *Workload, before, after serverStats) error {
	queries := 0
	for _, op := range w.Ops {
		if op.Kind == kindQuery {
			queries++
		}
	}
	hits := (after.PositiveHits - before.PositiveHits) + (after.NegativeHits - before.NegativeHits)
	runs := after.SolverRuns - before.SolverRuns
	switch w.Name {
	case "decompose-cold":
		if hits != 0 || runs != int64(len(w.Ops)) {
			return fmt.Errorf("/stats: %d plan hits and %d solver runs over %d cold decompositions, want 0 and %d",
				hits, runs, len(w.Ops), len(w.Ops))
		}
	default:
		planHits := after.Query.PlanCacheHits - before.Query.PlanCacheHits
		if planHits != int64(queries) || runs != 0 {
			return fmt.Errorf("/stats: %d plan hits and %d solver runs over %d warm queries, want %d and 0",
				planHits, runs, queries, queries)
		}
	}
	return nil
}

// checkWarmIndexes checks that query-warm runs on maintained indexes:
// every query reuses at least one maintained index of the dataset, and
// every op of a shape builds exactly as many indexes as the other ops
// of that shape. The executor's build counter also counts the
// per-query indexes over intermediate bag relations, which no warm
// state can avoid, so the count itself is not required to be 0; a
// base-relation index built again during the list would show as one
// op of a shape building more than its siblings.
func checkWarmIndexes(w *Workload, reports []opReport) error {
	builds := map[int]int64{}
	for i, rep := range reports {
		op := w.Ops[i]
		if op.Kind != kindQuery || rep.err != nil {
			continue
		}
		if rep.indexReuses == 0 {
			return fmt.Errorf("op %d (%s) reused no maintained index", i, queryShapes[op.Shape].Name)
		}
		if b, ok := builds[op.Shape]; ok && b != rep.indexBuilds {
			return fmt.Errorf("op %d (%s) built %d indexes, an earlier op of the shape built %d",
				i, queryShapes[op.Shape].Name, rep.indexBuilds, b)
		}
		builds[op.Shape] = rep.indexBuilds
	}
	return nil
}
