package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"repro/internal/hyperbench"
	"repro/internal/hypergraph"
)

// The workload generator. Everything a run sends is derived from the
// workload name, the seed and the op count, so two runs with the same
// arguments send byte-identical requests; the program under test sees
// only the generated requests, never the seed.

// Op kinds.
const (
	kindQuery     = "query"
	kindMutate    = "mutate"
	kindDecompose = "decompose"
)

// datasetName is the one dataset the query workloads upload and read.
const datasetName = "d"

// Op is one request of a workload's list.
type Op struct {
	Kind   string `json:"kind"`
	Method string `json:"method"`
	Path   string `json:"path"`
	Body   string `json:"body"`
	// Shape indexes queryShapes (query ops).
	Shape int `json:"shape,omitempty"`
	// Graph indexes Workload.Graphs and K is the width bound
	// (decompose ops).
	Graph int `json:"graph,omitempty"`
	K     int `json:"k,omitempty"`
}

// Graph is one decompose-cold instance: a HyperBench-sim hypergraph
// with its edge order, vertex order and names permuted.
type Graph struct {
	Family string `json:"family"`
	Text   string `json:"text"`
	// HW is the instance's hypertree width as the generator knows it.
	HW   int    `json:"hw"`
	Hash string `json:"hash"`
}

// Workload is the fixed list of requests of one run.
type Workload struct {
	Name string `json:"name"`
	Seed int64  `json:"seed"`
	// Dataset is the PUT /data/d body of the query workloads.
	Dataset string `json:"dataset,omitempty"`
	// Warmup runs once per set-up, before the timed list.
	Warmup []Op    `json:"warmup"`
	Ops    []Op    `json:"ops"`
	Graphs []Graph `json:"graphs,omitempty"`
}

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"query-warm", "query-rw", "decompose-cold"}

// opsPerSecond turns --seconds into a fixed op count per workload: the
// rate is a constant, not a measurement, so the work of a run depends
// only on its arguments. The constants put one run near --seconds of
// timed wall time on an idle 2-vCPU x86-64 VM.
var opsPerSecond = map[string]float64{
	"query-warm":     140,
	"query-rw":       110,
	"decompose-cold": 120,
}

// opCount is the length of the timed list for a run of the given
// length.
func opCount(workload string, seconds int) int {
	n := int(float64(seconds)*opsPerSecond[workload] + 0.5)
	if n < 50 {
		n = 50
	}
	return n
}

// Dataset parameters of the query workloads: four binary relations
// R, S, T, U of relRows tuples over a domain of relDomain values, plus
// a small relation V that makes one acyclic shape selective.
const (
	relRows   = 5000
	relDomain = 5000
	vRows     = 150
)

// queryShape is one query of the query workloads.
type queryShape struct {
	Name      string
	Query     string
	Aggregate string
	// Weight is the shape's share of the query ops, in ops per cycle
	// of all weights.
	Weight int
}

// queryShapes mixes acyclic and cyclic queries, row answers and
// aggregate heads. The weights place the median of the mix inside the
// four-cycle band (ranks 0.4 to 0.7 of the latency order) and the 99th
// percentile in the middle of the band of the two heavy acyclic
// aggregates (the top 2%), not in a gap between two shapes' costs nor
// in the tail of a band.
var queryShapes = []queryShape{
	{Name: "triangle-rows", Query: "R(x,y), S(y,z), T(z,x).", Weight: 10},
	{Name: "triangle-sum", Query: "R(x,y), S(y,z), T(z,x).", Aggregate: "sum(z)", Weight: 10},
	{Name: "selective-path-rows", Query: "V(a,x), R(x,y), S(y,z).", Weight: 10},
	{Name: "bowtie-count", Query: "R(x,y), S(y,z), T(z,x), U(x,w), V(w,u).", Aggregate: "count", Weight: 10},
	{Name: "four-cycle-rows", Query: "R(x,y), S(y,z), T(z,w), U(w,x).", Weight: 20},
	{Name: "four-cycle-group", Query: "R(x,y), S(y,z), T(z,w), U(w,x).", Aggregate: "group x: count", Weight: 10},
	{Name: "path-rows", Query: "R(x,y), S(y,z).", Weight: 28},
	{Name: "path-count", Query: "R(x,y), S(y,z), T(z,w).", Aggregate: "count", Weight: 1},
	{Name: "star-group", Query: "R(x,y), S(x,z), T(x,w).", Aggregate: "group x: count", Weight: 1},
}

// writeEvery makes every writeEvery-th op of query-rw a mutation.
const writeEvery = 5

// Mutation batch shape of query-rw: inserts of fresh tuples and
// deletes of live ones, spread over two relations.
const (
	batchInserts = 60
	batchDeletes = 40
)

// generate builds the workload's fixed list.
func generate(name string, seed int64, ops int) (*Workload, error) {
	switch name {
	case "query-warm":
		return genQuery(name, seed, ops, false), nil
	case "query-rw":
		return genQuery(name, seed, ops, true), nil
	case "decompose-cold":
		return genDecompose(seed, ops)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

// liveRel mirrors one relation's live tuples so deletes always name
// tuples that exist.
type liveRel struct {
	rows [][2]int
	pos  map[[2]int]int
}

func newLiveRel() *liveRel { return &liveRel{pos: map[[2]int]int{}} }

func (l *liveRel) add(t [2]int) bool {
	if _, ok := l.pos[t]; ok {
		return false
	}
	l.pos[t] = len(l.rows)
	l.rows = append(l.rows, t)
	return true
}

func (l *liveRel) remove(t [2]int) {
	i := l.pos[t]
	last := l.rows[len(l.rows)-1]
	l.rows[i] = last
	l.pos[last] = i
	l.rows = l.rows[:len(l.rows)-1]
	delete(l.pos, t)
}

func genQuery(name string, seed int64, n int, writes bool) *Workload {
	r := rand.New(rand.NewSource(seed))
	w := &Workload{Name: name, Seed: seed}
	rels := map[string]*liveRel{}
	var db strings.Builder
	for _, rel := range []string{"R", "S", "T", "U", "V"} {
		rows, domain := relRows, relDomain
		if rel == "V" {
			rows = vRows
		}
		l := newLiveRel()
		for len(l.rows) < rows {
			l.add([2]int{r.Intn(domain), r.Intn(domain)})
		}
		rels[rel] = l
		fmt.Fprintf(&db, "rel %s(c1,c2)\n", rel)
		for _, t := range l.rows {
			fmt.Fprintf(&db, "%d %d\n", t[0], t[1])
		}
		db.WriteString("end\n")
	}
	w.Dataset = db.String()

	for i := range queryShapes {
		w.Warmup = append(w.Warmup, queryOp(i))
	}
	// Exact shape proportions, cut to length, then shuffled: the
	// multiset of shapes is the same for every seed, only the order and
	// the data change.
	queries := n
	if writes {
		queries = n - n/writeEvery
	}
	var shapes []int
	for len(shapes) < queries {
		for i, s := range queryShapes {
			for j := 0; j < s.Weight; j++ {
				shapes = append(shapes, i)
			}
		}
	}
	shapes = shapes[:queries]
	r.Shuffle(len(shapes), func(i, j int) { shapes[i], shapes[j] = shapes[j], shapes[i] })
	next := 0
	for i := 0; i < n; i++ {
		if writes && i%writeEvery == writeEvery-1 {
			w.Ops = append(w.Ops, mutateOp(r, rels))
			continue
		}
		w.Ops = append(w.Ops, queryOp(shapes[next]))
		next++
	}
	return w
}

func queryOp(shape int) Op {
	s := queryShapes[shape]
	body, _ := json.Marshal(map[string]string{"query": s.Query, "dataset": datasetName, "aggregate": s.Aggregate})
	return Op{Kind: kindQuery, Method: "POST", Path: "/query", Body: string(body), Shape: shape}
}

// mutationLine is one NDJSON line of a mutate body.
type mutationLine struct {
	Op   string  `json:"op"`
	Rel  string  `json:"rel"`
	Rows [][]int `json:"rows"`
}

// mutateOp draws one mixed insert/delete batch against two of R..U and
// applies it to the mirror.
func mutateOp(r *rand.Rand, rels map[string]*liveRel) Op {
	names := []string{"R", "S", "T", "U"}
	a := names[r.Intn(len(names))]
	b := names[r.Intn(len(names))]
	var lines []mutationLine
	ins := map[string][][]int{}
	for i := 0; i < batchInserts; i++ {
		rel := a
		if i%2 == 1 {
			rel = b
		}
		t := [2]int{r.Intn(relDomain), r.Intn(relDomain)}
		if rels[rel].add(t) {
			ins[rel] = append(ins[rel], []int{t[0], t[1]})
		}
	}
	del := map[string][][]int{}
	for i := 0; i < batchDeletes; i++ {
		rel := b
		if i%2 == 1 {
			rel = a
		}
		l := rels[rel]
		t := l.rows[r.Intn(len(l.rows))]
		l.remove(t)
		del[rel] = append(del[rel], []int{t[0], t[1]})
	}
	for _, rel := range names {
		if rows := ins[rel]; len(rows) > 0 {
			lines = append(lines, mutationLine{Op: "insert", Rel: rel, Rows: rows})
		}
	}
	for _, rel := range names {
		if rows := del[rel]; len(rows) > 0 {
			lines = append(lines, mutationLine{Op: "delete", Rel: rel, Rows: rows})
		}
	}
	var body strings.Builder
	for _, l := range lines {
		b, _ := json.Marshal(l)
		body.Write(b)
		body.WriteByte('\n')
	}
	return Op{Kind: kindMutate, Method: "POST", Path: "/data/" + datasetName + "/mutate", Body: body.String()}
}

// graphClass is one decompose-cold instance family at fixed size,
// drawn from the HyperBench-sim suite, with how many ops per cycle of
// the mix ask for a witness (k = hw) and for a refutation (k = hw-1).
type graphClass struct {
	Instance string // suite instance name without the "#n" suffix
	HW       int
	Witness  int
	Refute   int
}

// suiteConfig fixes the HyperBench-sim suite the classes come from; the
// workload seed only permutes the instances.
var suiteConfig = hyperbench.Config{Scale: 3, Seed: 1}

// graphClasses is the decompose-cold mix. Widths of the families the
// suite does not label (chorded cycles, tpc, 3×n grids) are checked
// against det-k-decomp by TestKnownWidths. Classes whose witness
// search cost spreads over an order of magnitude between permutations
// (the 34-cycle with chords, the 3×10 grid) and the 2×28 ladder, whose
// witness search takes far longer than any other op, appear only as
// refutations. The 5-clique refutation, a narrow band near the middle
// of the cost order, is weighted so the median falls inside it; the
// clique chain is the heaviest class, about 4% of the ops, so the 99th
// percentile falls inside its band.
var graphClasses = []graphClass{
	{"app-cycle-30", 2, 3, 2},
	{"app-cycle-44", 2, 3, 2},
	{"app-chorded-20-3", 2, 3, 2},
	{"app-chorded-34-3", 2, 0, 2},
	{"app-tpc-8-2", 2, 3, 2},
	{"app-tpc-18-3", 2, 3, 2},
	{"app-clique-5", 3, 4, 10},
	{"app-clique-6", 3, 4, 2},
	{"syn-cylinder-8", 3, 3, 2},
	{"syn-cylinder-10", 3, 2, 2},
	{"syn-grid-3-10", 2, 0, 2},
	{"syn-grid-3-11", 2, 3, 2},
	{"syn-ladder-28", 2, 0, 3},
	{"app-cliquechain-3-5", 3, 1, 2},
}

// suiteInstances returns one suite instance per class, in class order.
func suiteInstances() ([]*hypergraph.Hypergraph, error) {
	byName := map[string]*hypergraph.Hypergraph{}
	for _, in := range hyperbench.Suite(suiteConfig) {
		base := in.Name
		if i := strings.IndexByte(base, '#'); i >= 0 {
			base = base[:i]
		}
		if _, ok := byName[base]; !ok {
			byName[base] = in.H
		}
	}
	out := make([]*hypergraph.Hypergraph, len(graphClasses))
	for i, c := range graphClasses {
		h, ok := byName[c.Instance]
		if !ok {
			return nil, fmt.Errorf("suite has no instance %s", c.Instance)
		}
		out[i] = h
	}
	return out, nil
}

func genDecompose(seed int64, n int) (*Workload, error) {
	base, err := suiteInstances()
	if err != nil {
		return nil, err
	}
	r := rand.New(rand.NewSource(seed))
	w := &Workload{Name: "decompose-cold", Seed: seed}
	seen := map[string]bool{}
	// add appends a fresh permutation of class c; a permutation whose
	// ContentHash was already drawn is redrawn, so no two requests of a
	// run can share a plan-cache entry.
	add := func(c int) (int, error) {
		for try := 0; try < 1000; try++ {
			text := permute(r, base[c])
			h, err := hypergraph.ParseString(text)
			if err != nil {
				return 0, err
			}
			hash := h.ContentHash()
			if seen[hash] {
				continue
			}
			seen[hash] = true
			w.Graphs = append(w.Graphs, Graph{Family: graphClasses[c].Instance, Text: text, HW: graphClasses[c].HW, Hash: hash})
			return len(w.Graphs) - 1, nil
		}
		return 0, fmt.Errorf("no fresh permutation of %s", graphClasses[c].Instance)
	}
	// Warm-up: one op per class, on instances of its own; a witness
	// where the mix asks for witnesses of the class.
	for c, gc := range graphClasses {
		g, err := add(c)
		if err != nil {
			return nil, err
		}
		k := gc.HW
		if gc.Witness == 0 {
			k--
		}
		w.Warmup = append(w.Warmup, decomposeOp(w.Graphs[g].Text, g, k))
	}
	type job struct{ class, k int }
	var jobs []job
	for len(jobs) < n {
		for c, gc := range graphClasses {
			for j := 0; j < gc.Witness; j++ {
				jobs = append(jobs, job{c, gc.HW})
			}
			for j := 0; j < gc.Refute; j++ {
				jobs = append(jobs, job{c, gc.HW - 1})
			}
		}
	}
	jobs = jobs[:n]
	r.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
	for _, j := range jobs {
		g, err := add(j.class)
		if err != nil {
			return nil, err
		}
		w.Ops = append(w.Ops, decomposeOp(w.Graphs[g].Text, g, j.k))
	}
	return w, nil
}

func decomposeOp(text string, graph, k int) Op {
	body, _ := json.Marshal(map[string]any{"hypergraph": text, "k": k, "mode": "decide"})
	return Op{Kind: kindDecompose, Method: "POST", Path: "/decompose", Body: string(body), Graph: graph, K: k}
}

// permute renders h in HyperBench syntax with shuffled edge order,
// shuffled vertex order inside each edge and fresh random names for
// edges and vertices. Vertex ids are interned in order of first
// appearance, so the permuted text has its own ContentHash.
func permute(r *rand.Rand, h *hypergraph.Hypergraph) string {
	vname := r.Perm(h.NumVertices())
	order := r.Perm(h.NumEdges())
	ename := r.Perm(h.NumEdges())
	var b strings.Builder
	for i, e := range order {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString("e" + strconv.Itoa(ename[i]) + "(")
		vs := h.EdgeVertices(e)
		r.Shuffle(len(vs), func(x, y int) { vs[x], vs[y] = vs[y], vs[x] })
		for j, v := range vs {
			if j > 0 {
				b.WriteByte(',')
			}
			b.WriteString("v" + strconv.Itoa(vname[v]))
		}
		b.WriteByte(')')
	}
	b.WriteByte('.')
	return b.String()
}

// class names the op's class: its query shape, "mutate", or its graph
// family and whether it asks for a witness or a refutation.
func (w *Workload) class(op Op) string {
	switch op.Kind {
	case kindQuery:
		return queryShapes[op.Shape].Name
	case kindMutate:
		return "mutate"
	}
	g := w.Graphs[op.Graph]
	if op.K < g.HW {
		return g.Family + "/refute"
	}
	return g.Family + "/witness"
}

// classCounts reports how many ops of each class a list holds, for the
// run record.
func classCounts(w *Workload) map[string]int {
	out := map[string]int{}
	for _, op := range w.Ops {
		out[w.class(op)]++
	}
	return out
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
