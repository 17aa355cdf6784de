package join

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/decomp"
)

// TokenSource supplies the extra-worker tokens a parallel evaluation's
// spawned subtree tasks draw from. It mirrors logk.TokenSource
// structurally (logk.TokenPool satisfies both), so query execution
// and decomposition jobs can share one process-wide budget without this
// package importing the solver. Implementations must be safe for
// concurrent use.
type TokenSource interface {
	// TryAcquire takes up to max tokens without blocking and returns how
	// many it got (0..max).
	TryAcquire(max int) int
	// Release returns n previously acquired tokens.
	Release(n int)
}

// ExecStats counts one evaluation's executor effort. Populate it by
// pointing EvalOptions.Stats at a zero value.
type ExecStats struct {
	// IndexBuilds and IndexProbes count hash indexes built and tuples
	// probed against them. IndexReuses counts the builds avoided
	// because a server-resident relation arrived with an index for the
	// probed column set — a base relation's maintained index (dataset
	// snapshots, cached inline databases) or one captured on a cached
	// bag (BagCache) — the unchanged-data fast path. A four-cycle
	// query's only reuse on a warm snapshot is its cached child bag's
	// index: both bags are cache hits, so no base relation is probed.
	IndexBuilds int64 `json:"index_builds"`
	IndexReuses int64 `json:"index_reuses"`
	IndexProbes int64 `json:"index_probes"`
	// BagReuses counts bags served from EvalOptions.Bags instead of
	// joining their λ-atoms again.
	BagReuses int64 `json:"bag_reuses"`
	// Semijoins and Joins count relational operations executed.
	Semijoins int64 `json:"semijoins"`
	Joins     int64 `json:"joins"`
	// ParallelTasks counts subtree/partition tasks run on spawned
	// workers; InlineTasks those run on the task that scheduled them.
	ParallelTasks int64 `json:"parallel_tasks"`
	InlineTasks   int64 `json:"inline_tasks"`
	// MaxWorkers is the maximum number of workers (including the
	// caller's goroutine) observed running concurrently.
	MaxWorkers int64 `json:"max_workers"`
}

// pollEvery is the probe-loop cancellation granularity: long scans check
// the context every pollEvery iterations, so a single huge semijoin or
// join cannot blow past the query deadline, as checks made only
// between operations would allow.
const pollEvery = 1024

// parallelJoinMinRows is the probe-side size beyond which a final-pass
// join partitions its probe loop across workers.
const parallelJoinMinRows = 4096

// executor runs one indexed evaluation: bag materialisation and the
// three Yannakakis passes over hash indexes, with sibling subtrees (and
// large final-join probe loops) running concurrently on a bounded worker
// pool. All workers are joined before any entry point returns, so an
// aborted evaluation leaks no goroutines.
type executor struct {
	g      *guard
	cancel context.CancelFunc
	// sem bounds spawned workers to Parallelism-1 (nil = serial);
	// tokens, when set, additionally gates each spawn on the shared
	// process-wide budget.
	sem    chan struct{}
	tokens TokenSource
	bags   *BagCache

	mu  sync.Mutex
	err error // first failure; later (usually cancellation) errors are noise

	indexBuilds   atomic.Int64
	indexReuses   atomic.Int64
	indexProbes   atomic.Int64
	bagReuses     atomic.Int64
	semijoins     atomic.Int64
	joins         atomic.Int64
	parallelTasks atomic.Int64
	inlineTasks   atomic.Int64
	workers       atomic.Int64
	maxWorkers    atomic.Int64
}

// runExecutor runs f on a fresh executor configured by opts — the
// shared set-up behind EvaluateCtx and AggregateCtx — and reports the
// effort counters to opts.Stats, aborted runs included.
func runExecutor[T any](ctx context.Context, opts EvalOptions, f func(*executor) (T, error)) (T, error) {
	ectx, cancel := context.WithCancel(ctx)
	defer cancel()
	e := &executor{
		g:      &guard{ctx: ectx, maxRows: opts.MaxRows},
		cancel: cancel,
		tokens: opts.Tokens,
		bags:   opts.Bags,
	}
	if opts.Parallelism > 1 {
		e.sem = make(chan struct{}, opts.Parallelism-1)
	}
	e.workers.Store(1)
	e.maxWorkers.Store(1)

	res, err := f(e)
	if opts.Stats != nil {
		*opts.Stats = ExecStats{
			IndexBuilds:   e.indexBuilds.Load(),
			IndexReuses:   e.indexReuses.Load(),
			IndexProbes:   e.indexProbes.Load(),
			BagReuses:     e.bagReuses.Load(),
			Semijoins:     e.semijoins.Load(),
			Joins:         e.joins.Load(),
			ParallelTasks: e.parallelTasks.Load(),
			InlineTasks:   e.inlineTasks.Load(),
			MaxWorkers:    e.maxWorkers.Load(),
		}
	}
	if err != nil {
		// Prefer the first recorded failure: sibling tasks that died of
		// the executor-internal cancellation it triggered are symptoms.
		if first := e.firstErr(); first != nil {
			err = first
		}
		var zero T
		return zero, err
	}
	return res, nil
}

// fail records the evaluation's first error and cancels the executor's
// context so every other branch winds down promptly.
func (e *executor) fail(err error) {
	e.mu.Lock()
	if e.err == nil {
		e.err = err
		e.cancel()
	}
	e.mu.Unlock()
}

func (e *executor) firstErr() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.err
}

// trySpawn reserves a worker slot (and a shared-budget token when one is
// configured). It never blocks: when the pool is exhausted the caller
// runs the task inline instead, so progress is guaranteed even with a
// zero-token budget.
func (e *executor) trySpawn() bool {
	if e.sem == nil {
		return false
	}
	select {
	case e.sem <- struct{}{}:
	default:
		return false
	}
	if e.tokens != nil && e.tokens.TryAcquire(1) == 0 {
		<-e.sem
		return false
	}
	cur := e.workers.Add(1)
	for {
		hw := e.maxWorkers.Load()
		if cur <= hw || e.maxWorkers.CompareAndSwap(hw, cur) {
			break
		}
	}
	return true
}

func (e *executor) releaseWorker() {
	e.workers.Add(-1)
	if e.tokens != nil {
		e.tokens.Release(1)
	}
	<-e.sem
}

// forEach runs f(0..n-1): items beyond the first run on spawned workers
// when slots and tokens are available, inline otherwise, and item 0 on
// the calling task. It waits for every spawned item before returning, so
// callers never race their results, and returns the executor's first
// recorded error when any item failed.
func (e *executor) forEach(n int, f func(int) error) error {
	if n == 0 {
		return nil
	}
	run := func(i int, parallel bool) {
		if parallel {
			e.parallelTasks.Add(1)
		} else {
			e.inlineTasks.Add(1)
		}
		if err := e.g.ctx.Err(); err != nil {
			e.fail(err)
			return
		}
		if err := f(i); err != nil {
			e.fail(err)
		}
	}
	var wg sync.WaitGroup
	for i := 1; i < n; i++ {
		if e.trySpawn() {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				defer e.releaseWorker()
				run(i, true)
			}(i)
		} else {
			run(i, false)
		}
	}
	run(0, false)
	wg.Wait()
	return e.firstErr()
}

// probeStack resolves the index layers to probe s on shared. A
// server-resident relation (one carrying an IndexSet: a base relation
// or a cached bag) yields its stack for the column set — counted as a
// reuse, no build at all — or, on a miss, a fresh index captured back
// into the IndexSet so later queries at the same dataset version, and
// for a base relation the next mutation's delta maintenance, inherit
// it. Any other relation gets one fresh index. Reuse across probes of
// an operator output is the caller's job where it exists — the
// top-down pass keeps a per-node cache of its parent's indexes (see
// down) rather than the executor caching globally, so indexes on
// superseded intermediates don't pin their tuple storage for the whole
// evaluation.
//
// A multi-layer stack covers disjoint ascending row ranges, so probing
// its layers in order enumerates matches in the row order of one full
// index.
func (e *executor) probeStack(s *Relation, shared []string) ([]*hashIndex, error) {
	cols, err := s.attrIndex(shared)
	if err != nil {
		return nil, err
	}
	if s.indexes != nil {
		if stack := s.indexes.lookup(cols); stack != nil {
			e.indexReuses.Add(1)
			return stack, nil
		}
	}
	ix, err := buildIndexCols(s, cols, 0, s.n, e.g)
	if err != nil {
		return nil, err
	}
	e.indexBuilds.Add(1)
	if s.indexes != nil {
		return s.indexes.store(cols, []*hashIndex{ix}), nil
	}
	return []*hashIndex{ix}, nil
}

// semijoin returns r ⋉ s by probing the index layers of s on the
// shared attributes.
func (e *executor) semijoin(r, s *Relation) (*Relation, error) {
	shared := sharedAttrs(r, s)
	if len(shared) == 0 {
		e.semijoins.Add(1)
		if s.Size() > 0 {
			return r.alias(), nil
		}
		return NewRelation(r.Attrs...), nil
	}
	stack, err := e.probeStack(s, shared)
	if err != nil {
		return nil, err
	}
	return e.semijoinProbe(r, shared, stack)
}

// semijoinProbe filters r to the tuples whose key on shared hits any
// layer of stack (prebuilt index layers of the other relation on the
// same attributes). The probe loop polls the context every pollEvery
// tuples, so a deadline lands mid-operation rather than after it.
func (e *executor) semijoinProbe(r *Relation, shared []string, stack []*hashIndex) (*Relation, error) {
	e.semijoins.Add(1)
	rIdx, err := r.attrIndex(shared)
	if err != nil {
		return nil, err
	}
	out := NewRelation(r.Attrs...)
	for i := 0; i < r.Size(); i++ {
		if err := e.g.poll(i); err != nil {
			return nil, err
		}
		for _, ix := range stack {
			if _, ok := ix.lookupRow(r, rIdx, i); ok {
				out.appendFrom(r, i)
				break
			}
		}
	}
	e.indexProbes.Add(int64(r.Size()))
	return out, nil
}

// join returns the natural join r ⋈ s via a hash index of s on the
// shared attributes. Output row order matches Relation.Join exactly:
// probe tuples in r order, matches in s insertion order. Large probe
// sides are partitioned across workers and the partitions concatenated
// in order, so the parallel result stays byte-identical. The row budget
// is enforced inside the probe loop, not just on the finished relation.
func (e *executor) join(r, s *Relation) (*Relation, error) {
	e.joins.Add(1)
	shared := sharedAttrs(r, s)
	rIdx, err := r.attrIndex(shared)
	if err != nil {
		return nil, err
	}
	stack, err := e.probeStack(s, shared)
	if err != nil {
		return nil, err
	}
	outAttrs, sExtra := joinSchema(r, s, shared)

	// produced tracks rows across all partitions so a single exploding
	// join aborts at the budget instead of materialising past it. The
	// check runs inside the per-key match loop too: one skewed join key
	// whose bucket alone exceeds the budget must abort mid-bucket, not
	// after materialising it.
	var produced atomic.Int64
	probeRange := func(lo, hi int, part *Relation) error {
		flushed := 0
		flush := func() error {
			if err := e.g.checkRows(int(produced.Add(int64(part.n - flushed)))); err != nil {
				return err
			}
			flushed = part.n
			return e.g.ctx.Err()
		}
		for i := lo; i < hi; i++ {
			if err := e.g.poll(i - lo); err != nil {
				return err
			}
			for _, ix := range stack {
				for _, j := range ix.probeRow(r, rIdx, i) {
					part.appendJoined(r, i, s, int(j), sExtra)
					if part.n-flushed >= pollEvery {
						if err := flush(); err != nil {
							return err
						}
					}
				}
			}
		}
		if part.n > flushed {
			return flush()
		}
		return nil
	}

	e.indexProbes.Add(int64(r.Size()))
	if e.sem != nil && r.Size() >= parallelJoinMinRows {
		chunks := cap(e.sem) + 1
		if max := r.Size() / parallelJoinMinRows; chunks > max {
			chunks = max
		}
		size := (r.Size() + chunks - 1) / chunks
		parts := make([]*Relation, chunks)
		err := e.forEach(chunks, func(c int) error {
			lo := c * size
			hi := lo + size
			if hi > r.Size() {
				hi = r.Size()
			}
			// Each partition materialises into its own relation (own
			// arena), so workers never contend on an allocator; the ordered
			// concatenation below keeps partition order, hence
			// byte-identity at any parallelism.
			part := newRelation(outAttrs)
			if err := probeRange(lo, hi, part); err != nil {
				return err
			}
			parts[c] = part
			return nil
		})
		if err != nil {
			return nil, err
		}
		out := parts[0]
		for _, p := range parts[1:] {
			out.appendAll(p)
		}
		return out, nil
	}
	out := newRelation(outAttrs)
	if err := probeRange(0, r.Size(), out); err != nil {
		return nil, err
	}
	return out, nil
}

// run evaluates the query: the semijoin reduction, then the final join
// pass. The answer needs no deduplication: every bag is a set (build
// projects through projectFast unless the λ-join already is one),
// semijoins only filter, and the natural join of two sets is a set —
// each output row restricts to exactly one row of either input. A
// single-bag answer may be a base relation's own view, sharing its
// storage; like every operator input, it is read-only.
//
// The answer's columns are laid out as if every bag were projected to
// χ order (answerAttrs), so whether build skipped a projection — which
// depends on whether the relations carry an IndexSet — never shows in
// the answer. Row order does not depend on column order.
func (e *executor) run(q Query, db Database, d *decomp.Decomp) (*Relation, error) {
	root, err := e.reduce(q, db, d)
	if err != nil {
		return nil, err
	}
	ans, err := e.collect(root)
	if err != nil {
		return nil, err
	}
	// The answer counts even when no join made it (a one-bag plan).
	if err := e.g.checkRows(ans.Size()); err != nil {
		return nil, err
	}
	return ans.permuted(answerAttrs(root, make([]string, 0, len(ans.Attrs)))), nil
}

// answerAttrs appends the attributes of n's subtree in preorder, each
// bag's in χ order and each attribute at its first occurrence: the
// column order collect's joins produce when every bag is projected.
func answerAttrs(n *bagNode, out []string) []string {
	for _, a := range n.chi {
		if !slices.Contains(out, a) {
			out = append(out, a)
		}
	}
	for _, c := range n.children {
		out = answerAttrs(c, out)
	}
	return out
}

// reduce materialises the bag relations of the execution tree
// (execTree) and runs the two semijoin passes, with sibling subtrees
// concurrent in every phase — the shared front half of run and
// aggregate.
func (e *executor) reduce(q Query, db Database, d *decomp.Decomp) (*bagNode, error) {
	tree, coverOf, err := execTree(q, d)
	if err != nil {
		return nil, err
	}
	root, err := e.build(q, db, d, coverOf, tree)
	if err != nil {
		return nil, err
	}
	if err := e.up(root); err != nil {
		return nil, err
	}
	if err := e.down(root); err != nil {
		return nil, err
	}
	return root, nil
}

// build materialises the bag relation of n and recurses into the
// children concurrently. The bag is the join of the λ(u) atom
// relations, projected to χ(u) (lambdaBag, through the bag cache), with
// the atoms hosted at n enforced by semijoins — but hosted atoms in
// λ(u) itself are not semijoined in: every bag tuple restricts a tuple
// s of ⋈λ(u), and s restricted to vars(e) lies in R_e, so the semijoin
// would remove nothing — with or without duplicate base rows.
func (e *executor) build(q Query, db Database, d *decomp.Decomp, coverOf map[*decomp.Node][]int, n *decomp.Node) (*bagNode, error) {
	var bagAttrs []string
	n.Bag.ForEach(func(v int) { bagAttrs = append(bagAttrs, d.H.VertexName(v)) })
	proj, err := e.lambdaBag(q, db, n.Lambda, bagAttrs)
	if err != nil {
		return nil, err
	}
	for _, eid := range coverOf[n] {
		if slices.Contains(n.Lambda, eid) {
			continue
		}
		r, err := atomRelation(db, q.Atoms[eid])
		if err != nil {
			return nil, err
		}
		proj, err = e.semijoin(proj, r)
		if err != nil {
			return nil, err
		}
	}
	if err := e.g.alive(); err != nil {
		return nil, err
	}
	bn := &bagNode{rel: proj, chi: bagAttrs, children: make([]*bagNode, len(n.Children))}
	if err := e.forEach(len(n.Children), func(i int) error {
		cb, err := e.build(q, db, d, coverOf, n.Children[i])
		if err != nil {
			return err
		}
		bn.children[i] = cb
		return nil
	}); err != nil {
		return nil, err
	}
	return bn, nil
}

// lambdaBag returns π_χ(⋈λ). A λ of two or more atoms goes through the
// bag cache when the evaluation has one: a hit first enforces the row
// budget against the cold build's largest join result, and a miss
// stores its result with a fresh IndexSet, so the passes capture the
// bag's indexes for later queries the way they do a base view's.
func (e *executor) lambdaBag(q Query, db Database, lambda []int, chi []string) (*Relation, error) {
	if e.bags == nil || len(lambda) < 2 {
		rel, _, err := e.joinLambda(q, db, lambda, chi)
		return rel, err
	}
	key := bagKey(q, lambda, chi)
	if b := e.bags.lookup(key); b != nil {
		if err := e.g.checkRows(b.peak); err != nil {
			return nil, err
		}
		e.bagReuses.Add(1)
		return b.rel, nil
	}
	rel, peak, err := e.joinLambda(q, db, lambda, chi)
	if err != nil {
		return nil, err
	}
	// rel is a fresh operator output (λ has two atoms) and a set, which
	// is what carrying an IndexSet requires.
	rel.indexes = newIndexSet(maxIndexSets)
	return e.bags.store(key, &cachedBag{rel: rel, peak: peak}).rel, nil
}

// joinLambda joins the λ atom relations left to right and projects the
// result to χ, returning it with the largest join result's size. The
// dedup projection is skipped when the λ-join is already a set over
// exactly χ: χ equals vars(λ) and every λ relation is a set (it carries
// an IndexSet; see Relation.indexes). A single-atom bag is then the
// atom's renamed base view and keeps its maintained indexes for the
// passes that probe it. The bag's columns are in λ-join order rather
// than χ's vertex order in that case (run lays the answer out in χ
// order regardless).
func (e *executor) joinLambda(q Query, db Database, lambda []int, chi []string) (*Relation, int, error) {
	var acc *Relation
	peak := 0
	lambdaSets := true
	for _, eid := range lambda {
		r, err := atomRelation(db, q.Atoms[eid])
		if err != nil {
			return nil, 0, err
		}
		lambdaSets = lambdaSets && r.indexes != nil
		if acc == nil {
			acc = r
			continue
		}
		if acc, err = e.join(acc, r); err != nil {
			return nil, 0, err
		}
		if err := e.g.check(acc); err != nil {
			return nil, 0, err
		}
		peak = max(peak, acc.Size())
	}
	if acc == nil {
		return nil, 0, fmt.Errorf("join: node with empty λ-label")
	}
	if lambdaSets && hasExactly(acc, chi) {
		return acc, peak, nil
	}
	proj, err := projectFast(acc, chi, e.g)
	return proj, peak, err
}

// hasExactly reports whether r's attributes are exactly attrs (a list
// without repeats), compared as sets.
func hasExactly(r *Relation, attrs []string) bool {
	if len(r.Attrs) != len(attrs) {
		return false
	}
	for _, a := range attrs {
		if _, ok := r.pos[a]; !ok {
			return false
		}
	}
	return true
}

// up is the bottom-up semijoin pass: children's subtrees reduce
// concurrently, then the node filters against each reduced child.
func (e *executor) up(n *bagNode) error {
	if len(n.children) > 0 {
		if err := e.forEach(len(n.children), func(i int) error {
			return e.up(n.children[i])
		}); err != nil {
			return err
		}
		for _, c := range n.children {
			red, err := e.semijoin(n.rel, c.rel)
			if err != nil {
				return err
			}
			n.rel = red
		}
	}
	return e.g.alive()
}

// down is the top-down semijoin pass: each child filters against its
// (already final) parent and recurses; siblings run concurrently. The
// parent is indexed once per distinct shared-column set and the index
// shared by all children probing it — scoped to this node, so it is
// collectable as soon as the pass moves on.
func (e *executor) down(n *bagNode) error {
	if len(n.children) == 0 {
		return nil
	}
	var mu sync.Mutex
	parentIx := map[string][]*hashIndex{}
	indexOn := func(shared []string) ([]*hashIndex, error) {
		key := strings.Join(shared, "\x00")
		mu.Lock()
		defer mu.Unlock()
		if stack, ok := parentIx[key]; ok {
			return stack, nil
		}
		stack, err := e.probeStack(n.rel, shared)
		if err != nil {
			return nil, err
		}
		parentIx[key] = stack
		return stack, nil
	}
	return e.forEach(len(n.children), func(i int) error {
		c := n.children[i]
		shared := sharedAttrs(c.rel, n.rel)
		var red *Relation
		var err error
		if len(shared) == 0 {
			red, err = e.semijoin(c.rel, n.rel)
		} else {
			var stack []*hashIndex
			if stack, err = indexOn(shared); err == nil {
				red, err = e.semijoinProbe(c.rel, shared, stack)
			}
		}
		if err != nil {
			return err
		}
		c.rel = red
		if err := e.g.alive(); err != nil {
			return err
		}
		return e.down(c)
	})
}

// collect is the final bottom-up join pass: each child's subtree result
// materialises concurrently (a per-subtree partition of the answer's
// provenance), then the node joins them left to right — the same merge
// order as the scan reference, so rows come out byte-identical.
func (e *executor) collect(n *bagNode) (*Relation, error) {
	subs := make([]*Relation, len(n.children))
	if err := e.forEach(len(n.children), func(i int) error {
		sub, err := e.collect(n.children[i])
		if err != nil {
			return err
		}
		subs[i] = sub
		return nil
	}); err != nil {
		return nil, err
	}
	acc := n.rel
	for _, sub := range subs {
		var err error
		acc, err = e.join(acc, sub)
		if err != nil {
			return nil, err
		}
		if err := e.g.check(acc); err != nil {
			return nil, err
		}
	}
	return acc, nil
}
