package join

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"repro/internal/decomp"
)

// TokenSource is ignored by the executor; it stays declared only for
// perfbench's traced replica of the query path (perfbench/replay.go).
type TokenSource interface {
	TryAcquire(max int) int
	Release(n int)
}

// ExecStats counts one evaluation's executor effort. Populate it by
// pointing EvalOptions.Stats at a zero value.
type ExecStats struct {
	// IndexBuilds and IndexProbes count hash indexes built and tuples
	// probed against them. IndexReuses counts the builds avoided
	// because a server-resident relation arrived with an index for the
	// probed column set — a dataset snapshot's maintained index or one
	// captured on a cached bag (BagCache) — the unchanged-data fast
	// path. A four-cycle query's only reuse on a warm snapshot is its
	// cached child bag's index: both bags are cache hits, so no base
	// relation is probed.
	IndexBuilds int64 `json:"index_builds"`
	IndexReuses int64 `json:"index_reuses"`
	IndexProbes int64 `json:"index_probes"`
	// BagReuses counts bags served from EvalOptions.Bags instead of
	// joining their λ-atoms again.
	BagReuses int64 `json:"bag_reuses"`
	// Semijoins and Joins count relational operations executed.
	Semijoins int64 `json:"semijoins"`
	Joins     int64 `json:"joins"`
}

// pollEvery is the probe-loop cancellation granularity: long scans check
// the context every pollEvery iterations, so a single huge semijoin or
// join cannot blow past the query deadline, as checks made only
// between operations would allow.
const pollEvery = 1024

// executor runs one indexed evaluation, serially: bag materialisation
// and the Yannakakis passes over hash indexes — the bottom-up semijoin
// pass and the top-down join pass for a row answer, both semijoin
// passes or the top-down fold for the aggregate pushdown. stats counts
// its effort as it goes.
type executor struct {
	g     *guard
	bags  *BagCache
	stats ExecStats
	// deferHosted makes build leave the atoms hosted at a bag in
	// bagNode.hosted instead of semijoining them in, so the aggregate
	// fold can probe them per row (see aggregate).
	deferHosted bool
}

// runExecutor runs f on a fresh executor configured by opts — the
// shared set-up behind EvaluateCtx and AggregateCtx — and reports the
// effort counters to opts.Stats, aborted runs included.
func runExecutor[T any](ctx context.Context, opts EvalOptions, f func(*executor) (T, error)) (T, error) {
	e := &executor{g: &guard{ctx: ctx, maxRows: opts.MaxRows}, bags: opts.Bags}
	res, err := f(e)
	if opts.Stats != nil {
		*opts.Stats = e.stats
	}
	return res, err
}

// probeStack resolves the index layers to probe s on shared. A
// server-resident relation (one carrying an IndexSet: a base relation
// or a cached bag) yields its stack for the column set — counted as a
// reuse, no build at all — or, on a miss, a fresh index captured back
// into the IndexSet so later queries at the same dataset version, and
// for a base relation the next mutation's delta maintenance, inherit
// it. Any other relation gets one fresh index. Reuse across probes of
// an operator output is the caller's job where it exists — the
// aggregate pushdown's top-down semijoin pass keeps a per-node cache
// of its parent's indexes (see down) rather than the executor caching
// globally, so indexes on superseded intermediates don't pin their
// tuple storage for the whole evaluation.
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
			e.stats.IndexReuses++
			return stack, nil
		}
	}
	ix, err := buildIndexCols(s, cols, 0, s.n, e.g)
	if err != nil {
		return nil, err
	}
	e.stats.IndexBuilds++
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
		e.stats.Semijoins++
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
	e.stats.Semijoins++
	rIdx, err := r.attrIndex(shared)
	if err != nil {
		return nil, err
	}
	out := NewRelation(r.Attrs...)
	for i := 0; i < r.Size(); i++ {
		if err := e.g.poll(i); err != nil {
			return nil, err
		}
		if stackHit(stack, r, rIdx, i) {
			out.appendFrom(r, i)
		}
	}
	e.stats.IndexProbes += int64(r.Size())
	return out, nil
}

// stackHit reports whether row i of r, keyed on cols, has a match in
// any layer of stack.
func stackHit(stack []*hashIndex, r *Relation, cols []int, i int) (ok bool) {
	for _, ix := range stack {
		if _, ok = ix.lookupRow(r, cols, i); ok {
			break
		}
	}
	return ok
}

// join returns the natural join r ⋈ s via a hash index of s on the
// shared attributes.
func (e *executor) join(r, s *Relation) (*Relation, error) {
	shared := sharedAttrs(r, s)
	stack, err := e.probeStack(s, shared)
	if err != nil {
		return nil, err
	}
	return e.joinProbe(r, s, shared, stack)
}

// joinProbe returns r ⋈ s by probing stack, prebuilt index layers of s
// on shared — every attribute r and s have in common, in any order.
// Output row order matches Relation.Join exactly: probe tuples in r
// order, matches in s insertion order. The row budget is enforced
// inside the probe loop, not just on the finished relation.
func (e *executor) joinProbe(r, s *Relation, shared []string, stack []*hashIndex) (*Relation, error) {
	e.stats.Joins++
	rIdx, err := r.attrIndex(shared)
	if err != nil {
		return nil, err
	}
	outAttrs, sExtra := joinSchema(r, s, shared)
	e.stats.IndexProbes += int64(r.Size())
	out := newRelation(outAttrs)
	for i := 0; i < r.Size(); i++ {
		if err := e.g.poll(i); err != nil {
			return nil, err
		}
		for _, ix := range stack {
			for _, j := range ix.probeRow(r, rIdx, i) {
				out.appendJoined(r, i, s, int(j), sExtra)
				// Every pollEvery output rows the budget and the context
				// are checked too: one skewed join key whose bucket alone
				// exceeds the budget must abort mid-bucket, not after
				// materialising it.
				if out.n&(pollEvery-1) == 0 {
					if err := e.g.checkRows(out.n); err != nil {
						return nil, err
					}
					if err := e.g.poll(out.n); err != nil {
						return nil, err
					}
				}
			}
		}
	}
	return out, nil
}

// run evaluates the query: bag materialisation, the bottom-up semijoin
// pass, then the top-down join pass (collect). No top-down semijoin
// pass runs: after the up pass every row of a child extends into its
// own subtree and every root row into every subtree, so each row a
// join of collect produces extends to an answer and no intermediate
// outgrows the answer — the bound of input plus output needs only the
// one semijoin pass. The root skips its semijoin with its first child
// (see up), whose join collect runs first and drops exactly those rows.
//
// The answer needs no deduplication: every bag is a set (build
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
	root, err := e.buildTree(q, db, d)
	if err != nil {
		return nil, err
	}
	if err := e.up(root, true); err != nil {
		return nil, err
	}
	ans, err := e.collect(root, root.rel)
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

// buildTree materialises the bag relations of the execution tree
// (execTree).
func (e *executor) buildTree(q Query, db Database, d *decomp.Decomp) (*bagNode, error) {
	tree, coverOf, err := execTree(q, d)
	if err != nil {
		return nil, err
	}
	return e.build(q, db, d, coverOf, tree)
}

// build materialises the bag relation of n and recurses into the
// children. The bag is the join of the λ(u) atom
// relations, projected to χ(u) (lambdaBag, through the bag cache), with
// the atoms hosted at n enforced by semijoins — but hosted atoms in
// λ(u) itself are not semijoined in: every bag tuple restricts a tuple
// s of ⋈λ(u), and s restricted to vars(e) lies in R_e, so the semijoin
// would remove nothing — with or without duplicate base rows. Under
// deferHosted, the bag keeps its rows and lists its hosted atoms in
// hosted instead.
func (e *executor) build(q Query, db Database, d *decomp.Decomp, coverOf map[*decomp.Node][]int, n *decomp.Node) (*bagNode, error) {
	var bagAttrs []string
	n.Bag.ForEach(func(v int) { bagAttrs = append(bagAttrs, d.H.VertexName(v)) })
	proj, err := e.lambdaBag(q, db, n.Lambda, bagAttrs)
	if err != nil {
		return nil, err
	}
	bn := &bagNode{chi: bagAttrs, children: make([]*bagNode, len(n.Children))}
	for _, eid := range coverOf[n] {
		if slices.Contains(n.Lambda, eid) {
			continue
		}
		r, err := atomRelation(db, q.Atoms[eid])
		if err != nil {
			return nil, err
		}
		if e.deferHosted {
			bn.hosted = append(bn.hosted, r)
		} else if proj, err = e.semijoin(proj, r); err != nil {
			return nil, err
		}
	}
	if err := e.g.alive(); err != nil {
		return nil, err
	}
	bn.rel = proj
	for i, c := range n.Children {
		if bn.children[i], err = e.build(q, db, d, coverOf, c); err != nil {
			return nil, err
		}
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
		e.stats.BagReuses++
		return b.rel, nil
	}
	rel, peak, err := e.joinLambda(q, db, lambda, chi)
	if err != nil {
		return nil, err
	}
	// rel is a fresh operator output (λ has two atoms) and a set, which
	// is what carrying an IndexSet requires.
	rel.indexes = newIndexSet()
	atoms := make([]Atom, len(lambda))
	for i, eid := range lambda {
		atoms[i] = q.Atoms[eid]
	}
	return e.bags.store(key, &cachedBag{rel: rel, peak: peak, lambda: atoms}).rel, nil
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

// up is the bottom-up semijoin pass: each child's subtree reduces, then
// the node filters against the reduced child. With skipFirst the node
// skips its semijoin with its first child — only sound at the root of
// run's tree, where collect's first join filters the root against that
// child anyway; a lower node must be fully reduced before its parent
// filters against it.
//
// A reduced child without an IndexSet (a non-leaf child's semijoin
// output, or any bag not backed by server-resident data) is final once
// its parent filters against it, so the index built for that semijoin
// is kept on the child as upIx for collect's join to probe.
func (e *executor) up(n *bagNode, skipFirst bool) error {
	for i, c := range n.children {
		if err := e.up(c, false); err != nil {
			return err
		}
		if i == 0 && skipFirst {
			continue
		}
		shared := sharedAttrs(n.rel, c.rel)
		var red *Relation
		var err error
		if len(shared) == 0 || c.rel.indexes != nil {
			red, err = e.semijoin(n.rel, c.rel)
		} else if c.upIx, err = e.probeStack(c.rel, shared); err == nil {
			c.upShared = shared
			red, err = e.semijoinProbe(n.rel, shared, c.upIx)
		}
		if err != nil {
			return err
		}
		n.rel = red
	}
	return e.g.alive()
}

// down is the top-down semijoin pass: each child filters against its
// (already final) parent and recurses. The parent is indexed once per
// distinct shared-column set and the index shared by all children
// probing it — scoped to this node, so it is collectable as soon as the
// pass moves on.
func (e *executor) down(n *bagNode) error {
	parentIx := map[string][]*hashIndex{}
	for _, c := range n.children {
		shared := sharedAttrs(c.rel, n.rel)
		var red *Relation
		var err error
		if len(shared) == 0 {
			red, err = e.semijoin(c.rel, n.rel)
		} else {
			key := strings.Join(shared, "\x00")
			stack, ok := parentIx[key]
			if !ok {
				stack, err = e.probeStack(n.rel, shared)
				parentIx[key] = stack
			}
			if err == nil {
				red, err = e.semijoinProbe(c.rel, shared, stack)
			}
		}
		if err != nil {
			return err
		}
		c.rel, c.upIx = red, nil
		if err := e.g.alive(); err != nil {
			return err
		}
		if err := e.down(c); err != nil {
			return err
		}
	}
	return nil
}

// collect is the top-down join pass: acc, the join of n's bag with
// everything before it in preorder, joins each child of n in turn and
// then that child's subtree. Every child is probed on its own bag
// relation, so a bag that is still a base view or a cached bag probes
// its maintained index, and any other child up semijoined probes the
// index up kept: by the join tree's connectedness the attributes acc
// shares with c are exactly those n shares with it. Rows come out
// lexicographic in preorder — the order of the scan reference's
// bottom-up join pass, so they are byte-identical to it.
func (e *executor) collect(n *bagNode, acc *Relation) (*Relation, error) {
	for _, c := range n.children {
		var err error
		if c.upIx != nil {
			acc, err = e.joinProbe(acc, c.rel, c.upShared, c.upIx)
		} else {
			acc, err = e.join(acc, c.rel)
		}
		if err != nil {
			return nil, err
		}
		if err := e.g.check(acc); err != nil {
			return nil, err
		}
		if acc, err = e.collect(c, acc); err != nil {
			return nil, err
		}
	}
	return acc, nil
}
