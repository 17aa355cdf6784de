package join

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/decomp"
)

// bagNode is one node of the join tree derived from an HD: its bag
// relation and χ's attributes in vertex order.
type bagNode struct {
	rel      *Relation
	chi      []string
	children []*bagNode
	// upIx, when set, is an index of rel on the attributes upShared,
	// built by the bottom-up pass (see executor.up).
	upIx     []*hashIndex
	upShared []string
	// hosted lists the relations of atoms hosted here that build left
	// for the aggregate fold to probe rather than semijoining them into
	// rel (see executor.deferHosted).
	hosted []*Relation
}

// ErrRowBudget is returned (wrapped) when an evaluation exceeds its
// per-query row budget.
var ErrRowBudget = errors.New("join: row budget exceeded")

// EvalOptions configures one evaluation. The zero value means no
// limits.
type EvalOptions struct {
	// MaxRows caps the size of every join result — each λ-join
	// intermediate of a bag build and each join of the top-down join
	// pass — and
	// of the answer; exceeding it aborts the evaluation with
	// ErrRowBudget. 0 = no cap. Projections and semijoins never outgrow
	// their input, and the relations the query reads are the data
	// itself, so neither is counted: a query over relations larger than
	// the cap still answers when its joins stay within it. The cap is
	// also enforced inside join probe loops, so a single exploding
	// operation aborts at the budget.
	MaxRows int
	// Parallelism is ignored (the executor is serial); it stays only for
	// perfbench's traced replica of the query path (perfbench/replay.go).
	Parallelism int
	// Tokens is ignored; it stays only for that replica, like Parallelism.
	Tokens TokenSource
	// Stats, when non-nil, receives the executor's effort counters.
	Stats *ExecStats
	// Bags, when set, caches the bags of nodes whose λ holds two or
	// more atoms across evaluations. It must belong to the database
	// being evaluated and to nothing else (a dataset snapshot owns
	// one); nil evaluates every bag afresh.
	Bags *BagCache
}

// guard is checked after every relational operation of a budgeted
// evaluation — and inside long probe loops via poll — so a runaway join cannot pin a serving goroutine past its
// deadline. A nil guard checks nothing.
type guard struct {
	ctx     context.Context
	maxRows int
}

func (g *guard) check(r *Relation) error {
	if g == nil {
		return nil
	}
	if err := g.ctx.Err(); err != nil {
		return err
	}
	return g.checkRows(r.Size())
}

// alive is the between-operations cancellation check for a relation the
// row budget does not count.
func (g *guard) alive() error {
	if g == nil {
		return nil
	}
	return g.ctx.Err()
}

// checkRows enforces the row budget against a running row count.
func (g *guard) checkRows(n int) error {
	if g == nil {
		return nil
	}
	if g.maxRows > 0 && n > g.maxRows {
		return fmt.Errorf("%w: intermediate result has %d rows, budget is %d",
			ErrRowBudget, n, g.maxRows)
	}
	return nil
}

// poll is the in-loop cancellation check: iteration counters pass
// through it and every pollEvery-th one (plus the first) consults the
// context, keeping huge scans responsive at negligible cost.
func (g *guard) poll(i int) error {
	if g == nil || i&(pollEvery-1) != 0 {
		return nil
	}
	return g.ctx.Err()
}

// execTree derives the tree Yannakakis runs on from the HD d: every
// tree edge {u, v} with χ(u) ⊆ χ(v) is contracted into v (contract),
// as u's bag would cost a build and semijoin rounds yet filter nothing
// v's does not. The result keeps edge coverage and connectedness, so
// it is a join tree with the same answer, but not always an HD, so it
// never leaves the package. Every atom is hosted at the first node (in
// Walk order) whose bag covers it. The test-only scan reference shares
// this plan shaping, part of what keeps its rows byte-identical.
func execTree(q Query, d *decomp.Decomp) (*decomp.Node, map[*decomp.Node][]int, error) {
	h := d.H
	if h.NumEdges() != len(q.Atoms) {
		return nil, nil, fmt.Errorf("join: decomposition hypergraph has %d edges, query has %d atoms",
			h.NumEdges(), len(q.Atoms))
	}
	root := contract(d.Root)
	coverOf := map[*decomp.Node][]int{}
	for e := range q.Atoms {
		var host *decomp.Node
		root.Walk(func(n *decomp.Node) bool {
			if h.Edge(e).SubsetOf(n.Bag) {
				host = n
				return false
			}
			return true
		})
		if host == nil {
			return nil, nil, fmt.Errorf("join: atom %d not covered by any bag (invalid HD?)", e)
		}
		coverOf[host] = append(coverOf[host], e)
	}
	return root, coverOf, nil
}

// contract returns n's subtree with every edge between comparable bags
// contracted into the larger bag, whose λ and χ the merged node keeps;
// a contracted child's children take its place, in order. Only changed
// nodes are copied: the HD, often a cached plan, is never mutated.
func contract(n *decomp.Node) *decomp.Node {
	var kids []*decomp.Node // nil while n's children are unchanged
	lambda, bag := n.Lambda, n.Bag
	for i, c := range n.Children {
		cc := contract(c)
		merge := cc.Bag.SubsetOf(bag)
		if !merge && bag.SubsetOf(cc.Bag) {
			lambda, bag, merge = cc.Lambda, cc.Bag, true
		}
		if kids == nil && (merge || cc != c) {
			kids = append(make([]*decomp.Node, 0, len(n.Children)+len(cc.Children)), n.Children[:i]...)
		}
		switch {
		case merge:
			kids = append(kids, cc.Children...)
		case kids != nil:
			kids = append(kids, cc)
		}
	}
	if kids == nil {
		return n
	}
	return &decomp.Node{Lambda: lambda, SpecialID: decomp.NoSpecial, Bag: bag, Children: kids}
}

// EvaluateCtx answers the full conjunctive query using the
// decomposition: bag materialisation, then Yannakakis over hash
// indexes — the bottom-up semijoin pass and a top-down join pass, no
// join result of which outgrows the answer. The result is the set of
// all satisfying assignments to the query's variables. The evaluation
// is aborted when the context is cancelled (deadline = the query's
// time budget) or when any intermediate or final relation exceeds
// opts.MaxRows (ErrRowBudget), both checked inside the probe loops.
func EvaluateCtx(ctx context.Context, q Query, db Database, d *decomp.Decomp, opts EvalOptions) (*Relation, error) {
	return runExecutor(ctx, opts, func(e *executor) (*Relation, error) {
		return e.run(q, db, d)
	})
}
