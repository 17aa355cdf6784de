package join

import (
	"context"
	"fmt"

	"repro/internal/decomp"
)

// The scan reference: Yannakakis over tuple slices, where every
// semijoin and join re-scans its inputs with string-keyed buckets. It
// is an independent implementation of the indexed executor's plan —
// same execution tree and atom hosts (execTree), same join schema
// (joinSchema), same probe order — so the indexed kernel must
// reproduce its rows in the very same order, byte for byte. It projects
// every bag to χ order, the answer layout the executor keeps whether or
// not it skipped a projection. It keeps the classic three passes —
// bottom-up semijoin, top-down semijoin, bottom-up join — on purpose,
// as a pass structure independent of the executor's (one semijoin
// pass, then a top-down join): both give rows lexicographic in preorder
// of the tree, so agreeing byte for byte checks the executor's
// reduction and join order against a different route to the same
// answer. Test-only: the indexed kernel is the one production
// evaluator; EvaluateNaive is the semantic oracle.

// scanRef names the scan reference in execOptsMatrix.
const scanRef = "scan"

// evalAs runs the execOptsMatrix configuration name: the scan
// reference, or the indexed kernel under opts.
func evalAs(ctx context.Context, name string, q Query, db Database, d *decomp.Decomp, opts EvalOptions) (*Relation, error) {
	if name == scanRef {
		return evaluateScan(ctx, q, db, d, opts.MaxRows)
	}
	return EvaluateCtx(ctx, q, db, d, opts)
}

// evaluateScan answers q over db through d on the scan reference,
// checking ctx between relational operations and the row budget
// against every join result and the answer, as the executor does.
func evaluateScan(ctx context.Context, q Query, db Database, d *decomp.Decomp, maxRows int) (*Relation, error) {
	g := &guard{ctx: ctx, maxRows: maxRows}
	tree, err := buildJoinTree(q, db, d, g)
	if err != nil {
		return nil, err
	}
	return yannakakis(tree, g)
}

// buildJoinTree materialises the join tree of query q over database db
// guided by the execution tree derived from the hypertree decomposition
// d of q's hypergraph:
//
//   - the bag relation of node u is the join of the λ(u) atom relations
//     projected onto χ(u);
//   - every atom e is additionally enforced at some node whose bag
//     covers e (HD condition 1 guarantees one exists).
//
// The intermediate relation at each node has at most ∏_{e∈λ(u)} |rel(e)|
// ≤ N^width tuples — the classic width-bounded evaluation guarantee.
func buildJoinTree(q Query, db Database, d *decomp.Decomp, g *guard) (*bagNode, error) {
	h := d.H
	root, coverOf, err := execTree(q, d)
	if err != nil {
		return nil, err
	}

	var build func(n *decomp.Node) (*bagNode, error)
	build = func(n *decomp.Node) (*bagNode, error) {
		// Join the λ(u) atom relations.
		var acc *Relation
		for _, e := range n.Lambda {
			r, err := atomRelation(db, q.Atoms[e])
			if err != nil {
				return nil, err
			}
			if acc == nil {
				acc = r
				continue
			}
			if acc, err = acc.Join(r); err != nil {
				return nil, err
			}
			if err := g.check(acc); err != nil {
				return nil, err
			}
		}
		if acc == nil {
			return nil, fmt.Errorf("join: node with empty λ-label")
		}
		// Project to χ(u).
		var bagAttrs []string
		n.Bag.ForEach(func(v int) { bagAttrs = append(bagAttrs, h.VertexName(v)) })
		proj, err := acc.Project(bagAttrs...)
		if err != nil {
			return nil, err
		}
		// Enforce atoms assigned to this node.
		for _, e := range coverOf[n] {
			r, err := atomRelation(db, q.Atoms[e])
			if err != nil {
				return nil, err
			}
			proj, err = proj.Semijoin(r)
			if err != nil {
				return nil, err
			}
		}
		if err := g.alive(); err != nil {
			return nil, err
		}
		bn := &bagNode{rel: proj}
		for _, c := range n.Children {
			cb, err := build(c)
			if err != nil {
				return nil, err
			}
			bn.children = append(bn.children, cb)
		}
		return bn, nil
	}
	return build(root)
}

// semijoinUp is the bottom-up semijoin pass: every node is reduced
// against its already-reduced children.
func semijoinUp(n *bagNode, g *guard) error {
	for _, c := range n.children {
		if err := semijoinUp(c, g); err != nil {
			return err
		}
		red, err := n.rel.Semijoin(c.rel)
		if err != nil {
			return err
		}
		n.rel = red
	}
	return g.alive()
}

// yannakakis runs the classic three-pass algorithm on a join tree:
// bottom-up semijoin reduction, top-down semijoin reduction, then a
// bottom-up join producing the full result. The output relation ranges
// over the union of all bag attributes (= all query variables).
func yannakakis(root *bagNode, g *guard) (*Relation, error) {
	if err := semijoinUp(root, g); err != nil {
		return nil, err
	}
	// Pass 2: top-down semijoins.
	var down func(n *bagNode) error
	down = func(n *bagNode) error {
		for _, c := range n.children {
			red, err := c.rel.Semijoin(n.rel)
			if err != nil {
				return err
			}
			c.rel = red
			if err := g.alive(); err != nil {
				return err
			}
			if err := down(c); err != nil {
				return err
			}
		}
		return nil
	}
	if err := down(root); err != nil {
		return nil, err
	}
	// Pass 3: bottom-up joins.
	var collect func(n *bagNode) (*Relation, error)
	collect = func(n *bagNode) (*Relation, error) {
		acc := n.rel
		for _, c := range n.children {
			sub, err := collect(c)
			if err != nil {
				return nil, err
			}
			acc, err = acc.Join(sub)
			if err != nil {
				return nil, err
			}
			if err := g.check(acc); err != nil {
				return nil, err
			}
		}
		return acc, nil
	}
	res, err := collect(root)
	if err != nil {
		return nil, err
	}
	if err := g.checkRows(res.Size()); err != nil {
		return nil, err
	}
	return res.Dedup(), nil
}

// isBoolean reports whether the query has at least one answer: the
// bottom-up semijoin reduction alone decides non-emptiness (the Boolean
// CQ case the paper mentions is solvable in linear time from an HD).
func isBoolean(q Query, db Database, d *decomp.Decomp) (bool, error) {
	tree, err := buildJoinTree(q, db, d, nil)
	if err != nil {
		return false, err
	}
	if err := semijoinUp(tree, nil); err != nil {
		return false, err
	}
	return tree.rel.Size() > 0, nil
}

// Semijoin returns the tuples of r that join with at least one tuple of
// s on their shared attributes (r ⋉ s). With no shared attributes, r is
// returned unchanged when s is non-empty and emptied when s is empty
// (consistent with r ⋉ s = π_r(r ⋈ s)).
func (r *Relation) Semijoin(s *Relation) (*Relation, error) {
	shared := sharedAttrs(r, s)
	if len(shared) == 0 {
		if s.Size() > 0 {
			return r.alias(), nil
		}
		return NewRelation(r.Attrs...), nil
	}
	rIdx, err := r.attrIndex(shared)
	if err != nil {
		return nil, err
	}
	sIdx, err := s.attrIndex(shared)
	if err != nil {
		return nil, err
	}
	keys := make(map[string]struct{}, s.n)
	buf := make([]byte, 0, 8*len(shared))
	for j := 0; j < s.n; j++ {
		buf = appendRowKey(buf[:0], s, j, sIdx)
		keys[string(buf)] = struct{}{}
	}
	out := NewRelation(r.Attrs...)
	for i := 0; i < r.n; i++ {
		buf = appendRowKey(buf[:0], r, i, rIdx)
		if _, ok := keys[string(buf)]; ok {
			out.appendFrom(r, i)
		}
	}
	return out, nil
}

// Project returns the projection onto attrs, with duplicates removed
// (first occurrence wins).
func (r *Relation) Project(attrs ...string) (*Relation, error) {
	idx, err := r.attrIndex(attrs)
	if err != nil {
		return nil, err
	}
	out := NewRelation(attrs...)
	seen := make(map[string]struct{}, r.n)
	buf := make([]byte, 0, 8*len(idx))
	for i := 0; i < r.n; i++ {
		buf = appendRowKey(buf[:0], r, i, idx)
		if _, dup := seen[string(buf)]; dup {
			continue
		}
		seen[string(buf)] = struct{}{}
		out.appendProjected(r, i, idx)
	}
	return out, nil
}
