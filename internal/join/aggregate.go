package join

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/decomp"
)

// Aggregate pushdown over the join tree: per-bag partial aggregates
// folded during the bottom-up Yannakakis pass instead of
// materialise-then-fold. This generalises the extension-count DP of
// Count to keyed partial aggregates carried per bag tuple — the
// tractable aggregation over bounded-width decompositions that
// Gottlob–Leone–Scarcello cite as an HD application: a COUNT, SUM or
// GROUP BY answer costs polynomial time in the bag relations (N^width),
// even when the enumerated result would be exponentially larger.
//
// The correctness backbone is the running-intersection property of the
// join tree: a variable's occurrence bags form a connected subtree, so
// every variable has a unique resolution point (the topmost bag that
// contains it), sibling subtrees share no unresolved variables, and
// per-branch partial aggregates combine by key-wise products.

// AggKind selects the aggregate operation.
type AggKind int

const (
	// AggCount counts distinct full answers (per group) without
	// materialising them, by dynamic programming over the join tree:
	// after the semijoin reduction, each bag tuple's extension count is
	// the product over children of the summed counts of joining child
	// tuples. This is the tractable counting the paper cites as an HD
	// application (Pichler & Skritek [23]): time is polynomial in the
	// size of the bag relations, hence in N^width.
	AggCount AggKind = iota
	// AggCountDistinct counts distinct assignments to the Over
	// projection (per group).
	AggCountDistinct
	// AggSum sums the operand variable over distinct full answers.
	AggSum
	// AggMin takes the minimum of the operand variable over the answers.
	AggMin
	// AggMax takes the maximum of the operand variable over the answers.
	AggMax
)

// String returns the function keyword of the kind ("count", "sum", …).
func (k AggKind) String() string {
	switch k {
	case AggCount:
		return "count"
	case AggCountDistinct:
		return "count distinct"
	case AggSum:
		return "sum"
	case AggMin:
		return "min"
	case AggMax:
		return "max"
	}
	return fmt.Sprintf("AggKind(%d)", int(k))
}

// AggSpec is one aggregate head over a full conjunctive query:
//
//	count                     — number of distinct answers
//	count distinct(x,y)       — distinct assignments to a projection
//	sum(x) | min(x) | max(x)  — fold of one variable over the answers
//	group g1,g2: <any above>  — the same, per assignment to g1,g2
//
// Answers are the distinct satisfying assignments of the full CQ (the
// same set Evaluate enumerates), so every aggregate here agrees with
// materialise-then-fold — just without the materialisation.
type AggSpec struct {
	Kind AggKind
	// Var is the operand variable of Sum/Min/Max.
	Var string
	// Over is the projection of CountDistinct (at least one variable).
	Over []string
	// GroupBy groups the answers by these variables; empty = one scalar
	// aggregate over the whole answer set.
	GroupBy []string
}

// Validate checks the spec against the query's variables, so a typo
// fails before any planning or execution effort.
func (s AggSpec) Validate(q Query) error {
	vars := map[string]bool{}
	for _, a := range q.Atoms {
		for _, v := range a.Vars {
			vars[v] = true
		}
	}
	checkList := func(what string, list []string, allowEmpty bool) error {
		if !allowEmpty && len(list) == 0 {
			return fmt.Errorf("join: aggregate %s needs at least one variable", what)
		}
		seen := map[string]bool{}
		for _, v := range list {
			if err := checkName(v); err != nil {
				return fmt.Errorf("join: aggregate %s variable %q: %w", what, v, err)
			}
			if !vars[v] {
				return fmt.Errorf("join: aggregate %s variable %q is not a query variable", what, v)
			}
			if seen[v] {
				return fmt.Errorf("join: aggregate %s repeats variable %q", what, v)
			}
			seen[v] = true
		}
		return nil
	}
	switch s.Kind {
	case AggCount:
		if s.Var != "" || len(s.Over) != 0 {
			return fmt.Errorf("join: count takes no operand")
		}
	case AggCountDistinct:
		if s.Var != "" {
			return fmt.Errorf("join: count distinct takes a projection, not an operand variable")
		}
		if err := checkList("count distinct", s.Over, false); err != nil {
			return err
		}
	case AggSum, AggMin, AggMax:
		if len(s.Over) != 0 {
			return fmt.Errorf("join: %s takes a single operand variable", s.Kind)
		}
		if s.Var == "" {
			return fmt.Errorf("join: %s needs an operand variable", s.Kind)
		}
		if err := checkList(s.Kind.String(), []string{s.Var}, false); err != nil {
			return err
		}
	default:
		return fmt.Errorf("join: unknown aggregate kind %d", int(s.Kind))
	}
	return checkList("group by", s.GroupBy, true)
}

// watched returns the variables whose assignments the pushdown must
// carry as partial-aggregate keys, in sorted order: the group-by
// variables, plus the projection for count distinct.
func (s AggSpec) watched() []string {
	set := map[string]bool{}
	for _, v := range s.GroupBy {
		set[v] = true
	}
	if s.Kind == AggCountDistinct {
		for _, v := range s.Over {
			set[v] = true
		}
	}
	out := make([]string, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// groupVars returns the group-by variables in sorted order — the
// canonical column order of AggResult.Groups.
func (s AggSpec) groupVars() []string {
	out := append([]string(nil), s.GroupBy...)
	sort.Strings(out)
	return out
}

// scalar reports whether the spec has no GROUP BY.
func (s AggSpec) scalar() bool { return len(s.GroupBy) == 0 }

// AggResult is one answered aggregate. It is canonical: group columns
// in sorted variable order, group rows in sorted order — repeat answers
// are byte-identical, and pushdown answers comparable to naive folds
// with reflect.DeepEqual.
type AggResult struct {
	// GroupVars are the GROUP BY variables in sorted order; empty for a
	// scalar aggregate.
	GroupVars []string
	// Groups holds one row per group (values aligned with GroupVars,
	// sorted lexicographically). A scalar aggregate has one empty row —
	// except MIN/MAX over an empty answer set, which have no value at
	// all and return zero rows.
	Groups [][]int
	// Values is the aggregate value per group, parallel to Groups.
	Values []int64
}

// Value returns the scalar answer of a no-GROUP-BY aggregate and
// whether one exists (false only for MIN/MAX over an empty answer set,
// or when the result is grouped).
func (r AggResult) Value() (int64, bool) {
	if len(r.GroupVars) == 0 && len(r.Values) == 1 {
		return r.Values[0], true
	}
	return 0, false
}

// AggregateRows folds an already-materialised full-query result — the
// definitional semantics every pushdown answer must reproduce, and the
// naive baseline of the differential wall. rel must be a full answer
// relation (distinct rows over all query variables), as produced by
// Evaluate or EvaluateNaive.
func AggregateRows(rel *Relation, spec AggSpec) (AggResult, error) {
	gVars := spec.groupVars()
	gIdx, err := rel.attrIndex(gVars)
	if err != nil {
		return AggResult{}, err
	}
	var opIdx int
	switch spec.Kind {
	case AggSum, AggMin, AggMax:
		idx, err := rel.attrIndex([]string{spec.Var})
		if err != nil {
			return AggResult{}, err
		}
		opIdx = idx[0]
	}
	var overIdx []int
	if spec.Kind == AggCountDistinct {
		over := append([]string(nil), spec.Over...)
		sort.Strings(over)
		if overIdx, err = rel.attrIndex(over); err != nil {
			return AggResult{}, err
		}
	}

	type acc struct {
		key      []int
		count    int64
		val      int64
		has      bool
		distinct map[string]struct{}
	}
	groups := map[string]*acc{}
	kbuf := make([]byte, 0, 64)
	dbuf := make([]byte, 0, 64)
	for i := 0; i < rel.Size(); i++ {
		kbuf = appendRowKey(kbuf[:0], rel, i, gIdx)
		a := groups[string(kbuf)]
		if a == nil {
			key := make([]int, len(gIdx))
			for k, c := range gIdx {
				key[k] = rel.at(i, c)
			}
			a = &acc{key: key}
			groups[string(kbuf)] = a
		}
		a.count++
		switch spec.Kind {
		case AggCountDistinct:
			if a.distinct == nil {
				a.distinct = map[string]struct{}{}
			}
			dbuf = appendRowKey(dbuf[:0], rel, i, overIdx)
			a.distinct[string(dbuf)] = struct{}{}
		case AggSum:
			a.val += int64(rel.at(i, opIdx))
			a.has = true
		case AggMin:
			if v := int64(rel.at(i, opIdx)); !a.has || v < a.val {
				a.val, a.has = v, true
			}
		case AggMax:
			if v := int64(rel.at(i, opIdx)); !a.has || v > a.val {
				a.val, a.has = v, true
			}
		}
	}

	out := AggResult{GroupVars: gVars}
	for _, a := range groups {
		var v int64
		switch spec.Kind {
		case AggCount:
			v = a.count
		case AggCountDistinct:
			v = int64(len(a.distinct))
		default:
			v = a.val
		}
		out.Groups = append(out.Groups, a.key)
		out.Values = append(out.Values, v)
	}
	sortAggResult(&out)
	fillEmptyScalar(&out, spec)
	return out, nil
}

// sortAggResult orders groups lexicographically by key, keeping Values
// aligned — the canonical form shared by pushdown and naive folds.
func sortAggResult(r *AggResult) {
	ord := make([]int, len(r.Groups))
	for i := range ord {
		ord[i] = i
	}
	sort.Slice(ord, func(a, b int) bool {
		ta, tb := r.Groups[ord[a]], r.Groups[ord[b]]
		for k := range ta {
			if ta[k] != tb[k] {
				return ta[k] < tb[k]
			}
		}
		return false
	})
	groups := make([][]int, len(ord))
	values := make([]int64, len(ord))
	for i, j := range ord {
		groups[i], values[i] = r.Groups[j], r.Values[j]
	}
	r.Groups, r.Values = groups, values
}

// fillEmptyScalar pins down the empty-answer-set semantics: a scalar
// COUNT, COUNT DISTINCT or SUM over zero answers is 0 (one group, like
// SQL's COUNT over an empty table); scalar MIN/MAX have no value, and
// grouped aggregates have no groups.
func fillEmptyScalar(r *AggResult, spec AggSpec) {
	if !spec.scalar() || len(r.Groups) > 0 {
		return
	}
	switch spec.Kind {
	case AggCount, AggCountDistinct, AggSum:
		r.Groups = [][]int{{}}
		r.Values = []int64{0}
	}
}

// aggCell is one partial-aggregate cell: the aggregate state of every
// answer extension that agrees with one carried watched-variable key.
type aggCell struct {
	key   []int // carried watched-variable values (node state order)
	count int64 // distinct extensions below, per key
	val   int64 // running SUM, or MIN/MAX extreme, once the operand resolved
	has   bool  // operand variable was resolved in this subtree
}

// mul combines the cells of two independent branches (disjoint variable
// scopes): extension counts multiply; the operand is resolved in at
// most one branch (resolution points are unique), whose fold scales by
// the other branch's count (SUM) or passes through (MIN/MAX).
func (s AggSpec) mul(a, b aggCell) aggCell {
	out := aggCell{count: a.count * b.count}
	switch s.Kind {
	case AggSum:
		switch {
		case a.has:
			out.val, out.has = a.val*b.count, true
		case b.has:
			out.val, out.has = b.val*a.count, true
		}
	case AggMin, AggMax:
		switch {
		case a.has:
			out.val, out.has = a.val, true
		case b.has:
			out.val, out.has = b.val, true
		}
	}
	return out
}

// addInto merges cell c (same key) into the map slot — the fold over
// alternative child tuples sharing one lifted key.
func (s AggSpec) addInto(m map[string]aggCell, k string, c aggCell) {
	prev, ok := m[k]
	if !ok {
		m[k] = c
		return
	}
	out := aggCell{key: prev.key, count: prev.count + c.count, val: prev.val, has: prev.has}
	switch s.Kind {
	case AggSum:
		out.val += c.val
		out.has = out.has || c.has
	case AggMin:
		if c.has && (!out.has || c.val < out.val) {
			out.val, out.has = c.val, true
		}
	case AggMax:
		if c.has && (!out.has || c.val > out.val) {
			out.val, out.has = c.val, true
		}
	}
	m[k] = out
}

// aggState is the pushdown state of one join-tree node: per bag tuple,
// a map from carried watched-variable key to partial aggregate. vars
// lists the carried variables (sorted): the watched variables resolved
// strictly below this node's bag.
type aggState struct {
	vars  []string
	cells []map[string]aggCell
}

// sortedUnion merges two sorted, disjoint string slices.
func sortedUnion(a, b []string) []string {
	out := make([]string, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] < b[j] {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// keySlots maps each var of union to its source: carried-cell key
// position (carried[i]) or bag-tuple column (cols[i]), one of which is
// -1 per slot.
func keySlots(union, cellVars []string, rel *Relation, liftVars []string) (carried, cols []int, err error) {
	carried = make([]int, len(union))
	cols = make([]int, len(union))
	cellPos := map[string]int{}
	for i, v := range cellVars {
		cellPos[v] = i
	}
	liftSet := map[string]bool{}
	for _, v := range liftVars {
		liftSet[v] = true
	}
	for i, v := range union {
		carried[i], cols[i] = -1, -1
		if p, ok := cellPos[v]; ok {
			carried[i] = p
			continue
		}
		if !liftSet[v] {
			return nil, nil, fmt.Errorf("join: aggregate variable %q has no source at this node", v)
		}
		idx, err := rel.attrIndex([]string{v})
		if err != nil {
			return nil, nil, err
		}
		cols[i] = idx[0]
	}
	return carried, cols, nil
}

// aggregate runs the pushdown DP: bag materialisation, full Yannakakis
// reduction (both semijoin passes, so every surviving tuple and carried
// key belongs to at least one real answer and partial states stay
// bounded by the answer's group count), then a bottom-up fold of keyed
// partial aggregates. No answer row is ever materialised.
func (e *executor) aggregate(q Query, db Database, d *decomp.Decomp, spec AggSpec) (AggResult, error) {
	root, err := e.reduce(q, db, d)
	if err != nil {
		return AggResult{}, err
	}
	return e.aggregateTree(root, spec)
}

// aggregateTree folds the partial aggregates of a reduced join tree
// bottom-up into the answer — aggregate's back half.
func (e *executor) aggregateTree(root *bagNode, spec AggSpec) (AggResult, error) {
	watched := spec.watched()
	st, err := e.aggNode(root, spec, watched, nil)
	if err != nil {
		return AggResult{}, err
	}
	return e.aggFold(root, spec, watched, st)
}

// aggNode computes the node's partial-aggregate state bottom-up. parent
// is the parent bag relation (nil at the root); it determines which
// watched variables — and possibly the operand — resolve when this
// node's state is lifted into the parent, which happens in the caller
// via liftChild.
func (e *executor) aggNode(n *bagNode, spec AggSpec, watched []string, parent *Relation) (aggState, error) {
	childStates := make([]aggState, len(n.children))
	for i, c := range n.children {
		var err error
		if childStates[i], err = e.aggNode(c, spec, watched, n.rel); err != nil {
			return aggState{}, err
		}
	}

	// Start every bag tuple at the multiplicative unit: one extension
	// (itself), nothing carried, operand unresolved.
	state := aggState{cells: make([]map[string]aggCell, n.rel.Size())}
	for i := range state.cells {
		state.cells[i] = map[string]aggCell{"": {count: 1}}
	}
	for ci, c := range n.children {
		// One shared-attribute list orders the key on both sides: the
		// child is indexed and the parent probes in this order, whatever
		// order either bag lists its columns in.
		shared := sharedAttrs(n.rel, c.rel)
		contribIx, contrib, liftedVars, err := e.liftChild(n, c, shared, childStates[ci], spec, watched)
		if err != nil {
			return aggState{}, err
		}
		union := sortedUnion(state.vars, liftedVars)
		fromA := make([]int, len(union))
		fromB := make([]int, len(union))
		posA, posB := map[string]int{}, map[string]int{}
		for i, v := range state.vars {
			posA[v] = i
		}
		for i, v := range liftedVars {
			posB[v] = i
		}
		for i, v := range union {
			fromA[i], fromB[i] = -1, -1
			if p, ok := posA[v]; ok {
				fromA[i] = p
			} else {
				fromB[i] = posB[v]
			}
		}

		nIdx, err := n.rel.attrIndex(shared)
		if err != nil {
			return aggState{}, err
		}
		kbuf := make([]byte, 0, 8*len(union))
		for i := 0; i < n.rel.Size(); i++ {
			if err := e.g.poll(i); err != nil {
				return aggState{}, err
			}
			var m map[string]aggCell
			if b, ok := contribIx.lookupRow(n.rel, nIdx, i); ok {
				m = contrib[b]
			}
			acc := state.cells[i]
			next := make(map[string]aggCell, len(acc)*len(m))
			for _, a := range acc {
				for _, b := range m {
					cell := spec.mul(a, b)
					key := make([]int, len(union))
					for k := range union {
						if fromA[k] >= 0 {
							key[k] = a.key[fromA[k]]
						} else {
							key[k] = b.key[fromB[k]]
						}
					}
					cell.key = key
					kbuf = appendValsKey(kbuf[:0], key)
					next[string(kbuf)] = cell
				}
			}
			// After full reduction every carried key extends to a real
			// answer, so a per-tuple state larger than the row budget
			// means the grouped answer itself would blow the budget.
			if err := e.g.checkRows(len(next)); err != nil {
				return aggState{}, err
			}
			state.cells[i] = next
		}
		state.vars = union
	}
	return state, nil
}

// liftChild folds a child's per-tuple state into per-join-key
// contribution maps for the parent's probe: each child tuple resolves
// the watched variables (and the operand) that leave scope at this edge
// — the variables in the child's bag but not the parent's — and
// alternative child tuples with one lifted key sum. The result is a
// hash index of the child on shared (key columns in that order) plus
// one keyed cell map (over liftedVars) per index bucket; the parent
// looks its join key up in the index and reads the bucket's map — no
// join-key strings are built on either side.
func (e *executor) liftChild(n, c *bagNode, shared []string, st aggState, spec AggSpec, watched []string) (*hashIndex, []map[string]aggCell, []string, error) {
	parentHas := map[string]bool{}
	for _, a := range n.rel.Attrs {
		parentHas[a] = true
	}
	childHas := map[string]bool{}
	for _, a := range c.rel.Attrs {
		childHas[a] = true
	}
	var liftVars []string
	for _, v := range watched {
		if childHas[v] && !parentHas[v] {
			liftVars = append(liftVars, v)
		}
	}
	liftedVars := sortedUnion(st.vars, liftVars)
	carried, cols, err := keySlots(liftedVars, st.vars, c.rel, liftVars)
	if err != nil {
		return nil, nil, nil, err
	}

	resolveOp := false
	var opCol int
	switch spec.Kind {
	case AggSum, AggMin, AggMax:
		if childHas[spec.Var] && !parentHas[spec.Var] {
			idx, err := c.rel.attrIndex([]string{spec.Var})
			if err != nil {
				return nil, nil, nil, err
			}
			resolveOp, opCol = true, idx[0]
		}
	}

	// One fresh index over all of c.rel: bucketOf needs a single index
	// covering every row, which a maintained multi-layer stack is not.
	keyCols, err := c.rel.attrIndex(shared)
	if err != nil {
		return nil, nil, nil, err
	}
	ix, err := buildIndexCols(c.rel, keyCols, 0, c.rel.Size(), e.g)
	if err != nil {
		return nil, nil, nil, err
	}
	e.stats.IndexBuilds++
	contrib := make([]map[string]aggCell, len(ix.first))
	kbuf := make([]byte, 0, 8*len(liftedVars))
	for j := 0; j < c.rel.Size(); j++ {
		if err := e.g.poll(j); err != nil {
			return nil, nil, nil, err
		}
		b := ix.bucketOf(j)
		m := contrib[b]
		if m == nil {
			m = map[string]aggCell{}
			contrib[b] = m
		}
		for _, cell := range st.cells[j] {
			lifted := cell
			if resolveOp && !lifted.has {
				v := int64(c.rel.at(j, opCol))
				if spec.Kind == AggSum {
					v *= lifted.count
				}
				lifted.val, lifted.has = v, true
			}
			key := make([]int, len(liftedVars))
			for k := range liftedVars {
				if carried[k] >= 0 {
					key[k] = cell.key[carried[k]]
				} else {
					key[k] = c.rel.at(j, cols[k])
				}
			}
			lifted.key = key
			kbuf = appendValsKey(kbuf[:0], key)
			spec.addInto(m, string(kbuf), lifted)
		}
	}
	e.stats.IndexProbes += int64(c.rel.Size())
	return ix, contrib, liftedVars, nil
}

// aggFold resolves the watched variables still bound by the root bag,
// merges every root tuple's cells into the global group map, and shapes
// the canonical AggResult.
func (e *executor) aggFold(root *bagNode, spec AggSpec, watched []string, st aggState) (AggResult, error) {
	rootHas := map[string]bool{}
	for _, a := range root.rel.Attrs {
		rootHas[a] = true
	}
	var liftVars []string
	for _, v := range watched {
		if rootHas[v] {
			liftVars = append(liftVars, v)
		}
	}
	// watched = st.vars ⊎ liftVars: every watched variable resolves
	// below the root or in the root bag.
	carried, cols, err := keySlots(watched, st.vars, root.rel, liftVars)
	if err != nil {
		return AggResult{}, err
	}
	resolveOp := false
	var opCol int
	switch spec.Kind {
	case AggSum, AggMin, AggMax:
		if rootHas[spec.Var] {
			idx, err := root.rel.attrIndex([]string{spec.Var})
			if err != nil {
				return AggResult{}, err
			}
			resolveOp, opCol = true, idx[0]
		}
	}

	global := map[string]aggCell{}
	kbuf := make([]byte, 0, 8*len(watched))
	for i := 0; i < root.rel.Size(); i++ {
		if err := e.g.poll(i); err != nil {
			return AggResult{}, err
		}
		for _, cell := range st.cells[i] {
			final := cell
			if resolveOp && !final.has {
				v := int64(root.rel.at(i, opCol))
				if spec.Kind == AggSum {
					v *= final.count
				}
				final.val, final.has = v, true
			}
			key := make([]int, len(watched))
			for k := range watched {
				if carried[k] >= 0 {
					key[k] = cell.key[carried[k]]
				} else {
					key[k] = root.rel.at(i, cols[k])
				}
			}
			final.key = key
			kbuf = appendValsKey(kbuf[:0], key)
			spec.addInto(global, string(kbuf), final)
		}
		if err := e.g.checkRows(len(global)); err != nil {
			return AggResult{}, err
		}
	}

	out := AggResult{GroupVars: spec.groupVars()}
	if spec.Kind == AggCountDistinct {
		// The global keys range over group ∪ projection variables; each
		// key is one distinct projection assignment within its group.
		gPos := make([]int, len(out.GroupVars))
		for i, v := range out.GroupVars {
			gPos[i] = sort.SearchStrings(watched, v)
		}
		counts := map[string]*aggCell{}
		for _, cell := range global {
			gk := make([]int, len(gPos))
			for i, p := range gPos {
				gk[i] = cell.key[p]
			}
			kbuf = appendValsKey(kbuf[:0], gk)
			a := counts[string(kbuf)]
			if a == nil {
				counts[string(kbuf)] = &aggCell{key: gk, count: 1}
			} else {
				a.count++
			}
		}
		for _, a := range counts {
			out.Groups = append(out.Groups, a.key)
			out.Values = append(out.Values, a.count)
		}
	} else {
		for _, cell := range global {
			var v int64
			switch spec.Kind {
			case AggCount:
				v = cell.count
			default:
				if !cell.has {
					return AggResult{}, fmt.Errorf("join: aggregate operand %q left unresolved (invalid join tree?)", spec.Var)
				}
				v = cell.val
			}
			out.Groups = append(out.Groups, cell.key)
			out.Values = append(out.Values, v)
		}
	}
	sortAggResult(&out)
	fillEmptyScalar(&out, spec)
	return out, nil
}

// AggregateCtx answers an aggregate head over the full conjunctive query
// by pushdown over the decomposition's join tree, under a context and
// per-query limits, on the budgeted indexed kernel: bag materialisation
// and the two semijoin passes honour ctx cancellation and the row
// budget exactly like EvaluateCtx, and the partial
// aggregate states count against MaxRows through the group cardinality
// (a grouped answer larger than the budget aborts with ErrRowBudget —
// but a huge *answer set* folded into a few groups does not, which is
// the whole point of pushing aggregates down).
func AggregateCtx(ctx context.Context, q Query, db Database, d *decomp.Decomp, spec AggSpec, opts EvalOptions) (AggResult, error) {
	if err := spec.Validate(q); err != nil {
		return AggResult{}, err
	}
	return runExecutor(ctx, opts, func(e *executor) (AggResult, error) {
		return e.aggregate(q, db, d, spec)
	})
}
