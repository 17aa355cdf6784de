package join

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
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

// ErrAggregateOverflow is returned (wrapped) when a COUNT or SUM leaves
// the int64 range, or, for a SUM, one of the partial sums the pushdown
// adds up does. MIN, MAX and COUNT DISTINCT never overflow, however
// many answers they fold.
var ErrAggregateOverflow = errors.New("join: aggregate overflows int64")

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
// same set EvaluateCtx enumerates), so every aggregate here agrees with
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
// EvaluateCtx or EvaluateNaive.
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
			if a.val, err = addInt64(a.val, int64(rel.at(i, opIdx))); err != nil {
				return AggResult{}, err
			}
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
	count int64 // distinct extensions below, per key, or overflowed
	val   int64 // running SUM, or MIN/MAX extreme, once the operand resolved
	has   bool  // operand variable was resolved in this subtree
}

// mul combines the cells of two independent branches (disjoint variable
// scopes): extension counts multiply; the operand is resolved in at
// most one branch (resolution points are unique), whose fold scales by
// the other branch's count (SUM) or passes through (MIN/MAX).
func (s *AggSpec) mul(a, b aggCell) (aggCell, error) {
	if b.has {
		a, b = b, a
	}
	out := aggCell{count: countOp(mulInt64, a.count, b.count), val: a.val, has: a.has}
	var err error
	if s.Kind == AggSum {
		out.val, err = scale(a.val, b.count)
	}
	return out, err
}

// add merges two cells of one key: the fold over alternative
// extensions that carry the same key.
func (s *AggSpec) add(a, c aggCell) (aggCell, error) {
	out := aggCell{count: countOp(addInt64, a.count, c.count), val: a.val, has: a.has || c.has}
	var err error
	switch {
	case s.Kind == AggSum:
		out.val, err = addInt64(a.val, c.val)
	case c.has && (!a.has || s.Kind == AggMin && c.val < a.val || s.Kind == AggMax && c.val > a.val):
		out.val = c.val
	}
	return out, err
}

// overflowed is the extension count past int64. Counts saturate there
// rather than fail — they only grow, so an overflowed count stays so —
// and only the readers of a count fail on it: a COUNT's answer, and a
// SUM scaling a non-zero value. MIN, MAX and COUNT DISTINCT never read
// it, so they answer however many extensions there are.
const overflowed = -1

// countOp is op on two extension counts, saturating at overflowed.
func countOp(op func(a, b int64) (int64, error), a, b int64) int64 {
	if c, err := op(a, b); err == nil && a != overflowed && b != overflowed {
		return c
	}
	return overflowed
}

// scale is a SUM's val counted count times.
func scale(val, count int64) (int64, error) {
	if count == overflowed && val != 0 {
		return 0, fmt.Errorf("%w: %d times a count past int64", ErrAggregateOverflow, val)
	}
	return mulInt64(val, count)
}

// addInt64 and mulInt64 are int64 + and * that fail with
// ErrAggregateOverflow instead of wrapping.
func addInt64(a, b int64) (int64, error) {
	c := a + b
	if (c > a) != (b > 0) {
		return 0, fmt.Errorf("%w: %d + %d", ErrAggregateOverflow, a, b)
	}
	return c, nil
}

func mulInt64(a, b int64) (int64, error) {
	c := a * b
	if a != 0 && (c/a != b || a == -1 && b == math.MinInt64) {
		return 0, fmt.Errorf("%w: %d * %d", ErrAggregateOverflow, a, b)
	}
	return c, nil
}

// aggCells is the pushdown state of one join-tree node as flat cell
// lists, one per owner: a bag row, or a join-key bucket of a bag lifted
// into its parent. Owner o holds cells[start[o]:start[o+1]]; cell j's
// key, its values of vars, is keys[j*len(vars):(j+1)*len(vars)]. The
// keys of one owner are distinct.
type aggCells struct {
	vars  []string
	start []int
	cells []aggCell
	keys  []int
}

func (st *aggCells) key(j int) []int {
	w := len(st.vars)
	return st.keys[j*w : (j+1)*w]
}

// keysOn returns every cell's key projected onto vars, flat like keys.
func (st *aggCells) keysOn(vars []string) []int {
	pos := make([]int, len(vars))
	for i, v := range vars {
		pos[i] = slices.Index(st.vars, v)
	}
	out := make([]int, 0, len(st.cells)*len(vars))
	for j := range st.cells {
		k := st.key(j)
		for _, p := range pos {
			out = append(out, k[p])
		}
	}
	return out
}

// cellTable finds the cell of a key among those an aggCells gained
// since its current owner began: an open-addressing table of cell ids
// + 1, hashed on the owner and the key and sized for every cell the
// aggCells will hold, so one table serves all its owners.
type cellTable struct {
	slots []int32
	mask  uint64
}

func newCellTable(n int) cellTable {
	size := tableSize(n)
	return cellTable{slots: make([]int32, size), mask: uint64(size - 1)}
}

// grow doubles a table whose cells all belong to owner 0 of out.
func (t *cellTable) grow(out *aggCells) {
	*t = newCellTable(len(t.slots))
	for id := range out.cells {
		j := hashMix(hashVals(out.key(id)), 0) & t.mask
		for t.slots[j] != 0 {
			j = (j + 1) & t.mask
		}
		t.slots[j] = int32(id) + 1
	}
}

// merge adds c under key to owner o of out, whose cells start at lo:
// into the cell with an equal key, or as a new cell.
func (t cellTable) merge(out *aggCells, o, lo int, key []int, c aggCell, spec *AggSpec) error {
	for j := hashMix(hashVals(key), uint64(o)) & t.mask; ; j = (j + 1) & t.mask {
		id := int(t.slots[j]) - 1
		if id < 0 {
			t.slots[j] = int32(len(out.cells)) + 1
			out.cells = append(out.cells, c)
			out.keys = append(out.keys, key...)
			return nil
		}
		if id >= lo && slices.Equal(out.key(id), key) {
			var err error
			out.cells[id], err = spec.add(out.cells[id], c)
			return err
		}
	}
}

// aggregate runs the pushdown DP over the bags of the plan's join tree.
// No answer row is ever materialised.
//
// A keyless plan — every watched variable lies in the root bag — folds
// top-down. No cell below the root carries a key, so a child's state is
// one cell per bucket of its index on the key it shares with its
// parent, and the fold (foldTree, foldRoot) probes those indexes from
// the root down, folding each bucket the first time a row reaches it.
// Only rows that join their way up to the root are touched, which is
// the reduction the semijoin passes would buy, with no copy. A
// server-resident bag (one carrying an IndexSet: a base view, or a
// cached or carried bag) is probed through the index the snapshot
// already holds; any other bag gets one index built. The atoms hosted
// at a bag are probed per row the same way (build defers them under
// deferHosted).
//
// The fold may add up a bucket no answer reaches: one probed by a row
// whose own probes all hit, but which an empty bucket of another child,
// its own or an ancestor's, rules out afterwards. Counts saturate and
// only the answer reads them, so COUNT, COUNT DISTINCT, MIN and MAX
// answer as the reduced route would; but a SUM's partial sum in such a
// bucket is checked too, and can fail the query with
// ErrAggregateOverflow where the reduced route, which never adds it up,
// answers (TestAggregateFoldSumOverflowScope).
//
// A keyed plan takes the reduced route: both semijoin passes (so every
// surviving tuple and carried key belongs to at least one real answer
// and partial states stay bounded by the answer's group count), then a
// bottom-up fold of keyed partial aggregates (aggregateTree). A keyless
// plan would hold the same states against MaxRows on that route — at
// most one cell per row or bucket below the root, and the answer's
// groups at the root — so the fold fails the budget exactly where the
// reduced route would.
func (e *executor) aggregate(q Query, db Database, d *decomp.Decomp, spec AggSpec) (AggResult, error) {
	tree, coverOf, err := execTree(q, d)
	if err != nil {
		return AggResult{}, err
	}
	watched := spec.watched()
	e.deferHosted = true
	for _, v := range watched {
		if id, ok := d.H.VertexID(v); !ok || !tree.Bag.Test(id) {
			e.deferHosted = false
		}
	}
	root, err := e.build(q, db, d, coverOf, tree)
	if err != nil {
		return AggResult{}, err
	}
	if e.deferHosted {
		f, err := e.foldTree(root, nil, spec)
		if err != nil {
			return AggResult{}, err
		}
		st, err := e.foldRoot(f, spec, watched)
		if err != nil {
			return AggResult{}, err
		}
		return answer(st, spec)
	}
	if err := e.up(root, false); err != nil {
		return AggResult{}, err
	}
	if err := e.down(root); err != nil {
		return AggResult{}, err
	}
	return e.aggregateTree(root, spec)
}

// foldNode is one bag of the top-down fold. Below the root it holds the
// index its parent probes it through, on the key columns they share,
// and the cells of the buckets probed so far.
type foldNode struct {
	rel    *Relation
	hosted []hostedProbe
	kids   []*foldNode
	// opCol is the column of the operand of a SUM, MIN or MAX when it
	// leaves scope at this bag, else -1.
	opCol int
	ix    *hashIndex
	pCols []int // the parent's columns of ix's key
	// memo holds, per bucket id of ix, 1 + the index of the bucket's
	// cell in cells, or 0 while no row has probed the bucket.
	memo  []int32
	cells []aggCell
	// bkt is rowCell's scratch: per kid, the bucket the current row
	// probes.
	bkt []int32
}

// hostedProbe is a hosted atom's index stack and the bag columns that
// probe it.
type hostedProbe struct {
	cols  []int
	stack []*hashIndex
}

// foldTree prepares n's subtree for the fold; parent holds the parent
// bag's attribute positions, nil at the root. Each child is probed
// through the index probeStack returns — the child's own maintained or
// captured index, or one built (and captured, for a server-resident
// bag) on a miss. A stack of several layers numbers its buckets per
// layer, so the child gets one fresh index over all its rows instead.
func (e *executor) foldTree(n *bagNode, parent map[string]int, spec AggSpec) (*foldNode, error) {
	f := &foldNode{rel: n.rel, opCol: -1}
	switch spec.Kind {
	case AggSum, AggMin, AggMax:
		c, ok := n.rel.pos[spec.Var]
		if _, kept := parent[spec.Var]; ok && !kept {
			f.opCol = c
		}
	}
	for _, r := range n.hosted {
		shared := sharedAttrs(n.rel, r)
		stack, err := e.probeStack(r, shared)
		if err != nil {
			return nil, err
		}
		cols, err := n.rel.attrIndex(shared)
		if err != nil {
			return nil, err
		}
		f.hosted = append(f.hosted, hostedProbe{cols: cols, stack: stack})
	}
	for _, c := range n.children {
		k, err := e.foldTree(c, n.rel.pos, spec)
		if err != nil {
			return nil, err
		}
		shared := sharedAttrs(n.rel, c.rel)
		stack, err := e.probeStack(c.rel, shared)
		if err != nil {
			return nil, err
		}
		k.ix = stack[0]
		if len(stack) > 1 {
			if k.ix, err = buildIndexCols(c.rel, stack[0].cols, 0, c.rel.Size(), e.g); err != nil {
				return nil, err
			}
			e.stats.IndexBuilds++
		}
		if k.pCols, err = n.rel.attrIndex(shared); err != nil {
			return nil, err
		}
		k.memo = make([]int32, len(k.ix.starts)-1)
		f.kids = append(f.kids, k)
	}
	f.bkt = make([]int32, len(f.kids))
	return f, nil
}

// foldRoot folds the root's rows by their key on watched, every one of
// which is a root column: one cell per group, held to the row budget as
// the groups grow.
func (e *executor) foldRoot(f *foldNode, spec AggSpec, watched []string) (aggCells, error) {
	cols, err := f.rel.attrIndex(watched)
	if err != nil {
		return aggCells{}, err
	}
	out := aggCells{vars: watched, keys: []int{}} // a scalar's group is [], not nil
	t := newCellTable(1)
	key := make([]int, len(cols))
	for i := 0; i < f.rel.Size(); i++ {
		if err := e.g.poll(i); err != nil {
			return aggCells{}, err
		}
		c, err := e.rowCell(f, i, &spec)
		if err != nil {
			return aggCells{}, err
		}
		if c.count == 0 {
			continue
		}
		for k, col := range cols {
			key[k] = f.rel.at(i, col)
		}
		if err := t.merge(&out, 0, 0, key, c, &spec); err != nil {
			return aggCells{}, err
		}
		if err := e.g.checkRows(len(out.cells)); err != nil {
			return aggCells{}, err
		}
		if 2*len(out.cells) > len(t.slots) {
			t.grow(&out)
		}
	}
	return out, nil
}

// rowCell is the cell of row j of f's bag: the product of the cells of
// the child buckets it joins, with the operand resolved when it leaves
// scope here. A zero count means the row extends to no answer: a
// hosted atom or a child has no row it joins. Every probe of the row
// runs before any bucket is folded, and a product's overflow fails the
// row only once every bucket is known to be live, so a row that a
// probe or an empty bucket rules out fails nothing of its own (see
// aggregate on what a SUM may still add up).
func (e *executor) rowCell(f *foldNode, j int, spec *AggSpec) (aggCell, error) {
	for h := range f.hosted {
		e.stats.IndexProbes++
		if !stackHit(f.hosted[h].stack, f.rel, f.hosted[h].cols, j) {
			return aggCell{}, nil
		}
	}
	for i, k := range f.kids {
		e.stats.IndexProbes++
		b, ok := k.ix.lookupRow(f.rel, k.pCols, j)
		if !ok {
			return aggCell{}, nil
		}
		f.bkt[i] = b
	}
	cell := aggCell{count: 1}
	var mulErr error
	for i, k := range f.kids {
		kc, err := e.bucketCell(k, f.bkt[i], spec)
		if err != nil || kc.count == 0 {
			return aggCell{}, err
		}
		if mulErr == nil {
			cell, mulErr = spec.mul(cell, kc)
		}
	}
	if mulErr != nil {
		return aggCell{}, mulErr
	}
	if f.opCol >= 0 {
		cell.val, cell.has = int64(f.rel.at(j, f.opCol)), true
		if spec.Kind == AggSum {
			var err error
			if cell.val, err = scale(cell.val, cell.count); err != nil {
				return aggCell{}, err
			}
		}
	}
	return cell, nil
}

// bucketCell is the cell of bucket b of k's index: the sum of its rows'
// cells, folded on the first call and memoised.
func (e *executor) bucketCell(k *foldNode, b int32, spec *AggSpec) (aggCell, error) {
	if m := k.memo[b]; m > 0 {
		return k.cells[m-1], nil
	}
	var sum aggCell
	for p := k.ix.starts[b]; p < k.ix.starts[b+1]; p++ {
		if err := e.g.poll(int(p)); err != nil {
			return aggCell{}, err
		}
		c, err := e.rowCell(k, int(k.ix.perm[p]), spec)
		if err == nil && c.count != 0 {
			sum, err = spec.add(sum, c)
		}
		if err != nil {
			return aggCell{}, err
		}
	}
	k.cells = append(k.cells, sum)
	k.memo[b] = int32(len(k.cells))
	return sum, nil
}

// aggregateTree folds the partial aggregates of a reduced join tree
// bottom-up into the answer — the reduced route's back half. The root
// is lifted into a parent with no attributes (a nil position map), on
// an index with no key columns: its one bucket's cells are keyed by
// every watched variable.
func (e *executor) aggregateTree(root *bagNode, spec AggSpec) (AggResult, error) {
	watched := spec.watched()
	st, err := e.aggNode(root, spec, watched)
	if err != nil {
		return AggResult{}, err
	}
	ix, err := buildIndexCols(root.rel, nil, 0, root.rel.Size(), e.g)
	if err != nil {
		return AggResult{}, err
	}
	if st, err = e.lift(root.rel, st, nil, ix, spec, watched); err != nil {
		return AggResult{}, err
	}
	return answer(st, spec)
}

// answer turns the root's state — one cell per distinct key on the
// watched variables — into the canonical result.
func answer(st aggCells, spec AggSpec) (AggResult, error) {
	out := AggResult{GroupVars: spec.groupVars()}
	g := len(out.GroupVars)
	groups := st.keysOn(out.GroupVars)
	if spec.Kind == AggCountDistinct {
		// Each cell is one distinct projection assignment within its
		// group: regroup the cells by the group variables, counting.
		byGroup := aggCells{vars: out.GroupVars, keys: []int{}} // a scalar's group is [], not nil
		t := newCellTable(len(st.cells))
		for j := range st.cells {
			if err := t.merge(&byGroup, 0, 0, groups[j*g:(j+1)*g], aggCell{count: 1}, &spec); err != nil {
				return AggResult{}, err
			}
		}
		st, groups = byGroup, byGroup.keys
	}
	for j, c := range st.cells {
		v := c.count
		switch spec.Kind {
		case AggCount, AggCountDistinct:
			if v == overflowed {
				return AggResult{}, fmt.Errorf("%w: %s", ErrAggregateOverflow, spec.Kind)
			}
		case AggSum, AggMin, AggMax:
			if !c.has {
				return AggResult{}, fmt.Errorf("join: aggregate operand %q left unresolved (invalid join tree?)", spec.Var)
			}
			v = c.val
		}
		out.Groups = append(out.Groups, groups[j*g:(j+1)*g:(j+1)*g])
		out.Values = append(out.Values, v)
	}
	sortAggResult(&out)
	fillEmptyScalar(&out, spec)
	return out, nil
}

// aggNode computes the node's partial-aggregate state bottom-up over a
// reduced join tree, one owner per bag row — the reduced route's fold.
// Every row starts at the multiplicative unit (one extension, itself,
// with nothing carried); each child is lifted into per-join-key
// buckets, and a row's cells become the products of its cells with its
// bucket's. The two sides carry disjoint variables and each side's keys
// are distinct, so the products need no merge.
func (e *executor) aggNode(n *bagNode, spec AggSpec, watched []string) (aggCells, error) {
	size := n.rel.Size()
	st := aggCells{start: identCols(size + 1), cells: make([]aggCell, size)}
	for i := range st.cells {
		st.cells[i] = aggCell{count: 1}
	}
	for _, c := range n.children {
		sub, err := e.aggNode(c, spec, watched)
		if err != nil {
			return aggCells{}, err
		}
		// One shared-attribute list orders the key on both sides: the
		// child is indexed and the parent probes in this order, whatever
		// order either bag lists its columns in. The index is built
		// fresh: the down pass left c.rel a semijoin output, which
		// nothing has indexed.
		shared := sharedAttrs(n.rel, c.rel)
		cIdx, err := c.rel.attrIndex(shared)
		if err != nil {
			return aggCells{}, err
		}
		ix, err := buildIndexCols(c.rel, cIdx, 0, c.rel.Size(), e.g)
		if err != nil {
			return aggCells{}, err
		}
		e.stats.IndexBuilds++
		if sub, err = e.lift(c.rel, sub, n.rel.pos, ix, spec, watched); err != nil {
			return aggCells{}, err
		}
		e.stats.IndexProbes += int64(c.rel.Size())
		nIdx, err := n.rel.attrIndex(shared)
		if err != nil {
			return aggCells{}, err
		}
		next := aggCells{vars: slices.Concat(st.vars, sub.vars), start: make([]int, 1, size+1), cells: make([]aggCell, 0, size)}
		for i := 0; i < size; i++ {
			if err := e.g.poll(i); err != nil {
				return aggCells{}, err
			}
			if b, ok := ix.lookupRow(n.rel, nIdx, i); ok {
				for a := st.start[i]; a < st.start[i+1]; a++ {
					for j := sub.start[b]; j < sub.start[b+1]; j++ {
						cell, err := spec.mul(st.cells[a], sub.cells[j])
						if err != nil {
							return aggCells{}, err
						}
						next.cells = append(next.cells, cell)
						next.keys = append(append(next.keys, st.key(a)...), sub.key(j)...)
					}
				}
			}
			next.start = append(next.start, len(next.cells))
			// After full reduction every carried key extends to a real
			// answer, so a row's state larger than the row budget means
			// the grouped answer itself would blow the budget.
			if err := e.g.checkRows(next.start[i+1] - next.start[i]); err != nil {
				return aggCells{}, err
			}
		}
		st = next
	}
	return st, nil
}

// lift folds the state of bag rel into one owner per bucket of ix, its
// index on the join key with the parent whose attribute positions are
// parent: each row resolves the watched variables, and the operand,
// that leave scope at this edge (those of rel that parent lacks), and
// the cells of one bucket with equal keys merge. A bucket's cell count is held to the row budget as it grows;
// at the root it is the group count, and below it never exceeds the
// state of a parent row that probes the bucket.
func (e *executor) lift(rel *Relation, st aggCells, parent map[string]int, ix *hashIndex, spec AggSpec, watched []string) (aggCells, error) {
	leaves := func(v string) (int, bool) {
		c, ok := rel.pos[v]
		_, kept := parent[v]
		return c, ok && !kept
	}
	out := aggCells{vars: slices.Clone(st.vars), start: make([]int, 1, len(ix.starts))}
	var cols []int
	for _, v := range watched {
		if c, ok := leaves(v); ok {
			out.vars = append(out.vars, v)
			cols = append(cols, c)
		}
	}
	opCol, resolve := -1, false
	switch spec.Kind {
	case AggSum, AggMin, AggMax:
		opCol, resolve = leaves(spec.Var)
	}

	t := newCellTable(len(st.cells))
	w := len(st.vars)
	key := make([]int, len(out.vars))
	var err error
	for b := 0; b+1 < len(ix.starts); b++ {
		lo := len(out.cells)
		for p := int(ix.starts[b]); p < int(ix.starts[b+1]); p++ {
			if err = e.g.poll(p); err != nil {
				return aggCells{}, err
			}
			j := int(ix.perm[p])
			for k, c := range cols {
				key[w+k] = rel.at(j, c)
			}
			for a := st.start[j]; a < st.start[j+1]; a++ {
				cell := st.cells[a]
				if resolve && !cell.has {
					cell.val, cell.has = int64(rel.at(j, opCol)), true
					if spec.Kind == AggSum {
						if cell.val, err = scale(cell.val, cell.count); err != nil {
							return aggCells{}, err
						}
					}
				}
				copy(key, st.key(a))
				if err = t.merge(&out, b, lo, key, cell, &spec); err != nil {
					return aggCells{}, err
				}
			}
			if err = e.g.checkRows(len(out.cells) - lo); err != nil {
				return aggCells{}, err
			}
		}
		out.start = append(out.start, len(out.cells))
	}
	return out, nil
}

// AggregateCtx answers an aggregate head over the full conjunctive query
// by pushdown over the decomposition's join tree, under a context and
// per-query limits, on the budgeted indexed kernel: bag materialisation
// and the fold honour ctx cancellation and the row budget exactly like
// EvaluateCtx, and the partial
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
