package join

import (
	"fmt"
	"slices"
	"sync"
)

// Maintained relations: the storage side of incremental evaluation.
//
// An MRel owns one base relation of a named dataset and keeps its hash
// indexes *maintained* across insert/delete deltas instead of letting
// every query rebuild them:
//
//   - the base is append-only columnar storage (arena.go); an insert
//     delta of k tuples costs O(k) appends plus one O(k) index layer
//     per registered column set;
//   - deletes tombstone rows and compact the live rows into fresh
//     storage when the owning batch commits, so published snapshots
//     are always dense and queries never see (or filter) dead rows;
//   - every commit publishes an immutable copy-on-write view: the
//     chunk-pointer headers are cloned (cheap — a few words per 4096
//     values) while the value chunks are shared. The writer only ever
//     appends at rows ≥ the view's count, so in-flight queries read a
//     frozen version while the writer advances — snapshot isolation
//     without any lock on the query path.
//
// Index maintenance is layered: each registered column set holds a
// stack of immutable range indexes over disjoint ascending row ranges
// (buildIndexCols). Probing the layers in stack order enumerates
// matches in exactly the row order of one full index, which is what
// keeps incremental results byte-identical to a from-scratch run. The
// stack collapses into a single full index when it grows past
// maxIndexLayers, bounding probe fan-out.
//
// Column sets are discovered, not declared: the executor's
// capture-on-miss (exec.go probeStack) records each set it had to
// build into the view's IndexSet, and the next commit adopts those
// sets for delta maintenance. The all-columns "rowset" set is always
// maintained — it is the mutation path's own point-lookup structure
// (insert dedup, delete-by-value).

const (
	// maxIndexSets bounds the column sets maintained per relation (the
	// all-columns rowset included); sets beyond the cap are still built
	// per query, just not maintained.
	maxIndexSets = 6
	// maxIndexLayers is the layer-stack depth that triggers a collapse
	// into one full index at the next commit.
	maxIndexLayers = 8
)

// IndexSet is the maintained-index registry carried by server-resident
// relations: dataset snapshot views and the bags of a BagCache.
// It maps a column-position set to an immutable stack of index layers.
// Lookups and capture-on-miss stores run concurrently from query
// executors; stacks are never mutated once stored.
type IndexSet struct {
	mu sync.Mutex
	m  map[string][]*hashIndex
}

func newIndexSet() *IndexSet {
	return &IndexSet{m: make(map[string][]*hashIndex, maxIndexSets)}
}

// colsKey encodes column positions with the package's injective
// fixed-width key encoding; keying by position (not attribute name)
// makes the registry invariant under atom renaming.
func colsKey(cols []int) string {
	b := make([]byte, 0, 8*len(cols))
	for _, c := range cols {
		b = appendKeyVal(b, uint64(c))
	}
	return string(b)
}

// lookup returns the layer stack for cols, nil when absent.
func (s *IndexSet) lookup(cols []int) []*hashIndex {
	key := colsKey(cols)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.m[key]
}

// store publishes stack for cols and returns the stack to probe. When
// a concurrent executor won the race the prior stack wins — both index
// identical rows, and first-wins keeps every query at this version
// probing one structure. At the set limit the stack is returned
// unstored: still usable for the calling query, just not retained.
func (s *IndexSet) store(cols []int, stack []*hashIndex) []*hashIndex {
	key := colsKey(cols)
	s.mu.Lock()
	defer s.mu.Unlock()
	if prior, ok := s.m[key]; ok {
		return prior
	}
	if len(s.m) < maxIndexSets {
		s.m[key] = stack
	}
	return stack
}

// indexEntry is one registered column set and its layer stack.
type indexEntry struct {
	cols  []int
	stack []*hashIndex
}

// entries snapshots the registry — the commit path reads it to adopt
// query-captured sets into delta maintenance.
func (s *IndexSet) entries() []indexEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]indexEntry, 0, len(s.m))
	for _, stack := range s.m {
		out = append(out, indexEntry{cols: stack[0].cols, stack: stack})
	}
	return out
}

// mset is one maintained column set: its layers cover the base's rows
// [0, hi of last layer) as disjoint ascending ranges.
type mset struct {
	cols   []int
	layers []*hashIndex
}

// MRel is one maintained base relation. It is not goroutine-safe: the
// dataset layer serialises all mutation batches per dataset, while the
// published views are immutable and read lock-free by any number of
// concurrent queries.
type MRel struct {
	base  *Relation
	dead  []bool // tombstones, parallel to base rows
	deadN int
	sets  []*mset
	// tail tracks rows appended by the in-flight batch (not yet covered
	// by any layer), keyed by full-tuple encoding, until Commit extends
	// the layers over them.
	tail map[string][]int32
	// deleted lists the rows the in-flight batch tombstoned.
	deleted []int32
	view    *Relation
	delta   Delta
	// ids is compaction's old→new row map, kept for the next one.
	ids []int32
}

// NewMRel takes ownership of r's tuples as a maintained relation.
// Duplicates collapse (first occurrence wins) — datasets are sets, and
// single-copy live rows are what make delete-by-value O(1) — and the
// first version's view and rowset index are built immediately.
func NewMRel(r *Relation) *MRel {
	// A nil guard never fails.
	base, _ := projectIdx(r, NewRelation(r.Attrs...), identCols(len(r.cols)), nil)
	m := &MRel{
		base: base,
		dead: make([]bool, base.Size()),
		sets: []*mset{{cols: identCols(len(base.cols))}},
	}
	m.Commit()
	return m
}

// maintainedBag wraps a cached bag, a set carrying its IndexSet, as a
// maintained relation whose current view is rel itself: the writer
// appends past rel's rows into storage rel's readers never read, and
// the first Commit adopts the indexes queries captured on rel.
func maintainedBag(rel *Relation) *MRel {
	rowset := identCols(len(rel.cols))
	// A nil guard cannot fail buildIndexCols.
	ly, _ := buildIndexCols(rel, rowset, 0, rel.n, nil)
	return &MRel{
		base: rel.cow(),
		dead: make([]bool, rel.n),
		sets: []*mset{{cols: rowset, layers: []*hashIndex{ly}}},
		view: rel,
	}
}

// View returns the current published snapshot view: immutable, dense
// (no tombstones), carrying the maintained IndexSet.
func (m *MRel) View() *Relation { return m.view }

// LiveSize returns the live tuple count including uncommitted deltas.
func (m *MRel) LiveSize() int { return m.base.n - m.deadN }

// Has reports whether vals is a live tuple, counting the in-flight
// batch's inserts and deletes.
func (m *MRel) Has(vals []int) bool { return m.liveRow(vals) >= 0 }

// liveRow returns the row id of the live copy of vals, -1 when absent.
// Committed rows resolve through the rowset layers, rows appended by
// the in-flight batch through the tail map.
func (m *MRel) liveRow(vals []int) int {
	for _, ly := range m.sets[0].layers {
		for _, i := range ly.probeVals(vals) {
			if !m.dead[i] {
				return int(i)
			}
		}
	}
	if len(m.tail) > 0 {
		key := string(appendValsKey(make([]byte, 0, 8*len(vals)), vals))
		for _, i := range m.tail[key] {
			if !m.dead[i] {
				return int(i)
			}
		}
	}
	return -1
}

// Insert appends the tuples of rows that are not already live.
// Inserted is the count appended; dups the count skipped as already
// present (set semantics — a later delete of the tuple removes it
// regardless of how many times it was inserted).
func (m *MRel) Insert(rows [][]int) (inserted, dups int, err error) {
	for _, vals := range rows {
		if len(vals) != len(m.base.Attrs) {
			return inserted, dups, fmt.Errorf("join: insert arity %d != relation arity %d", len(vals), len(m.base.Attrs))
		}
		if m.liveRow(vals) >= 0 {
			dups++
			continue
		}
		row := m.base.n
		m.base.AddRow(vals)
		m.dead = append(m.dead, false)
		if m.tail == nil {
			m.tail = make(map[string][]int32)
		}
		key := string(appendValsKey(make([]byte, 0, 8*len(vals)), vals))
		m.tail[key] = append(m.tail[key], int32(row))
		inserted++
	}
	return inserted, dups, nil
}

// Delete tombstones the live copy of each tuple in rows. Deleting a
// tuple that was never inserted (or already deleted) is a counted
// no-op, not an error — deltas are idempotent per batch position.
func (m *MRel) Delete(rows [][]int) (deleted, missed int, err error) {
	for _, vals := range rows {
		if len(vals) != len(m.base.Attrs) {
			return deleted, missed, fmt.Errorf("join: delete arity %d != relation arity %d", len(vals), len(m.base.Attrs))
		}
		if i := m.liveRow(vals); i >= 0 {
			m.dead[i] = true
			m.deadN++
			m.deleted = append(m.deleted, int32(i))
			deleted++
		} else {
			missed++
		}
	}
	return deleted, missed, nil
}

// adoptCaptured promotes column sets the executor captured into the
// current view's IndexSet (sets some query had to build) to registered
// maintained sets, so the next delta extends them instead of the next
// query rebuilding them.
func (m *MRel) adoptCaptured() {
	if m.view == nil || m.view.indexes == nil {
		return
	}
	for _, entry := range m.view.indexes.entries() {
		if len(m.sets) >= maxIndexSets {
			return
		}
		key := colsKey(entry.cols)
		known := false
		for _, st := range m.sets {
			if colsKey(st.cols) == key {
				known = true
				break
			}
		}
		if !known {
			m.sets = append(m.sets, &mset{
				cols:   entry.cols,
				layers: append([]*hashIndex(nil), entry.stack...),
			})
		}
	}
}

// Commit publishes the in-flight batch as a new immutable snapshot
// view and brings every registered index set up to date:
//
//   - insert-only batches append one O(delta) index layer per set;
//   - batches with effective deletes compact the live rows, in order,
//     into fresh storage and remap each set's first layer onto the
//     compacted rows (hashIndex.remap), hashing only the rows past it;
//   - stacks past maxIndexLayers collapse the same way, with every row
//     kept in place.
//
// It reports whether a compaction ran, and records the batch's net
// change for LastDelta. Layers always reference the immutable view
// published at their build time — never the writable base — so later
// widen/append activity on the base cannot race concurrent probes of
// old layers.
func (m *MRel) Commit() (compacted bool) {
	m.adoptCaptured()
	committed := 0
	if m.view != nil {
		committed = m.view.n
	}
	minus := make([]int32, 0, len(m.deleted))
	for _, i := range m.deleted {
		if int(i) < committed {
			minus = append(minus, i)
		}
	}
	m.delta = Delta{minus: minus, plus: m.base.n - committed - (len(m.deleted) - len(minus))}
	var newID []int32
	if m.deadN > 0 {
		newID = m.compact()
		compacted = true
	}
	view := m.base.cow()
	for _, st := range m.sets {
		switch k := len(st.layers); {
		case k == 0:
			// A nil guard cannot fail buildIndexCols: maintenance runs
			// under the dataset lock, not a query deadline.
			ly, _ := buildIndexCols(view, st.cols, 0, view.n, nil)
			st.layers = []*hashIndex{ly}
		case compacted || k >= maxIndexLayers:
			st.layers = []*hashIndex{st.layers[0].remap(view, newID, view.n)}
		case st.layers[k-1].hi < view.n:
			ly, _ := buildIndexCols(view, st.cols, st.layers[k-1].hi, view.n, nil)
			st.layers = append(st.layers, ly)
		}
	}
	is := newIndexSet()
	for _, st := range m.sets {
		is.store(st.cols, append([]*hashIndex(nil), st.layers...))
	}
	view.indexes = is
	m.view = view
	m.tail = nil
	m.deleted = m.deleted[:0]
	return compacted
}

// compact moves the live rows, in order, into fresh storage sized for
// exactly them, and returns each old row's new row id, -1 for a dead
// row. The map lives in a buffer the next compaction reuses.
func (m *MRel) compact() []int32 {
	old := m.base
	slices.Sort(m.deleted)
	m.ids = slices.Grow(m.ids[:0], old.n)[:old.n]
	prev := int32(0)
	for k, d := range append(m.deleted, int32(old.n)) {
		for i := prev; i < d; i++ {
			m.ids[i] = i - int32(k)
		}
		if int(d) < old.n {
			m.ids[d] = -1
		}
		prev = d + 1
	}
	m.base = old.compacted(m.deleted, old.n-len(m.deleted))
	m.dead = m.dead[:m.base.n]
	clear(m.dead)
	m.deadN = 0
	return m.ids
}

// LastDelta returns the net change the last Commit published.
func (m *MRel) LastDelta() Delta { return m.delta }

// Delta is the net change one MRel.Commit published: the rows of the
// previous view the batch deleted, and the rows it inserted, which the
// new view holds last, in insertion order. A tuple inserted and deleted
// by the same batch is in neither; one deleted and inserted again is
// in both, as a deleted row and an inserted one.
type Delta struct {
	minus []int32 // row ids in the previous view
	plus  int     // the new view's last plus rows
}

// empty reports whether the commit changed no tuple.
func (d Delta) empty() bool { return len(d.minus) == 0 && d.plus == 0 }

// cow returns a relation sharing r's value chunks through cloned
// chunk-pointer headers, frozen at r's row count, with its own arena
// and no IndexSet: a commit's view of the base, or a maintained bag's
// base over its cached view. The writer's later appends land at rows ≥
// the frozen count (fresh tails of shared chunks or brand-new chunks),
// and a width promotion allocates fresh 64-bit chunks on the writer's
// side only, so the frozen side is immutable.
func (r *Relation) cow() *Relation {
	v := &Relation{
		Attrs: r.Attrs,
		pos:   r.pos,
		cols:  make([]vec, len(r.cols)),
		n:     r.n,
		mem:   &arena{},
	}
	for c := range r.cols {
		sc := &r.cols[c]
		if sc.wide {
			v.cols[c] = vec{c64: append([][]int64(nil), sc.c64...), wide: true}
		} else {
			v.cols[c] = vec{c32: append([][]int32(nil), sc.c32...)}
		}
	}
	return v
}
