package join

import (
	"fmt"
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
// capture-on-miss (exec.go indexStack) records each set it had to
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
// base relations (dataset snapshot views, cached inline databases).
// It maps a column-position set to an immutable stack of index layers.
// Lookups and capture-on-miss stores run concurrently from query
// executors; stacks are never mutated once stored.
type IndexSet struct {
	mu    sync.Mutex
	limit int
	m     map[string][]*hashIndex
}

func newIndexSet(limit int) *IndexSet {
	return &IndexSet{limit: limit, m: make(map[string][]*hashIndex, limit)}
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
	if len(s.m) < s.limit {
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

// EnableIndexReuse attaches an empty IndexSet to r, marking it a
// server-resident base relation whose per-query index builds should be
// captured and shared. The dataset layer calls this on cached inline
// databases; MRel views get their IndexSet from the commit path.
func (r *Relation) EnableIndexReuse() {
	if r.indexes == nil {
		r.indexes = newIndexSet(maxIndexSets)
	}
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
	view *Relation
}

// NewMRel takes ownership of r's tuples as a maintained relation.
// Duplicates collapse — datasets are sets, and single-copy live rows
// are what make delete-by-value O(1) — and the first version's view
// and rowset index are built immediately.
func NewMRel(r *Relation) *MRel {
	base := r.Dedup()
	m := &MRel{
		base: base,
		dead: make([]bool, base.Size()),
		sets: []*mset{{cols: identCols(len(base.cols))}},
	}
	m.Commit()
	return m
}

// View returns the current published snapshot view: immutable, dense
// (no tombstones), carrying the maintained IndexSet.
func (m *MRel) View() *Relation { return m.view }

// LiveSize returns the live tuple count including uncommitted deltas.
func (m *MRel) LiveSize() int { return m.base.n - m.deadN }

// Layers returns the maintained layer count across all registered
// column sets — observability for dataset stats and the incr bench.
func (m *MRel) Layers() (sets, layers int) {
	for _, st := range m.sets {
		layers += len(st.layers)
	}
	return len(m.sets), layers
}

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
//   - batches with effective deletes compact the live rows into fresh
//     storage (O(live)) and rebuild each set as one full layer;
//   - stacks past maxIndexLayers collapse into one full layer.
//
// It reports whether a compaction ran. Layers always reference the
// immutable view published at their build time — never the writable
// base — so later widen/append activity on the base cannot race
// concurrent probes of old layers.
func (m *MRel) Commit() (compacted bool) {
	m.adoptCaptured()
	if m.deadN > 0 {
		nb := newRelation(m.base.Attrs)
		for i := 0; i < m.base.n; i++ {
			if !m.dead[i] {
				nb.appendFrom(m.base, i)
			}
		}
		m.base = nb
		m.dead = make([]bool, nb.n)
		m.deadN = 0
		for _, st := range m.sets {
			st.layers = nil
		}
		compacted = true
	}
	view := m.cowView()
	for _, st := range m.sets {
		if len(st.layers) >= maxIndexLayers {
			st.layers = nil
		}
		lo := 0
		if k := len(st.layers); k > 0 {
			lo = st.layers[k-1].hi
		}
		if lo < view.n || len(st.layers) == 0 {
			// A nil guard cannot fail buildIndexCols: maintenance runs
			// under the dataset lock, not a query deadline.
			ly, _ := buildIndexCols(view, st.cols, lo, view.n, nil)
			st.layers = append(st.layers, ly)
		}
	}
	is := newIndexSet(maxIndexSets)
	for _, st := range m.sets {
		is.store(st.cols, append([]*hashIndex(nil), st.layers...))
	}
	view.indexes = is
	m.view = view
	m.tail = nil
	return compacted
}

// cowView clones the chunk-pointer headers of every column — sharing
// the value chunks — frozen at the current row count. The writer's
// later appends land at rows ≥ view.n (fresh tails of shared chunks or
// brand-new chunks), and a width promotion allocates fresh 64-bit
// chunks on the writer's side only, so the view is immutable.
func (m *MRel) cowView() *Relation {
	src := m.base
	v := &Relation{
		Attrs: src.Attrs,
		pos:   src.pos,
		cols:  make([]vec, len(src.cols)),
		n:     src.n,
		mem:   &arena{},
	}
	for c := range src.cols {
		sc := &src.cols[c]
		if sc.wide {
			v.cols[c] = vec{c64: append([][]int64(nil), sc.c64...), wide: true}
		} else {
			v.cols[c] = vec{c32: append([][]int32(nil), sc.c32...)}
		}
	}
	return v
}
