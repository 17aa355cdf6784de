package store

import (
	"sort"
	"sync"
)

// Memory is the in-memory Backend: one mutex over a map for lookup and
// an intrusive doubly-linked LRU list (head = most recently used, tail
// evicted first). Every operation is O(1) in the number of cached
// entries, and the cap is exact: the store holds up to maxGraphs
// entries and evicts the least recently used across the whole store.
type Memory struct {
	mu         sync.Mutex
	entries    map[string]*entry
	head, tail *entry
	maxGraphs  int
	stats      Stats // hit and eviction counters; occupancy is counted by Stats

	// pending holds the memo tables handed out that hold no state yet.
	// A table joins its hypergraph's entry with its first state (file),
	// so a job that banks nothing creates no entry and evicts nothing.
	// Jobs asking for the same table before then still share it.
	pending map[memoID]*Table
}

// memoID names one (hypergraph, width) memo table.
type memoID struct {
	hash string
	k    int
}

// entry is everything the store knows about one hypergraph.
type entry struct {
	hash   string
	bounds Bounds
	tree   *Tree
	treeW  int
	memos  map[int]*Table

	prev, next *entry
}

// NewMemory returns a Memory backend holding at most maxGraphs
// hypergraphs (at least 1).
func NewMemory(maxGraphs int) *Memory {
	return &Memory{entries: make(map[string]*entry), pending: make(map[memoID]*Table), maxGraphs: max(maxGraphs, 1)}
}

// get returns the entry for hash, creating it when create is set, and
// moves it to the LRU front. Caller must hold m.mu.
func (m *Memory) get(hash string, create bool) *entry {
	e := m.entries[hash]
	if e != nil {
		if m.head != e {
			m.unlink(e)
			m.pushFront(e)
		}
		return e
	}
	if !create {
		return nil
	}
	if len(m.entries) >= m.maxGraphs {
		tail := m.tail
		m.unlink(tail)
		delete(m.entries, tail.hash)
		m.stats.Evictions++
	}
	e = &entry{hash: hash}
	m.entries[hash] = e
	m.pushFront(e)
	return e
}

func (m *Memory) pushFront(e *entry) {
	e.prev, e.next = nil, m.head
	if m.head != nil {
		m.head.prev = e
	}
	m.head = e
	if m.tail == nil {
		m.tail = e
	}
}

func (m *Memory) unlink(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		m.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		m.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// Bounds implements Backend.
func (m *Memory) Bounds(hash string) (Bounds, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e := m.get(hash, false)
	if e == nil || !e.bounds.Known() {
		return Bounds{}, false
	}
	m.stats.BoundsHits++
	return e.bounds, true
}

// MergeBounds implements Backend.
func (m *Memory) MergeBounds(hash string, b Bounds) {
	if !b.Known() {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.get(hash, true).bounds.Merge(b)
}

// Decomposition implements Backend.
func (m *Memory) Decomposition(hash string) (*Tree, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e := m.get(hash, false)
	if e == nil || e.tree == nil {
		return nil, false
	}
	m.stats.TreeHits++
	return e.tree, true
}

// PutDecomposition implements Backend.
func (m *Memory) PutDecomposition(hash string, t *Tree) {
	w := t.Width()
	if w == 0 {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	e := m.get(hash, true)
	if e.tree == nil || w < e.treeW {
		e.tree, e.treeW = t, w
	}
	e.bounds.Merge(Bounds{UB: w})
}

// DropDecomposition implements Backend.
func (m *Memory) DropDecomposition(hash string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if e := m.entries[hash]; e != nil {
		e.tree, e.treeW = nil, 0
	}
}

// Memo implements Backend. A table that holds no state yet is pending:
// it is handed out again as new, and takes no LRU slot until its first
// state files it under its entry.
func (m *Memory) Memo(hash string, k int) (Memo, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if e := m.get(hash, false); e != nil && e.memos[k] != nil {
		m.stats.MemoReuses++
		return e.memos[k], true
	}
	id := memoID{hash, k}
	if t := m.pending[id]; t != nil {
		return t, false
	}
	if len(m.pending) >= m.maxGraphs {
		for old := range m.pending { // forget any one; its jobs keep it
			delete(m.pending, old)
			break
		}
	}
	t := NewTable(memoMaxStates)
	t.onFirst = func() { m.file(id, t) }
	m.pending[id] = t
	return t, false
}

// file moves pending table t, which just banked its first state, under
// its hypergraph's entry, creating the entry if needed. A table filed
// first for the same id stays; t then serves only its own jobs.
func (m *Memory) file(id memoID, t *Table) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.pending[id] == t {
		delete(m.pending, id)
	}
	e := m.get(id.hash, true)
	if e.memos == nil {
		e.memos = make(map[int]*Table)
	}
	if e.memos[id.k] == nil {
		e.memos[id.k] = t
	}
}

// Stats implements Backend.
func (m *Memory) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.stats
	st.Entries = int64(len(m.entries))
	for _, e := range m.entries {
		if e.tree != nil {
			st.Trees++
		}
		if e.bounds.Known() {
			st.BoundsGraphs++
		}
		st.MemoTables += int64(len(e.memos))
		for _, t := range e.memos {
			st.MemoStates += t.Entries()
		}
	}
	return st
}

// Info implements Backend.
func (m *Memory) Info(max int) []EntryInfo {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []EntryInfo
	for e := m.head; e != nil && (max <= 0 || len(out) < max); e = e.next {
		out = append(out, e.info())
	}
	return out
}

// info snapshots one entry. Caller must hold the store lock.
func (e *entry) info() EntryInfo {
	in := EntryInfo{Hash: e.hash, Bounds: e.bounds, HasTree: e.tree != nil, TreeWidth: e.treeW}
	for k, t := range e.memos {
		in.Memos = append(in.Memos, WidthSummary{K: k, States: t.Entries()})
	}
	sort.Slice(in.Memos, func(a, b int) bool { return in.Memos[a].K < in.Memos[b].K })
	return in
}

// Purge implements Backend.
func (m *Memory) Purge() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.entries = make(map[string]*entry)
	m.pending = make(map[memoID]*Table)
	m.head, m.tail = nil, nil
}
