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
	return &Memory{entries: make(map[string]*entry), maxGraphs: max(maxGraphs, 1)}
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

// Memo implements Backend.
func (m *Memory) Memo(hash string, k int) (Memo, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e := m.get(hash, true)
	if t := e.memos[k]; t != nil {
		m.stats.MemoReuses++
		return t, true
	}
	if e.memos == nil {
		e.memos = make(map[int]*Table)
	}
	t := NewTable(memoMaxStates)
	e.memos[k] = t
	return t, false
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
	m.head, m.tail = nil, nil
}
