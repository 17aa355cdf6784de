package store

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Config sizes a Sharded backend. The zero value picks defaults.
type Config struct {
	// Shards is the desired number of independently locked stripes
	// (rounded to a power of two). The effective count is lowered so
	// every stripe holds at least minPerShard entries — striping below
	// that trades correctness (entries evicted far under the cap) for
	// lock granularity nobody needs at that size. Default 16; use 1 for
	// a deterministic global LRU.
	Shards int
	// MaxGraphs caps cached hypergraph entries across all shards. Each
	// stripe holds up to ceil(MaxGraphs/shards), so the total is capped
	// by MaxGraphs rounded up to a multiple of the stripe count.
	// Default 128.
	MaxGraphs int
	// MemoMaxStates caps memoised dead states per (hash, width) table;
	// inserts beyond it are dropped. Default 1<<20.
	MemoMaxStates int64
}

// minPerShard is the smallest per-stripe LRU capacity worth striping
// for: hashes distribute binomially over stripes, and tiny per-stripe
// caps make "a stripe overflows while the store is mostly empty" likely
// instead of rare.
const minPerShard = 8

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 16
	}
	if c.MaxGraphs <= 0 {
		c.MaxGraphs = 128
	}
	if max := c.MaxGraphs / minPerShard; c.Shards > max {
		c.Shards = max
	}
	// Round shards down to a power of two for mask-based selection.
	n := 1
	for n*2 <= c.Shards {
		n <<= 1
	}
	c.Shards = n
	if c.MemoMaxStates <= 0 {
		c.MemoMaxStates = 1 << 20
	}
	return c
}

// Sharded is the in-memory Backend: entries striped over independently
// locked shards selected by a hash of the content hash, each shard with
// its own intrusive doubly-linked LRU list. Every operation is O(1) in
// the number of cached entries — the striped locks kill the old global
// mutexes and the linked list kills the old O(n) eviction scan.
type Sharded struct {
	cfg    Config
	shards []shard

	memoReuses atomic.Int64
	boundsHits atomic.Int64
	treeHits   atomic.Int64
	evictions  atomic.Int64
}

// shard is one stripe: a map for lookup plus an intrusive LRU list
// (head = most recently used; tail evicted first).
type shard struct {
	mu         sync.Mutex
	entries    map[string]*entry
	head, tail *entry
	cap        int
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

// NewSharded returns a Sharded backend.
func NewSharded(cfg Config) *Sharded {
	cfg = cfg.withDefaults()
	perShard := (cfg.MaxGraphs + cfg.Shards - 1) / cfg.Shards
	s := &Sharded{cfg: cfg, shards: make([]shard, cfg.Shards)}
	for i := range s.shards {
		s.shards[i] = shard{entries: make(map[string]*entry), cap: perShard}
	}
	return s
}

// shardFor selects the stripe for a content hash (FNV-1a).
func (s *Sharded) shardFor(hash string) *shard {
	h := uint32(2166136261)
	for i := 0; i < len(hash); i++ {
		h ^= uint32(hash[i])
		h *= 16777619
	}
	return &s.shards[int(h)&(len(s.shards)-1)]
}

// get returns the entry for hash, creating it when create is set, and
// moves it to the LRU front. Caller must hold sh.mu.
func (sh *shard) get(hash string, create bool, evicted *atomic.Int64) *entry {
	e := sh.entries[hash]
	if e != nil {
		sh.touch(e)
		return e
	}
	if !create {
		return nil
	}
	if len(sh.entries) >= sh.cap {
		if tail := sh.tail; tail != nil {
			sh.unlink(tail)
			delete(sh.entries, tail.hash)
			evicted.Add(1)
		}
	}
	e = &entry{hash: hash}
	sh.entries[hash] = e
	sh.pushFront(e)
	return e
}

func (sh *shard) touch(e *entry) {
	if sh.head == e {
		return
	}
	sh.unlink(e)
	sh.pushFront(e)
}

func (sh *shard) pushFront(e *entry) {
	e.prev, e.next = nil, sh.head
	if sh.head != nil {
		sh.head.prev = e
	}
	sh.head = e
	if sh.tail == nil {
		sh.tail = e
	}
}

func (sh *shard) unlink(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		sh.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		sh.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// Bounds implements Backend.
func (s *Sharded) Bounds(hash string) (Bounds, bool) {
	sh := s.shardFor(hash)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e := sh.get(hash, false, &s.evictions)
	if e == nil || !e.bounds.Known() {
		return Bounds{}, false
	}
	s.boundsHits.Add(1)
	return e.bounds, true
}

// MergeBounds implements Backend.
func (s *Sharded) MergeBounds(hash string, b Bounds) {
	if !b.Known() {
		return
	}
	sh := s.shardFor(hash)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.get(hash, true, &s.evictions).bounds.Merge(b)
}

// Decomposition implements Backend.
func (s *Sharded) Decomposition(hash string) (*Tree, bool) {
	sh := s.shardFor(hash)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e := sh.get(hash, false, &s.evictions)
	if e == nil || e.tree == nil {
		return nil, false
	}
	s.treeHits.Add(1)
	return e.tree, true
}

// PutDecomposition implements Backend.
func (s *Sharded) PutDecomposition(hash string, t *Tree) {
	w := t.Width()
	if w == 0 {
		return
	}
	sh := s.shardFor(hash)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e := sh.get(hash, true, &s.evictions)
	if e.tree == nil || w < e.treeW {
		e.tree, e.treeW = t, w
	}
	e.bounds.Merge(Bounds{UB: w})
}

// DropDecomposition implements Backend.
func (s *Sharded) DropDecomposition(hash string) {
	sh := s.shardFor(hash)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if e := sh.entries[hash]; e != nil {
		e.tree, e.treeW = nil, 0
	}
}

// Memo implements Backend.
func (s *Sharded) Memo(hash string, k int) (Memo, bool) {
	sh := s.shardFor(hash)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e := sh.get(hash, true, &s.evictions)
	if t := e.memos[k]; t != nil {
		s.memoReuses.Add(1)
		return t, true
	}
	if e.memos == nil {
		e.memos = make(map[int]*Table)
	}
	t := NewTable(s.cfg.MemoMaxStates)
	e.memos[k] = t
	return t, false
}

// Stats implements Backend.
func (s *Sharded) Stats() Stats {
	st := Stats{
		Shards:     len(s.shards),
		MemoReuses: s.memoReuses.Load(),
		BoundsHits: s.boundsHits.Load(),
		TreeHits:   s.treeHits.Load(),
		Evictions:  s.evictions.Load(),
	}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		st.Entries += int64(len(sh.entries))
		for _, e := range sh.entries {
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
		sh.mu.Unlock()
	}
	return st
}

// Info implements Backend.
func (s *Sharded) Info(max int) []EntryInfo {
	var out []EntryInfo
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for e := sh.head; e != nil; e = e.next {
			if max > 0 && len(out) >= max {
				break
			}
			out = append(out, e.info())
		}
		sh.mu.Unlock()
		if max > 0 && len(out) >= max {
			break
		}
	}
	return out
}

// info snapshots one entry. Caller must hold the shard lock.
func (e *entry) info() EntryInfo {
	in := EntryInfo{Hash: e.hash, Bounds: e.bounds, HasTree: e.tree != nil, TreeWidth: e.treeW}
	for k, t := range e.memos {
		in.Memos = append(in.Memos, WidthSummary{K: k, States: t.Entries()})
	}
	sort.Slice(in.Memos, func(a, b int) bool { return in.Memos[a].K < in.Memos[b].K })
	return in
}

// Purge implements Backend.
func (s *Sharded) Purge() {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		sh.entries = make(map[string]*entry)
		sh.head, sh.tail = nil, nil
		sh.mu.Unlock()
	}
}
