package store

import (
	"repro/internal/logk"
)

// Bounds is the width-level knowledge about one hypergraph: every width
// < LB is refuted (LB ≤ 1 means nothing is refuted), and UB > 0 means an
// HD of width UB has been witnessed. LB == UB > 0 pins the exact
// hypertree width.
type Bounds struct {
	LB int `json:"lb"`
	UB int `json:"ub,omitempty"`
}

// Known reports whether the bounds carry any information at all.
func (b Bounds) Known() bool { return b.LB > 1 || b.UB > 0 }

// Exact reports whether the bounds pin the hypertree width exactly.
func (b Bounds) Exact() bool { return b.UB > 0 && b.LB >= b.UB }

// Merge folds nw into b under the soundness rules: the lower bound only
// ever rises, the witnessed upper bound only ever falls. It reports
// whether b changed.
func (b *Bounds) Merge(nw Bounds) bool {
	changed := false
	if nw.LB > b.LB {
		b.LB = nw.LB
		changed = true
	}
	if nw.UB > 0 && (b.UB == 0 || nw.UB < b.UB) {
		b.UB = nw.UB
		changed = true
	}
	return changed
}

// Memo is one (hypergraph, width) negative-memo table as handed to the
// solvers: the logk.MemoBackend adapter plus a size probe for stats and
// the persisted refutation summaries. Implementations must be safe for concurrent use.
type Memo interface {
	logk.MemoBackend
	// Entries returns the number of memoised dead states.
	Entries() int64
}

// Backend is the pluggable storage contract every consumer of
// cross-request state programs against. The in-memory implementation is
// Memory, the disk-backed one Tiered; other backends plug in here
// without touching the service layer.
//
// All methods must be safe for concurrent use. Handles returned by Memo
// and Decomposition stay valid after the entry is evicted — eviction
// only makes the store forget them.
type Backend interface {
	// Bounds returns the cached width bounds for hash; ok is false when
	// nothing non-trivial is known.
	Bounds(hash string) (b Bounds, ok bool)
	// MergeBounds merges new knowledge for hash: LB only rises, UB only
	// falls. Trivial bounds (LB ≤ 1, UB ≤ 0) are a no-op and must not
	// create an entry.
	MergeBounds(hash string, b Bounds)
	// Decomposition returns the cached witness tree for hash, if any.
	// The returned Tree is shared and must not be mutated.
	Decomposition(hash string) (t *Tree, ok bool)
	// PutDecomposition caches a witness tree for hash and merges its
	// width into UB. A tree no better (wider or equal) than the cached
	// one is dropped. Nil or empty trees are ignored.
	PutDecomposition(hash string, t *Tree)
	// DropDecomposition forgets the cached witness for hash (bounds and
	// memo tables survive). Used when a cached tree fails re-validation.
	DropDecomposition(hash string)
	// Memo returns the negative-memo table for (hash, k), creating it if
	// needed; existed reports that an earlier request already built it.
	Memo(hash string, k int) (m Memo, existed bool)
	// Stats returns a snapshot of the backend's counters.
	Stats() Stats
	// Info lists up to max cached entries (0 = all) for introspection
	// endpoints, most recently used first.
	Info(max int) []EntryInfo
	// Purge drops every entry.
	Purge()
}

// Stats is a snapshot of backend counters.
type Stats struct {
	Entries      int64 `json:"entries"`       // cached hypergraphs
	Trees        int64 `json:"trees"`         // cached witness decompositions
	BoundsGraphs int64 `json:"bounds_graphs"` // entries with non-trivial bounds
	MemoTables   int64 `json:"memo_tables"`   // per-width negative-memo tables
	MemoStates   int64 `json:"memo_states"`   // memoised dead states across all tables
	MemoReuses   int64 `json:"memo_reuses"`   // Memo calls that found an existing table
	BoundsHits   int64 `json:"bounds_hits"`   // Bounds calls that found knowledge
	TreeHits     int64 `json:"tree_hits"`     // Decomposition calls that found a tree
	Evictions    int64 `json:"evictions"`     // entries dropped by the LRU cap

	// Disk is the disk tier's counters, nil for purely in-memory
	// backends. For a Tiered backend the top-level fields above describe
	// the memory front (the LRU working set); Disk describes the
	// append-only log underneath it (the full durable state).
	Disk *DiskStats `json:"disk,omitempty"`
}

// EntryInfo is one cached hypergraph as listed by Backend.Info (the
// GET /cache payload).
type EntryInfo struct {
	Hash      string         `json:"hash"`
	Bounds    Bounds         `json:"bounds"`
	HasTree   bool           `json:"has_tree"`
	TreeWidth int            `json:"tree_width,omitempty"`
	Memos     []WidthSummary `json:"memos,omitempty"`
}

// WidthSummary summarises one per-width negative-memo table: how many
// dead states it holds (the table contents themselves are never
// persisted — only this summary is).
type WidthSummary struct {
	K      int   `json:"k"`
	States int64 `json:"states"`
}
