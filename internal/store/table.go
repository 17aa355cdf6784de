package store

import (
	"sync/atomic"

	"repro/internal/logk"
)

// memoMaxStates caps memoised dead states per (hash, width) table the
// Memory backend hands out; inserts beyond it are dropped.
const memoMaxStates = 1 << 20

// Table is the in-memory Memo implementation: a sharded negative-memo
// map (logk.ShardedMemo) with an advisory entry cap so a pathological
// workload cannot grow one table without bound. It is the adapter that
// banks solver refutations — logk search states and race width probes
// alike — into the store.
type Table struct {
	memo    logk.ShardedMemo
	entries atomic.Int64
	max     int64
}

// NewTable returns a Table capped at max entries (≤ 0 means unbounded).
func NewTable(max int64) *Table {
	if max <= 0 {
		max = 1 << 62
	}
	return &Table{max: max}
}

// Lookup implements logk.MemoBackend.
func (t *Table) Lookup(key []byte) bool { return t.memo.Lookup(key) }

// Insert implements logk.MemoBackend. Inserts are dropped once the
// table is full; the memo is a pure acceleration, so dropping is safe.
func (t *Table) Insert(key string) {
	if t.entries.Load() >= t.max {
		return
	}
	if t.memo.Add(key) {
		t.entries.Add(1)
	}
}

// Entries implements Memo.
func (t *Table) Entries() int64 { return t.entries.Load() }
