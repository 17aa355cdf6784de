package store

import (
	"sync"
)

// TieredConfig sizes a Tiered backend: an in-memory Memory front over
// a disk Log.
type TieredConfig struct {
	// MaxGraphs caps the memory front (the read-through / write-behind
	// LRU working set); see NewMemory.
	MaxGraphs int
	// Log configures the disk tier; Log.Dir is required.
	Log LogConfig
}

// Tiered is the disk-backed Backend: the Memory in-memory store is
// the front (every read is answered from memory when possible, every
// promotion lands there), the append-only Log is the truth (every
// bounds / tree / drop mutation is appended before the call returns,
// with durability governed by the log's fsync cadence). The memory
// front is LRU-capped; the disk tier never evicts, so an entry pushed
// out of memory by hotter traffic is still a cache hit — it is read
// back from disk and re-promoted. A process restart reopens the log
// and serves the entire history warm.
//
// Negative-memo tables live in memory only (they are large and
// regenerate quickly); their per-width summaries are flushed to the
// log on Sync, Compact, and Close.
//
// Disk append failures are counted (Stats().Disk.Errors) but do not
// fail reads or lose the in-memory state: availability degrades to
// the in-memory contract, not to an outage.
type Tiered struct {
	mem *Memory
	log *Log

	closeMu  sync.Mutex
	closed   bool
	closeErr error
}

// OpenTiered opens (or creates) the disk tier and builds the memory
// front over it.
func OpenTiered(cfg TieredConfig) (*Tiered, error) {
	l, err := OpenLog(cfg.Log)
	if err != nil {
		return nil, err
	}
	return &Tiered{mem: NewMemory(cfg.MaxGraphs), log: l}, nil
}

// Log exposes the disk tier for maintenance (Compact, Sync) and tests.
func (t *Tiered) Log() *Log { return t.log }

// Bounds implements Backend: memory first, disk on miss (with
// promotion into the memory front).
func (t *Tiered) Bounds(hash string) (Bounds, bool) {
	if b, ok := t.mem.Bounds(hash); ok {
		return b, true
	}
	b, ok := t.log.Bounds(hash)
	if !ok {
		return Bounds{}, false
	}
	t.mem.MergeBounds(hash, b)
	return b, true
}

// MergeBounds implements Backend: write-through to both tiers. The
// log appends only when the merge changed its state, so repeat merges
// of known facts cost a map lookup, not disk traffic.
func (t *Tiered) MergeBounds(hash string, b Bounds) {
	t.mem.MergeBounds(hash, b)
	t.log.MergeBounds(hash, b) // error counted in DiskStats.Errors
}

// Decomposition implements Backend: memory first; on miss the witness
// is read back from the log (checksum-verified) and promoted.
func (t *Tiered) Decomposition(hash string) (*Tree, bool) {
	if tr, ok := t.mem.Decomposition(hash); ok {
		return tr, true
	}
	tr, ok, _ := t.log.Tree(hash)
	if !ok {
		return nil, false
	}
	t.mem.PutDecomposition(hash, tr)
	return tr, true
}

// PutDecomposition implements Backend.
func (t *Tiered) PutDecomposition(hash string, tr *Tree) {
	t.mem.PutDecomposition(hash, tr)
	t.log.PutTree(hash, tr)
}

// DropDecomposition implements Backend. The tombstone is appended so
// a tree that failed re-validation stays gone across restarts.
func (t *Tiered) DropDecomposition(hash string) {
	t.mem.DropDecomposition(hash)
	t.log.DropTree(hash)
}

// Memo implements Backend: negative-memo tables are memory-only.
func (t *Tiered) Memo(hash string, k int) (Memo, bool) {
	return t.mem.Memo(hash, k)
}

// Stats implements Backend: the top-level counters describe the
// memory front, Disk the log underneath.
func (t *Tiered) Stats() Stats {
	st := t.mem.Stats()
	d := t.log.Stats()
	st.Disk = &d
	return st
}

// Info implements Backend: entries come from the disk index (the full
// durable state, sorted by hash for deterministic listings), with live
// memo-table summaries merged in from the memory front.
func (t *Tiered) Info(max int) []EntryInfo {
	hashes := t.log.Hashes()
	memInfo := make(map[string]EntryInfo)
	for _, in := range t.mem.Info(0) {
		memInfo[in.Hash] = in
	}
	var out []EntryInfo
	for _, hash := range hashes {
		if max > 0 && len(out) >= max {
			break
		}
		b, _ := t.log.Bounds(hash)
		in := EntryInfo{Hash: hash, Bounds: b}
		if w, ok := t.log.TreeWidth(hash); ok {
			in.HasTree, in.TreeWidth = true, w
		}
		// Durable summaries merged with live ones: an entry promoted
		// by a read has no memo tables yet, and must not hide what the
		// log already holds.
		in.Memos = t.log.Refuted(hash)
		if mi, ok := memInfo[hash]; ok {
			mergeSummaries(&in.Memos, mi.Memos)
			delete(memInfo, hash)
		}
		out = append(out, in)
	}
	// Memory-front entries the disk has no record for (memo tables
	// created for hashes whose jobs produced no durable fact yet):
	// after the overlay pass above, memInfo holds exactly those.
	for _, in := range t.mem.Info(0) {
		if max > 0 && len(out) >= max {
			break
		}
		if _, memOnly := memInfo[in.Hash]; memOnly {
			out = append(out, in)
		}
	}
	return out
}

// Purge implements Backend: both tiers forget everything, including
// the on-disk history.
func (t *Tiered) Purge() {
	t.mem.Purge()
	t.log.Purge()
}

// flushSummaries appends the memory front's live memo summaries to the
// log, so restarts keep the refutation bookkeeping.
func (t *Tiered) flushSummaries() {
	for _, in := range t.mem.Info(0) {
		if len(in.Memos) > 0 {
			t.log.MergeRefuted(in.Hash, in.Memos)
		}
	}
}

// Sync flushes memo summaries and fsyncs the log's unsynced tail.
func (t *Tiered) Sync() error {
	t.flushSummaries()
	return t.log.Sync()
}

// Compact flushes memo summaries and compacts the log.
func (t *Tiered) Compact() error {
	t.flushSummaries()
	return t.log.Compact()
}

// Close flushes memo summaries and closes the log. Idempotent: every
// call returns the first close's error, so both a service that owns
// the backend and the operator code that built it can close safely.
func (t *Tiered) Close() error {
	t.closeMu.Lock()
	defer t.closeMu.Unlock()
	if t.closed {
		return t.closeErr
	}
	t.closed = true
	t.flushSummaries()
	t.closeErr = t.log.Close()
	return t.closeErr
}
