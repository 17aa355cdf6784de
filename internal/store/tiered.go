package store

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
// regenerate quickly): a restart starts them empty, and nothing about
// them reaches the log.
//
// Disk append failures are counted (Stats().Disk.Errors) but do not
// fail reads or lose the in-memory state: availability degrades to
// the in-memory contract, not to an outage.
type Tiered struct {
	mem *Memory
	log *Log
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
// durable state, sorted by hash for deterministic listings), each
// carrying the live memo summaries of its memory-front entry, followed
// by the memory-front entries the disk has no record for but whose memo
// tables hold states (hashes whose jobs produced no durable fact yet).
func (t *Tiered) Info(max int) []EntryInfo {
	front := t.mem.Info(0)
	memos := make(map[string][]WidthSummary, len(front))
	for _, in := range front {
		memos[in.Hash] = in.Memos
	}
	var out []EntryInfo
	for _, hash := range t.log.Hashes() {
		if max > 0 && len(out) >= max {
			break
		}
		b, _ := t.log.Bounds(hash)
		in := EntryInfo{Hash: hash, Bounds: b, Memos: memos[hash]}
		if w, ok := t.log.TreeWidth(hash); ok {
			in.HasTree, in.TreeWidth = true, w
		}
		delete(memos, hash)
		out = append(out, in)
	}
	for _, in := range front {
		if max > 0 && len(out) >= max {
			break
		}
		if _, memOnly := memos[in.Hash]; memOnly && len(in.Memos) > 0 {
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

// Sync fsyncs the log's unsynced tail.
func (t *Tiered) Sync() error {
	return t.log.Sync()
}

// Compact compacts the log now, under the log's lock.
func (t *Tiered) Compact() error {
	t.log.mu.Lock()
	defer t.log.mu.Unlock()
	return t.log.compact()
}

// Close closes the log. Every call returns the first close's error, so
// both a service that owns the backend and the operator code that
// built it can close safely.
func (t *Tiered) Close() error {
	return t.log.Close()
}
