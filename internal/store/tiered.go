package store

// TieredConfig sizes a Tiered backend: a Memory front over a disk Log.
type TieredConfig struct {
	// MaxGraphs caps the memory front's LRU working set; see NewMemory.
	MaxGraphs int
	// Log configures the disk tier; Log.Dir is required.
	Log LogConfig
}

// Tiered is the disk-backed Backend: the Memory front answers every
// read it can and takes every promotion; the Log is the truth, and
// every bounds, tree or drop mutation is appended before the call
// returns, as durable as the log's fsync cadence. The disk tier never
// evicts, so an entry the LRU front dropped is still a hit, read back
// and re-promoted, and a restart serves the whole history warm.
// Negative-memo tables live in memory only.
//
// A disk failure is counted in Stats().Disk.Errors and fails no call:
// a log broken by a failed fsync takes no writes until the process
// reopens it, which Stats().Disk.Broken shows meanwhile, and the memory
// front keeps serving.
type Tiered struct {
	mem *Memory
	log *Log
}

// OpenTiered opens (or creates) the disk tier under a memory front.
func OpenTiered(cfg TieredConfig) (*Tiered, error) {
	l, err := OpenLog(cfg.Log)
	if err != nil {
		return nil, err
	}
	return &Tiered{mem: NewMemory(cfg.MaxGraphs), log: l}, nil
}

// Bounds implements Backend: memory first, then disk, promoting a hit.
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

// MergeBounds implements Backend, writing through to both tiers; the
// log appends only a merge that changes its state.
func (t *Tiered) MergeBounds(hash string, b Bounds) {
	t.mem.MergeBounds(hash, b)
	t.log.MergeBounds(hash, b) // error counted in DiskStats.Errors
}

// Decomposition implements Backend: memory first, then disk, promoting
// a hit.
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

// Info implements Backend: the disk index's entries in hash order, each
// with its memory-front entry's memo summaries, then the memory-front
// entries with memo states that the disk has no record for.
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

// Purge implements Backend: both tiers forget everything.
func (t *Tiered) Purge() {
	t.mem.Purge()
	t.log.Purge()
}

// Sync fsyncs the log's unsynced tail.
func (t *Tiered) Sync() error {
	return t.log.Sync()
}

// Compact compacts the log now.
func (t *Tiered) Compact() error {
	return t.log.Compact()
}

// Close closes the log; every call returns the first close's error.
func (t *Tiered) Close() error {
	return t.log.Close()
}
