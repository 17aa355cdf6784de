package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"
)

// LogConfig configures a disk Log: where it lives and how often it
// fsyncs. Segments rotate at segmentBytes, and a rotation that finds
// more than half of the log's bytes dead compacts it in place.
type LogConfig struct {
	// Dir is the directory holding the segment files (required; created
	// if missing). One Log owns the directory exclusively.
	Dir string
	// Fsync is the durability cadence: 0 fsyncs the active segment after
	// every append (every acknowledged record survives a crash), > 0
	// fsyncs at most that often from a background goroutine (a crash can
	// lose at most the unsynced tail).
	Fsync time.Duration
}

// DiskStats is the disk tier's corner of Stats.
type DiskStats struct {
	Entries        int64 `json:"entries"`         // hypergraphs in the disk index
	Trees          int64 `json:"trees"`           // witness trees on disk
	Segments       int64 `json:"segments"`        // live segment files
	Bytes          int64 `json:"bytes"`           // total bytes across segments
	LiveBytes      int64 `json:"live_bytes"`      // bytes of records still current
	Appends        int64 `json:"appends"`         // records appended this session
	Syncs          int64 `json:"syncs"`           // fsync calls on segment files
	Compactions    int64 `json:"compactions"`     // compaction passes completed
	TruncatedTail  int64 `json:"truncated_tail"`  // bytes cut from a torn tail on open
	CorruptRecords int64 `json:"corrupt_records"` // records rejected by checksum/framing
	TreeLoads      int64 `json:"tree_loads"`      // witness trees read back from disk
	Errors         int64 `json:"errors"`          // I/O failures (appends kept best-effort)
	Broken         bool  `json:"broken"`          // a failed fsync refuses every write until reopen
}

// Record type tags. Records are merges, not assignments: replaying any
// superseded prefix before the current record converges to the same
// state, which makes compaction crash-safe at every step. Replay skips
// a record of any other kind (older logs hold "r" records of per-width
// memo summaries); compaction drops its bytes.
const (
	recBounds = "b" // full merged bounds for a hash
	recTree   = "t" // witness tree (strictly better than any before it)
	recDrop   = "d" // tombstone: forget the hash's tree (failed re-validation)
)

// logRecord is the JSON payload of one framed record.
type logRecord struct {
	T    string `json:"t"`
	Hash string `json:"h"`
	LB   int    `json:"lb,omitempty"`
	UB   int    `json:"ub,omitempty"`
	Tree *Tree  `json:"tree,omitempty"`
}

// decodeRecord parses a payload; one that is no record is a bad frame.
func decodeRecord(payload []byte) (logRecord, error) {
	var rec logRecord
	if err := json.Unmarshal(payload, &rec); err != nil {
		return logRecord{}, fmt.Errorf("%w: %v", errBadFrame, err)
	}
	return rec, nil
}

// logEntry indexes one hash's live records.
type logEntry struct {
	bounds Bounds
	b      at // the live bounds record
	tree   at // the live tree record; zero when there is none
	treeW  int
}

// Log is the plan store's disk tier: bounds, tree and tombstone records
// keyed by content hash in a segLog, indexed in memory. A witness tree
// is indexed by its frame and read back on demand, so an entry's
// resident cost is its bounds. Every change to the index goes through
// apply, except that compaction re-points live records at their copies
// and Purge empties it. All methods are safe for concurrent use.
type Log struct {
	mu        sync.Mutex // guards the index and seg
	seg       *segLog
	index     map[string]*logEntry
	liveBytes int64
}

// OpenLog opens (or creates) the log in cfg.Dir and replays it.
func OpenLog(cfg LogConfig) (*Log, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("store: LogConfig.Dir is required")
	}
	l := &Log{index: make(map[string]*logEntry)}
	seg, err := openSegLog(cfg.Dir, cfg.Fsync, &l.mu, func(a at, payload []byte) error {
		rec, err := decodeRecord(payload)
		l.apply(a, rec) // a zero rec is ignored
		return err
	})
	if err != nil {
		return nil, err
	}
	l.seg = seg
	return l, nil
}

// apply folds one valid record, framed at a, into the index.
func (l *Log) apply(a at, rec logRecord) {
	if rec.Hash == "" || (rec.T != recBounds && rec.T != recTree && rec.T != recDrop) {
		return
	}
	e := l.index[rec.Hash]
	if e == nil {
		e = &logEntry{}
		l.index[rec.Hash] = e
	}
	switch rec.T {
	case recBounds:
		e.bounds.Merge(Bounds{LB: rec.LB, UB: rec.UB})
		l.liveBytes += a.n - e.b.n
		e.b = a
	case recTree:
		w := rec.Tree.Width()
		if w == 0 {
			return
		}
		if e.tree.sg == nil || w < e.treeW {
			l.liveBytes += a.n - e.tree.n
			e.tree, e.treeW = a, w
		}
		e.bounds.Merge(Bounds{UB: w})
	case recDrop:
		l.liveBytes -= e.tree.n
		e.tree, e.treeW = at{}, 0
	}
}

// append writes one record and folds it into the index; then a full
// segment rotates, by compaction when the log is over two segments in
// size and more than half dead. The index is updated first, since a
// compaction rewrites the record from it. A failed compaction, counted
// in Errors, rotates instead. Caller holds l.mu.
func (l *Log) append(rec logRecord) error {
	payload, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	a, full, err := l.seg.append(payload)
	if err != nil {
		return err
	}
	l.apply(a, rec)
	if !full {
		return nil
	}
	if total := l.seg.snapshot().Bytes; total <= 2*l.seg.segmentBytes || 2*(total-l.liveBytes) <= total || l.compact() != nil {
		l.seg.rotate()
	}
	return nil
}

// Bounds returns the cached bounds for hash.
func (l *Log) Bounds(hash string) (Bounds, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	e := l.index[hash]
	if e == nil || !e.bounds.Known() {
		return Bounds{}, false
	}
	return e.bounds, true
}

// MergeBounds appends the merge of b into hash's bounds when it
// changes them; the post-merge bounds make every older bounds record
// for the hash dead weight.
func (l *Log) MergeBounds(hash string, b Bounds) error {
	if hash == "" || !b.Known() {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	var merged Bounds
	if e := l.index[hash]; e != nil {
		merged = e.bounds
	}
	if !merged.Merge(b) {
		return nil
	}
	return l.append(logRecord{T: recBounds, Hash: hash, LB: merged.LB, UB: merged.UB})
}

// Tree reads the live witness tree for hash back from disk. A record
// that fails verification is dropped from the index and is a miss; a
// failed read is a miss that keeps the tree indexed.
func (l *Log) Tree(hash string) (*Tree, bool, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	e := l.index[hash]
	if e == nil || e.tree.sg == nil {
		return nil, false, nil
	}
	payload, err := l.seg.read(e.tree)
	var rec logRecord
	if err == nil {
		rec, err = decodeRecord(payload)
	}
	switch {
	case err != nil && !errors.Is(err, errBadFrame):
		l.seg.stats.Errors++
	case err != nil || rec.Tree == nil:
		l.seg.stats.CorruptRecords++
		l.apply(at{}, logRecord{T: recDrop, Hash: hash})
	default:
		l.seg.stats.TreeLoads++
		return rec.Tree, true, nil
	}
	return nil, false, err
}

// TreeWidth reports the width of the live tree without reading it.
func (l *Log) TreeWidth(hash string) (int, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	e := l.index[hash]
	if e == nil || e.tree.sg == nil {
		return 0, false
	}
	return e.treeW, true
}

// PutTree appends t when it is strictly better (narrower) than the
// live tree for hash; its width merges into the bounds.
func (l *Log) PutTree(hash string, t *Tree) error {
	w := t.Width()
	if hash == "" || w == 0 {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if e := l.index[hash]; e != nil && e.tree.sg != nil && w >= e.treeW {
		return nil
	}
	return l.append(logRecord{T: recTree, Hash: hash, Tree: t})
}

// DropTree appends a tombstone so a tree that failed re-validation
// stays gone across restarts.
func (l *Log) DropTree(hash string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if e := l.index[hash]; e == nil || e.tree.sg == nil {
		return nil
	}
	return l.append(logRecord{T: recDrop, Hash: hash})
}

// Hashes lists every indexed hash in sorted order.
func (l *Log) Hashes() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.hashes()
}

func (l *Log) hashes() []string {
	out := make([]string, 0, len(l.index))
	for h := range l.index {
		out = append(out, h)
	}
	sort.Strings(out)
	return out
}

// Compact rewrites the live records into a fresh segment now.
func (l *Log) Compact() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.compact()
}

// compact hands the segment log every live record in hash order: the
// merged bounds re-encoded, each live tree's payload as read back and
// checksum-verified. A tree whose frame is bad is dropped; a failed
// read aborts, keeping the old segments. Caller holds l.mu.
func (l *Log) compact() error {
	var payloads [][]byte
	var live []*at // where each payload's record is indexed
	for _, hash := range l.hashes() {
		e := l.index[hash]
		if e.bounds.Known() {
			p, _ := json.Marshal(logRecord{T: recBounds, Hash: hash, LB: e.bounds.LB, UB: e.bounds.UB})
			payloads, live = append(payloads, p), append(live, &e.b)
		}
		if e.tree.sg == nil {
			continue
		}
		p, err := l.seg.read(e.tree)
		if errors.Is(err, errBadFrame) {
			l.seg.stats.CorruptRecords++
			l.apply(at{}, logRecord{T: recDrop, Hash: hash})
		} else if err != nil {
			l.seg.stats.Errors++
			return err
		} else {
			payloads, live = append(payloads, p), append(live, &e.tree)
		}
	}
	ats, err := l.seg.compact(payloads)
	if err != nil {
		return err
	}
	l.seg.stats.Compactions++
	l.liveBytes = 0
	for _, e := range l.index {
		e.b = at{}
	}
	for i, a := range ats {
		*live[i] = a
		l.liveBytes += a.n
	}
	return nil
}

// Sync forces an fsync of the active segment.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seg.sync()
}

// Purge removes every segment and starts the log empty.
func (l *Log) Purge() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, err := l.seg.compact(nil); err != nil {
		return err
	}
	l.index, l.liveBytes = make(map[string]*logEntry), 0
	return nil
}

// Stats snapshots the disk counters.
func (l *Log) Stats() DiskStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := l.seg.snapshot()
	st.Entries, st.LiveBytes = int64(len(l.index)), l.liveBytes
	for _, e := range l.index {
		if e.tree.sg != nil {
			st.Trees++
		}
	}
	return st
}

// Close fsyncs and closes every segment. Every call returns the first
// call's result, so both the log's owner and its builder can close it.
func (l *Log) Close() error {
	l.mu.Lock()
	err := l.seg.close()
	l.mu.Unlock()
	l.seg.wg.Wait()
	return err
}
