package store

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// LogConfig sizes a disk Log. The zero value (plus a Dir) picks
// defaults.
type LogConfig struct {
	// Dir is the directory holding the segment files (required; created
	// if missing). One Log owns the directory exclusively.
	Dir string
	// SegmentBytes rotates the active segment once it grows past this
	// size. Default 4 MiB.
	SegmentBytes int64
	// Fsync is the durability cadence: 0 fsyncs the active segment after
	// every append (every acknowledged record survives a crash), > 0
	// fsyncs at most that often from a background goroutine (a crash can
	// lose at most the unsynced tail).
	Fsync time.Duration
	// CompactRatio is the garbage fraction (dead bytes / total bytes)
	// beyond which a segment rotation triggers background compaction.
	// Default 0.5; negative disables auto-compaction.
	CompactRatio float64
}

func (c LogConfig) withDefaults() LogConfig {
	if c.SegmentBytes <= 0 {
		c.SegmentBytes = 4 << 20
	}
	if c.CompactRatio == 0 {
		c.CompactRatio = 0.5
	}
	return c
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
}

// Record type tags. Records are merges, not assignments: replaying any
// superseded prefix before the current record converges to the same
// state, which is what makes "compacted segment appended after the
// originals" crash-safe at every intermediate step. Replay skips a
// well-framed record of any other kind (older logs hold "r" records of
// per-width memo summaries); compaction drops its bytes.
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

// Framing: 4-byte little-endian payload length, 4-byte little-endian
// CRC-32C (Castagnoli) of the payload, payload bytes. The CRC guards
// both torn tails (a partial record fails the check) and bit rot (a
// flipped payload bit fails it too).
const frameHeader = 8

// maxRecordBytes rejects absurd lengths during recovery so a corrupted
// length field cannot make the scanner allocate gigabytes.
const maxRecordBytes = 64 << 20

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// segment is one append-only file. The highest id is the active one.
type segment struct {
	id   int
	path string
	f    *os.File
	size int64
}

func segName(id int) string { return fmt.Sprintf("seg-%08d.log", id) }

// logEntry is the in-memory index of one hash's live records: bounds
// are held directly (small), the witness tree stays on disk and is
// read back on demand through its frame offset.
type logEntry struct {
	bounds Bounds

	treeSeg *segment // nil = no live tree
	treeOff int64    // frame start offset of the live tree record
	treeW   int

	// frame sizes of the live records, for garbage accounting.
	bBytes, tBytes int64
}

// Log is a crash-safe, append-only record log over segment files:
// bounds / tree / tombstone records keyed by content hash,
// length-prefixed and checksummed, fsync'd on a configurable cadence.
// Opening a log replays every segment into an in-memory index, cutting
// a torn tail off the last segment (a crash mid-append loses at most
// the unsynced suffix, never earlier records). Rotation bounds segment
// size; compaction rewrites live entries into a fresh segment and
// drops superseded bounds/trees. Witness trees are indexed by offset
// and read back (checksum-verified) on demand, so the resident cost of
// a disk entry is its bounds, not the tree payload.
//
// All methods are safe for concurrent use.
type Log struct {
	cfg LogConfig

	mu             sync.Mutex
	index          map[string]*logEntry
	segs           []*segment // ascending id; last is active
	dirty          bool       // active segment has unsynced appends
	broken         bool       // an append failed and could not be rolled back
	compactPending bool       // a background compaction is queued or running
	inCompact      bool       // Compact is rewriting (suppresses rotation)
	closed         bool
	liveBytes      int64

	// stats holds the counters; Stats fills in the gauges.
	stats DiskStats

	stop chan struct{}
	wg   sync.WaitGroup
}

// OpenLog opens (or creates) the log in cfg.Dir, replaying existing
// segments and truncating a torn tail on the last one.
func OpenLog(cfg LogConfig) (*Log, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("store: LogConfig.Dir is required")
	}
	cfg = cfg.withDefaults()
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	l := &Log{cfg: cfg, index: make(map[string]*logEntry), stop: make(chan struct{})}

	names, err := filepath.Glob(filepath.Join(cfg.Dir, "seg-*.log"))
	if err != nil {
		return nil, err
	}
	sort.Strings(names)
	for _, path := range names {
		var id int
		base := filepath.Base(path)
		if _, err := fmt.Sscanf(base, "seg-%08d.log", &id); err != nil || segName(id) != base {
			continue // foreign file; never touch it
		}
		f, err := os.OpenFile(path, os.O_RDWR, 0o644)
		if err != nil {
			l.closeAll()
			return nil, err
		}
		l.segs = append(l.segs, &segment{id: id, path: path, f: f})
	}
	for i, sg := range l.segs {
		if err := l.replay(sg, i == len(l.segs)-1); err != nil {
			l.closeAll()
			return nil, err
		}
	}
	if len(l.segs) == 0 {
		if err := l.addSegment(1); err != nil {
			return nil, err
		}
	}
	if cfg.Fsync > 0 {
		l.wg.Add(1)
		go l.syncLoop()
	}
	return l, nil
}

// replay scans one segment record by record, applying each valid record
// to the index. The scan stops at the first invalid record: on the last
// segment the remainder is a torn tail and is truncated so new appends
// land after valid data; on earlier segments it is bit rot and the
// remainder is skipped (compaction rewrites the survivors).
func (l *Log) replay(sg *segment, last bool) error {
	info, err := sg.f.Stat()
	if err != nil {
		return err
	}
	size := info.Size()
	var off int64
	hdr := make([]byte, frameHeader)
	var payload []byte
	for off+frameHeader <= size {
		if _, err := sg.f.ReadAt(hdr, off); err != nil {
			return err
		}
		n := int64(binary.LittleEndian.Uint32(hdr[0:4]))
		crc := binary.LittleEndian.Uint32(hdr[4:8])
		if n == 0 || n > maxRecordBytes || off+frameHeader+n > size {
			break
		}
		if int64(cap(payload)) < n {
			payload = make([]byte, n)
		}
		payload = payload[:n]
		if _, err := sg.f.ReadAt(payload, off+frameHeader); err != nil {
			return err
		}
		if crc32.Checksum(payload, crcTable) != crc {
			break
		}
		var rec logRecord
		if err := json.Unmarshal(payload, &rec); err != nil {
			break
		}
		l.apply(sg, off, frameHeader+n, rec)
		off += frameHeader + n
	}
	if off < size {
		if last {
			if err := sg.f.Truncate(off); err != nil {
				return err
			}
			l.stats.TruncatedTail += size - off
		} else {
			l.stats.CorruptRecords++
		}
	}
	sg.size = off
	return nil
}

// apply folds one valid record into the index. frameLen is the full
// on-disk footprint (header + payload) for garbage accounting.
func (l *Log) apply(sg *segment, off, frameLen int64, rec logRecord) {
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
		l.liveBytes += frameLen - e.bBytes
		e.bBytes = frameLen
	case recTree:
		w := rec.Tree.Width()
		if w == 0 {
			return
		}
		if e.treeSeg == nil || w < e.treeW {
			l.liveBytes += frameLen - e.tBytes
			e.treeSeg, e.treeOff, e.treeW, e.tBytes = sg, off, w, frameLen
		}
		e.bounds.Merge(Bounds{UB: w})
	case recDrop:
		l.liveBytes -= e.tBytes
		e.treeSeg, e.treeOff, e.treeW, e.tBytes = nil, 0, 0, 0
	}
}

// addSegment creates and fsyncs a fresh active segment. Caller must
// hold l.mu (or own the log exclusively, as in OpenLog).
func (l *Log) addSegment(id int) error {
	path := filepath.Join(l.cfg.Dir, segName(id))
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	l.segs = append(l.segs, &segment{id: id, path: path, f: f})
	return syncDir(l.cfg.Dir)
}

func (l *Log) active() *segment { return l.segs[len(l.segs)-1] }

func (l *Log) closeAll() {
	for _, sg := range l.segs {
		sg.f.Close()
	}
}

// syncLoop is the background fsync cadence for Fsync > 0.
func (l *Log) syncLoop() {
	defer l.wg.Done()
	t := time.NewTicker(l.cfg.Fsync)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			l.mu.Lock()
			l.syncLocked()
			l.mu.Unlock()
		case <-l.stop:
			return
		}
	}
}

// syncLocked fsyncs the active segment if dirty. Caller holds l.mu.
func (l *Log) syncLocked() {
	if !l.dirty || l.closed {
		return
	}
	if err := l.active().f.Sync(); err != nil {
		l.stats.Errors++
		return
	}
	l.dirty = false
	l.stats.Syncs++
}

// append frames, writes, and (per cadence) fsyncs one record into the
// active segment, returning the segment and frame offset the record
// landed at. Caller holds l.mu. A failed write is rolled back by
// truncating to the pre-append offset so a torn record can never sit
// in front of later good ones; if even that fails the log is marked
// broken and refuses further appends (reads keep working).
func (l *Log) append(rec logRecord) (sg *segment, off, frameLen int64, err error) {
	if l.closed {
		return nil, 0, 0, fmt.Errorf("store: log closed")
	}
	if l.broken {
		return nil, 0, 0, fmt.Errorf("store: log broken by earlier write failure")
	}
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, 0, 0, err
	}
	buf := make([]byte, frameHeader+len(payload))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.Checksum(payload, crcTable))
	copy(buf[frameHeader:], payload)

	sg = l.active()
	off = sg.size
	if _, werr := sg.f.WriteAt(buf, off); werr != nil {
		l.stats.Errors++
		if terr := sg.f.Truncate(off); terr != nil {
			l.broken = true
		}
		return nil, 0, 0, werr
	}
	sg.size += int64(len(buf))
	l.stats.Appends++
	if l.cfg.Fsync == 0 {
		if serr := sg.f.Sync(); serr != nil {
			l.stats.Errors++
			return nil, 0, 0, serr
		}
		l.stats.Syncs++
	} else {
		l.dirty = true
	}
	l.maybeRotate()
	return sg, off, int64(len(buf)), nil
}

// maybeRotate starts a new segment once the active one is full, and
// kicks off background compaction when the garbage ratio warrants it.
// Caller holds l.mu. Rotation is suppressed while Compact itself is
// writing — a compacted segment larger than SegmentBytes grows in
// place until the next natural rotation instead of re-triggering
// compaction in a loop.
func (l *Log) maybeRotate() {
	if l.inCompact || l.active().size < l.cfg.SegmentBytes {
		return
	}
	l.syncLocked()
	if err := l.addSegment(l.active().id + 1); err != nil {
		l.stats.Errors++
		return
	}
	total := l.totalBytes()
	if l.cfg.CompactRatio >= 0 && !l.compactPending &&
		total > 2*l.cfg.SegmentBytes &&
		float64(total-l.liveBytes) > l.cfg.CompactRatio*float64(total) {
		l.compactPending = true
		l.wg.Add(1)
		go func() {
			defer l.wg.Done()
			l.Compact()
			l.mu.Lock()
			l.compactPending = false
			l.mu.Unlock()
		}()
	}
}

func (l *Log) totalBytes() int64 {
	var n int64
	for _, sg := range l.segs {
		n += sg.size
	}
	return n
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

// MergeBounds merges b and appends a record when the merge changed the
// on-disk state. Appending the post-merge bounds (not the delta) makes
// every older bounds record for the hash dead weight, which is what
// compaction reclaims.
func (l *Log) MergeBounds(hash string, b Bounds) error {
	if hash == "" || !b.Known() {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	e := l.index[hash]
	if e == nil {
		e = &logEntry{}
		l.index[hash] = e
	}
	if !e.bounds.Merge(b) {
		return nil
	}
	_, _, n, err := l.append(logRecord{T: recBounds, Hash: hash, LB: e.bounds.LB, UB: e.bounds.UB})
	if err == nil {
		l.liveBytes += n - e.bBytes
		e.bBytes = n
	}
	return err
}

// Tree reads the live witness tree for hash back from disk, verifying
// its checksum. A record that fails verification (bit rot after open)
// is dropped from the index and reported as a miss.
func (l *Log) Tree(hash string) (*Tree, bool, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	e := l.index[hash]
	if e == nil || e.treeSeg == nil {
		return nil, false, nil
	}
	rec, err := l.readRecord(e.treeSeg, e.treeOff)
	if err != nil || rec.Tree == nil {
		l.stats.CorruptRecords++
		l.liveBytes -= e.tBytes
		e.treeSeg, e.treeOff, e.treeW, e.tBytes = nil, 0, 0, 0
		return nil, false, err
	}
	l.stats.TreeLoads++
	return rec.Tree, true, nil
}

// TreeWidth reports the width of the live tree without reading it.
func (l *Log) TreeWidth(hash string) (int, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	e := l.index[hash]
	if e == nil || e.treeSeg == nil {
		return 0, false
	}
	return e.treeW, true
}

// readRecord reads and verifies one frame. Caller holds l.mu.
func (l *Log) readRecord(sg *segment, off int64) (logRecord, error) {
	var rec logRecord
	hdr := make([]byte, frameHeader)
	if _, err := sg.f.ReadAt(hdr, off); err != nil {
		return rec, err
	}
	n := int64(binary.LittleEndian.Uint32(hdr[0:4]))
	crc := binary.LittleEndian.Uint32(hdr[4:8])
	if n == 0 || n > maxRecordBytes {
		return rec, fmt.Errorf("store: corrupt record length %d at %s:%d", n, sg.path, off)
	}
	payload := make([]byte, n)
	if _, err := sg.f.ReadAt(payload, off+frameHeader); err != nil {
		return rec, err
	}
	if crc32.Checksum(payload, crcTable) != crc {
		return rec, fmt.Errorf("store: checksum mismatch at %s:%d", sg.path, off)
	}
	if err := json.Unmarshal(payload, &rec); err != nil {
		return rec, err
	}
	return rec, nil
}

// PutTree appends t when it is strictly better (narrower) than the
// live tree for hash, and merges its width into the bounds.
func (l *Log) PutTree(hash string, t *Tree) error {
	w := t.Width()
	if hash == "" || w == 0 {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	e := l.index[hash]
	if e == nil {
		e = &logEntry{}
		l.index[hash] = e
	}
	if e.treeSeg != nil && w >= e.treeW {
		return nil
	}
	sg, off, n, err := l.append(logRecord{T: recTree, Hash: hash, Tree: t})
	if err != nil {
		return err
	}
	l.liveBytes += n - e.tBytes
	e.treeSeg, e.treeOff, e.treeW, e.tBytes = sg, off, w, n
	e.bounds.Merge(Bounds{UB: w})
	return nil
}

// DropTree appends a tombstone so a tree that failed re-validation
// stays gone across restarts.
func (l *Log) DropTree(hash string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	e := l.index[hash]
	if e == nil || e.treeSeg == nil {
		return nil
	}
	if _, _, _, err := l.append(logRecord{T: recDrop, Hash: hash}); err != nil {
		return err
	}
	l.liveBytes -= e.tBytes
	e.treeSeg, e.treeOff, e.treeW, e.tBytes = nil, 0, 0, 0
	return nil
}

// Hashes lists every indexed hash in sorted order.
func (l *Log) Hashes() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]string, 0, len(l.index))
	for h := range l.index {
		out = append(out, h)
	}
	sort.Strings(out)
	return out
}

// Compact rewrites every live entry into a fresh segment and removes
// the older ones. Crash safety: the compacted segment has a higher id
// than everything it replaces, and records are merges — replaying
// originals followed by a (possibly partial) compacted segment
// converges to the same state, so a crash at any point between "start
// writing" and "old segments removed" recovers cleanly.
func (l *Log) Compact() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("store: log closed")
	}
	l.syncLocked()
	nOld := len(l.segs)
	if err := l.addSegment(l.active().id + 1); err != nil {
		l.stats.Errors++
		return err
	}
	l.inCompact = true
	defer func() { l.inCompact = false }()
	appendsBefore := l.stats.Appends

	hashes := make([]string, 0, len(l.index))
	for h := range l.index {
		hashes = append(hashes, h)
	}
	sort.Strings(hashes)

	var live int64
	for _, hash := range hashes {
		e := l.index[hash]
		if e.bounds.Known() {
			_, _, n, err := l.append(logRecord{T: recBounds, Hash: hash, LB: e.bounds.LB, UB: e.bounds.UB})
			if err != nil {
				return err
			}
			e.bBytes = n
			live += n
		} else {
			e.bBytes = 0
		}
		if e.treeSeg != nil {
			rec, err := l.readRecord(e.treeSeg, e.treeOff)
			if err != nil || rec.Tree == nil {
				l.stats.CorruptRecords++
				e.treeSeg, e.treeOff, e.treeW, e.tBytes = nil, 0, 0, 0
			} else {
				sg, off, n, err := l.append(logRecord{T: recTree, Hash: hash, Tree: rec.Tree})
				if err != nil {
					return err
				}
				e.treeSeg, e.treeOff, e.tBytes = sg, off, n
				live += n
			}
		}
	}
	// Compaction writes are maintenance, not traffic.
	l.stats.Appends = appendsBefore
	if err := l.active().f.Sync(); err != nil {
		l.stats.Errors++
		return err
	}
	l.dirty = false
	l.stats.Syncs++

	// The compacted state is durable; the originals are now redundant.
	old := l.segs[:nOld]
	l.segs = append([]*segment(nil), l.segs[nOld:]...)
	for _, sg := range old {
		sg.f.Close()
		if err := os.Remove(sg.path); err != nil {
			l.stats.Errors++
		}
	}
	if err := syncDir(l.cfg.Dir); err != nil {
		l.stats.Errors++
	}
	l.liveBytes = live
	l.stats.Compactions++
	return nil
}

// Sync forces an fsync of the active segment.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	before := l.stats.Errors
	l.syncLocked()
	if l.stats.Errors > before {
		return fmt.Errorf("store: fsync failed")
	}
	return nil
}

// Purge removes every segment and starts the log empty.
func (l *Log) Purge() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("store: log closed")
	}
	next := l.active().id + 1
	for _, sg := range l.segs {
		sg.f.Close()
		if err := os.Remove(sg.path); err != nil {
			l.stats.Errors++
		}
	}
	l.segs = nil
	l.index = make(map[string]*logEntry)
	l.liveBytes = 0
	l.dirty = false
	if err := l.addSegment(next); err != nil {
		return err
	}
	return nil
}

// Stats snapshots the disk counters.
func (l *Log) Stats() DiskStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := l.stats
	st.Entries = int64(len(l.index))
	st.Segments = int64(len(l.segs))
	st.Bytes = l.totalBytes()
	st.LiveBytes = l.liveBytes
	for _, e := range l.index {
		if e.treeSeg != nil {
			st.Trees++
		}
	}
	return st
}

// Close fsyncs and closes every segment. Idempotent.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.syncLocked()
	failed := l.dirty
	l.closed = true
	close(l.stop)
	l.closeAll()
	l.mu.Unlock()
	l.wg.Wait()
	if failed {
		return fmt.Errorf("store: final fsync failed; unsynced tail may be lost")
	}
	return nil
}

// syncDir fsyncs a directory so a just-created, renamed, or removed
// entry inside it survives a crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return err
	}
	return d.Close()
}
