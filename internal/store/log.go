package store

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
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

// segmentBytes is the size past which the active segment rotates.
const segmentBytes = 4 << 20

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
// Every record goes to disk through write and comes back through
// readFrame. Every change to the index goes through apply, except that
// compaction re-points live records at their new offsets and Purge
// empties it.
//
// All methods are safe for concurrent use.
type Log struct {
	cfg LogConfig
	// segmentBytes is the rotation size; tests shrink it.
	segmentBytes int64

	mu        sync.Mutex
	index     map[string]*logEntry
	segs      []*segment // ascending id; last is active
	dirty     bool       // active segment has unsynced appends
	broken    bool       // an append failed and could not be rolled back
	closed    bool
	closeErr  error // the first Close's result, returned by every Close
	liveBytes int64

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
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	l := &Log{cfg: cfg, segmentBytes: segmentBytes, index: make(map[string]*logEntry), stop: make(chan struct{})}

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

// replay scans one segment frame by frame, applying each valid record
// to the index. The scan stops at the first bad frame: on the last
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
	for off < size {
		rec, n, err := readFrame(sg, off, size)
		if errors.Is(err, errBadFrame) {
			break
		}
		if err != nil {
			return err
		}
		l.apply(sg, off, n, rec)
		off += n
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

// write frames rec and writes it at the end of the active segment,
// returning the segment, frame offset and frame length it landed at.
// Caller holds l.mu. A failed write is rolled back by truncating to
// the pre-write offset so a torn record can never sit in front of
// later good ones; if even that fails the log is marked broken and
// refuses further writes (reads keep working).
func (l *Log) write(rec logRecord) (sg *segment, off, frameLen int64, err error) {
	if l.closed {
		return nil, 0, 0, errClosed
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
	return sg, off, int64(len(buf)), nil
}

// errClosed is returned by every write to a closed log.
var errClosed = errors.New("store: log closed")

// errBadFrame marks a frame that fails its framing: a short header, a
// length out of bounds, a checksum mismatch or a payload that is not
// a record. Replay stops at the first one.
var errBadFrame = errors.New("store: bad frame")

// readFrame reads and verifies the frame at off, which must end at or
// before limit, returning its record and its full length. A bad frame
// returns an error wrapping errBadFrame; a failed read returns the I/O
// error itself. Caller holds l.mu (or owns the log, as in OpenLog).
func readFrame(sg *segment, off, limit int64) (logRecord, int64, error) {
	var rec logRecord
	if off+frameHeader > limit {
		return rec, 0, fmt.Errorf("%w: short header at %s:%d", errBadFrame, sg.path, off)
	}
	hdr := make([]byte, frameHeader)
	if _, err := sg.f.ReadAt(hdr, off); err != nil {
		return rec, 0, err
	}
	n := int64(binary.LittleEndian.Uint32(hdr[0:4]))
	if n == 0 || n > maxRecordBytes || off+frameHeader+n > limit {
		return rec, 0, fmt.Errorf("%w: length %d at %s:%d", errBadFrame, n, sg.path, off)
	}
	payload := make([]byte, n)
	if _, err := sg.f.ReadAt(payload, off+frameHeader); err != nil {
		return rec, 0, err
	}
	if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(hdr[4:8]) {
		return rec, 0, fmt.Errorf("%w: checksum mismatch at %s:%d", errBadFrame, sg.path, off)
	}
	if err := json.Unmarshal(payload, &rec); err != nil {
		return rec, 0, fmt.Errorf("%w: %v at %s:%d", errBadFrame, err, sg.path, off)
	}
	return rec, frameHeader + n, nil
}

// append writes one record, fsyncs it per cadence, folds it into the
// index and rotates a full segment. Caller holds l.mu. The index is
// updated before rotation: a rotation that compacts rewrites the
// record from the index, so it must already point at it.
func (l *Log) append(rec logRecord) error {
	sg, off, n, err := l.write(rec)
	if err != nil {
		return err
	}
	l.stats.Appends++
	if l.cfg.Fsync == 0 {
		if err := sg.f.Sync(); err != nil {
			l.stats.Errors++
			return err
		}
		l.stats.Syncs++
	} else {
		l.dirty = true
	}
	l.apply(sg, off, n, rec)
	if sg.size >= l.segmentBytes {
		l.rotate()
	}
	return nil
}

// rotate seals the full active segment. When the log is over two
// segments in size and more than half of its bytes are dead, it
// compacts in place; otherwise it opens a fresh segment. Caller holds
// l.mu. Its I/O failures are counted in DiskStats.Errors; the append
// that rotated has already succeeded.
func (l *Log) rotate() {
	if total := l.totalBytes(); total > 2*l.segmentBytes && 2*(total-l.liveBytes) > total {
		_ = l.compact()
		return
	}
	l.syncLocked()
	if err := l.addSegment(l.active().id + 1); err != nil {
		l.stats.Errors++
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

// MergeBounds appends the merge of b into hash's bounds when it
// changes them. Appending the post-merge bounds (not the delta) makes
// every older bounds record for the hash dead weight, which is what
// compaction reclaims.
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
	rec, _, err := readFrame(e.treeSeg, e.treeOff, e.treeSeg.size)
	if err != nil || rec.Tree == nil {
		l.stats.CorruptRecords++
		l.apply(nil, 0, 0, logRecord{T: recDrop, Hash: hash})
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

// PutTree appends t when it is strictly better (narrower) than the
// live tree for hash; its width merges into the bounds.
func (l *Log) PutTree(hash string, t *Tree) error {
	w := t.Width()
	if hash == "" || w == 0 {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if e := l.index[hash]; e != nil && e.treeSeg != nil && w >= e.treeW {
		return nil
	}
	return l.append(logRecord{T: recTree, Hash: hash, Tree: t})
}

// DropTree appends a tombstone so a tree that failed re-validation
// stays gone across restarts.
func (l *Log) DropTree(hash string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if e := l.index[hash]; e == nil || e.treeSeg == nil {
		return nil
	}
	return l.append(logRecord{T: recDrop, Hash: hash})
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

// compact rewrites every live entry into a fresh segment, fsyncs it
// once and removes the older ones. Caller holds l.mu. Crash safety:
// the compacted segment has a higher id than everything it replaces,
// and records are merges — replaying originals followed by a (possibly
// partial) compacted segment converges to the same state, so a crash
// at any point between "start writing" and "old segments removed"
// recovers cleanly. Its writes are maintenance, not traffic: they
// count no Appends.
func (l *Log) compact() error {
	if l.closed {
		return errClosed
	}
	l.syncLocked()
	nOld := len(l.segs)
	if err := l.addSegment(l.active().id + 1); err != nil {
		l.stats.Errors++
		return err
	}

	hashes := make([]string, 0, len(l.index))
	for h := range l.index {
		hashes = append(hashes, h)
	}
	sort.Strings(hashes)

	var live int64
	for _, hash := range hashes {
		e := l.index[hash]
		if e.bounds.Known() {
			_, _, n, err := l.write(logRecord{T: recBounds, Hash: hash, LB: e.bounds.LB, UB: e.bounds.UB})
			if err != nil {
				return err
			}
			e.bBytes = n
			live += n
		} else {
			e.bBytes = 0
		}
		if e.treeSeg == nil {
			continue
		}
		rec, _, err := readFrame(e.treeSeg, e.treeOff, e.treeSeg.size)
		if err != nil || rec.Tree == nil {
			l.stats.CorruptRecords++
			e.treeSeg, e.treeOff, e.treeW, e.tBytes = nil, 0, 0, 0
			continue
		}
		sg, off, n, err := l.write(logRecord{T: recTree, Hash: hash, Tree: rec.Tree})
		if err != nil {
			return err
		}
		e.treeSeg, e.treeOff, e.tBytes = sg, off, n
		live += n
	}
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
		return errClosed
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
	return l.addSegment(next)
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

// Close fsyncs and closes every segment. Every call returns the first
// call's result, so both a service that owns the log and the operator
// code that built it can close it.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return l.closeErr
	}
	l.syncLocked()
	if l.dirty {
		l.closeErr = fmt.Errorf("store: final fsync failed; unsynced tail may be lost")
	}
	l.closed = true
	close(l.stop)
	l.closeAll()
	l.mu.Unlock()
	l.wg.Wait()
	return l.closeErr
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
