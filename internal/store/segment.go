package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// Framing: 4-byte little-endian payload length, 4-byte little-endian
// CRC-32C (Castagnoli) of the payload, payload bytes. The CRC guards
// both torn tails and bit rot. maxRecordBytes rejects absurd lengths on
// recovery, so a corrupted length cannot allocate gigabytes.
const (
	segmentBytes   = 4 << 20 // the active segment rotates past this size
	frameHeader    = 8
	maxRecordBytes = 64 << 20
)

var (
	crcTable  = crc32.MakeTable(crc32.Castagnoli)
	errClosed = errors.New("store: log closed")
	// errBadFrame marks a frame that fails its framing or whose payload
	// its reader rejects. Replay stops at the first one.
	errBadFrame = errors.New("store: bad frame")
)

// file is the segment log's seam to the file system, the calls it
// makes on a segment file. *os.File satisfies it.
type file interface {
	io.ReaderAt
	io.WriterAt
	Stat() (os.FileInfo, error)
	Sync() error
	Truncate(size int64) error
	Close() error
}

// openFile opens a segment file; tests swap it for a failing one.
var openFile = func(path string, flag int) (file, error) { return os.OpenFile(path, flag, 0o644) }

// segment is one append-only file. The highest id is the active one.
type segment struct {
	id   int
	path string
	f    file
	size int64
}

func segName(id int) string { return fmt.Sprintf("seg-%08d.log", id) }

// at is where a frame lies, with its full length; the zero at is none.
type at struct {
	sg     *segment
	off, n int64
}

// segLog is a crash-safe, append-only log of opaque, framed payloads in
// the segment files of one directory. Fsync 0 syncs every append; above
// 0 a goroutine syncs at that cadence. A failed fsync or rollback breaks
// the log, since the kernel may have dropped the unsynced pages and no
// later fsync can vouch for them: every write fails until a reopen
// recovers by replay. Reads keep working.
//
// Every payload goes to disk through write and comes back through
// readFrame. The owner holds *mu around every call; only the cadence
// goroutine takes it itself.
type segLog struct {
	dir          string
	fsync        time.Duration
	segmentBytes int64 // rotation size; tests shrink it
	mu           *sync.Mutex
	segs         []*segment // ascending id; last is active
	buf          []byte     // frame scratch
	dirty        bool       // active segment has unsynced appends
	broken       error      // why writes fail until reopen
	closed       bool
	stats        DiskStats // counters, the owner's included; it fills in the gauges
	stop         chan struct{}
	wg           sync.WaitGroup
}

// openSegLog opens (or creates) the segment log in dir and hands every
// valid payload, in log order, to apply; an apply error wrapping
// errBadFrame counts as a bad frame. A segment's replay stops at its
// first bad frame. On the last segment the rest is a torn tail and is
// truncated; on an earlier one it is bit rot and is skipped.
func openSegLog(dir string, fsync time.Duration, mu *sync.Mutex, apply func(at, []byte) error) (*segLog, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &segLog{dir: dir, fsync: fsync, segmentBytes: segmentBytes, mu: mu, stop: make(chan struct{})}
	ents, err := os.ReadDir(dir) // sorted by name, so by id
	if err != nil {
		return nil, err
	}
	for _, ent := range ents {
		var id int
		if _, err := fmt.Sscanf(ent.Name(), "seg-%08d.log", &id); err != nil || segName(id) != ent.Name() {
			continue // foreign file; never touch it
		}
		path := filepath.Join(dir, ent.Name())
		f, err := openFile(path, os.O_RDWR)
		if err != nil {
			s.closeAll()
			return nil, err
		}
		s.segs = append(s.segs, &segment{id: id, path: path, f: f})
	}
	for i, sg := range s.segs {
		if err := s.replay(sg, i == len(s.segs)-1, apply); err != nil {
			s.closeAll()
			return nil, err
		}
	}
	if len(s.segs) == 0 {
		if err := s.addSegment(1); err != nil {
			return nil, err
		}
	}
	if fsync > 0 {
		s.wg.Add(1)
		go s.syncLoop()
	}
	return s, nil
}

func (s *segLog) replay(sg *segment, last bool, apply func(at, []byte) error) error {
	info, err := sg.f.Stat()
	if err != nil {
		return err
	}
	size := info.Size()
	for sg.size < size {
		payload, err := readFrame(sg, sg.size, size)
		a := at{sg, sg.size, frameHeader + int64(len(payload))}
		if err == nil {
			err = apply(a, payload)
		}
		if errors.Is(err, errBadFrame) {
			break
		} else if err != nil {
			return err
		}
		sg.size += a.n
	}
	if sg.size < size && !last {
		s.stats.CorruptRecords++
	} else if sg.size < size {
		s.stats.TruncatedTail += size - sg.size
		return sg.f.Truncate(sg.size)
	}
	return nil
}

// readFrame returns the checksum-verified payload of the frame at off,
// which must end by limit. A bad frame's error wraps errBadFrame; a
// failed read returns the I/O error itself.
func readFrame(sg *segment, off, limit int64) ([]byte, error) {
	if off+frameHeader > limit {
		return nil, fmt.Errorf("%w: short header at %s:%d", errBadFrame, sg.path, off)
	}
	hdr := make([]byte, frameHeader)
	if _, err := sg.f.ReadAt(hdr, off); err != nil {
		return nil, err
	}
	n := int64(binary.LittleEndian.Uint32(hdr[0:4]))
	if n == 0 || n > maxRecordBytes || off+frameHeader+n > limit {
		return nil, fmt.Errorf("%w: length %d at %s:%d", errBadFrame, n, sg.path, off)
	}
	payload := make([]byte, n)
	if _, err := sg.f.ReadAt(payload, off+frameHeader); err != nil {
		return nil, err
	}
	if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(hdr[4:8]) {
		return nil, fmt.Errorf("%w: checksum mismatch at %s:%d", errBadFrame, sg.path, off)
	}
	return payload, nil
}

// read returns the checksum-verified payload of the frame at a.
func (s *segLog) read(a at) ([]byte, error) { return readFrame(a.sg, a.off, a.sg.size) }

// addSegment creates a fresh active segment and syncs the directory.
func (s *segLog) addSegment(id int) error {
	path := filepath.Join(s.dir, segName(id))
	f, err := openFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL)
	if err != nil {
		return err
	}
	s.segs = append(s.segs, &segment{id: id, path: path, f: f})
	return syncDir(s.dir)
}

func (s *segLog) active() *segment { return s.segs[len(s.segs)-1] }

func (s *segLog) closeAll() {
	for _, sg := range s.segs {
		sg.f.Close()
	}
}

// syncLoop is the background fsync cadence for fsync > 0.
func (s *segLog) syncLoop() {
	defer s.wg.Done()
	t := time.NewTicker(s.fsync)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			s.mu.Lock()
			s.sync() // a failure is counted and breaks the log
			s.mu.Unlock()
		case <-s.stop:
			return
		}
	}
}

// sync fsyncs the active segment if it has unsynced appends, and
// breaks the log if that fails.
func (s *segLog) sync() error {
	if s.broken != nil || !s.dirty || s.closed {
		return s.broken
	}
	if err := s.active().f.Sync(); err != nil {
		s.stats.Errors++
		s.broken = fmt.Errorf("store: log broken until reopened: %w", err)
		return s.broken
	}
	s.dirty = false
	s.stats.Syncs++
	return nil
}

// write frames payload at the end of the active segment. A failed
// write is rolled back by truncation, so a torn frame never sits in
// front of later good ones; a failed rollback breaks the log.
func (s *segLog) write(payload []byte) (at, error) {
	if s.closed {
		return at{}, errClosed
	} else if s.broken != nil {
		return at{}, s.broken
	}
	s.buf = binary.LittleEndian.AppendUint32(s.buf[:0], uint32(len(payload)))
	s.buf = binary.LittleEndian.AppendUint32(s.buf, crc32.Checksum(payload, crcTable))
	s.buf = append(s.buf, payload...)
	sg := s.active()
	a := at{sg, sg.size, int64(len(s.buf))}
	if _, err := sg.f.WriteAt(s.buf, a.off); err != nil {
		s.stats.Errors++
		if terr := sg.f.Truncate(a.off); terr != nil {
			s.broken = fmt.Errorf("store: log broken until reopened: %w", terr)
		}
		return at{}, err
	}
	sg.size += a.n
	s.dirty = true
	return a, nil
}

// append writes one payload, durable as the fsync policy says before it
// returns; full reports that the active segment reached segmentBytes.
func (s *segLog) append(payload []byte) (a at, full bool, err error) {
	if a, err = s.write(payload); err != nil {
		return at{}, false, err
	}
	s.stats.Appends++
	if s.fsync == 0 {
		if err := s.sync(); err != nil {
			return at{}, false, err
		}
	}
	return a, a.sg.size >= s.segmentBytes, nil
}

// rotate seals the active segment and opens the next one. Its I/O
// failures are counted in Errors.
func (s *segLog) rotate() {
	if s.closed || s.sync() != nil {
		return
	}
	if err := s.addSegment(s.active().id + 1); err != nil {
		s.stats.Errors++
	}
}

// compact writes payloads to a fresh segment, fsyncs it once, then
// removes every older one, returning where each payload landed;
// compact(nil) empties the log. The fresh segment's id is the highest,
// so for merge records a crash at any step, like a failed compaction,
// replays the originals and then some of their copies.
func (s *segLog) compact(payloads [][]byte) ([]at, error) {
	if s.closed {
		return nil, errClosed
	}
	if err := s.sync(); err != nil {
		return nil, err
	}
	if err := s.addSegment(s.active().id + 1); err != nil {
		s.stats.Errors++
		return nil, err
	}
	ats := make([]at, len(payloads))
	for i, p := range payloads {
		var err error
		if ats[i], err = s.write(p); err != nil {
			return nil, err
		}
	}
	if err := s.sync(); err != nil {
		return nil, err
	}
	for _, sg := range s.segs[:len(s.segs)-1] {
		sg.f.Close()
		if err := os.Remove(sg.path); err != nil {
			s.stats.Errors++
		}
	}
	s.segs = []*segment{s.active()}
	if err := syncDir(s.dir); err != nil {
		s.stats.Errors++
	}
	return ats, nil
}

// snapshot returns the counters with Segments, Bytes and Broken filled
// in.
func (s *segLog) snapshot() DiskStats {
	st := s.stats
	st.Segments, st.Broken = int64(len(s.segs)), s.broken != nil
	for _, sg := range s.segs {
		st.Bytes += sg.size
	}
	return st
}

// close fsyncs and closes every segment; every call returns why the log
// broke, if it did. The owner waits on wg after releasing *mu.
func (s *segLog) close() error {
	if !s.closed {
		s.sync() // a failure lands in s.broken
		s.closed = true
		close(s.stop)
		s.closeAll()
	}
	return s.broken
}

// syncDir fsyncs a directory so a just-created, renamed, or removed
// entry inside it survives a crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	d.Close()
	return err
}
