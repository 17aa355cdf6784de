package store

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// testTree returns a small witness tree of the given width.
func testTree(w int) *Tree {
	lam := make([]int, w)
	bag := make([]int, w)
	for i := range lam {
		lam[i], bag[i] = i, i
	}
	return &Tree{Lambda: lam, Bag: bag, Children: []*Tree{{Lambda: []int{0}, Bag: []int{0}}}}
}

// compactLog compacts l now, under its lock, as Tiered.Compact does.
func compactLog(l *Log) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.compact()
}

// lastSegment returns the path of the highest-numbered segment file.
func lastSegment(t testing.TB, dir string) string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	if err != nil || len(names) == 0 {
		t.Fatalf("no segments in %s (err=%v)", dir, err)
	}
	return names[len(names)-1]
}

// legacySummaryFrame frames, as append does, a per-width memo summary
// record ("r") in the exact payload older logs wrote for hash. The
// current log writes no such record and must skip it on replay.
func legacySummaryFrame(hash string) []byte {
	payload := []byte(`{"t":"r","h":"` + hash + `","ref":[{"k":1,"states":5},{"k":2,"states":17}]}`)
	buf := make([]byte, frameHeader+len(payload))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.Checksum(payload, crcTable))
	copy(buf[frameHeader:], payload)
	return buf
}

// appendFrames appends raw frames to a closed log's last segment.
func appendFrames(t testing.TB, dir string, frames ...[]byte) {
	t.Helper()
	f, err := os.OpenFile(lastSegment(t, dir), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	for _, fr := range frames {
		if _, err := f.Write(fr); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// recordKinds lists the type tag of every frame in a well-formed
// segment, in order.
func recordKinds(t *testing.T, data []byte) string {
	t.Helper()
	var kinds strings.Builder
	for off := 0; off < len(data); {
		n := int(binary.LittleEndian.Uint32(data[off:]))
		var rec logRecord
		if err := json.Unmarshal(data[off+frameHeader:off+frameHeader+n], &rec); err != nil {
			t.Fatalf("frame at %d: %v", off, err)
		}
		kinds.WriteString(rec.T)
		off += frameHeader + n
	}
	return kinds.String()
}

func TestLogRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(LogConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.MergeBounds("g1", Bounds{LB: 3}); err != nil {
		t.Fatal(err)
	}
	if err := l.PutTree("g1", testTree(4)); err != nil {
		t.Fatal(err)
	}
	if err := l.PutTree("g2", testTree(2)); err != nil {
		t.Fatal(err)
	}
	if err := l.DropTree("g2"); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// One frame per change, of the three record kinds only.
	data, err := os.ReadFile(lastSegment(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	if got := recordKinds(t, data); got != "bttd" {
		t.Fatalf("segment record kinds %q, want %q", got, "bttd")
	}

	l, err = OpenLog(LogConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if b, ok := l.Bounds("g1"); !ok || b.LB != 3 || b.UB != 4 {
		t.Fatalf("g1 bounds %+v ok=%v, want LB=3 UB=4", b, ok)
	}
	tr, ok, err := l.Tree("g1")
	if err != nil || !ok || tr.Width() != 4 || tr.Nodes() != 2 {
		t.Fatalf("g1 tree w=%d n=%d ok=%v err=%v", tr.Width(), tr.Nodes(), ok, err)
	}
	// g2's tombstone must survive the restart; its UB (from the tree)
	// stays — the witness is gone, the width-level fact is not.
	if _, ok, _ := l.Tree("g2"); ok {
		t.Fatal("g2 tree must stay dropped after reopen")
	}
	if b, ok := l.Bounds("g2"); !ok || b.UB != 2 {
		t.Fatalf("g2 bounds %+v ok=%v, want UB=2", b, ok)
	}
	if n := len(l.Hashes()); n != 2 {
		t.Fatalf("len=%d, want 2", n)
	}
}

// TestLogSkipsLegacySummaryRecords: a directory whose segments hold
// per-width memo summary records, as older logs wrote them, opens
// with no corrupt record and no torn tail. A hash that had only
// summaries gets no entry; every other hash keeps its bounds and tree,
// records after a legacy frame still replay, and the next compaction
// drops the legacy bytes.
func TestLogSkipsLegacySummaryRecords(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(LogConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	l.MergeBounds("g1", Bounds{LB: 3})
	l.PutTree("g1", testTree(4))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	appendFrames(t, dir, legacySummaryFrame("g1"), legacySummaryFrame("only-memos"))

	check := func(l *Log, stage string) {
		t.Helper()
		if st := l.Stats(); st.CorruptRecords != 0 || st.TruncatedTail != 0 {
			t.Fatalf("%s: corrupt=%d truncated=%d, want 0", stage, st.CorruptRecords, st.TruncatedTail)
		}
		if got := strings.Join(l.Hashes(), ","); got != "g1,g2" {
			t.Fatalf("%s: hashes %q, want g1,g2 (no entry for a summaries-only hash)", stage, got)
		}
		if b, ok := l.Bounds("g1"); !ok || b.LB != 3 || b.UB != 4 {
			t.Fatalf("%s: g1 bounds %+v ok=%v", stage, b, ok)
		}
		if tr, ok, err := l.Tree("g1"); !ok || err != nil || tr.Width() != 4 {
			t.Fatalf("%s: g1 tree ok=%v err=%v", stage, ok, err)
		}
		if tr, ok, err := l.Tree("g2"); !ok || err != nil || tr.Width() != 2 {
			t.Fatalf("%s: g2 tree ok=%v err=%v", stage, ok, err)
		}
	}

	// g2 lands after the legacy frames in the same segment.
	l, err = OpenLog(LogConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := l.Bounds("only-memos"); ok {
		t.Fatal("summaries-only hash has bounds")
	}
	l.PutTree("g2", testTree(2))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l, err = OpenLog(LogConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	check(l, "reopen")
	if err := compactLog(l); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	names, _ := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	for _, name := range names {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		if got := recordKinds(t, data); strings.Contains(got, "r") {
			t.Fatalf("%s holds record kinds %q after compaction", filepath.Base(name), got)
		}
	}
	l, err = OpenLog(LogConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	check(l, "after compaction")
}

// TestLogSupersededRecordsDoNotResurrect: merges only tighten across
// append + replay — an older, looser record replayed before a newer
// one never wins.
func TestLogSupersededRecordsDoNotResurrect(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(LogConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	l.MergeBounds("g", Bounds{LB: 2, UB: 9})
	l.PutTree("g", testTree(6))
	l.PutTree("g", testTree(3)) // better: supersedes
	l.PutTree("g", testTree(5)) // worse: no-op
	l.MergeBounds("g", Bounds{LB: 3})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l, err = OpenLog(LogConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if b, _ := l.Bounds("g"); b.LB != 3 || b.UB != 3 {
		t.Fatalf("bounds %+v, want LB=3 UB=3", b)
	}
	if tr, ok, _ := l.Tree("g"); !ok || tr.Width() != 3 {
		t.Fatalf("tree width %d ok=%v, want 3", tr.Width(), ok)
	}
}

func TestLogRotationAndCompaction(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments: rotation compacts on its own too, and the test
	// then compacts explicitly.
	l, err := OpenLog(LogConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	l.seg.segmentBytes = 512
	// Lots of superseded records: the same hashes get ever-better trees.
	for round := 9; round >= 2; round-- {
		for i := 0; i < 8; i++ {
			hash := fmt.Sprintf("g%d", i)
			l.PutTree(hash, testTree(round))
			l.MergeBounds(hash, Bounds{LB: 2})
		}
	}
	st := l.Stats()
	if st.Segments < 2 {
		t.Fatalf("segments=%d, want rotation to have happened", st.Segments)
	}
	if st.LiveBytes >= st.Bytes {
		t.Fatalf("live=%d total=%d: superseded records must count as garbage", st.LiveBytes, st.Bytes)
	}
	preBytes, preCompactions := st.Bytes, st.Compactions

	if err := compactLog(l); err != nil {
		t.Fatal(err)
	}
	st = l.Stats()
	if st.Segments != 1 {
		t.Fatalf("segments=%d after compaction, want 1", st.Segments)
	}
	if st.Bytes >= preBytes {
		t.Fatalf("bytes %d -> %d: compaction must reclaim garbage", preBytes, st.Bytes)
	}
	if st.Compactions != preCompactions+1 {
		t.Fatalf("compactions %d -> %d, want +1", preCompactions, st.Compactions)
	}
	// Live state intact, trees readable from the compacted segment.
	for i := 0; i < 8; i++ {
		hash := fmt.Sprintf("g%d", i)
		if tr, ok, err := l.Tree(hash); err != nil || !ok || tr.Width() != 2 {
			t.Fatalf("%s after compaction: w=%d ok=%v err=%v", hash, tr.Width(), ok, err)
		}
	}
	// Appends after compaction still work and everything survives reopen.
	l.PutTree("fresh", testTree(3))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l, err = OpenLog(LogConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if n := len(l.Hashes()); n != 9 {
		t.Fatalf("len=%d after reopen, want 9", n)
	}
	if tr, ok, _ := l.Tree("g3"); !ok || tr.Width() != 2 {
		t.Fatalf("g3 lost by compaction+reopen (w=%d ok=%v)", tr.Width(), ok)
	}
}

// TestLogAutoCompaction: the append whose rotation finds the garbage
// ratio over the threshold compacts before it returns.
func TestLogAutoCompaction(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(LogConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	l.seg.segmentBytes = 256
	// One hash, endlessly superseded: nearly everything is garbage.
	for w := 60; w >= 2; w-- {
		l.PutTree("g", testTree(w))
	}
	if st := l.Stats(); st.Compactions == 0 {
		t.Fatalf("no compaction: %+v", st)
	}
	if tr, ok, err := l.Tree("g"); err != nil || !ok || tr.Width() != 2 {
		t.Fatalf("g after auto-compaction: w=%d ok=%v err=%v", tr.Width(), ok, err)
	}
}

// TestLogCompactionFsyncsOnce: under the default per-append fsync, a
// compaction of N live entries writes them without fsyncing each one:
// it adds exactly one fsync (of the compacted segment), and its
// rewrites count as no Appends.
func TestLogCompactionFsyncsOnce(t *testing.T) {
	l, err := OpenLog(LogConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	const n = 50
	for i := 0; i < n; i++ {
		hash := fmt.Sprintf("g%d", i)
		l.MergeBounds(hash, Bounds{LB: 2})
		l.PutTree(hash, testTree(3))
	}
	before := l.Stats()
	if err := compactLog(l); err != nil {
		t.Fatal(err)
	}
	after := l.Stats()
	if after.Compactions != before.Compactions+1 {
		t.Fatalf("compactions %d -> %d, want +1", before.Compactions, after.Compactions)
	}
	if after.Syncs != before.Syncs+1 || after.Appends != before.Appends {
		t.Fatalf("compacting %d entries: syncs %d -> %d, appends %d -> %d; want +1 sync, no appends",
			n, before.Syncs, after.Syncs, before.Appends, after.Appends)
	}
	if after.Entries != n || after.Trees != n || after.LiveBytes != after.Bytes {
		t.Fatalf("after compaction: %+v", after)
	}
}

// TestLogCompactingCallKeepsItsRecord: when MergeBounds, PutTree or
// DropTree itself rotates into a compaction, the compacted segment
// carries the call's own record, and the index points into it: the
// record is served right after the call and after a reopen.
func TestLogCompactingCallKeepsItsRecord(t *testing.T) {
	cases := []struct {
		name  string
		call  func(l *Log) error
		check func(l *Log) error
	}{
		{"MergeBounds", func(l *Log) error { return l.MergeBounds("g", Bounds{LB: 3}) },
			func(l *Log) error {
				if b, ok := l.Bounds("g"); !ok || b.LB != 3 || b.UB != 4 {
					return fmt.Errorf("bounds %+v ok=%v, want LB=3 UB=4", b, ok)
				}
				return nil
			}},
		{"PutTree", func(l *Log) error { return l.PutTree("g", testTree(2)) },
			func(l *Log) error {
				if tr, ok, err := l.Tree("g"); err != nil || !ok || tr.Width() != 2 {
					return fmt.Errorf("tree ok=%v err=%v, want width 2", ok, err)
				}
				if b, _ := l.Bounds("g"); b.UB != 2 {
					return fmt.Errorf("bounds %+v, want UB=2", b)
				}
				return nil
			}},
		{"DropTree", func(l *Log) error { return l.DropTree("g") },
			func(l *Log) error {
				if _, ok, err := l.Tree("g"); ok || err != nil {
					return fmt.Errorf("dropped tree served (ok=%v err=%v)", ok, err)
				}
				if b, ok := l.Bounds("g"); !ok || b.UB != 4 {
					return fmt.Errorf("bounds %+v ok=%v, want UB=4", b, ok)
				}
				return nil
			}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			l, err := OpenLog(LogConfig{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			if err := l.PutTree("g", testTree(4)); err != nil {
				t.Fatal(err)
			}
			// A filler hash whose every bounds record supersedes the one
			// before: nearly all of the log is dead.
			for lb := 2; lb < 100; lb++ {
				if err := l.MergeBounds("filler", Bounds{LB: lb}); err != nil {
					t.Fatal(err)
				}
			}
			// Shrink the rotation size so the call's own append finds a
			// full segment in a log over two segments in size.
			l.seg.segmentBytes = l.Stats().Bytes / 3
			if err := c.call(l); err != nil {
				t.Fatal(err)
			}
			if st := l.Stats(); st.Compactions != 1 || st.Segments != 1 {
				t.Fatalf("the call did not compact: %+v", st)
			}
			if err := c.check(l); err != nil {
				t.Fatalf("right after the call: %v", err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			if l, err = OpenLog(LogConfig{Dir: dir}); err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			if err := c.check(l); err != nil {
				t.Fatalf("after reopen: %v", err)
			}
			if st := l.Stats(); st.CorruptRecords != 0 || st.TruncatedTail != 0 {
				t.Fatalf("reopened compacted log: %+v", st)
			}
		})
	}
}

// TestLogTornTailRecovery: garbage appended after the last valid
// record (a crash mid-append) is truncated on open; every earlier
// record survives; new appends land cleanly after recovery.
func TestLogTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(LogConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := l.PutTree(fmt.Sprintf("g%d", i), testTree(i%3+2)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate the torn tail: half a frame of garbage.
	seg := lastSegment(t, dir)
	f, err := os.OpenFile(seg, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x2a, 0x00, 0x00, 0x00, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	l, err = OpenLog(LogConfig{Dir: dir})
	if err != nil {
		t.Fatalf("open with torn tail: %v", err)
	}
	if st := l.Stats(); st.TruncatedTail == 0 {
		t.Fatalf("torn tail not detected: %+v", st)
	}
	for i := 0; i < 10; i++ {
		if tr, ok, err := l.Tree(fmt.Sprintf("g%d", i)); err != nil || !ok || tr.Width() != i%3+2 {
			t.Fatalf("g%d lost to torn tail (w=%d ok=%v err=%v)", i, tr.Width(), ok, err)
		}
	}
	// Recovery truncated; the next append must be durable and readable.
	if err := l.PutTree("after", testTree(2)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l, err = OpenLog(LogConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, ok, _ := l.Tree("after"); !ok {
		t.Fatal("post-recovery append lost")
	}
}

// TestLogTornTailEveryOffset: a synced log truncated at EVERY byte
// offset inside its final region must reopen with exactly the records
// whose frames lie fully before the cut — no error, no corruption.
func TestLogTornTailEveryOffset(t *testing.T) {
	master := t.TempDir()
	l, err := OpenLog(LogConfig{Dir: master})
	if err != nil {
		t.Fatal(err)
	}
	type mark struct {
		hash string
		end  int64 // file offset at which the record is complete
	}
	var marks []mark
	for i := 0; i < 5; i++ {
		hash := fmt.Sprintf("g%d", i)
		if err := l.PutTree(hash, testTree(2)); err != nil {
			t.Fatal(err)
		}
		marks = append(marks, mark{hash, l.seg.active().size})
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	seg := lastSegment(t, master)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}

	// Sample every offset in the last two records plus a spread before.
	start := marks[2].end
	for cut := start; cut <= int64(len(data)); cut += 7 {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(seg)), data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		lc, err := OpenLog(LogConfig{Dir: dir})
		if err != nil {
			t.Fatalf("cut=%d: open: %v", cut, err)
		}
		for _, m := range marks {
			_, ok, terr := lc.Tree(m.hash)
			want := m.end <= cut
			if terr != nil || ok != want {
				t.Fatalf("cut=%d %s: ok=%v err=%v, want ok=%v", cut, m.hash, ok, terr, want)
			}
		}
		lc.Close()
	}
}

// TestLogBitFlipRecovery: a flipped bit inside a record fails its
// checksum — the log reopens, serves every record before the flip, and
// never serves the corrupted one.
func TestLogBitFlipRecovery(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(LogConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	var offsets []int64
	for i := 0; i < 6; i++ {
		offsets = append(offsets, l.seg.active().size)
		if err := l.PutTree(fmt.Sprintf("g%d", i), testTree(2)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip one payload bit in the record for g3.
	seg := lastSegment(t, dir)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[offsets[3]+frameHeader+10] ^= 0x40
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	l, err = OpenLog(LogConfig{Dir: dir})
	if err != nil {
		t.Fatalf("open with bit flip: %v", err)
	}
	defer l.Close()
	for i := 0; i < 3; i++ {
		if tr, ok, err := l.Tree(fmt.Sprintf("g%d", i)); err != nil || !ok || tr.Width() != 2 {
			t.Fatalf("g%d before the flip must survive (ok=%v err=%v)", i, ok, err)
		}
	}
	if _, ok, _ := l.Tree("g3"); ok {
		t.Fatal("corrupted record must never be served")
	}
}

func TestLogPurge(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(LogConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	l.PutTree("g", testTree(2))
	if err := l.Purge(); err != nil {
		t.Fatal(err)
	}
	if len(l.Hashes()) != 0 {
		t.Fatal("purge left entries")
	}
	l.PutTree("h", testTree(3))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l, err = OpenLog(LogConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, ok := l.Bounds("g"); ok {
		t.Fatal("purged entry resurrected on reopen")
	}
	if _, ok, _ := l.Tree("h"); !ok {
		t.Fatal("post-purge append lost on reopen")
	}
}

// TestLogFsyncCadence: with a cadence the appends are buffered and the
// background loop (or an explicit Sync) flushes them.
func TestLogFsyncCadence(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(LogConfig{Dir: dir, Fsync: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		l.MergeBounds(fmt.Sprintf("g%d", i), Bounds{LB: 2})
	}
	deadline := time.Now().Add(5 * time.Second)
	for l.Stats().Syncs == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if st := l.Stats(); st.Syncs == 0 {
		t.Fatalf("background fsync never ran: %+v", st)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestLogConcurrency: concurrent merges, puts, reads, and a compaction
// under the race detector.
func TestLogConcurrency(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(LogConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	l.seg.segmentBytes = 2048
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				hash := fmt.Sprintf("g%d", i%10)
				switch g % 4 {
				case 0:
					l.MergeBounds(hash, Bounds{LB: i%4 + 2})
				case 1:
					l.PutTree(hash, testTree(i%5+2))
				case 2:
					l.Bounds(hash)
					l.Tree(hash)
				case 3:
					l.TreeWidth(hash)
					if i%10 == 0 {
						l.DropTree(hash)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if err := compactLog(l); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l, err = OpenLog(LogConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if st := l.Stats(); st.Entries == 0 || st.CorruptRecords != 0 {
		t.Fatalf("after concurrent traffic: %+v", st)
	}
}

// TestLogAppendAllocBudget bounds the allocations of a state-changing
// append at Fsync 0 by those of the log that framed each record into a
// fresh buffer: 3 for a MergeBounds and 4 for a PutTree of a new hash.
// The segment log frames into its scratch buffer, so it measures 2 and
// 3 (the race detector adds one to the PutTree).
func TestLogAppendAllocBudget(t *testing.T) {
	l, err := OpenLog(LogConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	lb := 1
	merge := testing.AllocsPerRun(100, func() {
		lb++
		if err := l.MergeBounds("g", Bounds{LB: lb}); err != nil {
			t.Fatal(err)
		}
	})
	hashes := make([]string, 101)
	for i := range hashes {
		hashes[i] = fmt.Sprintf("t%d", i)
	}
	tr, i := testTree(3), 0
	put := testing.AllocsPerRun(100, func() {
		if err := l.PutTree(hashes[i], tr); err != nil {
			t.Fatal(err)
		}
		i++
	})
	t.Logf("allocs: MergeBounds %v, PutTree of a new hash %v", merge, put)
	if merge > 3 || put > 4 {
		t.Fatalf("allocs: MergeBounds %v (budget 3), PutTree %v (budget 4)", merge, put)
	}
}
