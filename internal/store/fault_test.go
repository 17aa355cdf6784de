package store

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"testing"
	"time"
)

var errInjected = errors.New("injected I/O error")

// faults fails the n-th Sync or ReadAt, counted across every segment
// file the log opens while it is installed.
type faults struct {
	mu                 sync.Mutex
	syncs, reads       int
	failSync, failRead int // 1-based call to fail; 0 fails none
}

// failNextSync and failNextRead arm the next call of that kind.
func (fs *faults) failNextSync() { fs.mu.Lock(); fs.failSync = fs.syncs + 1; fs.mu.Unlock() }
func (fs *faults) failNextRead() { fs.mu.Lock(); fs.failRead = fs.reads + 1; fs.mu.Unlock() }

// hit counts one call and reports whether it is the one to fail.
func (fs *faults) hit(sync bool) bool {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if sync {
		fs.syncs++
		return fs.syncs == fs.failSync
	}
	fs.reads++
	return fs.reads == fs.failRead
}

// faultFile is a segment file that fails the calls its faults arm.
type faultFile struct {
	*os.File
	fs *faults
}

func (f faultFile) Sync() error {
	if f.fs.hit(true) {
		return errInjected
	}
	return f.File.Sync()
}

func (f faultFile) ReadAt(p []byte, off int64) (int, error) {
	if f.fs.hit(false) {
		return 0, errInjected
	}
	return f.File.ReadAt(p, off)
}

// injectFaults routes every segment file the log opens through fs until
// the test ends.
func injectFaults(t *testing.T) *faults {
	fs := &faults{}
	old := openFile
	openFile = func(path string, flag int) (file, error) {
		f, err := os.OpenFile(path, flag, 0o644)
		if err != nil {
			return nil, err
		}
		return faultFile{f, fs}, nil
	}
	t.Cleanup(func() { openFile = old })
	return fs
}

// TestLogFaultRules: a failed fsync breaks the log, so every later write
// fails and appends nothing until a reopen, and Stats reads Broken from
// the failed fsync until the reopen. A reopen recovers every
// acknowledged record and nothing that was never attempted. A failed
// read is a miss, not corruption: neither Tree nor a compaction drops
// the tree it could not read.
func TestLogFaultRules(t *testing.T) {
	for _, fsync := range []time.Duration{0, time.Millisecond} {
		t.Run(fmt.Sprintf("fsync=%v", fsync), func(t *testing.T) {
			dir := t.TempDir()
			fs := injectFaults(t)
			l, err := OpenLog(LogConfig{Dir: dir, Fsync: fsync})
			if err != nil {
				t.Fatal(err)
			}
			attempted := map[string]Bounds{}
			var acked []string
			merge := func(i int) error {
				hash := fmt.Sprintf("h%02d", i)
				b := Bounds{LB: i%5 + 2}
				attempted[hash] = b
				err := l.MergeBounds(hash, b)
				if err == nil {
					acked = append(acked, hash)
				}
				return err
			}
			for i := 0; i < 10; i++ {
				if err := merge(i); err != nil {
					t.Fatal(err)
				}
			}
			if l.Stats().Broken {
				t.Fatal("Stats of a healthy log: Broken = true")
			}
			fs.failNextSync()
			if fsync == 0 {
				// The append's own fsync fails, and the call says so.
				if err := merge(10); !errors.Is(err, errInjected) {
					t.Fatalf("append whose fsync failed returned %v", err)
				}
			} else {
				// The cadence goroutine's fsync fails.
				if err := merge(10); err != nil {
					t.Fatal(err)
				}
				deadline := time.Now().Add(5 * time.Second)
				for l.Stats().Errors == 0 && time.Now().Before(deadline) {
					time.Sleep(time.Millisecond)
				}
			}
			if st := l.Stats(); !st.Broken {
				t.Fatalf("Stats after the failed fsync: Broken = false (%+v)", st)
			}
			if err := l.Sync(); !errors.Is(err, errInjected) {
				t.Fatalf("Sync on a broken log returned %v, want the fsync's error", err)
			}
			before := l.Stats()
			if err := merge(11); err == nil {
				t.Fatal("MergeBounds on a broken log succeeded")
			}
			if after := l.Stats(); after.Bytes != before.Bytes || after.Appends != before.Appends {
				t.Fatalf("a broken log appended: %+v -> %+v", before, after)
			}
			if err := l.Close(); !errors.Is(err, errInjected) {
				t.Fatalf("Close of a broken log returned %v", err)
			}

			l, err = OpenLog(LogConfig{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			if st := l.Stats(); st.Broken {
				t.Fatalf("Stats after the reopen: Broken = true (%+v)", st)
			}
			for _, hash := range acked {
				if b, ok := l.Bounds(hash); !ok || b != attempted[hash] {
					t.Fatalf("acknowledged %s recovered as %+v ok=%v, want %+v", hash, b, ok, attempted[hash])
				}
			}
			for _, hash := range l.Hashes() {
				if b, _ := l.Bounds(hash); b != attempted[hash] {
					t.Fatalf("recovered %s = %+v was never attempted (attempted %+v)", hash, b, attempted[hash])
				}
			}
			if err := l.MergeBounds("after-reopen", Bounds{LB: 2}); err != nil {
				t.Fatalf("the reopened log refuses writes: %v", err)
			}
		})
	}

	t.Run("reads", func(t *testing.T) {
		dir := t.TempDir()
		fs := injectFaults(t)
		l, err := OpenLog(LogConfig{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			if err := l.PutTree(fmt.Sprintf("g%d", i), testTree(i+2)); err != nil {
				t.Fatal(err)
			}
		}
		fs.failNextRead()
		if _, ok, err := l.Tree("g1"); ok || !errors.Is(err, errInjected) {
			t.Fatalf("Tree with a failing read: ok=%v err=%v", ok, err)
		}
		if tr, ok, err := l.Tree("g1"); !ok || err != nil || tr.Width() != 3 {
			t.Fatalf("a failed read dropped the tree: ok=%v err=%v", ok, err)
		}

		before := l.Stats()
		fs.failNextRead()
		if err := l.Compact(); !errors.Is(err, errInjected) {
			t.Fatalf("compaction with a failing tree read returned %v", err)
		}
		after := l.Stats()
		if after.Compactions != before.Compactions || after.Segments != before.Segments ||
			after.Trees != 4 || after.CorruptRecords != 0 || after.Errors != before.Errors+1 {
			t.Fatalf("aborted compaction: %+v -> %+v", before, after)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		l, err = OpenLog(LogConfig{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		for i := 0; i < 4; i++ {
			if tr, ok, err := l.Tree(fmt.Sprintf("g%d", i)); !ok || err != nil || tr.Width() != i+2 {
				t.Fatalf("g%d after the aborted compaction and a reopen: ok=%v err=%v", i, ok, err)
			}
		}
	})
}
