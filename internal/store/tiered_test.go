package store

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func openTiered(t *testing.T, dir string, maxGraphs int) *Tiered {
	t.Helper()
	ts, err := OpenTiered(TieredConfig{MaxGraphs: maxGraphs, Log: LogConfig{Dir: dir}})
	if err != nil {
		t.Fatal(err)
	}
	return ts
}

// TestTieredWarmRestart is the tentpole contract: everything written
// before Close is served after a reopen.
func TestTieredWarmRestart(t *testing.T) {
	dir := t.TempDir()
	ts := openTiered(t, dir, 32)
	ts.MergeBounds("g1", Bounds{LB: 3})
	ts.PutDecomposition("g1", testTree(4))
	ts.PutDecomposition("g2", testTree(2))
	ts.DropDecomposition("g2")
	if err := ts.Close(); err != nil {
		t.Fatal(err)
	}

	ts = openTiered(t, dir, 32)
	defer ts.Close()
	if b, ok := ts.Bounds("g1"); !ok || b.LB != 3 || b.UB != 4 {
		t.Fatalf("g1 bounds %+v ok=%v after restart", b, ok)
	}
	tr, ok := ts.Decomposition("g1")
	if !ok || tr.Width() != 4 {
		t.Fatalf("g1 tree after restart: ok=%v w=%d", ok, tr.Width())
	}
	// The read-back promoted g1 into the memory front: the next read
	// must be a memory hit, not another disk load.
	loads := ts.Stats().Disk.TreeLoads
	if _, ok := ts.Decomposition("g1"); !ok {
		t.Fatal("promoted tree lost")
	}
	if got := ts.Stats().Disk.TreeLoads; got != loads {
		t.Fatalf("second read hit disk (loads %d -> %d), promotion failed", loads, got)
	}
	// The drop survived the restart; g2's width-level fact did too.
	if _, ok := ts.Decomposition("g2"); ok {
		t.Fatal("dropped tree resurrected by restart")
	}
	if b, ok := ts.Bounds("g2"); !ok || b.UB != 2 {
		t.Fatalf("g2 bounds %+v ok=%v after restart", b, ok)
	}
}

// TestTieredEvictionFallsBackToDisk: the memory front evicts under
// LRU pressure, the disk tier does not — an evicted entry is still a
// hit.
func TestTieredEvictionFallsBackToDisk(t *testing.T) {
	dir := t.TempDir()
	ts := openTiered(t, dir, 8)
	defer ts.Close()
	for i := 0; i < 40; i++ {
		hash := fmt.Sprintf("g%03d", i)
		ts.MergeBounds(hash, Bounds{LB: 2})
		ts.PutDecomposition(hash, testTree(i%4+2))
	}
	if ev := ts.Stats().Evictions; ev == 0 {
		t.Fatal("memory front never evicted; test is not exercising the fallback")
	}
	for i := 0; i < 40; i++ {
		hash := fmt.Sprintf("g%03d", i)
		if b, ok := ts.Bounds(hash); !ok || b.LB != 2 {
			t.Fatalf("%s bounds lost to eviction: %+v ok=%v", hash, b, ok)
		}
		if tr, ok := ts.Decomposition(hash); !ok || tr.Width() != i%4+2 {
			t.Fatalf("%s tree lost to eviction (ok=%v)", hash, ok)
		}
	}
	if ts.Stats().Disk.TreeLoads == 0 {
		t.Fatal("no disk read-backs; eviction fallback untested")
	}
}

// TestTieredSummariesFlushOnClose: memo tables are memory-only but
// their per-width summaries survive restarts via the flush-on-close.
func TestTieredSummariesFlushOnClose(t *testing.T) {
	dir := t.TempDir()
	ts := openTiered(t, dir, 32)
	ts.MergeBounds("g", Bounds{LB: 3})
	m, _ := ts.Memo("g", 2)
	m.Insert("dead-a")
	m.Insert("dead-b")
	if err := ts.Close(); err != nil {
		t.Fatal(err)
	}

	ts = openTiered(t, dir, 32)
	defer ts.Close()
	infos := ts.Info(0)
	if len(infos) != 1 || infos[0].Hash != "g" {
		t.Fatalf("info after restart: %+v", infos)
	}
	found := false
	for _, ws := range infos[0].Memos {
		if ws.K == 2 && ws.States == 2 {
			found = true
		}
	}
	if !found {
		t.Fatalf("memo summary lost across restart: %+v", infos[0].Memos)
	}
}

// TestTieredExportImport: the export format is the closed log
// directory itself. A byte copy of it, opened elsewhere, serves the
// source's bounds, trees and refutation summaries, and keeps accepting
// durable appends of its own without touching the source.
func TestTieredExportImport(t *testing.T) {
	srcDir := t.TempDir()
	src := openTiered(t, srcDir, 32)
	src.MergeBounds("g1", Bounds{LB: 3})
	src.PutDecomposition("g1", testTree(4))
	src.PutDecomposition("g2", testTree(2))
	m, _ := src.Memo("g1", 2)
	m.Insert("dead-state")
	if err := src.Close(); err != nil {
		t.Fatal(err)
	}

	dstDir := filepath.Join(t.TempDir(), "copy")
	if err := os.CopyFS(dstDir, os.DirFS(srcDir)); err != nil {
		t.Fatal(err)
	}
	dst := openTiered(t, dstDir, 32)
	if b, ok := dst.Bounds("g1"); !ok || b.LB != 3 || b.UB != 4 {
		t.Fatalf("copied g1 bounds %+v ok=%v", b, ok)
	}
	if tr, ok := dst.Decomposition("g2"); !ok || tr.Width() != 2 {
		t.Fatalf("copied g2 tree missing (ok=%v)", ok)
	}
	if got := dst.Log().Refuted("g1"); len(got) != 1 || got[0] != (WidthSummary{K: 2, States: 1}) {
		t.Fatalf("copied g1 refutation summaries %+v", got)
	}
	dst.MergeBounds("g3", Bounds{LB: 5})
	if err := dst.Close(); err != nil {
		t.Fatal(err)
	}

	dst = openTiered(t, dstDir, 32)
	defer dst.Close()
	if b, ok := dst.Bounds("g3"); !ok || b.LB != 5 {
		t.Fatalf("append on the copy lost after reopen: %+v ok=%v", b, ok)
	}
	src = openTiered(t, srcDir, 32)
	defer src.Close()
	if _, ok := src.Bounds("g3"); ok {
		t.Fatal("append on the copy leaked into the source directory")
	}
}

func TestTieredPurge(t *testing.T) {
	dir := t.TempDir()
	ts := openTiered(t, dir, 32)
	ts.MergeBounds("g", Bounds{LB: 3})
	ts.PutDecomposition("g", testTree(4))
	ts.Purge()
	if _, ok := ts.Bounds("g"); ok {
		t.Fatal("purge left bounds")
	}
	if err := ts.Close(); err != nil {
		t.Fatal(err)
	}
	ts = openTiered(t, dir, 32)
	defer ts.Close()
	if _, ok := ts.Bounds("g"); ok {
		t.Fatal("purged entry resurrected by restart")
	}
}

// TestTieredStats: the top level describes the memory front, Disk the
// log underneath.
func TestTieredStats(t *testing.T) {
	ts := openTiered(t, t.TempDir(), 32)
	defer ts.Close()
	ts.MergeBounds("g", Bounds{LB: 3})
	ts.PutDecomposition("g", testTree(4))
	st := ts.Stats()
	if st.Disk == nil {
		t.Fatal("tiered stats must carry the disk tier")
	}
	if st.Disk.Entries != 1 || st.Disk.Trees != 1 || st.Disk.Appends == 0 {
		t.Fatalf("disk stats %+v", *st.Disk)
	}
	if st.Entries != 1 {
		t.Fatalf("mem stats %+v", st)
	}
}

func TestTieredConcurrency(t *testing.T) {
	ts := openTiered(t, t.TempDir(), 16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				hash := fmt.Sprintf("g%d", i%12)
				switch g % 4 {
				case 0:
					ts.MergeBounds(hash, Bounds{LB: i%4 + 2})
				case 1:
					ts.PutDecomposition(hash, testTree(i%5+2))
				case 2:
					ts.Bounds(hash)
					ts.Decomposition(hash)
				case 3:
					m, _ := ts.Memo(hash, i%3+2)
					m.Insert(fmt.Sprintf("k%d", i))
					if i%20 == 0 {
						ts.Sync()
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if err := ts.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := ts.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ts.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
}
