package service

import (
	"context"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/decomp"
	"repro/internal/hyperbench"
	"repro/internal/store"
)

// TestDiskBackedServiceWarmRestart is the service-level warm restart
// contract: submit through a StoreDir-backed service, close it, reopen
// on the same directory, and every repeat submission must be a cache
// hit — zero solver runs, the witness re-validated from disk. The
// closed directory is also the export format: a byte copy of it,
// opened as another service's StoreDir, is just as warm.
func TestDiskBackedServiceWarmRestart(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	graphs := map[string]int{"c12": 12, "c16": 16, "c20": 20}

	svc, err := Open(Config{StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for name, n := range graphs {
		r := svc.Submit(ctx, Request{H: cycle(n), K: 2})
		if r.Err != nil || !r.OK {
			t.Fatalf("%s cold: ok=%v err=%v", name, r.OK, r.Err)
		}
	}
	// A refutation must persist too: a 3-uniform-ish structure a width-1
	// bound cannot cover.
	if r := svc.Submit(ctx, Request{H: grid(3), K: 1}); r.Err != nil || r.OK {
		t.Fatalf("grid cold refutation: ok=%v err=%v", r.OK, r.Err)
	}
	cold := svc.Stats()
	if cold.SolverRuns != int64(len(graphs))+1 {
		t.Fatalf("cold SolverRuns=%d, want %d", cold.SolverRuns, len(graphs)+1)
	}
	// An optimal job pins the exact width, for the copied directory.
	if r := svc.Submit(ctx, Request{H: cycle(12), K: 4, Mode: ModeOptimal}); r.Err != nil || r.Width != 2 {
		t.Fatalf("cold optimal: width=%d err=%v", r.Width, r.Err)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	copyDir := filepath.Join(t.TempDir(), "copy")
	if err := os.CopyFS(copyDir, os.DirFS(dir)); err != nil {
		t.Fatal(err)
	}

	svc, err = Open(Config{StoreDir: dir})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer svc.Close()
	for name, n := range graphs {
		r := svc.Submit(ctx, Request{H: cycle(n), K: 2})
		if r.Err != nil || !r.OK {
			t.Fatalf("%s warm: ok=%v err=%v", name, r.OK, r.Err)
		}
		if !r.CacheHit {
			t.Fatalf("%s warm submission missed the disk tier", name)
		}
		if r.Decomp == nil || decomp.CheckHD(r.Decomp) != nil || decomp.CheckWidth(r.Decomp, 2) != nil {
			t.Fatalf("%s warm witness invalid", name)
		}
	}
	if r := svc.Submit(ctx, Request{H: grid(3), K: 1}); r.Err != nil || r.OK || !r.CacheHit {
		t.Fatalf("grid warm refutation: ok=%v hit=%v err=%v", r.OK, r.CacheHit, r.Err)
	}
	warm := svc.Stats()
	if warm.SolverRuns != 0 {
		t.Fatalf("warm restart ran %d solvers, want 0", warm.SolverRuns)
	}
	if warm.PositiveHits != int64(len(graphs)) || warm.NegativeHits != 1 {
		t.Fatalf("warm hits: +%d -%d, want +%d -1", warm.PositiveHits, warm.NegativeHits, len(graphs))
	}

	// The copied directory warm-starts a second service just the same.
	cp, err := Open(Config{StoreDir: copyDir})
	if err != nil {
		t.Fatalf("open copy: %v", err)
	}
	defer cp.Close()
	for name, n := range graphs {
		r := cp.Submit(ctx, Request{H: cycle(n), K: 2})
		if r.Err != nil || !r.OK || !r.CacheHit {
			t.Fatalf("%s on the copy: ok=%v hit=%v err=%v", name, r.OK, r.CacheHit, r.Err)
		}
		if r.Decomp == nil || decomp.CheckHD(r.Decomp) != nil || decomp.CheckWidth(r.Decomp, 2) != nil {
			t.Fatalf("%s witness from the copy invalid", name)
		}
	}
	if r := cp.Submit(ctx, Request{H: grid(3), K: 1}); r.Err != nil || r.OK || !r.CacheHit {
		t.Fatalf("grid refutation on the copy: ok=%v hit=%v err=%v", r.OK, r.CacheHit, r.Err)
	}
	opt := cp.Submit(ctx, Request{H: cycle(12), K: 4, Mode: ModeOptimal})
	if opt.Err != nil || !opt.OK || opt.Width != 2 || !opt.CacheHit {
		t.Fatalf("optimal on the copy: %+v", opt)
	}
	if err := decomp.CheckHD(opt.Decomp); err != nil {
		t.Fatalf("optimal witness from the copy invalid: %v", err)
	}
	if runs := cp.Stats().SolverRuns; runs != 0 {
		t.Fatalf("copied directory ran %d solvers, want 0", runs)
	}
}

// TestOpenPrefersInjectedStore: an explicit Config.Store wins over
// StoreDir, and the service does not close a backend it was handed.
func TestOpenPrefersInjectedStore(t *testing.T) {
	mem := store.NewMemory(32)
	svc, err := Open(Config{Store: mem, StoreDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if svc.Store() != store.Backend(mem) {
		t.Fatal("injected store not used")
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	// The injected backend must still be usable after the service closed.
	mem.MergeBounds("g", store.Bounds{LB: 2})
	if _, ok := mem.Bounds("g"); !ok {
		t.Fatal("service closed a backend it does not own")
	}
}

// TestOpenBadStoreDir: an unopenable directory fails Open instead of
// silently degrading to memory-only.
func TestOpenBadStoreDir(t *testing.T) {
	if _, err := Open(Config{StoreDir: "/dev/null/not-a-dir"}); err == nil {
		t.Fatal("Open with an impossible StoreDir must fail")
	}
}

// TestDiskTierIOBudget is the disk tier's exact I/O budget. The traffic
// is the HyperBench-sim suite's moderate instances (scale 1, seed 2022,
// |E| <= 50, known hw 1..4), each submitted concurrently as a
// ModeOptimal job against a StoreDir-backed service that fsyncs every
// append. Four passes run over it: cold, warm in the same process,
// after a reopen on the same directory, and once more after the reopen.
// Each pass pins the disk appends, fsyncs, witness tree loads, solver
// runs and positive hits exactly, so a disk tier that re-solves,
// re-appends, or re-reads a witness it already promoted into the memory
// front fails here on any machine, however fast or slow.
func TestDiskTierIOBudget(t *testing.T) {
	var ins []hyperbench.Instance
	for _, in := range hyperbench.Suite(hyperbench.Config{Scale: 1, Seed: 2022}) {
		if in.Edges() <= 50 && in.KnownHW >= 1 && in.KnownHW <= 4 {
			ins = append(ins, in)
		}
	}
	const n = 14
	if len(ins) != n {
		t.Fatalf("traffic has %d instances, want %d", len(ins), n)
	}
	dir := t.TempDir()
	ctx := context.Background()
	open := func() *Service {
		t.Helper()
		svc, err := Open(Config{StoreDir: dir, MemoMaxGraphs: 2 * n, MaxConcurrent: 4})
		if err != nil {
			t.Fatal(err)
		}
		return svc
	}
	// pass submits every instance concurrently and returns the widths,
	// failing on any unsolved job or invalid witness.
	pass := func(name string, svc *Service) []int {
		t.Helper()
		widths := make([]int, n)
		errs := make([]string, n)
		var wg sync.WaitGroup
		for i, in := range ins {
			wg.Add(1)
			go func() {
				defer wg.Done()
				r := svc.Submit(ctx, Request{H: in.H, K: 6, Mode: ModeOptimal})
				switch {
				case r.Err != nil || !r.OK:
					errs[i] = "unsolved"
				case decomp.CheckHD(r.Decomp) != nil || decomp.CheckWidth(r.Decomp, r.Width) != nil:
					errs[i] = "invalid witness"
				}
				widths[i] = r.Width
			}()
		}
		wg.Wait()
		for i, e := range errs {
			if e != "" {
				t.Fatalf("%s pass, %s: %s", name, ins[i].Name, e)
			}
		}
		return widths
	}
	disk := func(svc *Service) store.DiskStats { return *svc.Store().Stats().Disk }

	svc := open()
	cold := pass("cold", svc)
	coldDisk, coldSt := disk(svc), svc.Stats()
	if coldSt.SolverRuns != n || coldDisk.Appends != 2*n || coldDisk.Syncs != 2*n {
		t.Fatalf("cold: SolverRuns=%d Appends=%d Syncs=%d, want %d, %d, %d",
			coldSt.SolverRuns, coldDisk.Appends, coldDisk.Syncs, n, 2*n, 2*n)
	}

	pass("warm", svc)
	warmDisk, warmSt := disk(svc), svc.Stats()
	if d := warmDisk.Appends - coldDisk.Appends; d != 0 {
		t.Fatalf("warm pass appended %d records, want 0", d)
	}
	if d := warmDisk.TreeLoads - coldDisk.TreeLoads; d != 0 {
		t.Fatalf("warm pass loaded %d trees from disk, want 0", d)
	}
	if d := warmSt.SolverRuns - coldSt.SolverRuns; d != 0 {
		t.Fatalf("warm pass ran %d solvers, want 0", d)
	}
	if warmSt.PositiveHits != n {
		t.Fatalf("warm PositiveHits=%d, want %d", warmSt.PositiveHits, n)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}

	svc = open()
	defer svc.Close()
	reopened := pass("reopen", svc)
	for i := range ins {
		if reopened[i] != cold[i] {
			t.Fatalf("%s: width %d after reopen, %d cold", ins[i].Name, reopened[i], cold[i])
		}
	}
	reDisk, reSt := disk(svc), svc.Stats()
	if reSt.SolverRuns != 0 || reDisk.Appends != 0 || reDisk.TreeLoads != n || reSt.PositiveHits != n {
		t.Fatalf("reopen: SolverRuns=%d Appends=%d TreeLoads=%d PositiveHits=%d, want 0, 0, %d, %d",
			reSt.SolverRuns, reDisk.Appends, reDisk.TreeLoads, reSt.PositiveHits, n, n)
	}

	// The reopen pass promoted every witness into the memory front, so
	// repeat traffic reads nothing more from disk.
	pass("second reopen", svc)
	if d := disk(svc).TreeLoads - reDisk.TreeLoads; d != 0 {
		t.Fatalf("second pass after reopen loaded %d trees from disk, want 0", d)
	}
}
