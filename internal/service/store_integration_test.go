package service

import (
	"context"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/decomp"
	"repro/internal/hypergraph"
	"repro/internal/store"
)

// barrierBackend wraps a store.Backend and blocks the first `need`
// Bounds lookups until all of them have arrived. Submitting N identical
// requests against it guarantees all N are in flight before any result
// lands, making coalescing assertions deterministic. It doubles as the
// test of Config.Store pluggability.
type barrierBackend struct {
	store.Backend
	mu      sync.Mutex
	need    int
	arrived int
	release chan struct{}
}

func newBarrierBackend(inner store.Backend, need int) *barrierBackend {
	return &barrierBackend{Backend: inner, need: need, release: make(chan struct{})}
}

func (b *barrierBackend) Bounds(hash string) (store.Bounds, bool) {
	b.mu.Lock()
	b.arrived++
	if b.arrived == b.need {
		close(b.release)
	}
	b.mu.Unlock()
	<-b.release
	return b.Backend.Bounds(hash)
}

// TestCoalescingExactlyOneSolver is the acceptance check for request
// coalescing: N concurrent identical submissions launch exactly one
// solver; the other N-1 share its result.
func TestCoalescingExactlyOneSolver(t *testing.T) {
	const n = 8
	bb := newBarrierBackend(store.NewMemory(32), n)
	svc := New(Config{TokenBudget: 2, MaxConcurrent: 4, Store: bb})
	defer svc.Close()

	h := cycle(20)
	results := make([]Result, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = svc.Submit(context.Background(), Request{H: h, K: 2})
		}(i)
	}
	wg.Wait()

	for i, r := range results {
		if r.Err != nil || !r.OK {
			t.Fatalf("job %d: ok=%v err=%v", i, r.OK, r.Err)
		}
		if err := decomp.CheckHD(r.Decomp); err != nil {
			t.Fatalf("job %d: invalid HD: %v", i, err)
		}
	}
	st := svc.Stats()
	if st.SolverRuns != 1 {
		t.Fatalf("SolverRuns=%d, want exactly 1 for %d identical requests", st.SolverRuns, n)
	}
	// Every non-leader either waited on the flight (Coalesced) or — if
	// it was descheduled past the leader's completion — was answered by
	// the in-flight store re-check (PositiveHits). Neither ran a solver.
	if st.Coalesced+st.PositiveHits != n-1 {
		t.Fatalf("Coalesced=%d PositiveHits=%d, want them to sum to %d", st.Coalesced, st.PositiveHits, n-1)
	}
	if st.Completed != n {
		t.Fatalf("Completed=%d, want %d", st.Completed, n)
	}
}

// TestBatchDuplicatesCoalesce: duplicate requests inside one Batch run
// one solver, and every duplicate still gets a full, valid result in
// its slot.
func TestBatchDuplicatesCoalesce(t *testing.T) {
	const n = 6
	bb := newBarrierBackend(store.NewMemory(32), n)
	svc := New(Config{TokenBudget: 2, MaxConcurrent: n, Store: bb})
	defer svc.Close()

	h := cycle(16)
	reqs := make([]Request, n)
	for i := range reqs {
		reqs[i] = Request{H: h, K: 2}
	}
	results := svc.Batch(context.Background(), reqs)
	for i, r := range results {
		if r.Err != nil || !r.OK {
			t.Fatalf("batch[%d]: ok=%v err=%v", i, r.OK, r.Err)
		}
		if err := decomp.CheckHD(r.Decomp); err != nil {
			t.Fatalf("batch[%d]: %v", i, err)
		}
	}
	st := svc.Stats()
	if st.SolverRuns != 1 || st.Coalesced+st.PositiveHits != n-1 {
		t.Fatalf("SolverRuns=%d Coalesced=%d PositiveHits=%d, want 1 run and %d shared",
			st.SolverRuns, st.Coalesced, st.PositiveHits, n-1)
	}
}

// TestCoalescedFollowerReboundDecomp: a follower submitting a renamed
// (structurally identical) hypergraph gets the leader's witness rebound
// onto its own hypergraph, not a foreign one.
func TestCoalescedFollowerReboundDecomp(t *testing.T) {
	const n = 2
	bb := newBarrierBackend(store.NewMemory(32), n)
	svc := New(Config{TokenBudget: 2, MaxConcurrent: 4, Store: bb})
	defer svc.Close()

	a := cycle(14)
	var b hypergraph.Builder
	for i := 0; i < 14; i++ {
		b.MustAddEdge("S"+strconv.Itoa(i), "y"+strconv.Itoa(i), "y"+strconv.Itoa((i+1)%14))
	}
	renamed := b.Build()

	var ra, rb Result
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); ra = svc.Submit(context.Background(), Request{H: a, K: 2}) }()
	go func() { defer wg.Done(); rb = svc.Submit(context.Background(), Request{H: renamed, K: 2}) }()
	wg.Wait()

	for _, r := range []Result{ra, rb} {
		if r.Err != nil || !r.OK {
			t.Fatalf("ok=%v err=%v", r.OK, r.Err)
		}
	}
	if ra.Decomp.H != a || rb.Decomp.H != renamed {
		t.Fatal("each result must reference the submitting request's hypergraph")
	}
	if err := decomp.CheckHD(ra.Decomp); err != nil {
		t.Fatal(err)
	}
	if err := decomp.CheckHD(rb.Decomp); err != nil {
		t.Fatal(err)
	}
	if st := svc.Stats(); st.SolverRuns != 1 {
		t.Fatalf("SolverRuns=%d, want 1", st.SolverRuns)
	}
}

// TestCoalescedFollowerNotPoisonedByLeaderFailure: when the flight
// leader fails on its own terms (here: a microsecond timeout), a
// follower with a healthy context must not inherit the failure — it
// runs independently and succeeds.
func TestCoalescedFollowerNotPoisonedByLeaderFailure(t *testing.T) {
	h := cycle(24)
	for round := 0; round < 8; round++ {
		const n = 2
		bb := newBarrierBackend(store.NewMemory(32), n)
		svc := New(Config{TokenBudget: 2, MaxConcurrent: 4, Store: bb})

		var doomed, healthy Result
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			doomed = svc.Submit(context.Background(),
				Request{H: h, K: 2, Timeout: time.Microsecond})
		}()
		go func() {
			defer wg.Done()
			healthy = svc.Submit(context.Background(), Request{H: h, K: 2})
		}()
		wg.Wait()
		svc.Close()

		// Whichever of the two led the flight, the request with no
		// timeout must end with a definitive, valid answer.
		if healthy.Err != nil || !healthy.OK {
			t.Fatalf("round %d: healthy request poisoned: ok=%v err=%v (doomed: %v)",
				round, healthy.OK, healthy.Err, doomed.Err)
		}
		if err := decomp.CheckHD(healthy.Decomp); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
}

// TestSnapshotWarmRestart: a snapshot taken from one service warms a
// freshly started one — repeat submissions are answered from the
// restored store without a single solver run. The snapshot is a byte
// copy of the first service's closed StoreDir, the one portable export
// format.
func TestSnapshotWarmRestart(t *testing.T) {
	ctx := context.Background()
	h := cycle(12)

	dir := t.TempDir()
	svc1, err := Open(Config{TokenBudget: 2, MaxConcurrent: 4, StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if res := svc1.Submit(ctx, Request{H: h, K: 4, Mode: ModeOptimal}); res.Err != nil || res.Width != 2 {
		t.Fatalf("warmup: width=%d err=%v", res.Width, res.Err)
	}
	if err := svc1.Close(); err != nil {
		t.Fatal(err)
	}
	snap := filepath.Join(t.TempDir(), "snapshot")
	if err := os.CopyFS(snap, os.DirFS(dir)); err != nil {
		t.Fatal(err)
	}

	svc2, err := Open(Config{TokenBudget: 2, MaxConcurrent: 4, StoreDir: snap})
	if err != nil {
		t.Fatalf("open snapshot: %v", err)
	}
	defer svc2.Close()

	// The restarted service answers both problems from the snapshot.
	opt := svc2.Submit(ctx, Request{H: h, K: 4, Mode: ModeOptimal})
	if opt.Err != nil || !opt.OK || opt.Width != 2 || !opt.CacheHit {
		t.Fatalf("optimal after restart: %+v", opt)
	}
	if err := decomp.CheckHD(opt.Decomp); err != nil {
		t.Fatalf("restored witness invalid: %v", err)
	}
	no := svc2.Submit(ctx, Request{H: h, K: 1})
	if no.Err != nil || no.OK || !no.CacheHit {
		t.Fatalf("decide K=1 after restart: %+v", no)
	}
	if st := svc2.Stats(); st.SolverRuns != 0 {
		t.Fatalf("SolverRuns=%d after warm restart, want 0", st.SolverRuns)
	}
}

// clique returns the hypergraph with an edge {i, j} for every vertex
// pair — hw grows with n, and refuting small widths is much cheaper
// than the full optimal search, which is exactly the shape that leaves
// partial bounds behind on a timeout.
func clique(n int) *hypergraph.Hypergraph {
	var b hypergraph.Builder
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			b.MustAddEdge("", "v"+strconv.Itoa(i), "v"+strconv.Itoa(j))
		}
	}
	return b.Build()
}

// TestOptimalTimeoutBanksPartialBounds: whatever an optimal job proves
// before its deadline is written back — on a timeout the partial lower
// bound lands in the store so the next job starts ahead.
func TestOptimalTimeoutBanksPartialBounds(t *testing.T) {
	svc := New(Config{TokenBudget: 2, MaxConcurrent: 2})
	defer svc.Close()
	h := clique(14)
	res := svc.Submit(context.Background(),
		Request{H: h, K: 8, Mode: ModeOptimal, Timeout: 250 * time.Millisecond})

	b, ok := svc.Store().Bounds(h.ContentHash())
	if res.Err != nil {
		// The expected path: timed out mid-race. The widths refuted so
		// far must be banked (width 1 refutes in microseconds, so the
		// partial lower bound is ≥ 2).
		if res.LowerBound < 2 {
			t.Skipf("timeout hit before any refutation (lb=%d); nothing to bank", res.LowerBound)
		}
		if !ok || b.LB != res.LowerBound {
			t.Fatalf("partial bounds not banked: result lb=%d, store=%+v ok=%v",
				res.LowerBound, b, ok)
		}
		return
	}
	// Fast machine: the race finished. The exact bounds must be banked.
	if !ok || !b.Exact() || b.UB != res.Width {
		t.Fatalf("final bounds not banked: width=%d store=%+v ok=%v", res.Width, b, ok)
	}
}

// TestStoreStress is the CI store-stress workload: concurrent Submit,
// Batch (with duplicates) and disk-log Compact + Sync over identical
// and renamed hypergraphs, on a StoreDir-backed service, run under
// -race. Correctness of every answer is checked; the store must neither
// wedge nor serve a wrong or invalid result while the log is compacted
// mid-traffic, and a reopen must serve what the traffic left behind.
func TestStoreStress(t *testing.T) {
	dir := t.TempDir()
	svc, err := Open(Config{StoreDir: dir, TokenBudget: 4, MaxConcurrent: 8, MaxQueue: 1024, MemoMaxGraphs: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	tiered := svc.Store().(*store.Tiered)
	ctx := context.Background()

	type job struct {
		h      *hypergraph.Hypergraph
		k      int
		mode   Mode
		wantOK bool
	}
	var renamed hypergraph.Builder
	for i := 0; i < 16; i++ {
		renamed.MustAddEdge("S"+strconv.Itoa(i), "w"+strconv.Itoa(i), "w"+strconv.Itoa((i+1)%16))
	}
	jobs := []job{
		{cycle(16), 1, ModeDecide, false},
		{cycle(16), 2, ModeDecide, true},
		{renamed.Build(), 2, ModeDecide, true}, // same hash as cycle(16)
		{grid(3), 2, ModeDecide, true},
		{cycle(16), 4, ModeOptimal, true},
		{grid(3), 3, ModeOptimal, true},
	}

	const workers = 6
	const iters = 20
	errs := make(chan string, workers*iters+workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				switch (w + i) % 3 {
				case 0: // single submissions
					j := jobs[(w+i)%len(jobs)]
					res := svc.Submit(ctx, Request{H: j.h, K: j.k, Mode: j.mode})
					if res.Err != nil {
						errs <- "submit: " + res.Err.Error()
					} else if res.OK != j.wantOK {
						errs <- "submit: wrong answer for k=" + strconv.Itoa(j.k)
					} else if res.OK {
						if err := decomp.CheckHD(res.Decomp); err != nil {
							errs <- "submit: " + err.Error()
						}
					}
				case 1: // batches with duplicates
					reqs := []Request{
						{H: jobs[1].h, K: 2}, {H: jobs[1].h, K: 2},
						{H: jobs[2].h, K: 2}, {H: jobs[0].h, K: 1},
					}
					for bi, r := range svc.Batch(ctx, reqs) {
						want := bi != 3
						if r.Err != nil {
							errs <- "batch: " + r.Err.Error()
						} else if r.OK != want {
							errs <- "batch: wrong answer at slot " + strconv.Itoa(bi)
						}
					}
				case 2: // log compaction and fsync mid-traffic
					if err := tiered.Compact(); err != nil {
						errs <- "compact: " + err.Error()
					}
					if err := tiered.Sync(); err != nil {
						errs <- "sync: " + err.Error()
					}
					svc.Store().Info(4)
					svc.Stats()
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	st := svc.Stats()
	if st.StoreEntries == 0 || st.CacheReuses == 0 {
		t.Fatalf("stress left no cross-request state: %+v", st)
	}
	if st.TokensInUse != 0 {
		t.Fatalf("tokens leaked: %d", st.TokensInUse)
	}
	if d := svc.Store().Stats().Disk; d == nil || d.Compactions == 0 || d.Errors != 0 {
		t.Fatalf("disk tier under stress: %+v", d)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}

	// What the traffic left behind survives the compactions: a reopen
	// answers every decide job (all of which the traffic submitted) from
	// disk without a solver run.
	re, err := Open(Config{StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for _, j := range jobs {
		if j.mode != ModeDecide {
			continue
		}
		res := re.Submit(ctx, Request{H: j.h, K: j.k, Mode: j.mode})
		if res.Err != nil || res.OK != j.wantOK || !res.CacheHit {
			t.Fatalf("reopen k=%d mode=%v: ok=%v hit=%v err=%v", j.k, j.mode, res.OK, res.CacheHit, res.Err)
		}
		if res.OK {
			if err := decomp.CheckHD(res.Decomp); err != nil {
				t.Fatalf("reopen witness invalid: %v", err)
			}
		}
	}
	if runs := re.Stats().SolverRuns; runs != 0 {
		t.Fatalf("reopen after stress ran %d solvers, want 0", runs)
	}
}
