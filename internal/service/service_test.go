package service

import (
	"context"
	"errors"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/decomp"
	"repro/internal/detk"
	"repro/internal/hypergraph"
	"repro/internal/logk"
	"repro/internal/tenant"
)

func cycle(n int) *hypergraph.Hypergraph {
	var b hypergraph.Builder
	for i := 0; i < n; i++ {
		b.MustAddEdge("R"+strconv.Itoa(i+1), "x"+strconv.Itoa(i), "x"+strconv.Itoa((i+1)%n))
	}
	return b.Build()
}

func grid(m int) *hypergraph.Hypergraph {
	var b hypergraph.Builder
	name := func(i, j int) string { return "g" + strconv.Itoa(i) + "_" + strconv.Itoa(j) }
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			if j+1 < m {
				b.MustAddEdge("", name(i, j), name(i, j+1))
			}
			if i+1 < m {
				b.MustAddEdge("", name(i, j), name(i+1, j))
			}
		}
	}
	return b.Build()
}

// earedCylinder is cylinderH(n) with a private vertex added to rungs 0
// and 1. hw stays 3, but those two three-vertex edges cover the five
// vertices a bag of the prism needs (its treewidth is 4), so the
// structural lower bound is 2 in any vertex order: a refutation at K=2
// is left to the search. At K=2 the hybrid hands it to det-k-decomp whole up to n = 13
// (|E|·K/avg|e| below PaperHybridThreshold); log-k-decomp searches the
// root from n = 14 on, and banks refuted states below it on larger
// cylinders such as n = 36.
func earedCylinder(n int) *hypergraph.Hypergraph {
	var b hypergraph.Builder
	for i := 0; i < n; i++ {
		s, j := strconv.Itoa(i), strconv.Itoa((i+1)%n)
		b.MustAddEdge("", "a"+s, "a"+j)
		b.MustAddEdge("", "b"+s, "b"+j)
		if i < 2 {
			b.MustAddEdge("", "a"+s, "b"+s, "p"+s)
		} else {
			b.MustAddEdge("", "a"+s, "b"+s)
		}
	}
	return b.Build()
}

// renamed returns h with every vertex and edge renamed: the same
// structure, hence the same content hash.
func renamed(h *hypergraph.Hypergraph) *hypergraph.Hypergraph {
	var b hypergraph.Builder
	for e := 0; e < h.NumEdges(); e++ {
		var names []string
		for _, v := range h.EdgeVertices(e) {
			names = append(names, "y"+h.VertexName(v))
		}
		b.MustAddEdge("S"+strconv.Itoa(e), names...)
	}
	return b.Build()
}

// TestConcurrentSubmissionsBoundedBudget is the central serving-layer
// test: many concurrent jobs with a small global token budget must all
// answer correctly, produce valid HDs, and never push the pool past its
// bound — even though every job may draw on the whole pool.
func TestConcurrentSubmissionsBoundedBudget(t *testing.T) {
	const budget = 3
	svc := New(Config{TokenBudget: budget, MaxConcurrent: 16, MaxQueue: 256})
	defer svc.Close()

	graphs := []*hypergraph.Hypergraph{cycle(24), cycle(32), cycle(48), grid(3)}
	const jobs = 40 // ≥ 32 concurrent submissions
	results := make([]Result, jobs)
	var wg sync.WaitGroup
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = svc.Submit(context.Background(), Request{
				H: graphs[i%len(graphs)], K: 2,
			})
		}(i)
	}
	wg.Wait()

	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("job %d: %v", i, r.Err)
		}
		if !r.OK {
			t.Fatalf("job %d: expected a width-2 HD", i)
		}
		if err := decomp.CheckHD(r.Decomp); err != nil {
			t.Fatalf("job %d: invalid HD: %v", i, err)
		}
	}

	st := svc.Stats()
	if st.TokensHighWater > budget {
		t.Fatalf("token budget exceeded: high water %d > budget %d", st.TokensHighWater, budget)
	}
	if st.TokensInUse != 0 {
		t.Fatalf("tokens leaked: %d still in use after drain", st.TokensInUse)
	}
	if st.Completed != jobs {
		t.Fatalf("completed %d of %d jobs", st.Completed, jobs)
	}
}

// TestRefutationSharedAcrossRequests: a second request for a
// structurally identical hypergraph must reuse the first request's
// refutation — an unsatisfiable instance is answered straight from the
// store, with no solver run at all.
func TestRefutationSharedAcrossRequests(t *testing.T) {
	svc := New(Config{TokenBudget: 2, MaxConcurrent: 4})
	defer svc.Close()
	ctx := context.Background()

	// earedCylinder(8) has hw = 3 and a structural bound of 2: K=2
	// exhausts the search space, which raises the stored lower bound
	// to 3.
	h := earedCylinder(8)
	first := svc.Submit(ctx, Request{H: h, K: 2})
	if first.Err != nil || first.OK {
		t.Fatalf("first: ok=%v err=%v", first.OK, first.Err)
	}
	if first.CacheShared || first.CacheHit {
		t.Fatal("first request cannot reuse cross-request state")
	}
	if first.Stats.Candidates+first.Stats.DetKCandidates == 0 {
		t.Fatal("first request should have searched")
	}

	// Same structure under different names: content hash must match and
	// the stored width bound answers without any search.
	second := svc.Submit(ctx, Request{H: renamed(h), K: 2})
	if second.Err != nil || second.OK {
		t.Fatalf("second: ok=%v err=%v", second.OK, second.Err)
	}
	if !second.CacheHit || !second.CacheShared {
		t.Fatalf("second request should be a width-level cache hit: %+v", second)
	}
	if second.Stats != (logk.Stats{}) {
		t.Fatalf("second request searched (%+v) despite a cached refutation", second.Stats)
	}

	st := svc.Stats()
	if st.SolverRuns != 1 {
		t.Fatalf("SolverRuns=%d, want 1 (second request must not run a solver)", st.SolverRuns)
	}
	if st.NegativeHits != 1 || st.CacheReuses == 0 {
		t.Fatalf("cache stats not populated: %+v", st)
	}

	// det-k-decomp, the hybrid's arm, runs that whole refutation and
	// banks nothing in the memo tables. On earedCylinder(20) at K=2
	// log-k-decomp searches the root, and its refuted states land in the
	// store.
	if big := svc.Submit(ctx, Request{H: earedCylinder(20), K: 2}); big.Err != nil || big.OK {
		t.Fatalf("earedCylinder(20): ok=%v err=%v", big.OK, big.Err)
	}
	// earedCylinder(8)'s K=2 table holds no state, so only
	// earedCylinder(20)'s counts.
	if st := svc.Stats(); st.MemoGraphs != 1 || st.MemoEntries == 0 {
		t.Fatalf("memo tables not populated: %+v", st)
	}
}

// TestEmptyMemoTableNotShared: a job stopped before it banked a state
// leaves an empty memo table behind, and an empty table shares
// nothing. The resubmitted job must not report CacheShared, and the
// counters and the store listing must not count the table.
func TestEmptyMemoTableNotShared(t *testing.T) {
	svc := New(Config{MaxConcurrent: 1})
	defer svc.Close()
	ctx := context.Background()
	h := earedCylinder(8)

	stopped := svc.Submit(ctx, Request{H: h, K: 2, Timeout: time.Nanosecond})
	if !errors.Is(stopped.Err, context.DeadlineExceeded) {
		t.Fatalf("stopped job: ok=%v err=%v, want its deadline", stopped.OK, stopped.Err)
	}
	again := svc.Submit(ctx, Request{H: h, K: 2})
	if again.Err != nil || again.OK {
		t.Fatalf("resubmitted job: ok=%v err=%v, want NO", again.OK, again.Err)
	}
	if again.CacheShared || again.Stats.MemoHits != 0 {
		t.Fatalf("resubmitted job shared an empty table: shared=%v memo hits=%d", again.CacheShared, again.Stats.MemoHits)
	}
	// det-k-decomp, the hybrid's arm, refutes earedCylinder(8) at K=2
	// whole, so the table stays empty after the second job too.
	if st := svc.Stats(); st.MemoGraphs != 0 || st.MemoEntries != 0 || st.CacheReuses != 0 {
		t.Fatalf("empty table counted: MemoGraphs=%d MemoEntries=%d CacheReuses=%d, want 0 0 0", st.MemoGraphs, st.MemoEntries, st.CacheReuses)
	}
	for _, in := range svc.Store().Info(0) {
		if len(in.Memos) != 0 {
			t.Fatalf("store lists memo summaries %+v for an empty table", in.Memos)
		}
	}
}

// TestEmptyMemoTableTakesNoSlot: a job stopped before it banks a state
// must not evict a cached entry. With room for one hypergraph, a
// grid(8) K=4 job stopped on its deadline leaves cycle(12)'s witness in
// place, so the repeat cycle(12) request runs no solver. On the tiered
// backend a witness pushed out of memory is still read back from disk,
// so there the memory front's eviction count is the witness.
func TestEmptyMemoTableTakesNoSlot(t *testing.T) {
	for _, tc := range []struct {
		name string
		open func(t *testing.T) *Service
	}{
		{"memory", func(t *testing.T) *Service { return New(Config{MemoMaxGraphs: 1, MaxConcurrent: 1}) }},
		{"tiered", func(t *testing.T) *Service {
			svc, err := Open(Config{StoreDir: t.TempDir(), MemoMaxGraphs: 1, MaxConcurrent: 1})
			if err != nil {
				t.Fatal(err)
			}
			return svc
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			svc := tc.open(t)
			defer svc.Close()
			ctx := context.Background()

			if first := svc.Submit(ctx, Request{H: cycle(12), K: 2}); first.Err != nil || !first.OK {
				t.Fatalf("cycle(12): ok=%v err=%v", first.OK, first.Err)
			}
			stopped := svc.Submit(ctx, Request{H: grid(8), K: 4, Timeout: time.Nanosecond})
			if !errors.Is(stopped.Err, context.DeadlineExceeded) {
				t.Fatalf("stopped job: ok=%v err=%v, want its deadline", stopped.OK, stopped.Err)
			}
			again := svc.Submit(ctx, Request{H: cycle(12), K: 2})
			if again.Err != nil || !again.OK || !again.CacheHit {
				t.Fatalf("repeat cycle(12): ok=%v hit=%v err=%v, want a cache hit", again.OK, again.CacheHit, again.Err)
			}
			if st := svc.Stats(); st.SolverRuns != 2 {
				t.Fatalf("SolverRuns=%d, want 2: cycle(12) once, the stopped grid(8) once", st.SolverRuns)
			}
			if st := svc.Store().Stats(); st.Evictions != 0 || st.Entries != 1 {
				t.Fatalf("store: evictions=%d entries=%d, want 0 and 1", st.Evictions, st.Entries)
			}
		})
	}
}

// stopAfterBanking submits req, with a deadline, to fresh services
// until one stops the job on its deadline after the job banked a memo
// state, and returns that service and the deadline. Starting from half
// the cold run's time, it halves the deadline while the run still
// finishes and doubles it while the run stops before banking anything.
// Its services, like the cold ones of its callers, have no extra
// workers (TokenBudget -1), so every run searches in one fixed order.
func stopAfterBanking(t *testing.T, req Request, coldTime time.Duration) (*Service, time.Duration) {
	t.Helper()
	deadline := coldTime / 2
	for attempt := 0; attempt < 8; attempt++ {
		svc := New(Config{TokenBudget: -1, MaxConcurrent: 1})
		stopReq := req
		stopReq.Timeout = deadline
		stopped := svc.Submit(context.Background(), stopReq)
		switch {
		case stopped.Err == nil:
			deadline /= 2
		case !errors.Is(stopped.Err, context.DeadlineExceeded):
			t.Fatalf("stopped run: %v", stopped.Err)
		case svc.Stats().MemoEntries == 0:
			deadline *= 2
		default:
			return svc, deadline
		}
		svc.Close()
	}
	t.Fatalf("no deadline in 8 attempts stopped the run after it banked a state (last %v, cold %v)", deadline, coldTime)
	return nil, 0
}

// TestMemoResumesStoppedRefutation: the cross-request negative memo
// pays where the width-level bound cannot, on a refutation stopped by
// its deadline and submitted again. earedCylinder(36) at K=2 is a NO
// instance the structural bound leaves to the search, and log-k-decomp
// searches its root, so the stopped run banks refuted states; with no extra workers the search order is
// fixed, so the resumed run must answer NO with strictly fewer
// candidates than a cold run. A service that gave each job a fresh table would redo the
// whole search.
func TestMemoResumesStoppedRefutation(t *testing.T) {
	ctx := context.Background()
	req := Request{H: earedCylinder(36), K: 2}
	work := func(r Result) int64 { return r.Stats.Candidates + r.Stats.DetKCandidates + r.Stats.ParentCands }

	svc := New(Config{TokenBudget: -1, MaxConcurrent: 1})
	start := time.Now()
	cold := svc.Submit(ctx, req)
	coldTime := time.Since(start)
	svc.Close()
	if cold.Err != nil || cold.OK || cold.CacheShared {
		t.Fatalf("cold: ok=%v err=%v shared=%v, want a fresh NO", cold.OK, cold.Err, cold.CacheShared)
	}

	svc, deadline := stopAfterBanking(t, req, coldTime)
	defer svc.Close()
	resumed := svc.Submit(ctx, req)
	if resumed.Err != nil || resumed.OK || !resumed.CacheShared {
		t.Fatalf("resumed: ok=%v err=%v shared=%v, want NO from a shared memo", resumed.OK, resumed.Err, resumed.CacheShared)
	}
	if work(resumed) >= work(cold) {
		t.Fatalf("resumed run searched %d candidates, cold run %d: the banked states saved nothing", work(resumed), work(cold))
	}
	t.Logf("deadline %v of cold %v: resumed work %d of cold %d (%.2f)", deadline, coldTime, work(resumed), work(cold), float64(work(resumed))/float64(work(cold)))
}

// TestPositiveCacheHit is the acceptance check for the result cache: a
// repeat Submit of an identical satisfiable request returns a
// validated witness without running a solver.
func TestPositiveCacheHit(t *testing.T) {
	svc := New(Config{TokenBudget: 2, MaxConcurrent: 4})
	defer svc.Close()
	ctx := context.Background()

	first := svc.Submit(ctx, Request{H: cycle(12), K: 2})
	if first.Err != nil || !first.OK || first.CacheHit {
		t.Fatalf("first: ok=%v hit=%v err=%v", first.OK, first.CacheHit, first.Err)
	}
	second := svc.Submit(ctx, Request{H: cycle(12), K: 2})
	if second.Err != nil || !second.OK {
		t.Fatalf("second: ok=%v err=%v", second.OK, second.Err)
	}
	if !second.CacheHit {
		t.Fatalf("repeat submit must be a cache hit: %+v", second)
	}
	if err := decomp.CheckHD(second.Decomp); err != nil {
		t.Fatalf("cached witness invalid: %v", err)
	}

	// A wider decide on the same structure is also answered by the
	// cached witness (width 2 ≤ 4).
	wider := svc.Submit(ctx, Request{H: cycle(12), K: 4})
	if !wider.CacheHit || !wider.OK {
		t.Fatalf("wider decide should hit the cached witness: %+v", wider)
	}

	st := svc.Stats()
	if st.SolverRuns != 1 {
		t.Fatalf("SolverRuns=%d, want 1", st.SolverRuns)
	}
	if st.PositiveHits != 2 || st.StoreTrees != 1 {
		t.Fatalf("positive-cache stats: %+v", st)
	}
}

// TestMemoSharingUnderConcurrency: many jobs hammering the same two
// instances concurrently — shared tables must stay race-free and the
// decisions must match a fresh det-k-decomp solver, which shares no
// memo with them.
func TestMemoSharingUnderConcurrency(t *testing.T) {
	svc := New(Config{TokenBudget: 4, MaxConcurrent: 8, MaxQueue: 256})
	defer svc.Close()
	ctx := context.Background()

	type job struct {
		h    *hypergraph.Hypergraph
		k    int
		want bool
	}
	jobs := []job{
		{cycle(16), 1, false},
		{cycle(16), 2, true},
		{grid(3), 1, false},
		{grid(3), 2, true},
	}
	// Verify expectations against direct det-k-decomp solvers first.
	for i, j := range jobs {
		_, ok, err := detk.New(j.h, j.k).Decompose(ctx)
		if err != nil || ok != j.want {
			t.Fatalf("job template %d: direct ok=%v err=%v want=%v", i, ok, err, j.want)
		}
	}

	const rounds = 10
	var wg sync.WaitGroup
	errs := make(chan string, rounds*len(jobs))
	for r := 0; r < rounds; r++ {
		for i, j := range jobs {
			wg.Add(1)
			go func(r, i int, j job) {
				defer wg.Done()
				res := svc.Submit(ctx, Request{H: j.h, K: j.k})
				if res.Err != nil {
					errs <- "round " + strconv.Itoa(r) + " job " + strconv.Itoa(i) + ": " + res.Err.Error()
					return
				}
				if res.OK != j.want {
					errs <- "round " + strconv.Itoa(r) + " job " + strconv.Itoa(i) + ": wrong decision"
					return
				}
				if res.OK {
					if err := decomp.CheckHD(res.Decomp); err != nil {
						errs <- "round " + strconv.Itoa(r) + " job " + strconv.Itoa(i) + ": " + err.Error()
					}
				}
			}(r, i, j)
		}
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	if st := svc.Stats(); st.CacheReuses == 0 {
		t.Fatal("no cross-request cache reuse under concurrency")
	}
}

func cylinderH(n int) *hypergraph.Hypergraph {
	var b hypergraph.Builder
	for i := 0; i < n; i++ {
		j := (i + 1) % n
		b.MustAddEdge("", "a"+strconv.Itoa(i), "a"+strconv.Itoa(j))
		b.MustAddEdge("", "b"+strconv.Itoa(i), "b"+strconv.Itoa(j))
		b.MustAddEdge("", "a"+strconv.Itoa(i), "b"+strconv.Itoa(i))
	}
	return b.Build()
}

// TestStructuralRefutation: a decide job at K below the hypergraph's
// structural lower bound answers NO without a search. It is a computed
// run (one SolverRuns, one StructuralRefutations), opens no memo table,
// reports the bound and banks it, so the repeat is a negative cache
// hit. A job whose deadline has passed gets its deadline, not NO. An
// optimal job's width ladder starts at the bound and reports it as the
// source.
func TestStructuralRefutation(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		h    *hypergraph.Hypergraph
		k    int
	}{
		{"cycle(12)", cycle(12), 1}, // cyclic: GYO
		{"clique(5)", clique(5), 2}, // three edges cover the 5-clique
	} {
		svc := New(Config{TokenBudget: 1, MaxConcurrent: 2})
		res := svc.Submit(ctx, Request{H: tc.h, K: tc.k})
		if res.Err != nil || res.OK || res.CacheHit {
			t.Fatalf("%s K=%d: ok=%v hit=%v err=%v, want a computed NO", tc.name, tc.k, res.OK, res.CacheHit, res.Err)
		}
		if res.Stats != (logk.Stats{}) {
			t.Fatalf("%s K=%d: searched (%+v)", tc.name, tc.k, res.Stats)
		}
		if res.LowerBound != tc.k+1 || res.LowerBoundFrom != "structural" {
			t.Fatalf("%s K=%d: lower bound %d from %q, want %d from structural", tc.name, tc.k, res.LowerBound, res.LowerBoundFrom, tc.k+1)
		}
		st := svc.Stats()
		if st.SolverRuns != 1 || st.StructuralRefutations != 1 || st.MemoGraphs != 0 {
			t.Fatalf("%s K=%d: SolverRuns=%d StructuralRefutations=%d MemoGraphs=%d, want 1 1 0",
				tc.name, tc.k, st.SolverRuns, st.StructuralRefutations, st.MemoGraphs)
		}
		for _, in := range svc.Store().Info(0) {
			if len(in.Memos) != 0 {
				t.Fatalf("%s K=%d: the store lists memo tables %+v", tc.name, tc.k, in.Memos)
			}
		}
		if b, ok := svc.Store().Bounds(tc.h.ContentHash()); !ok || b.LB != tc.k+1 {
			t.Fatalf("%s K=%d: banked bounds %+v (%v), want LB %d", tc.name, tc.k, b, ok, tc.k+1)
		}
		again := svc.Submit(ctx, Request{H: tc.h, K: tc.k})
		if again.Err != nil || again.OK || !again.CacheHit {
			t.Fatalf("%s K=%d repeat: ok=%v hit=%v err=%v, want a negative hit", tc.name, tc.k, again.OK, again.CacheHit, again.Err)
		}
		if st := svc.Stats(); st.NegativeHits != 1 || st.SolverRuns != 1 || st.StructuralRefutations != 1 {
			t.Fatalf("%s K=%d repeat: NegativeHits=%d SolverRuns=%d StructuralRefutations=%d, want 1 1 1",
				tc.name, tc.k, st.NegativeHits, st.SolverRuns, st.StructuralRefutations)
		}
		svc.Close()

		svc = New(Config{TokenBudget: 1, MaxConcurrent: 2})
		stopped := svc.Submit(ctx, Request{H: tc.h, K: tc.k, Timeout: time.Nanosecond})
		if !errors.Is(stopped.Err, context.DeadlineExceeded) || stopped.OK {
			t.Fatalf("%s K=%d past its deadline: ok=%v err=%v, want its deadline", tc.name, tc.k, stopped.OK, stopped.Err)
		}
		if _, ok := svc.Store().Bounds(tc.h.ContentHash()); ok || svc.Stats().StructuralRefutations != 0 {
			t.Fatalf("%s K=%d past its deadline: banked bounds or counted a refutation", tc.name, tc.k)
		}
		svc.Close()
	}

	svc := New(Config{TokenBudget: 1, MaxConcurrent: 2})
	defer svc.Close()
	opt := svc.Submit(ctx, Request{H: cycle(12), K: 4, Mode: ModeOptimal})
	if opt.Err != nil || !opt.OK || opt.Width != 2 {
		t.Fatalf("optimal cycle(12): ok=%v width=%d err=%v", opt.OK, opt.Width, opt.Err)
	}
	if opt.LowerBound != 2 || opt.LowerBoundFrom != "structural" || opt.BoundsShared {
		t.Fatalf("optimal cycle(12): lower bound %d from %q (shared %v), want 2 from structural",
			opt.LowerBound, opt.LowerBoundFrom, opt.BoundsShared)
	}
	if st := svc.Stats(); st.StructuralRefutations != 0 || st.BoundsReuses != 0 {
		t.Fatalf("optimal cycle(12): StructuralRefutations=%d BoundsReuses=%d, want 0 0", st.StructuralRefutations, st.BoundsReuses)
	}

	// The instances the other tests refute by a search stay above the
	// bound.
	for _, n := range []int{8, 20, 36} {
		if lb, err := earedCylinder(n).WidthLowerBound(ctx, 2); err != nil || lb != 2 {
			t.Fatalf("earedCylinder(%d): structural bound %d (%v), want 2", n, lb, err)
		}
	}
}

// TestDecideSearchesWidthKAlone: a decide job asks about width K and
// searches K alone, even where the structural bound lies below K and a
// ladder from the bound would find a narrower witness first. Its
// effort equals one rung of the service's rule at K (logk.ServeLadder
// from K to K) under the service's options, it launches no probe, and
// its witness has width at most K. The search is serial (TokenBudget
// -1), so the counts are deterministic.
func TestDecideSearchesWidthKAlone(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		h    *hypergraph.Hypergraph
		k    int
	}{
		{"cycle(12)", cycle(12), 3},
		{"cycle(12)", cycle(12), 4},
		{"grid(4)", grid(4), 4},
		{"earedCylinder(20)", earedCylinder(20), 4},
	} {
		if lb, err := tc.h.WidthLowerBound(ctx, tc.k); err != nil || lb >= tc.k {
			t.Fatalf("%s K=%d: structural bound %d (%v), want below K", tc.name, tc.k, lb, err)
		}
		svc := New(Config{TokenBudget: -1, MaxConcurrent: 1})
		res := svc.Submit(ctx, Request{H: tc.h, K: tc.k})
		svc.Close()
		if res.Err != nil || !res.OK || res.CacheHit {
			t.Fatalf("%s K=%d: ok=%v hit=%v err=%v, want a computed YES", tc.name, tc.k, res.OK, res.CacheHit, res.Err)
		}

		direct, err := logk.ServeLadder(ctx, tc.h, logk.OptimalConfig{
			Search:     logk.Options{Workers: 1, Hybrid: logk.PaperHybrid, HybridThreshold: logk.PaperHybridThreshold},
			KMax:       tc.k,
			LowerBound: tc.k,
		}, nil)
		if err != nil || !direct.Found || direct.Probes != 1 {
			t.Fatalf("%s K=%d: direct rung found=%v probes=%d err=%v", tc.name, tc.k, direct.Found, direct.Probes, err)
		}
		if res.Stats != direct.Stats {
			t.Errorf("%s K=%d: job Stats %+v, one rung at K %+v", tc.name, tc.k, res.Stats, direct.Stats)
		}
		if res.ProbesLaunched != 0 {
			t.Errorf("%s K=%d: ProbesLaunched = %d, want 0", tc.name, tc.k, res.ProbesLaunched)
		}
		if err := decomp.CheckHD(res.Decomp); err != nil {
			t.Errorf("%s K=%d: witness: %v", tc.name, tc.k, err)
		}
		if err := decomp.CheckWidth(res.Decomp, tc.k); err != nil {
			t.Errorf("%s K=%d: witness: %v", tc.name, tc.k, err)
		}
	}
}

// TestOptimalMode: a ModeOptimal job computes the exact width with a
// valid witness, proves the bound below it, and reports the ladder's
// effort.
func TestOptimalMode(t *testing.T) {
	svc := New(Config{TokenBudget: 3, MaxConcurrent: 4})
	defer svc.Close()

	res := svc.Submit(context.Background(), Request{H: cylinderH(10), K: 6, Mode: ModeOptimal})
	if res.Err != nil || !res.OK {
		t.Fatalf("ok=%v err=%v", res.OK, res.Err)
	}
	if res.Width != 3 {
		t.Fatalf("width %d, want 3 (cylinder)", res.Width)
	}
	if err := decomp.CheckHD(res.Decomp); err != nil {
		t.Fatalf("invalid witness: %v", err)
	}
	if err := decomp.CheckWidth(res.Decomp, 3); err != nil {
		t.Fatal(err)
	}
	// The structural bound proves widths 1 and 2 refuted before any
	// probe runs, so the ladder's one probe, at 3, finds the witness.
	if res.LowerBound != 3 || res.LowerBoundFrom != "structural" {
		t.Fatalf("lower bound %d from %q, want 3 from structural", res.LowerBound, res.LowerBoundFrom)
	}
	if res.ProbesLaunched != 1 {
		t.Fatalf("launched %d probes, want 1 (the bound is tight)", res.ProbesLaunched)
	}
	st := svc.Stats()
	if st.OptimalJobs != 1 || st.ProbesLaunched == 0 {
		t.Fatalf("optimal counters not populated: %+v", st)
	}
	if st.BoundsGraphs == 0 {
		t.Fatal("the job's bounds should be banked for later requests")
	}
}

// TestOptimalBoundsSharedAcrossRequests: a second optimal job on a
// structurally identical hypergraph must start from the first job's
// bounds — memo provenance, no probes outside the pinned width.
func TestOptimalBoundsSharedAcrossRequests(t *testing.T) {
	svc := New(Config{TokenBudget: 2, MaxConcurrent: 4})
	defer svc.Close()
	ctx := context.Background()

	first := svc.Submit(ctx, Request{H: cycle(12), K: 4, Mode: ModeOptimal})
	if first.Err != nil || !first.OK || first.Width != 2 {
		t.Fatalf("first: ok=%v width=%d err=%v", first.OK, first.Width, first.Err)
	}
	// cycle(12) is cyclic, so its structural bound proves width 1
	// refuted before any probe runs.
	if first.BoundsShared || first.LowerBoundFrom != "structural" {
		t.Fatalf("first job cannot start from cached bounds (shared=%v from=%q)",
			first.BoundsShared, first.LowerBoundFrom)
	}

	// Same structure, different names: content hash matches.
	twin := renamed(cycle(12))
	second := svc.Submit(ctx, Request{H: twin, K: 4, Mode: ModeOptimal})
	if second.Err != nil || !second.OK || second.Width != 2 {
		t.Fatalf("second: ok=%v width=%d err=%v", second.OK, second.Width, second.Err)
	}
	if !second.BoundsShared || !second.CacheHit {
		t.Fatalf("second job should be answered from the cached exact bounds: %+v", second)
	}
	if second.LowerBoundFrom != "memo" {
		t.Fatalf("second job's lower bound from %q, want memo", second.LowerBoundFrom)
	}
	if second.ProbesLaunched != 0 {
		t.Fatalf("second job launched %d probes, want 0 (cached witness)", second.ProbesLaunched)
	}
	// The cached witness was rebound onto the renamed hypergraph and
	// re-validated before being returned.
	if second.Decomp.H != twin {
		t.Fatal("cached witness not rebound onto the requesting hypergraph")
	}
	if err := decomp.CheckHD(second.Decomp); err != nil {
		t.Fatalf("rebound witness invalid: %v", err)
	}
	if st := svc.Stats(); st.BoundsReuses != 1 || st.SolverRuns != 1 {
		t.Fatalf("BoundsReuses=%d SolverRuns=%d, want 1/1", st.BoundsReuses, st.SolverRuns)
	}
}

// TestOptimalRefutationsFeedDecideJobs: widths refuted by an optimal
// job must answer a later plain decide job at that width straight
// from the store's bounds — no solver run at all.
func TestOptimalRefutationsFeedDecideJobs(t *testing.T) {
	svc := New(Config{TokenBudget: 2, MaxConcurrent: 4})
	defer svc.Close()
	ctx := context.Background()

	opt := svc.Submit(ctx, Request{H: cycle(12), K: 3, Mode: ModeOptimal})
	if opt.Err != nil || !opt.OK || opt.Width != 2 {
		t.Fatalf("optimal: ok=%v width=%d err=%v", opt.OK, opt.Width, opt.Err)
	}
	// The optimal job banked LB=2: a decide job at K=1 is a
	// width-level negative hit.
	dec := svc.Submit(ctx, Request{H: cycle(12), K: 1})
	if dec.Err != nil || dec.OK {
		t.Fatalf("decide: ok=%v err=%v", dec.OK, dec.Err)
	}
	if !dec.CacheHit || !dec.CacheShared {
		t.Fatalf("decide job should reuse the optimal job's refutation: %+v", dec)
	}
	if dec.Stats.Candidates != 0 {
		t.Fatalf("decide searched %d candidates despite a cached refutation", dec.Stats.Candidates)
	}
	// And a decide at K=2 is a positive hit off the optimal job's witness.
	yes := svc.Submit(ctx, Request{H: cycle(12), K: 2})
	if !yes.OK || !yes.CacheHit {
		t.Fatalf("decide K=2 should hit the optimal job's cached witness: %+v", yes)
	}
	if err := decomp.CheckHD(yes.Decomp); err != nil {
		t.Fatal(err)
	}
	if st := svc.Stats(); st.SolverRuns != 1 {
		t.Fatalf("SolverRuns=%d, want 1 (only the optimal job searched)", st.SolverRuns)
	}
}

// TestMemoTablesSurviveTimeouts: when a job times out (so no
// width-level bound is banked), the states it banked before its
// deadline stay in its negative-memo table, which is shared with the
// next request at that width — the state-level cache still matters
// exactly where the width-level one cannot answer. The first job is
// stopped only after it banked a state: a table that holds none shares
// nothing (TestEmptyMemoTableNotShared).
func TestMemoTablesSurviveTimeouts(t *testing.T) {
	ctx := context.Background()
	h := earedCylinder(36)
	req := Request{H: h, K: 2}

	cold := New(Config{TokenBudget: -1, MaxConcurrent: 1})
	start := time.Now()
	cold.Submit(ctx, req)
	coldTime := time.Since(start)
	cold.Close()

	svc, deadline := stopAfterBanking(t, req, coldTime)
	defer svc.Close()
	if _, ok := svc.Store().Bounds(h.ContentHash()); ok {
		t.Fatal("a timed-out decide job must not bank width bounds")
	}
	if st := svc.Stats(); st.MemoEntries == 0 {
		t.Fatalf("the stopped job banked no state: %+v", st)
	}
	second := req
	second.Timeout = deadline
	if res := svc.Submit(ctx, second); !res.CacheShared {
		t.Fatalf("second job should find the first job's memo table: %+v", res)
	}
}

// TestOptimalUnderConcurrentLoad: optimal and decide jobs running
// together, each free to draw on the whole token pool, must stay within the
// global token budget and all answer correctly — the serving-layer
// guarantee this test checks under -race.
func TestOptimalUnderConcurrentLoad(t *testing.T) {
	const budget = 3
	svc := New(Config{TokenBudget: budget, MaxConcurrent: 8, MaxQueue: 256})
	defer svc.Close()

	type job struct {
		req       Request
		wantOK    bool
		wantWidth int // 0 = don't check
	}
	jobs := []job{
		{Request{H: cycle(16), K: 4, Mode: ModeOptimal}, true, 2},
		{Request{H: cylinderH(8), K: 5, Mode: ModeOptimal}, true, 3},
		{Request{H: grid(3), K: 2}, true, 0},
		{Request{H: cycle(24), K: 1}, false, 0},
	}
	const rounds = 6
	results := make([]Result, rounds*len(jobs))
	var wg sync.WaitGroup
	for r := 0; r < rounds; r++ {
		for i := range jobs {
			wg.Add(1)
			go func(slot int, j job) {
				defer wg.Done()
				results[slot] = svc.Submit(context.Background(), j.req)
			}(r*len(jobs)+i, jobs[i])
		}
	}
	wg.Wait()

	for idx, res := range results {
		j := jobs[idx%len(jobs)]
		if res.Err != nil {
			t.Fatalf("job %d: %v", idx, res.Err)
		}
		if res.OK != j.wantOK {
			t.Fatalf("job %d: ok=%v want %v", idx, res.OK, j.wantOK)
		}
		if j.wantWidth > 0 && res.Width != j.wantWidth {
			t.Fatalf("job %d: width=%d want %d", idx, res.Width, j.wantWidth)
		}
		if res.OK {
			if err := decomp.CheckHD(res.Decomp); err != nil {
				t.Fatalf("job %d: %v", idx, err)
			}
		}
	}
	st := svc.Stats()
	if st.TokensHighWater > budget {
		t.Fatalf("token budget exceeded under concurrent load: %d > %d", st.TokensHighWater, budget)
	}
	if st.TokensInUse != 0 {
		t.Fatalf("tokens leaked: %d in use after drain", st.TokensInUse)
	}
	if st.OptimalJobs != 2*rounds {
		t.Fatalf("OptimalJobs=%d, want %d", st.OptimalJobs, 2*rounds)
	}
}

// TestBoundsMergeThroughService: bounds written by jobs obey the merge
// rules end to end — the lower bound only rises, the witnessed upper
// bound only falls (unit-level merge semantics live in internal/store).
func TestBoundsMergeThroughService(t *testing.T) {
	svc := New(Config{TokenBudget: 2, MaxConcurrent: 4})
	defer svc.Close()
	ctx := context.Background()
	h := cycle(12) // hw = 2
	hash := h.ContentHash()

	// A decide "no" at K=1 raises LB to 2.
	if res := svc.Submit(ctx, Request{H: h, K: 1}); res.Err != nil || res.OK {
		t.Fatalf("decide K=1: ok=%v err=%v", res.OK, res.Err)
	}
	b, ok := svc.Store().Bounds(hash)
	if !ok || b.LB != 2 || b.UB != 0 {
		t.Fatalf("after refutation: %+v ok=%v, want LB=2 UB=0", b, ok)
	}

	// A decide "yes" at K=3 witnesses some width ≤ 3; UB drops.
	if res := svc.Submit(ctx, Request{H: h, K: 3}); res.Err != nil || !res.OK {
		t.Fatalf("decide K=3: ok=%v err=%v", res.OK, res.Err)
	}
	b, _ = svc.Store().Bounds(hash)
	if b.LB != 2 || b.UB < 2 || b.UB > 3 {
		t.Fatalf("after witness: %+v, want LB=2, UB in [2,3]", b)
	}

	// The optimal job pins the width exactly; LB never regressed.
	if res := svc.Submit(ctx, Request{H: h, K: 4, Mode: ModeOptimal}); res.Err != nil || res.Width != 2 {
		t.Fatalf("optimal: width=%d err=%v", res.Width, res.Err)
	}
	b, _ = svc.Store().Bounds(hash)
	if b.LB != 2 || b.UB != 2 {
		t.Fatalf("after optimal: %+v, want LB=UB=2", b)
	}
}

// TestAdmissionControl: with one slot and a one-deep queue, once a slow
// job runs and another waits, further submissions must be rejected
// immediately with ErrOverloaded. Every submission is a structurally
// distinct hypergraph, so none can coalesce onto another's flight or
// hit a cached answer: each one reaches admission on its own.
func TestAdmissionControl(t *testing.T) {
	svc := New(Config{TokenBudget: 1, MaxConcurrent: 1, MaxQueue: 1})
	defer svc.Close()

	// Heavy instances: neither search can finish before we cancel it.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	for _, m := range []int{8, 9} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			svc.Submit(ctx, Request{H: grid(m), K: 4})
		}()
	}
	// Wait until one job holds the slot and the other fills the queue.
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := svc.Stats()
		if st.Running == 1 && st.Waiting == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("jobs did not settle into run+wait: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}

	const flood = 5
	for i := 0; i < flood; i++ {
		if res := svc.Submit(ctx, Request{H: cycle(i + 3), K: 4}); res.Err != ErrOverloaded {
			t.Fatalf("flood submission %d: err=%v, want ErrOverloaded", i, res.Err)
		}
	}

	// A simultaneous burst must not slip past the queue bound either
	// (the check is add-then-test, not check-then-act): the queue is
	// full, so every one of these must be rejected.
	const burst = 64
	var rejected atomic.Int64
	var burstWG sync.WaitGroup
	for i := 0; i < burst; i++ {
		burstWG.Add(1)
		go func() {
			defer burstWG.Done()
			if svc.Submit(ctx, Request{H: cycle(flood + i + 3), K: 4}).Err == ErrOverloaded {
				rejected.Add(1)
			}
		}()
	}
	burstWG.Wait()
	if got := rejected.Load(); got != burst {
		t.Fatalf("burst: %d of %d rejected, want all", got, burst)
	}

	cancel()
	wg.Wait()
	if st := svc.Stats(); st.Rejected != flood+burst {
		t.Fatalf("stats.Rejected=%d, want %d", st.Rejected, flood+burst)
	}
}

// TestPerJobTimeout: a hopeless deadline must surface the context error
// without wedging the service.
func TestPerJobTimeout(t *testing.T) {
	svc := New(Config{TokenBudget: 1, MaxConcurrent: 2})
	defer svc.Close()

	res := svc.Submit(context.Background(), Request{H: grid(5), K: 3, Timeout: time.Microsecond})
	if res.Err == nil {
		t.Skip("instance solved within a microsecond; timeout not exercised")
	}
	if res.OK {
		t.Fatal("timed-out job cannot report OK")
	}
	// The service must still serve after a timeout.
	ok := svc.Submit(context.Background(), Request{H: cycle(6), K: 2})
	if ok.Err != nil || !ok.OK {
		t.Fatalf("post-timeout job: ok=%v err=%v", ok.OK, ok.Err)
	}
	if st := svc.Stats(); st.Failed == 0 {
		t.Fatal("timeout not counted as failed")
	}
}

// TestTimeoutCannotBeEscaped: a negative or oversized per-job timeout
// must not bypass the service's DefaultTimeout cap.
func TestTimeoutCannotBeEscaped(t *testing.T) {
	svc := New(Config{TokenBudget: 1, MaxConcurrent: 2, DefaultTimeout: 20 * time.Millisecond})
	defer svc.Close()
	heavy := grid(8)
	for _, timeout := range []time.Duration{-1, time.Hour} {
		start := time.Now()
		res := svc.Submit(context.Background(), Request{H: heavy, K: 4, Timeout: timeout})
		if res.Err == nil {
			t.Fatalf("timeout %v: heavy job finished under the 20ms cap?!", timeout)
		}
		if elapsed := time.Since(start); elapsed > 5*time.Second {
			t.Fatalf("timeout %v: job ran %v, cap did not apply", timeout, elapsed)
		}
	}
}

// TestBatchOrderAndStreaming: Batch preserves request order and handles
// mixed widths.
func TestBatch(t *testing.T) {
	svc := New(Config{TokenBudget: 2, MaxConcurrent: 4})
	defer svc.Close()

	reqs := []Request{
		{H: cycle(6), K: 2},
		{H: cycle(6), K: 1},
		{H: grid(3), K: 2},
		{H: cycle(10), K: 2},
	}
	want := []bool{true, false, true, true}
	results := svc.Batch(context.Background(), reqs)
	if len(results) != len(reqs) {
		t.Fatalf("got %d results for %d requests", len(results), len(reqs))
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("batch[%d]: %v", i, r.Err)
		}
		if r.OK != want[i] {
			t.Fatalf("batch[%d]: ok=%v want %v", i, r.OK, want[i])
		}
	}
}

// TestCloseRejectsAndDrains: Close waits for running jobs and later
// submissions fail with ErrClosed.
func TestCloseRejectsAndDrains(t *testing.T) {
	svc := New(Config{TokenBudget: 1, MaxConcurrent: 2})
	done := make(chan Result, 1)
	go func() { done <- svc.Submit(context.Background(), Request{H: cycle(20), K: 2}) }()
	// Give the job a chance to be admitted before closing.
	for i := 0; i < 1000 && svc.Stats().Submitted == 0; i++ {
		time.Sleep(time.Millisecond)
	}
	svc.Close()
	if res := svc.Submit(context.Background(), Request{H: cycle(6), K: 2}); res.Err != ErrClosed {
		t.Fatalf("submit after close: err=%v, want ErrClosed", res.Err)
	}
	if res := <-done; res.Err != nil || !res.OK {
		t.Fatalf("in-flight job: ok=%v err=%v", res.OK, res.Err)
	}
}

// TestStoreEviction: the LRU cap on cached graphs holds through the
// service configuration.
func TestStoreEviction(t *testing.T) {
	svc := New(Config{TokenBudget: 1, MaxConcurrent: 2, MemoMaxGraphs: 2})
	defer svc.Close()
	ctx := context.Background()
	for _, n := range []int{6, 8, 10, 12} {
		if res := svc.Submit(ctx, Request{H: cycle(n), K: 2}); res.Err != nil || !res.OK {
			t.Fatalf("cycle(%d): ok=%v err=%v", n, res.OK, res.Err)
		}
	}
	st := svc.Stats()
	if st.StoreEntries > 2 {
		t.Fatalf("store holds %d graphs, cap is 2", st.StoreEntries)
	}
	if st.StoreEvictions == 0 {
		t.Fatal("four graphs through a cap of two must evict")
	}
}

// TestTokenBudgetUnit exercises the service's token budget directly: the
// pool it builds from Config.TokenBudget grants at most that many tokens,
// tracks use and high water, and panics on over-release.
func TestTokenBudgetUnit(t *testing.T) {
	svc := New(Config{TokenBudget: 4, MaxConcurrent: 1})
	defer svc.Close()
	b := svc.Budget()
	if b.Size() != 4 {
		t.Fatalf("Size = %d, want 4", b.Size())
	}
	if got := b.TryAcquire(10); got != 4 {
		t.Fatalf("TryAcquire(10) = %d, want 4", got)
	}
	if got := b.TryAcquire(1); got != 0 {
		t.Fatalf("TryAcquire on empty = %d, want 0", got)
	}
	b.Release(4)
	if b.InUse() != 0 || b.HighWater() != 4 {
		t.Fatalf("InUse=%d HighWater=%d", b.InUse(), b.HighWater())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("over-release must panic")
		}
	}()
	b.Release(1)
}

// TestNegativeTokenBudgetMeansNone: a negative Config.TokenBudget gives
// a service with no extra search workers on any host (0 would mean
// GOMAXPROCS-1), so a job whose root search would split runs alone.
// earedCylinder(20) at K=2 has 1,830 root candidates, enough for a
// split, which a budget of 1 takes.
func TestNegativeTokenBudgetMeansNone(t *testing.T) {
	for _, c := range []struct {
		budget, wantSize int
		wantSplit        bool
	}{
		{budget: 1, wantSize: 1, wantSplit: true},
		{budget: -1, wantSize: 0, wantSplit: false},
	} {
		svc := New(Config{TokenBudget: c.budget, MaxConcurrent: 1})
		res := svc.Submit(context.Background(), Request{H: earedCylinder(20), K: 2})
		st := svc.Stats()
		svc.Close()
		if res.Err != nil || res.OK {
			t.Fatalf("budget %d: ok=%v err=%v, want NO", c.budget, res.OK, res.Err)
		}
		if st.TokenBudget != int64(c.wantSize) {
			t.Errorf("budget %d: Stats().TokenBudget = %d, want %d", c.budget, st.TokenBudget, c.wantSize)
		}
		if split := res.Stats.TokensGrabbed > 0; split != c.wantSplit {
			t.Errorf("budget %d: TokensGrabbed = %d, want a split: %v", c.budget, res.Stats.TokensGrabbed, c.wantSplit)
		}
	}
}

// TestStatsConservation: under a concurrent mix of every outcome —
// decide and optimal jobs, repeats that hit the cache or coalesce,
// MaxQueue overflow, tenant rate rejections and 1 ms timeouts — the
// service counters equal the outcomes the callers were handed, and
// every submitted job ends completed, failed or rejected.
func TestStatsConservation(t *testing.T) {
	svc := New(Config{
		TokenBudget:   1,
		MaxConcurrent: 1,
		MaxQueue:      6,
		// Two tenants of 320 jobs each: a burst of 200 plus 100/s runs
		// dry within the test's fraction of a second.
		Tenants: tenant.Config{Rate: 100, Burst: 200},
	})
	defer svc.Close()

	const goroutines, jobs = 16, 40
	var mu sync.Mutex
	var got Stats
	var limited int64 // rejections by the tenant wall
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for j := 0; j < jobs; j++ {
				req := Request{H: cycle(4 + (g+j)%6), K: 1 + j%2, Tenant: strconv.Itoa(g % 2)}
				switch (g + j) % 5 {
				case 1:
					req.Mode, req.K = ModeOptimal, 3
				case 3:
					req.H, req.K, req.Timeout = grid(5), 3, time.Millisecond
				}
				res := svc.Submit(context.Background(), req)
				mu.Lock()
				switch {
				case res.Err == nil:
					got.Completed++
				case errors.Is(res.Err, ErrOverloaded):
					got.Rejected++
				case errors.Is(res.Err, tenant.ErrLimited):
					got.Rejected++
					limited++
				default:
					got.Failed++
				}
				switch {
				case res.Coalesced:
					got.Coalesced++
				case res.CacheHit && res.OK:
					got.PositiveHits++
				case res.CacheHit:
					got.NegativeHits++
				}
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()

	st := svc.Stats()
	t.Logf("submitted %d: completed %d, failed %d, rejected %d (%d by the tenant wall); positive %d, negative %d, coalesced %d",
		st.Submitted, got.Completed, got.Failed, got.Rejected, limited, got.PositiveHits, got.NegativeHits, got.Coalesced)
	if st.Submitted != goroutines*jobs || st.Submitted != st.Completed+st.Failed+st.Rejected {
		t.Fatalf("Submitted %d != Completed %d + Failed %d + Rejected %d (want %d jobs)",
			st.Submitted, st.Completed, st.Failed, st.Rejected, goroutines*jobs)
	}
	for _, c := range []struct {
		name      string
		stat, got int64
	}{
		{"Completed", st.Completed, got.Completed},
		{"Failed", st.Failed, got.Failed},
		{"Rejected", st.Rejected, got.Rejected},
		{"PositiveHits", st.PositiveHits, got.PositiveHits},
		{"NegativeHits", st.NegativeHits, got.NegativeHits},
		{"Coalesced", st.Coalesced, got.Coalesced},
	} {
		if c.stat != c.got {
			t.Errorf("%s = %d, callers were handed %d", c.name, c.stat, c.got)
		}
	}
	var ts tenant.Stats
	for _, s := range st.Tenants {
		ts.Admitted += s.Admitted
		ts.RateRejected += s.RateRejected
		ts.Completed += s.Completed
		ts.Failed += s.Failed
	}
	if ts.RateRejected != limited || ts.Admitted+ts.RateRejected != st.Submitted || ts.Completed+ts.Failed != ts.Admitted {
		t.Errorf("tenant wall %+v disagrees with %d submitted, %d rate-limited", ts, st.Submitted, limited)
	}
	if st.Running != 0 || st.Waiting != 0 {
		t.Errorf("idle service reports Running %d, Waiting %d", st.Running, st.Waiting)
	}
}

// TestTighten pins the rule WithTimeout and RowCap share: an unset
// request inherits the ceiling, a larger one is clamped to it, a
// smaller one stands, and a ceiling ≤ 0 leaves the request as it is
// (0, no limit, when it too is unset).
func TestTighten(t *testing.T) {
	for _, tc := range []struct{ req, ceiling, want int }{
		{0, 100, 100}, {-5, 100, 100}, {500, 100, 100}, {40, 100, 40},
		{0, 0, 0}, {0, -1, 0}, {-5, -1, 0}, {40, 0, 40}, {40, -1, 40},
	} {
		if got := tighten(tc.req, tc.ceiling); got != tc.want {
			t.Errorf("tighten(%d, %d) = %d, want %d", tc.req, tc.ceiling, got, tc.want)
		}
		if got := tighten(time.Duration(tc.req), time.Duration(tc.ceiling)); got != time.Duration(tc.want) {
			t.Errorf("tighten(%v, %v) = %v, want %v", time.Duration(tc.req), time.Duration(tc.ceiling), got, time.Duration(tc.want))
		}
	}
}
