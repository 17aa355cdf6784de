package race

import (
	"context"
	"math/rand"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/decomp"
	"repro/internal/hypergraph"
	"repro/internal/logk"
	"repro/internal/opt"
)

func cycle(n int) *hypergraph.Hypergraph {
	var b hypergraph.Builder
	for i := 0; i < n; i++ {
		b.MustAddEdge("R"+strconv.Itoa(i), "x"+strconv.Itoa(i), "x"+strconv.Itoa((i+1)%n))
	}
	return b.Build()
}

func chain(n int) *hypergraph.Hypergraph {
	var b hypergraph.Builder
	for i := 0; i < n; i++ {
		b.MustAddEdge("R"+strconv.Itoa(i), "x"+strconv.Itoa(i), "x"+strconv.Itoa(i+1))
	}
	return b.Build()
}

func clique(n int) *hypergraph.Hypergraph {
	var b hypergraph.Builder
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			b.MustAddEdge("", "v"+strconv.Itoa(i), "v"+strconv.Itoa(j))
		}
	}
	return b.Build()
}

func cylinder(n int) *hypergraph.Hypergraph {
	var b hypergraph.Builder
	for i := 0; i < n; i++ {
		j := (i + 1) % n
		b.MustAddEdge("", "a"+strconv.Itoa(i), "a"+strconv.Itoa(j))
		b.MustAddEdge("", "b"+strconv.Itoa(i), "b"+strconv.Itoa(j))
		b.MustAddEdge("", "a"+strconv.Itoa(i), "b"+strconv.Itoa(i))
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

// randomHypergraph builds a small random hypergraph: 2..maxV vertices,
// 1..maxE edges of arity 1..3.
func randomHypergraph(r *rand.Rand, maxV, maxE int) *hypergraph.Hypergraph {
	nv := 2 + r.Intn(maxV-1)
	ne := 1 + r.Intn(maxE)
	var b hypergraph.Builder
	for e := 0; e < ne; e++ {
		arity := 1 + r.Intn(min(3, nv))
		seen := map[int]bool{}
		var names []string
		for len(names) < arity {
			if v := r.Intn(nv); !seen[v] {
				seen[v] = true
				names = append(names, "v"+strconv.Itoa(v))
			}
		}
		b.MustAddEdge("", names...)
	}
	return b.Build()
}

// TestRaceMatchesSerialOptimum is the core correctness test: on
// instances with known widths, and on seeded random hypergraphs, the
// racer must agree with the serial optimal solver and produce a
// CheckHD-valid witness of exactly that width, across probe-count and
// worker configurations.
func TestRaceMatchesSerialOptimum(t *testing.T) {
	cases := []struct {
		name string
		h    *hypergraph.Hypergraph
		want int
	}{
		{"chain-8", chain(8), 1},
		{"cycle-12", cycle(12), 2},
		{"clique-5", clique(5), 3},
		{"cylinder-8", cylinder(8), 3},
	}
	ctx := context.Background()
	for _, tc := range cases {
		wantW, _, ok, err := opt.New(tc.h, 6).Solve(ctx)
		if err != nil || !ok {
			t.Fatalf("%s: serial oracle failed: ok=%v err=%v", tc.name, ok, err)
		}
		if wantW != tc.want {
			t.Fatalf("%s: oracle width %d, expected %d", tc.name, wantW, tc.want)
		}
		for _, probes := range []int{1, 2, 4} {
			for _, workers := range []int{1, 4} {
				res, err := New(tc.h, Config{
					KMax: 6, MaxProbes: probes, Workers: workers,
				}).Solve(ctx)
				if err != nil {
					t.Fatalf("%s probes=%d workers=%d: %v", tc.name, probes, workers, err)
				}
				if !res.Found || res.Width != wantW {
					t.Fatalf("%s probes=%d workers=%d: found=%v width=%d, want %d",
						tc.name, probes, workers, res.Found, res.Width, wantW)
				}
				if err := decomp.CheckHD(res.Decomp); err != nil {
					t.Fatalf("%s probes=%d: invalid witness: %v", tc.name, probes, err)
				}
				if err := decomp.CheckWidth(res.Decomp, wantW); err != nil {
					t.Fatalf("%s probes=%d: witness too wide: %v", tc.name, probes, err)
				}
				if res.LowerBound != wantW {
					t.Fatalf("%s probes=%d: lower bound %d, want %d", tc.name, probes, res.LowerBound, wantW)
				}
				wantSrc := BoundProbe
				if wantW == 1 {
					wantSrc = BoundTrivial
				}
				if res.LowerBoundFrom != wantSrc {
					t.Fatalf("%s probes=%d: provenance %v, want %v", tc.name, probes, res.LowerBoundFrom, wantSrc)
				}
			}
		}
	}

	// Seeded random hypergraphs: the racer must find a witness exactly
	// when the serial solver does within KMax, at the same width.
	for seed := 0; seed < 200; seed++ {
		h := randomHypergraph(rand.New(rand.NewSource(int64(seed))), 9, 9)
		wantW, _, wantOK, err := opt.New(h, 3).Solve(ctx)
		if err != nil {
			t.Fatalf("seed %d: serial oracle: %v", seed, err)
		}
		res, err := New(h, Config{KMax: 3, MaxProbes: 3, Workers: 4}).Solve(ctx)
		if err != nil {
			t.Fatalf("seed %d: racer: %v", seed, err)
		}
		if res.Found != wantOK || (wantOK && res.Width != wantW) {
			t.Fatalf("seed %d: racer found=%v width=%d, serial found=%v width=%d\n%s",
				seed, res.Found, res.Width, wantOK, wantW, h)
		}
		if res.Found {
			if err := decomp.CheckHD(res.Decomp); err != nil {
				t.Fatalf("seed %d: invalid witness: %v\n%s", seed, err, h)
			}
			if err := decomp.CheckWidth(res.Decomp, wantW); err != nil {
				t.Fatalf("seed %d: witness too wide: %v", seed, err)
			}
		}
	}
}

// TestRaceUnsolvableWithinKMax: when hw(H) > KMax the racer must refute
// every width up to KMax and report Found=false with the bound banked.
func TestRaceUnsolvableWithinKMax(t *testing.T) {
	res, err := New(clique(5), Config{KMax: 2, MaxProbes: 2}).Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Found {
		t.Fatal("clique(5) has hw 3, must not be found at KMax 2")
	}
	if res.LowerBound != 3 {
		t.Fatalf("lower bound %d, want 3 (both widths refuted)", res.LowerBound)
	}
	if res.LowerBoundFrom != BoundProbe {
		t.Fatalf("provenance %v, want probe", res.LowerBoundFrom)
	}
}

// TestRaceTrustsInitialBounds: a cached lower bound skips the
// refutation work entirely and is reported with memo provenance.
func TestRaceTrustsInitialBounds(t *testing.T) {
	h := cylinder(8) // hw 3
	res, err := New(h, Config{KMax: 6, MaxProbes: 3, LowerBound: 3, UpperBoundHint: 3}).Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found || res.Width != 3 {
		t.Fatalf("found=%v width=%d, want width 3", res.Found, res.Width)
	}
	if res.LowerBoundFrom != BoundInitial {
		t.Fatalf("provenance %v, want memo (initial bound)", res.LowerBoundFrom)
	}
	for _, p := range res.Probes {
		if p.K != 3 {
			t.Fatalf("probe at width %d launched despite bounds pinning the race to 3", p.K)
		}
	}
	// A cached bound proving hw > KMax short-circuits with no probes.
	res, err = New(h, Config{KMax: 2, LowerBound: 3}).Solve(context.Background())
	if err != nil || res.Found || len(res.Probes) != 0 {
		t.Fatalf("short-circuit failed: err=%v found=%v probes=%d", err, res.Found, len(res.Probes))
	}
}

// countingTokens wraps a pool and tracks outstanding tokens so tests
// can prove the racer never leaks worker tokens, even on error paths.
type countingTokens struct {
	src logk.TokenSource
	out atomic.Int64
}

func (c *countingTokens) TryAcquire(max int) int {
	n := c.src.TryAcquire(max)
	c.out.Add(int64(n))
	return n
}

func (c *countingTokens) Release(n int) {
	c.out.Add(-int64(n))
	c.src.Release(n)
}

// TestRaceDeadlineReturnsPartialBounds: a hopeless deadline surfaces
// the context error but still banks whatever was proven, and every
// shared token is back in the pool when Solve returns.
func TestRaceDeadlineReturnsPartialBounds(t *testing.T) {
	tokens := &countingTokens{src: logk.NewTokenPool(4)}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	res, err := New(grid(8), Config{KMax: 6, MaxProbes: 3, Workers: 4, Tokens: tokens}).Solve(ctx)
	if err == nil {
		t.Skip("8x8 grid raced to completion in 30ms; timeout path not exercised")
	}
	if res.Found {
		t.Fatal("timed-out race cannot claim the optimum")
	}
	if res.LowerBound < 1 {
		t.Fatalf("lower bound %d must stay at least trivial", res.LowerBound)
	}
	if got := tokens.out.Load(); got != 0 {
		t.Fatalf("%d tokens still outstanding after Solve returned", got)
	}
}

// countingMemo is a logk.ShardedMemo that counts the keys it added.
type countingMemo struct {
	logk.ShardedMemo
	added atomic.Int64
}

func (m *countingMemo) Insert(key string) {
	if m.Add(key) {
		m.added.Add(1)
	}
}

// TestRaceSharedMemoInjection: refutations performed by a race must
// land in the injected per-width memo backends, and a second race
// seeded with those tables must hit them.
func TestRaceSharedMemoInjection(t *testing.T) {
	h := cycle(16) // hw 2
	tables := map[int]*countingMemo{}
	memoFor := func(k int) logk.MemoBackend {
		if tables[k] == nil {
			tables[k] = new(countingMemo)
		}
		return tables[k]
	}
	ctx := context.Background()
	res, err := New(h, Config{KMax: 4, MaxProbes: 1, MemoFor: memoFor}).Solve(ctx)
	if err != nil || !res.Found || res.Width != 2 {
		t.Fatalf("first race: err=%v found=%v width=%d", err, res.Found, res.Width)
	}
	if tables[1] == nil || tables[1].added.Load() == 0 {
		t.Fatal("refuting width 1 should have populated the width-1 memo table")
	}
	second, err := New(h, Config{KMax: 4, MaxProbes: 1, MemoFor: memoFor}).Solve(ctx)
	if err != nil || !second.Found || second.Width != 2 {
		t.Fatalf("second race: err=%v found=%v width=%d", err, second.Found, second.Width)
	}
	var hits int64
	for _, p := range second.Probes {
		hits += p.Stats.MemoHits
	}
	if hits == 0 {
		t.Fatal("second race should hit the shared memo tables")
	}
}

// TestRaceCancelsMootProbes: with wide racing on an easy instance, the
// probes made moot by the winner must be reported, and the outcome
// split must cover every launched probe.
func TestRaceCancelsMootProbes(t *testing.T) {
	res, err := New(cylinder(12), Config{KMax: 6, MaxProbes: 6, Workers: 2}).Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found || res.Width != 3 {
		t.Fatalf("found=%v width=%d, want 3", res.Found, res.Width)
	}
	counts := map[Outcome]int{}
	for _, p := range res.Probes {
		counts[p.Outcome]++
	}
	if got := counts[Cancelled]; got != res.Cancelled {
		t.Fatalf("Cancelled=%d but %d probes report cancelled", res.Cancelled, got)
	}
	if counts[Found] == 0 || counts[Refuted] == 0 {
		t.Fatalf("expected both found and refuted probes, got %v", counts)
	}
}

// TestNextWidthLadder pins the deterministic probe ladder: frontier
// first, then bisection, then ascending fill.
func TestNextWidthLadder(t *testing.T) {
	probed := map[int]bool{}
	running := map[int]*probeHandle{}
	order := []int{}
	for {
		k, ok := nextWidth(1, 7, 6, probed, running)
		if !ok {
			break
		}
		probed[k] = true
		order = append(order, k)
	}
	want := []int{1, 4, 2, 3, 5, 6}
	if len(order) != len(want) {
		t.Fatalf("ladder %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("ladder %v, want %v", order, want)
		}
	}
	// Bounds clamp the ladder: nothing below lb or at/above ub.
	if k, ok := nextWidth(3, 4, 6, map[int]bool{}, running); !ok || k != 3 {
		t.Fatalf("clamped ladder picked %d (ok=%v), want 3", k, ok)
	}
	if _, ok := nextWidth(4, 4, 6, map[int]bool{}, running); ok {
		t.Fatal("empty interval must yield no probe")
	}
}

// TestOptimalWrapper covers the one-shot helper.
func TestOptimalWrapper(t *testing.T) {
	w, d, ok, err := Optimal(context.Background(), cycle(10), Config{KMax: 4})
	if err != nil || !ok || w != 2 {
		t.Fatalf("ok=%v w=%d err=%v", ok, w, err)
	}
	if err := decomp.CheckHD(d); err != nil {
		t.Fatal(err)
	}
	if _, _, ok, err := Optimal(context.Background(), clique(5), Config{KMax: 2}); err != nil || ok {
		t.Fatalf("clique(5) at KMax 2: ok=%v err=%v", ok, err)
	}
}

// TestRaceBooksDrainedResults: a probe that finishes after it was made
// moot keeps its result. Its refutation raises the lower bound and its
// witness is banked; only an error reads as cancelled, and an error from
// a live probe reads as failed.
func TestRaceBooksDrainedResults(t *testing.T) {
	d, ok, err := logk.New(cycle(6), logk.Options{K: 2}).Decompose(context.Background())
	if err != nil || !ok {
		t.Fatalf("cycle(6) at k=2: ok=%v err=%v", ok, err)
	}
	res := Result{LowerBound: 1}
	if got := res.book(probeDone{k: 2}, true); got != Refuted {
		t.Fatalf("moot refutation booked %v, want refuted", got)
	}
	if res.LowerBound != 3 || res.LowerBoundFrom != BoundProbe {
		t.Fatalf("after refuting 2: lower bound %d from %v, want 3 from probe", res.LowerBound, res.LowerBoundFrom)
	}
	if got := res.book(probeDone{k: 4, d: d, ok: true}, true); got != Found {
		t.Fatalf("moot witness booked %v, want found", got)
	}
	if res.BestWidth != 2 || res.Decomp != d {
		t.Fatalf("after the witness: best width %d, decomp kept %v; want 2, true", res.BestWidth, res.Decomp == d)
	}
	if got := res.book(probeDone{k: 3, err: context.Canceled}, true); got != Cancelled {
		t.Fatalf("moot error booked %v, want cancelled", got)
	}
	if got := res.book(probeDone{k: 3, err: context.DeadlineExceeded}, false); got != Failed {
		t.Fatalf("live error booked %v, want failed", got)
	}
	if res.Cancelled != 1 || len(res.Probes) != 4 {
		t.Fatalf("Cancelled=%d, %d probe reports; want 1 and 4", res.Cancelled, len(res.Probes))
	}
}
