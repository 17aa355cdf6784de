package logk

import (
	"context"
	"math/rand"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/decomp"
	"repro/internal/detk"
	"repro/internal/hypergraph"
)

// detkOptimum is the ladder's oracle, written apart from the code under
// test: det-k-decomp at k = 1, 2, …, kMax, up to the first width that
// admits an HD. ok is false when none does.
func detkOptimum(ctx context.Context, h *hypergraph.Hypergraph, kMax int) (width int, ok bool, err error) {
	for k := 1; k <= kMax; k++ {
		_, ok, err := detk.New(h, k).Decompose(ctx)
		if err != nil || ok {
			return k, ok, err
		}
	}
	return 0, false, nil
}

// cylinder returns the n-prism: two n-cycles joined by rungs (hw 3 for
// n ≥ 4).
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

// TestOptimalMatchesSerialOptimum is the core correctness test of the
// width ladder: on instances with known widths, and on seeded random
// hypergraphs, Optimal must agree with a plain det-k loop and
// produce a CheckHD-valid witness of exactly that width, at one and at
// four workers, from the trivial bound and from the structural one.
func TestOptimalMatchesSerialOptimum(t *testing.T) {
	cases := []struct {
		name string
		h    *hypergraph.Hypergraph
		want int
	}{
		{"chain-8", path(8), 1},
		{"cycle-12", cycle(12), 2},
		{"clique-5", clique(5), 3},
		{"cylinder-8", cylinder(8), 3},
	}
	ctx := context.Background()
	for _, tc := range cases {
		wantW, ok, err := detkOptimum(ctx, tc.h, 6)
		if err != nil || !ok {
			t.Fatalf("%s: det-k loop failed: ok=%v err=%v", tc.name, ok, err)
		}
		if wantW != tc.want {
			t.Fatalf("%s: oracle width %d, expected %d", tc.name, wantW, tc.want)
		}
		lb, err := tc.h.WidthLowerBound(ctx, 6)
		if err != nil {
			t.Fatal(err)
		}
		for _, bound := range []int{1, lb} {
			for _, workers := range []int{1, 4} {
				res, err := Optimal(ctx, tc.h, OptimalConfig{
					Search: Options{Workers: workers}, KMax: 6, LowerBound: bound,
				})
				if err != nil {
					t.Fatalf("%s bound=%d workers=%d: %v", tc.name, bound, workers, err)
				}
				if !res.Found || res.Width != wantW {
					t.Fatalf("%s bound=%d workers=%d: found=%v width=%d, want %d",
						tc.name, bound, workers, res.Found, res.Width, wantW)
				}
				if err := decomp.CheckHD(res.Decomp); err != nil {
					t.Fatalf("%s bound=%d: invalid witness: %v", tc.name, bound, err)
				}
				if err := decomp.CheckWidth(res.Decomp, wantW); err != nil {
					t.Fatalf("%s bound=%d: witness too wide: %v", tc.name, bound, err)
				}
				if res.LowerBound != wantW {
					t.Fatalf("%s bound=%d: lower bound %d, want %d", tc.name, bound, res.LowerBound, wantW)
				}
				if res.Probes != wantW-bound+1 {
					t.Fatalf("%s bound=%d: %d probes, want %d", tc.name, bound, res.Probes, wantW-bound+1)
				}
				wantSrc := BoundProbe
				switch {
				case wantW == 1:
					wantSrc = BoundTrivial
				case bound == wantW:
					wantSrc = BoundInitial
				}
				if res.LowerBoundFrom != wantSrc {
					t.Fatalf("%s bound=%d: provenance %v, want %v", tc.name, bound, res.LowerBoundFrom, wantSrc)
				}
			}
		}
	}

	// Seeded random hypergraphs: the ladder must find a witness exactly
	// when the det-k loop does within KMax, at the same width.
	for seed := 0; seed < 200; seed++ {
		h := randomHypergraph(rand.New(rand.NewSource(int64(seed))), 9, 9)
		wantW, wantOK, err := detkOptimum(ctx, h, 3)
		if err != nil {
			t.Fatalf("seed %d: det-k loop: %v", seed, err)
		}
		res, err := Optimal(ctx, h, OptimalConfig{Search: Options{Workers: 4}, KMax: 3})
		if err != nil {
			t.Fatalf("seed %d: ladder: %v", seed, err)
		}
		if res.Found != wantOK || (wantOK && res.Width != wantW) {
			t.Fatalf("seed %d: ladder found=%v width=%d, det-k loop found=%v width=%d\n%s",
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

// TestOptimalUnsolvableWithinKMax: when hw(H) > KMax the ladder refutes
// every width up to KMax and reports Found=false with the bound banked.
func TestOptimalUnsolvableWithinKMax(t *testing.T) {
	res, err := Optimal(context.Background(), clique(5), OptimalConfig{KMax: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Found || res.Decomp != nil {
		t.Fatal("clique(5) has hw 3, must not be found at KMax 2")
	}
	if res.LowerBound != 3 || res.Probes != 2 {
		t.Fatalf("lower bound %d after %d probes, want 3 after 2 (both widths refuted)", res.LowerBound, res.Probes)
	}
	if res.LowerBoundFrom != BoundProbe {
		t.Fatalf("provenance %v, want probe", res.LowerBoundFrom)
	}
}

// TestOptimalOneShot covers a plain call from the trivial bound: a cycle
// is found at width 2 with a valid witness, and clique(5) is not found
// at KMax 2.
func TestOptimalOneShot(t *testing.T) {
	res, err := Optimal(context.Background(), cycle(10), OptimalConfig{KMax: 4})
	if err != nil || !res.Found || res.Width != 2 {
		t.Fatalf("found=%v w=%d err=%v", res.Found, res.Width, err)
	}
	if err := decomp.CheckHD(res.Decomp); err != nil {
		t.Fatal(err)
	}
	if res, err := Optimal(context.Background(), clique(5), OptimalConfig{KMax: 2}); err != nil || res.Found {
		t.Fatalf("clique(5) at KMax 2: found=%v err=%v", res.Found, err)
	}
}

// TestOptimalTrustsLowerBound: a caller's lower bound skips the
// refutation work entirely and is reported as the initial bound.
func TestOptimalTrustsLowerBound(t *testing.T) {
	h := cylinder(8) // hw 3
	res, err := Optimal(context.Background(), h, OptimalConfig{KMax: 6, LowerBound: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found || res.Width != 3 {
		t.Fatalf("found=%v width=%d, want width 3", res.Found, res.Width)
	}
	if res.LowerBoundFrom != BoundInitial {
		t.Fatalf("provenance %v, want memo (initial bound)", res.LowerBoundFrom)
	}
	if res.Probes != 1 {
		t.Fatalf("%d probes, want 1: the bound pins the ladder to width 3", res.Probes)
	}
	// A bound proving hw > KMax short-circuits with no probes.
	res, err = Optimal(context.Background(), h, OptimalConfig{KMax: 2, LowerBound: 3})
	if err != nil || res.Found || res.Probes != 0 || res.LowerBound != 3 {
		t.Fatalf("short-circuit failed: err=%v found=%v probes=%d lb=%d", err, res.Found, res.Probes, res.LowerBound)
	}
}

// TestOptimalDeadlineKeepsLowerBound: a hopeless deadline surfaces the
// context error but still reports the bound proven so far, and every
// shared token is back in the pool when Optimal returns.
func TestOptimalDeadlineKeepsLowerBound(t *testing.T) {
	tokens := newRecordingTokens(4)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	res, err := Optimal(ctx, grid(8), OptimalConfig{
		Search: Options{Workers: 4, Tokens: tokens}, KMax: 6, LowerBound: 2,
	})
	if err == nil {
		t.Skip("8x8 grid solved in 30ms; timeout path not exercised")
	}
	if res.Found || res.Decomp != nil {
		t.Fatal("a timed-out ladder cannot claim the optimum")
	}
	if res.LowerBound < 2 || res.LowerBound != res.Probes+1 {
		t.Fatalf("lower bound %d after %d probes: the caller's 2 must stand and every finished probe refuted one width",
			res.LowerBound, res.Probes)
	}
	if got := tokens.freeTokens(); got != 4 {
		t.Fatalf("%d of 4 tokens free after Optimal returned", got)
	}
}

// insertCountingMemo is a ShardedMemo that counts the keys it added.
type insertCountingMemo struct {
	ShardedMemo
	added atomic.Int64
}

func (m *insertCountingMemo) Insert(key string) {
	if m.Add(key) {
		m.added.Add(1)
	}
}

// TestOptimalMemoInjection: refutations performed by the ladder land in
// the injected per-width memo backends, and a second run seeded with
// those tables hits them.
func TestOptimalMemoInjection(t *testing.T) {
	h := cycle(16) // hw 2
	tables := map[int]*insertCountingMemo{}
	cfg := OptimalConfig{KMax: 4}
	r := rule{memoFor: func(k int) MemoBackend {
		if tables[k] == nil {
			tables[k] = new(insertCountingMemo)
		}
		return tables[k]
	}}
	ctx := context.Background()
	res, err := optimalFrom(ctx, h, cfg, BoundInitial, r)
	if err != nil || !res.Found || res.Width != 2 {
		t.Fatalf("first run: err=%v found=%v width=%d", err, res.Found, res.Width)
	}
	if tables[1] == nil || tables[1].added.Load() == 0 {
		t.Fatal("refuting width 1 should have populated the width-1 memo table")
	}
	second, err := optimalFrom(ctx, h, cfg, BoundInitial, r)
	if err != nil || !second.Found || second.Width != 2 {
		t.Fatalf("second run: err=%v found=%v width=%d", err, second.Found, second.Width)
	}
	if second.Stats.MemoHits == 0 {
		t.Fatal("second run should hit the shared memo tables")
	}
}
