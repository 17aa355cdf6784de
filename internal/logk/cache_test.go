package logk

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/decomp"
	"repro/internal/hyperbench"
)

// TestMemoMatchesBasicSolver: the negative memo and parent-candidate
// cache are pure accelerations — decisions must be those of Algorithm 1
// (NewBasic, which caches nothing), and both solvers must produce valid
// HDs.
func TestMemoMatchesBasicSolver(t *testing.T) {
	ctx := context.Background()
	for seed := 0; seed < 40; seed++ {
		r := rand.New(rand.NewSource(int64(5000 + seed)))
		h := randomHypergraph(r, 9, 9)
		for k := 1; k <= 3; k++ {
			dC, okC, errC := New(h, Options{K: k}).Decompose(ctx)
			dB, okB, errB := NewBasic(h, k).Decompose(ctx)
			if errC != nil || errB != nil {
				t.Fatalf("seed %d k=%d: errs %v %v", seed, k, errC, errB)
			}
			if okC != okB {
				t.Fatalf("seed %d k=%d: memo=%v basic=%v\n%s", seed, k, okC, okB, h)
			}
			for name, d := range map[string]*decomp.Decomp{"memo": dC, "basic": dB} {
				if d == nil {
					continue
				}
				if err := decomp.CheckHD(d); err != nil {
					t.Fatalf("seed %d k=%d %s: %v", seed, k, name, err)
				}
			}
		}
	}
}

// TestMemoHitsAccumulate: on refutations that revisit states the memo
// must actually fire (guards against key drift silently disabling it).
// Pure log-k-decomp at one worker answers both instances NO at k = 2
// with 160 and 6,815 memo hits.
func TestMemoHitsAccumulate(t *testing.T) {
	cfg := hyperbench.Config{Scale: 1, Seed: 2022}
	for _, name := range []string{"app-clique-5", "app-cliquechain-3-5"} {
		s := New(suiteInstance(t, cfg, name), Options{K: 2, Workers: 1})
		if _, ok, err := s.Decompose(context.Background()); err != nil || ok {
			t.Fatalf("%s k=2: ok=%v err=%v, want refutation", name, ok, err)
		}
		t.Logf("%s k=2: %d memo hits", name, s.Stats().MemoHits)
		if s.Stats().MemoHits == 0 {
			t.Fatalf("%s k=2: no memo hits", name)
		}
	}
}

// TestParallelStressSuite: decompositions from highly parallel runs over
// a batch of structured instances are all valid (exercises cancellation,
// token pool, shared caches under contention).
func TestParallelStressSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	ctx := context.Background()
	for _, n := range []int{10, 20, 30} {
		h := cycle(n)
		for rep := 0; rep < 3; rep++ {
			s := New(h, Options{K: 2, Workers: 16})
			d, ok, err := s.Decompose(ctx)
			if err != nil || !ok {
				t.Fatalf("cycle(%d) rep %d: ok=%v err=%v", n, rep, ok, err)
			}
			if err := decomp.CheckHD(d); err != nil {
				t.Fatalf("cycle(%d) rep %d: %v", n, rep, err)
			}
		}
	}
	for _, m := range []int{3, 4} {
		h := grid(m)
		s := New(h, Options{K: m, Workers: 16, Hybrid: HybridEdgeCount, HybridThreshold: 12})
		d, ok, err := s.Decompose(ctx)
		if err != nil || !ok {
			t.Fatalf("grid(%d): ok=%v err=%v", m, ok, err)
		}
		if err := decomp.CheckHD(d); err != nil {
			t.Fatalf("grid(%d): %v", m, err)
		}
	}
}
