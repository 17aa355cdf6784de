package htd

import (
	"context"
	"strings"
	"sync"
	"testing"

	"repro/internal/logk"
)

const triangleSrc = "r1(x,y), r2(y,z), r3(z,x)."

func TestPublicAPIRoundTrip(t *testing.T) {
	h, err := ParseString(triangleSrc)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	d, ok, err := Decompose(ctx, h, Options{K: 2, Workers: 2})
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	if err := Validate(d); err != nil {
		t.Fatal(err)
	}
	if err := ValidateWidth(d, 2); err != nil {
		t.Fatal(err)
	}
	if d.Width() != 2 {
		t.Fatalf("width = %d, want 2", d.Width())
	}
}

func TestDecomposeKRejectsTriangleAtOne(t *testing.T) {
	h, _ := ParseString(triangleSrc)
	_, ok, err := DecomposeK(context.Background(), h, 1)
	if err != nil || ok {
		t.Fatalf("triangle at k=1: ok=%v err=%v", ok, err)
	}
}

func TestDetKAndGHDBaselines(t *testing.T) {
	h, _ := ParseString(triangleSrc)
	ctx := context.Background()
	d1, ok, err := DecomposeDetK(ctx, h, 2)
	if err != nil || !ok {
		t.Fatalf("detk: ok=%v err=%v", ok, err)
	}
	if err := Validate(d1); err != nil {
		t.Fatal(err)
	}
	d2, ok, err := DecomposeGHD(ctx, h, 2)
	if err != nil || !ok {
		t.Fatalf("ghd: ok=%v err=%v", ok, err)
	}
	if err := ValidateGHD(d2); err != nil {
		t.Fatal(err)
	}
}

// TestNoEdgesAllSolvers: a hypergraph with no edges, which a Builder
// accepts, gets the same answer from every solver: YES with a valid
// decomposition, at every width. Its hypertree width is 0, the width of
// its one node with an empty λ, and the optimal-width search says so.
func TestNoEdgesAllSolvers(t *testing.T) {
	var b Builder
	h := b.Build()
	ctx := context.Background()
	for _, k := range []int{1, 2} {
		solvers := map[string]func() (*Decomposition, bool, error){
			"logk":  func() (*Decomposition, bool, error) { return DecomposeK(ctx, h, k) },
			"basic": func() (*Decomposition, bool, error) { return logk.NewBasic(h, k).Decompose(ctx) },
			"detk":  func() (*Decomposition, bool, error) { return DecomposeDetK(ctx, h, k) },
			"ghd":   func() (*Decomposition, bool, error) { return DecomposeGHD(ctx, h, k) },
		}
		for name, solve := range solvers {
			d, ok, err := solve()
			if err != nil || !ok {
				t.Fatalf("%s k=%d: ok=%v err=%v, want YES", name, k, ok, err)
			}
			if err := Validate(d); err != nil {
				t.Fatalf("%s k=%d: %v", name, k, err)
			}
			if err := ValidateWidth(d, k); err != nil {
				t.Fatalf("%s k=%d: %v", name, k, err)
			}
		}
	}
	w, d, ok, err := DecomposeOptimal(ctx, h, OptimalOptions{KMax: 2})
	if err != nil || !ok || w != 0 {
		t.Fatalf("DecomposeOptimal: width=%d ok=%v err=%v, want width 0", w, ok, err)
	}
	if err := Validate(d); err != nil {
		t.Fatal(err)
	}
	if err := ValidateWidth(d, w); err != nil {
		t.Fatalf("DecomposeOptimal: %v", err)
	}
	res, err := logk.Optimal(ctx, h, logk.OptimalConfig{KMax: 2})
	if err != nil || !res.Found || res.Width != 0 || res.LowerBound > res.Width {
		t.Fatalf("logk.Optimal: %+v err=%v, want width 0 with LowerBound ≤ 0", res, err)
	}
	if err := ValidateWidth(res.Decomp, res.Width); err != nil {
		t.Fatalf("logk.Optimal: %v", err)
	}
}

func TestDecomposeStatsExposed(t *testing.T) {
	h, _ := ParseString(triangleSrc)
	_, ok, st, err := DecomposeStats(context.Background(), h, Options{K: 2})
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	if st.Candidates == 0 {
		t.Fatal("stats should count candidates")
	}
	if st.MaxDepth == 0 {
		t.Fatal("stats should record recursion depth")
	}
}

func TestBuilderPublic(t *testing.T) {
	var b Builder
	b.MustAddEdge("e1", "a", "b")
	b.MustAddEdge("e2", "b", "c")
	h := b.Build()
	d, ok, err := DecomposeK(context.Background(), h, 1)
	if err != nil || !ok {
		t.Fatalf("path should have width 1: ok=%v err=%v", ok, err)
	}
	if !strings.Contains(d.String(), "lambda=") {
		t.Fatal("rendering broken")
	}
}

func TestDecomposeOptimalPublic(t *testing.T) {
	h, _ := ParseString(triangleSrc)
	w, d, ok, err := DecomposeOptimal(context.Background(), h, OptimalOptions{KMax: 4, Search: Options{Workers: 2}})
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	if w != 2 {
		t.Fatalf("optimal width = %d, want 2", w)
	}
	if err := Validate(d); err != nil {
		t.Fatal(err)
	}
	if err := ValidateWidth(d, 2); err != nil {
		t.Fatal(err)
	}

	// A ceiling below the structural bound answers no without a search.
	if _, _, ok, err := DecomposeOptimal(context.Background(), h, OptimalOptions{KMax: 1}); ok || err != nil {
		t.Fatalf("KMax 1: ok=%v err=%v, want a refutation", ok, err)
	}
}

func TestServiceOptimalModePublic(t *testing.T) {
	svc := NewService(ServiceConfig{TokenBudget: 2, MaxConcurrent: 4})
	defer svc.Close()
	h, _ := ParseString(triangleSrc)
	res := svc.Submit(context.Background(), ServiceRequest{H: h, K: 4, Mode: ModeOptimal})
	if res.Err != nil || !res.OK || res.Width != 2 {
		t.Fatalf("ok=%v width=%d err=%v", res.OK, res.Width, res.Err)
	}
	if err := Validate(res.Decomp); err != nil {
		t.Fatal(err)
	}
	if st := svc.Stats(); st.OptimalJobs != 1 {
		t.Fatalf("OptimalJobs=%d, want 1", st.OptimalJobs)
	}
}

// TestServicePublicAPI drives htd.Service end to end: 32 concurrent
// submissions over a shared budget, then a batch, then stats.
func TestServicePublicAPI(t *testing.T) {
	svc := NewService(ServiceConfig{TokenBudget: 2, MaxConcurrent: 8, MaxQueue: 128})
	defer svc.Close()

	h, err := ParseString(triangleSrc)
	if err != nil {
		t.Fatal(err)
	}
	const jobs = 32
	results := make([]ServiceResult, jobs)
	var wg sync.WaitGroup
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = svc.Submit(context.Background(), ServiceRequest{H: h, K: 2})
		}(i)
	}
	wg.Wait()
	for i, r := range results {
		if r.Err != nil || !r.OK {
			t.Fatalf("job %d: ok=%v err=%v", i, r.OK, r.Err)
		}
		if err := Validate(r.Decomp); err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
	}

	batch := svc.Batch(context.Background(), []ServiceRequest{
		{H: h, K: 2}, {H: h, K: 1},
	})
	if batch[0].Err != nil || !batch[0].OK {
		t.Fatalf("batch[0]: ok=%v err=%v", batch[0].OK, batch[0].Err)
	}
	if batch[1].Err != nil || batch[1].OK {
		t.Fatalf("batch[1]: triangle at k=1 must be rejected (ok=%v err=%v)", batch[1].OK, batch[1].Err)
	}

	st := svc.Stats()
	if st.Completed != jobs+2 {
		t.Fatalf("completed %d, want %d", st.Completed, jobs+2)
	}
	if st.TokensHighWater > st.TokenBudget {
		t.Fatalf("budget exceeded: %d > %d", st.TokensHighWater, st.TokenBudget)
	}
	if st.CacheReuses == 0 {
		t.Fatal("identical submissions should reuse the memo cache")
	}
}
