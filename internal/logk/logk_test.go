package logk

import (
	"context"
	"math"
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/decomp"
	"repro/internal/detk"
	"repro/internal/hypergraph"
)

func cycle(n int) *hypergraph.Hypergraph {
	var b hypergraph.Builder
	for i := 0; i < n; i++ {
		b.MustAddEdge("R"+strconv.Itoa(i+1), "x"+strconv.Itoa(i), "x"+strconv.Itoa((i+1)%n))
	}
	return b.Build()
}

func path(n int) *hypergraph.Hypergraph {
	var b hypergraph.Builder
	for i := 0; i < n; i++ {
		b.MustAddEdge("P"+strconv.Itoa(i+1), "x"+strconv.Itoa(i), "x"+strconv.Itoa(i+1))
	}
	return b.Build()
}

// clique returns K_n as a hypergraph (all 2-element edges). Known:
// hw(K_n) = ⌈n/2⌉ for n ≥ 3.
func clique(n int) *hypergraph.Hypergraph {
	var b hypergraph.Builder
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			b.MustAddEdge("e"+strconv.Itoa(i)+"_"+strconv.Itoa(j),
				"v"+strconv.Itoa(i), "v"+strconv.Itoa(j))
		}
	}
	return b.Build()
}

// grid returns the m×m grid graph as a hypergraph of binary edges.
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

func mustDecompose(t *testing.T, h *hypergraph.Hypergraph, k int, opts ...func(*Options)) *decomp.Decomp {
	t.Helper()
	o := Options{K: k}
	for _, f := range opts {
		f(&o)
	}
	s := New(h, o)
	d, ok, err := s.Decompose(context.Background())
	if err != nil {
		t.Fatalf("Decompose error: %v", err)
	}
	if !ok {
		t.Fatalf("Decompose: no HD of width ≤ %d found", k)
	}
	if err := decomp.CheckHD(d); err != nil {
		t.Fatalf("invalid HD: %v\n%s", err, d)
	}
	if err := decomp.CheckWidth(d, k); err != nil {
		t.Fatal(err)
	}
	return d
}

func mustReject(t *testing.T, h *hypergraph.Hypergraph, k int) {
	t.Helper()
	s := New(h, Options{K: k})
	_, ok, err := s.Decompose(context.Background())
	if err != nil {
		t.Fatalf("Decompose error: %v", err)
	}
	if ok {
		t.Fatalf("Decompose claimed hw ≤ %d, expected rejection", k)
	}
}

func TestPathWidthOne(t *testing.T) {
	mustDecompose(t, path(6), 1)
}

func TestSingleEdge(t *testing.T) {
	var b hypergraph.Builder
	b.MustAddEdge("e", "a", "b", "c")
	mustDecompose(t, b.Build(), 1)
}

func TestCycleWidthTwo(t *testing.T) {
	for _, n := range []int{3, 4, 5, 10} {
		h := cycle(n)
		mustReject(t, h, 1)
		d := mustDecompose(t, h, 2)
		if d.Width() != 2 {
			t.Fatalf("cycle(%d): width %d, want 2", n, d.Width())
		}
	}
}

func TestPaperExampleCycle10(t *testing.T) {
	// Appendix B works through cycle(10) with k = 2.
	d := mustDecompose(t, cycle(10), 2)
	if d.Width() != 2 {
		t.Fatalf("width = %d, want 2", d.Width())
	}
}

func TestCliqueWidths(t *testing.T) {
	// hw(K_n) = ⌈n/2⌉.
	cases := []struct{ n, hw int }{{3, 2}, {4, 2}, {5, 3}}
	for _, c := range cases {
		h := clique(c.n)
		mustReject(t, h, c.hw-1)
		mustDecompose(t, h, c.hw)
	}
}

func TestStarWidthOne(t *testing.T) {
	var b hypergraph.Builder
	b.MustAddEdge("center", "a", "b", "c", "d")
	b.MustAddEdge("s1", "a", "x")
	b.MustAddEdge("s2", "b", "y")
	b.MustAddEdge("s3", "c", "z")
	mustDecompose(t, b.Build(), 1)
}

func TestDisconnectedHypergraph(t *testing.T) {
	var b hypergraph.Builder
	b.MustAddEdge("p1", "a", "b")
	b.MustAddEdge("p2", "b", "c")
	b.MustAddEdge("q1", "u", "v")
	b.MustAddEdge("q2", "v", "w")
	mustDecompose(t, b.Build(), 1)
}

func TestGrid3WidthTwo(t *testing.T) {
	h := grid(3)
	mustReject(t, h, 1)
	mustDecompose(t, h, 2)
}

func TestRecursionDepthLogarithmic(t *testing.T) {
	// Theorem 4.1: recursion depth is O(log |E|). The size recurrence is
	// s → ⌈s/2⌉ with one extra level for the initial call, so
	// depth ≤ ⌈log2 m⌉ + 2 holds comfortably.
	for _, n := range []int{16, 32, 64} {
		h := cycle(n)
		s := New(h, Options{K: 2})
		_, ok, err := s.Decompose(context.Background())
		if err != nil || !ok {
			t.Fatalf("cycle(%d): ok=%v err=%v", n, ok, err)
		}
		bound := int64(math.Ceil(math.Log2(float64(n)))) + 2
		if got := s.Stats().MaxDepth; got > bound {
			t.Fatalf("cycle(%d): recursion depth %d exceeds log bound %d", n, got, bound)
		}
	}
}

func TestParallelMatchesSequential(t *testing.T) {
	graphs := []*hypergraph.Hypergraph{cycle(12), grid(3), clique(5)}
	for gi, h := range graphs {
		for k := 1; k <= 3; k++ {
			seq := New(h, Options{K: k})
			par := New(h, Options{K: k, Workers: 8})
			_, okS, errS := seq.Decompose(context.Background())
			dP, okP, errP := par.Decompose(context.Background())
			if errS != nil || errP != nil {
				t.Fatalf("graph %d k=%d: errs %v %v", gi, k, errS, errP)
			}
			if okS != okP {
				t.Fatalf("graph %d k=%d: sequential=%v parallel=%v", gi, k, okS, okP)
			}
			if okP {
				if err := decomp.CheckHD(dP); err != nil {
					t.Fatalf("graph %d k=%d: parallel HD invalid: %v", gi, k, err)
				}
				if err := decomp.CheckWidth(dP, k); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

func TestHybridMatchesPlain(t *testing.T) {
	graphs := []*hypergraph.Hypergraph{cycle(12), grid(3), clique(4)}
	for gi, h := range graphs {
		for k := 1; k <= 3; k++ {
			plain := New(h, Options{K: k})
			hyb := New(h, Options{K: k, Hybrid: HybridWeightedCount, HybridThreshold: 20})
			_, okP, errP := plain.Decompose(context.Background())
			dH, okH, errH := hyb.Decompose(context.Background())
			if errP != nil || errH != nil {
				t.Fatalf("graph %d k=%d: errs %v %v", gi, k, errP, errH)
			}
			if okP != okH {
				t.Fatalf("graph %d k=%d: plain=%v hybrid=%v", gi, k, okP, okH)
			}
			if okH {
				if err := decomp.CheckHD(dH); err != nil {
					t.Fatalf("graph %d k=%d: hybrid HD invalid: %v", gi, k, err)
				}
				if err := decomp.CheckWidth(dH, k); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

func TestHybridUsesDetK(t *testing.T) {
	h := cycle(16)
	s := New(h, Options{K: 2, Hybrid: HybridEdgeCount, HybridThreshold: 8})
	_, ok, err := s.Decompose(context.Background())
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	if s.Stats().HybridCalls == 0 {
		t.Fatal("hybrid mode never delegated to det-k-decomp")
	}
}

func TestAblationTogglesStillCorrect(t *testing.T) {
	h := cycle(10)
	variants := []Options{
		{K: 2, NoAllowedRestriction: true},
		{K: 2, NoParentPoolRestriction: true},
		{K: 2, NoNegativeBaseCase: true},
		{K: 2, NoAllowedRestriction: true, NoParentPoolRestriction: true, NoNegativeBaseCase: true},
	}
	for i, o := range variants {
		s := New(h, o)
		d, ok, err := s.Decompose(context.Background())
		if err != nil || !ok {
			t.Fatalf("variant %d: ok=%v err=%v", i, ok, err)
		}
		if err := decomp.CheckHD(d); err != nil {
			t.Fatalf("variant %d: invalid HD: %v", i, err)
		}
		sNeg := New(cycle(5), Options{K: o.K, NoAllowedRestriction: o.NoAllowedRestriction,
			NoParentPoolRestriction: o.NoParentPoolRestriction, NoNegativeBaseCase: o.NoNegativeBaseCase})
		sNeg.Opts.K = 1
		if ok, err := sNeg.Decide(context.Background()); err != nil || ok {
			t.Fatalf("variant %d: k=1 on cycle should reject (ok=%v err=%v)", i, ok, err)
		}
	}
}

func TestCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := New(cycle(20), Options{K: 2})
	_, _, err := s.Decompose(ctx)
	if err == nil {
		t.Fatal("cancelled context should surface an error")
	}
}

func TestBasicSolverOnPaperExample(t *testing.T) {
	h := cycle(6)
	b := NewBasic(h, 2)
	d, ok, err := b.Decompose(context.Background())
	if err != nil || !ok {
		t.Fatalf("basic solver failed: ok=%v err=%v", ok, err)
	}
	if err := decomp.CheckHD(d); err != nil {
		t.Fatalf("basic solver produced invalid HD: %v\n%s", err, d)
	}
	if err := decomp.CheckWidth(d, 2); err != nil {
		t.Fatal(err)
	}
	if ok, err := NewBasic(h, 1).Decide(context.Background()); err != nil || ok {
		t.Fatalf("basic solver should reject k=1 on a cycle (ok=%v err=%v)", ok, err)
	}
}

// randomHypergraph builds a small random hypergraph for cross-validation.
func randomHypergraph(r *rand.Rand, maxV, maxE int) *hypergraph.Hypergraph {
	nv := 2 + r.Intn(maxV-1)
	ne := 1 + r.Intn(maxE)
	var b hypergraph.Builder
	for e := 0; e < ne; e++ {
		maxArity := 3
		if maxArity > nv {
			maxArity = nv
		}
		arity := 1 + r.Intn(maxArity)
		seen := map[int]bool{}
		var names []string
		for len(names) < arity {
			v := r.Intn(nv)
			if !seen[v] {
				seen[v] = true
				names = append(names, "v"+strconv.Itoa(v))
			}
		}
		b.MustAddEdge("", names...)
	}
	return b.Build()
}

// TestCrossValidationSolvers is the central correctness test: on random
// small hypergraphs, the optimised log-k-decomp (sequential, parallel,
// hybrid and uncached), the basic Algorithm 1, and det-k-decomp must
// agree on the decision hw(H) ≤ k for all k, every produced HD must
// validate, and hw(H) = 1 must coincide with GYO α-acyclicity.
func TestCrossValidationSolvers(t *testing.T) {
	ctx := context.Background()
	rounds := 60
	if testing.Short() {
		rounds = 15
	}
	for seed := 0; seed < rounds; seed++ {
		r := rand.New(rand.NewSource(int64(seed)))
		h := randomHypergraph(r, 8, 7)
		for k := 1; k <= 3; k++ {
			opt := New(h, Options{K: k})
			dOpt, okOpt, err := opt.Decompose(ctx)
			if err != nil {
				t.Fatalf("seed %d k=%d: logk err: %v", seed, k, err)
			}
			bas := NewBasic(h, k)
			dBas, okBas, err := bas.Decompose(ctx)
			if err != nil {
				t.Fatalf("seed %d k=%d: basic err: %v", seed, k, err)
			}
			dk := detk.New(h, k)
			dDet, okDet, err := dk.Decompose(ctx)
			if err != nil {
				t.Fatalf("seed %d k=%d: detk err: %v", seed, k, err)
			}
			if okOpt != okBas || okOpt != okDet {
				t.Fatalf("seed %d k=%d: decisions disagree: logk=%v basic=%v detk=%v\n%s",
					seed, k, okOpt, okBas, okDet, h)
			}
			hds := map[string]*decomp.Decomp{"logk": dOpt, "basic": dBas, "detk": dDet}
			for name, o := range map[string]Options{
				"logk-par":     {K: k, Workers: 8},
				"logk-hyb":     {K: k, Hybrid: HybridWeightedCount, HybridThreshold: 10},
				"logk-nocache": {K: k, NoCache: true},
			} {
				d, ok, err := New(h, o).Decompose(ctx)
				if err != nil {
					t.Fatalf("seed %d k=%d: %s err: %v", seed, k, name, err)
				}
				if ok != okOpt {
					t.Fatalf("seed %d k=%d: %s=%v but logk=%v\n%s", seed, k, name, ok, okOpt, h)
				}
				hds[name] = d
			}
			for name, d := range hds {
				if d == nil {
					continue
				}
				if err := decomp.CheckHD(d); err != nil {
					t.Fatalf("seed %d k=%d: %s invalid HD: %v\n%s\n%s", seed, k, name, err, h, d)
				}
				if err := decomp.CheckWidth(d, k); err != nil {
					t.Fatalf("seed %d k=%d: %s: %v", seed, k, name, err)
				}
			}
			if k == 1 && okOpt != h.IsAcyclic() {
				t.Fatalf("seed %d: hw≤1 is %v but IsAcyclic is %v\n%s",
					seed, okOpt, h.IsAcyclic(), h)
			}
		}
	}
}

// TestBalancedSeparatorProperty: any HD produced by the solver must
// contain a balanced separator (Lemma 3.10) findable by the constructive
// walk.
func TestBalancedSeparatorProperty(t *testing.T) {
	ctx := context.Background()
	for seed := 0; seed < 25; seed++ {
		r := rand.New(rand.NewSource(int64(1000 + seed)))
		h := randomHypergraph(r, 10, 9)
		for k := 1; k <= 3; k++ {
			s := New(h, Options{K: k})
			d, ok, err := s.Decompose(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				continue
			}
			g := extRootFor(h)
			sep := decomp.FindBalancedSeparator(d, g)
			if sep == nil || !decomp.IsBalancedSeparator(d, g, sep) {
				t.Fatalf("seed %d k=%d: no balanced separator in produced HD\n%s", seed, k, d)
			}
			break // one k per instance is enough for this property
		}
	}
}

// TestStatsAdd: Add sums every counter and keeps the deeper MaxDepth,
// whichever side holds it.
func TestStatsAdd(t *testing.T) {
	s := Stats{Candidates: 1, ParentCands: 2, MaxDepth: 5, HybridCalls: 3, TokensGrabbed: 4, MemoHits: 6}
	s.Add(Stats{Candidates: 10, ParentCands: 20, MaxDepth: 3, HybridCalls: 30, TokensGrabbed: 40, MemoHits: 60})
	want := Stats{Candidates: 11, ParentCands: 22, MaxDepth: 5, HybridCalls: 33, TokensGrabbed: 44, MemoHits: 66}
	if s != want {
		t.Fatalf("after Add: %+v, want %+v", s, want)
	}
	s.Add(Stats{MaxDepth: 9})
	if want.MaxDepth = 9; s != want {
		t.Fatalf("deeper MaxDepth not kept: %+v, want %+v", s, want)
	}
}
