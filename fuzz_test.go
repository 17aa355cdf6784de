package htd

// fuzz_test.go is the PR's correctness wall: a native Go fuzz target
// seeded from the deterministic HyperBench-sim corpus. For every parsed
// hypergraph it cross-checks the basic Algorithm 1 oracle, the
// optimised solver (sequential and parallel), det-k-decomp, the GHD
// solver, and the optimal-width ladder: all decisions must agree, every
// returned decomposition must pass the independent CheckHD / CheckGHD
// checkers, and the ladder's width must equal that of a plain det-k
// loop (det-k-decomp at k = 1, 2, …). No
// valid decomposition, HD or GHD, may be narrower than the structural
// lower bound (hypergraph.WidthLowerBound), which is at most ghw ≤ hw.
//
// CI runs a short `-fuzz` smoke (see Makefile `fuzz`); `go test` alone
// replays the seed corpus as regression tests.

import (
	"context"
	"testing"
	"time"

	"repro/internal/decomp"
	"repro/internal/detk"
	"repro/internal/hyperbench"
	"repro/internal/logk"
)

func FuzzDecomposeCheckHD(f *testing.F) {
	// Seed corpus: the small instances of the deterministic suite, plus
	// hand-picked shapes (cyclic, acyclic, hyperedges of arity > 2).
	for _, in := range hyperbench.Suite(hyperbench.Config{Scale: 1, Seed: 2022}) {
		if in.H.NumEdges() <= 10 && in.H.NumVertices() <= 14 {
			f.Add(in.H.String(), byte(in.KnownHW))
		}
	}
	f.Add("r1(x,y), r2(y,z), r3(z,x).", byte(2))
	f.Add("e1(a,b,c), e2(c,d), e3(d,a).", byte(2))
	f.Add("p1(a,b), p2(b,c), p3(c,d).", byte(1))
	f.Add("big(a,b,c,d), t1(a,x), t2(b,x), t3(c,y).", byte(1))
	// Positive-cache seed: a satisfiable shape (hw = 2) whose repeat
	// submission exercises the service's cached-witness path below.
	f.Add("q1(u,v), q2(v,w), q3(w,u), q4(u,t), q5(t,v).", byte(2))

	f.Fuzz(func(t *testing.T, src string, kb byte) {
		h, err := ParseString(src)
		if err != nil {
			t.Skip()
		}
		// Keep the exhaustive oracles (Algorithm 1, the det-k loop) fast.
		if h.NumEdges() == 0 || h.NumEdges() > 8 || h.NumVertices() > 10 {
			t.Skip()
		}
		k := int(kb)%3 + 1
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()

		lb, err := h.WidthLowerBound(ctx, h.NumEdges())
		if err != nil {
			t.Fatalf("structural bound errored: %v\ninstance:\n%s", err, h)
		}

		// Basic Algorithm 1 is the decision oracle at width k.
		_, want, err := logk.NewBasic(h, k).Decompose(ctx)
		if err != nil {
			t.Fatalf("basic solver errored: %v\ninstance:\n%s", err, h)
		}

		check := func(name string, d *Decomposition, ok bool, err error, ghd bool) {
			t.Helper()
			if err != nil {
				t.Fatalf("%s k=%d errored: %v\ninstance:\n%s", name, k, err, h)
			}
			if !ghd && ok != want {
				t.Fatalf("%s k=%d decided %v, oracle says %v\ninstance:\n%s", name, k, ok, want, h)
			}
			if !ok {
				return
			}
			verr := decomp.CheckHD(d)
			if ghd {
				verr = decomp.CheckGHD(d)
			}
			if verr == nil {
				verr = decomp.CheckWidth(d, k)
			}
			if verr != nil {
				t.Fatalf("%s k=%d returned an invalid decomposition: %v\ninstance:\n%s", name, k, verr, h)
			}
			if w := d.Width(); w < lb {
				t.Fatalf("%s k=%d returned a valid decomposition of width %d below the structural bound %d\ninstance:\n%s", name, k, w, lb, h)
			}
		}

		d, ok, err := Decompose(ctx, h, Options{K: k})
		check("logk", d, ok, err, false)
		d, ok, err = Decompose(ctx, h, Options{K: k, Workers: 4})
		check("logk-parallel", d, ok, err, false)
		d, ok, err = DecomposeDetK(ctx, h, k)
		check("detk", d, ok, err, false)
		// ghw ≤ hw, so the GHD solver must succeed whenever the oracle
		// does; its output is validated as a GHD (no special condition).
		d, ok, err = DecomposeGHD(ctx, h, k)
		if want && !ok && err == nil {
			t.Fatalf("ghd k=%d rejected but hw <= %d holds\ninstance:\n%s", k, k, h)
		}
		check("ghd", d, ok, err, true)

		// The width ladder, from the structural bound, must agree
		// exactly with det-k-decomp tried at k = 1, 2, …, kMax.
		const kMax = 4
		wantW, wantFound := 0, false
		for w := 1; w <= kMax && !wantFound; w++ {
			if _, wantFound, err = detk.New(h, w).Decompose(ctx); err != nil {
				t.Fatalf("det-k loop errored: %v\ninstance:\n%s", err, h)
			}
			wantW = w
		}
		gotW, gotD, found, err := DecomposeOptimal(ctx, h, OptimalOptions{KMax: kMax, Search: Options{Workers: 2}})
		if err != nil {
			t.Fatalf("width ladder errored: %v\ninstance:\n%s", err, h)
		}
		if found != wantFound {
			t.Fatalf("width ladder found=%v, det-k loop found=%v\ninstance:\n%s", found, wantFound, h)
		}
		if !found {
			return
		}
		if gotW != wantW {
			t.Fatalf("width ladder width %d, det-k loop %d\ninstance:\n%s", gotW, wantW, h)
		}
		if verr := decomp.CheckHD(gotD); verr != nil {
			t.Fatalf("width ladder witness invalid: %v\ninstance:\n%s", verr, h)
		}
		if verr := decomp.CheckWidth(gotD, wantW); verr != nil {
			t.Fatalf("width ladder witness exceeds optimum: %v\ninstance:\n%s", verr, h)
		}
		if wantW < lb {
			t.Fatalf("optimum %d below the structural bound %d\ninstance:\n%s", wantW, lb, h)
		}

		// Positive result cache: decompose the same graph twice through a
		// service. The second submission must agree with the oracle, and
		// when it is answered from the cache its witness must survive the
		// independent CheckHD checker again.
		svc := NewService(ServiceConfig{TokenBudget: 1, MaxConcurrent: 2})
		defer svc.Close()
		first := svc.Submit(ctx, ServiceRequest{H: h, K: k})
		second := svc.Submit(ctx, ServiceRequest{H: h, K: k})
		for name, r := range map[string]ServiceResult{"first": first, "second": second} {
			if r.Err != nil {
				t.Fatalf("service %s errored: %v\ninstance:\n%s", name, r.Err, h)
			}
			if r.OK != want {
				t.Fatalf("service %s decided %v, oracle says %v\ninstance:\n%s", name, r.OK, want, h)
			}
			if r.OK {
				if verr := decomp.CheckHD(r.Decomp); verr != nil {
					t.Fatalf("service %s witness invalid: %v\ninstance:\n%s", name, verr, h)
				}
				if verr := decomp.CheckWidth(r.Decomp, k); verr != nil {
					t.Fatalf("service %s witness too wide: %v\ninstance:\n%s", name, verr, h)
				}
			}
		}
		if want && !second.CacheHit {
			t.Fatalf("repeat submission of a solved instance must hit the positive cache\ninstance:\n%s", h)
		}
	})
}
