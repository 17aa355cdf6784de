package main

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/decomp"
	"repro/internal/hypergraph"
)

func triangle(t *testing.T) *hypergraph.Hypergraph {
	t.Helper()
	h, err := hypergraph.ParseString("r1(x,y), r2(y,z), r3(z,x).")
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestSolveAllMethods(t *testing.T) {
	h := triangle(t)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	for _, method := range []string{"logk", "hybrid", "detk", "basic", "ghd"} {
		d, width, ok, _, err := solve(ctx, h, method, 2, 10, 2)
		if err != nil {
			t.Fatalf("%s: %v", method, err)
		}
		if !ok || width != 2 {
			t.Fatalf("%s: ok=%v width=%d", method, ok, width)
		}
		var verr error
		if method == "ghd" {
			verr = decomp.CheckGHD(d)
		} else {
			verr = decomp.CheckHD(d)
		}
		if verr != nil {
			t.Fatalf("%s: %v", method, verr)
		}
	}
}

func TestSolveWidthSearch(t *testing.T) {
	h := triangle(t)
	ctx := context.Background()
	for _, method := range []string{"logk", "hybrid", "detk"} {
		d, width, ok, st, err := solve(ctx, h, method, 0, 5, 1)
		if err != nil {
			t.Fatalf("%s: %v", method, err)
		}
		if !ok || width != 2 {
			t.Fatalf("%s: ok=%v width=%d, want optimal 2", method, ok, width)
		}
		if d == nil {
			t.Fatalf("%s: no decomposition returned", method)
		}
		// detk searches no λ(c) of log-k-decomp's own: every width goes
		// to det-k-decomp whole.
		if method == "detk" && (st.Candidates != 0 || st.HybridCalls != 2 || st.DetKCandidates == 0) {
			t.Fatalf("detk: stats %+v, want both widths handed to det-k-decomp", st)
		}
	}
}

func TestSolveRejectsBadMethod(t *testing.T) {
	h := triangle(t)
	if _, _, _, _, err := solve(context.Background(), h, "nope", 2, 5, 1); err == nil {
		t.Fatal("unknown method should error")
	}
	for _, method := range []string{"ghd", "basic", "opt"} {
		if _, _, _, _, err := solve(context.Background(), h, method, 0, 5, 1); err == nil {
			t.Fatalf("width search with %s should error", method)
		}
	}
}

func TestSolveNegative(t *testing.T) {
	h := triangle(t)
	_, _, ok, _, err := solve(context.Background(), h, "logk", 1, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("triangle at k=1 should be rejected")
	}
}

// TestWidthSearchDeadlineKeepsLowerBound: a width search that runs out
// of budget answers UNKNOWN with the lower bound it proved, where a
// finished one answers NO above -maxk.
func TestWidthSearchDeadlineKeepsLowerBound(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, lb, ok, _, err := solve(ctx, triangle(t), "logk", 0, 5, 1)
	if ok || !errors.Is(err, context.DeadlineExceeded) || lb < 1 {
		t.Fatalf("solve past its deadline: ok=%v lower bound %d err=%v", ok, lb, err)
	}
	line, err := noVerdict("g.hg", 0, 5, lb, err)
	if want := fmt.Sprintf("UNKNOWN: hw(g.hg) >= %d, budget exhausted", lb); err != nil || line != want {
		t.Fatalf("verdict %q, %v; want %q", line, err, want)
	}

	// The triangle has hw 2, so a search up to width 1 refutes it.
	_, lb, ok, _, err = solve(context.Background(), triangle(t), "logk", 0, 1, 1)
	if ok || err != nil || lb != 2 {
		t.Fatalf("triangle up to width 1: ok=%v lower bound %d err=%v", ok, lb, err)
	}
	if line, err := noVerdict("t.hg", 0, 1, lb, err); err != nil || line != "NO: hw(t.hg) > 1" {
		t.Fatalf("verdict %q, %v; want NO above maxk", line, err)
	}
}

// TestDecideDeadlineIsUnknown: a decide run (k > 0) that runs out of
// budget answers UNKNOWN for its width rather than failing without a
// verdict.
func TestDecideDeadlineIsUnknown(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, width, ok, _, err := solve(ctx, triangle(t), "logk", 2, 5, 1)
	if ok || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("solve past its deadline: ok=%v err=%v", ok, err)
	}
	line, err := noVerdict("g.hg", 2, 5, width, err)
	if want := "UNKNOWN: hw(g.hg) <= 2 not decided, budget exhausted"; err != nil || line != want {
		t.Fatalf("verdict %q, %v; want %q", line, err, want)
	}
}
