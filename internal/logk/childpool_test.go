package logk

import (
	"context"
	"strings"
	"testing"

	"repro/internal/decomp"
	"repro/internal/ext"
	"repro/internal/hyperbench"
	"repro/internal/hypergraph"
)

// Candidate budgets for syn-cylinder-18 at k = 3 with one worker: about
// twice the counts the child-pool restriction gives (6,999 λ(c) and
// 179,526 λ(p) ranks). Enumerating λ(c) over all allowed edges instead
// takes 467,521 and 10,490,489.
const (
	cylinder18CandidateBudget  = 14_000
	cylinder18ParentCandBudget = 360_000
)

// suiteInstance returns the suite instance named name (before its "#n"
// suffix).
func suiteInstance(t *testing.T, cfg hyperbench.Config, name string) *hypergraph.Hypergraph {
	t.Helper()
	for _, in := range hyperbench.Suite(cfg) {
		if strings.HasPrefix(in.Name, name+"#") {
			return in.H
		}
	}
	t.Fatalf("instance %s not in the suite", name)
	return nil
}

// TestChildPoolCandidateBudget: λ(c) is enumerated only over allowed
// edges that meet the subproblem, which keeps the search effort of a
// cylinder far below the budgets above, and the parallel split's ranks
// over that pool still find a valid HD at hw and refute hw − 1.
func TestChildPoolCandidateBudget(t *testing.T) {
	h := suiteInstance(t, hyperbench.Config{Scale: 3, Seed: 1}, "syn-cylinder-18")

	s := New(h, Options{K: 3, Workers: 1})
	d, ok, err := s.Decompose(context.Background())
	if err != nil || !ok {
		t.Fatalf("k=3, 1 worker: ok=%v err=%v, want a decomposition", ok, err)
	}
	if err := decomp.CheckHD(d); err != nil {
		t.Fatalf("k=3, 1 worker: invalid HD: %v", err)
	}
	st := s.Stats()
	t.Logf("k=3, 1 worker: %d candidates, %d parent candidates", st.Candidates, st.ParentCands)
	if st.Candidates > cylinder18CandidateBudget {
		t.Errorf("Candidates = %d, budget %d", st.Candidates, cylinder18CandidateBudget)
	}
	if st.ParentCands > cylinder18ParentCandBudget {
		t.Errorf("ParentCands = %d, budget %d", st.ParentCands, cylinder18ParentCandBudget)
	}

	d, ok, err = New(h, Options{K: 3, Workers: 4}).Decompose(context.Background())
	if err != nil || !ok {
		t.Fatalf("k=3, 4 workers: ok=%v err=%v, want a decomposition", ok, err)
	}
	if err := decomp.CheckHD(d); err != nil {
		t.Fatalf("k=3, 4 workers: invalid HD: %v", err)
	}

	for _, workers := range []int{1, 4} {
		_, ok, err := New(h, Options{K: 2, Workers: workers}).Decompose(context.Background())
		if err != nil || ok {
			t.Fatalf("k=2, %d workers: ok=%v err=%v, want a refutation", workers, ok, err)
		}
	}
}

// TestChildPoolRejectsInterfaceOutsideSubproblem: the child pool relies
// on conn ⊆ V(H′); a call that breaks it is an internal error, not a
// silently incomplete search.
func TestChildPoolRejectsInterfaceOutsideSubproblem(t *testing.T) {
	h := path(6)
	s := New(h, Options{K: 1})
	g := &ext.Graph{H: h, Edges: []int{0, 1, 2}} // V(g) = {x0, ..., x3}
	x5, _ := h.VertexID("x5")
	conn := h.NewVertexSet()
	conn.Set(x5)
	w := s.getWorker()
	defer s.putWorker(w)
	_, ok, err := s.decomp(context.Background(), w, g, conn, h.AllEdgeIDs(), 1)
	if ok || err == nil || !strings.Contains(err.Error(), "logk: internal error") {
		t.Fatalf("decomp with conn ⊄ V(H′): ok=%v err=%v, want an internal error", ok, err)
	}
}

// TestLogKAllocBudget pins the search core's effort and allocations on
// syn-cylinder-26 of HyperBench-sim {Scale: 4, Seed: 1} at k = 3 with
// one worker: the exact λ(c) and λ(p) rank counts, and an allocation
// budget. The run (with CheckHD) allocated 456,199 times while each
// candidate loop built its own label buffers per call, 435,950 times
// once both loops kept one enumerator per frame, 434,239 times once
// below carved its components into a per-frame buffer, and 427,746
// times once ext.Graph.MemoKey built its keys in place.
func TestLogKAllocBudget(t *testing.T) {
	h := suiteInstance(t, hyperbench.Config{Scale: 4, Seed: 1}, "syn-cylinder-26")
	const (
		wantCandidates  = 36_344
		wantParentCands = 1_130_953
		maxAllocs       = 428_500
	)
	var st Stats
	allocs := testing.AllocsPerRun(1, func() {
		s := New(h, Options{K: 3, Workers: 1})
		d, ok, err := s.Decompose(context.Background())
		if err != nil || !ok {
			t.Fatalf("k=3: ok=%v err=%v, want a decomposition", ok, err)
		}
		if err := decomp.CheckHD(d); err != nil {
			t.Fatalf("k=3: invalid HD: %v", err)
		}
		st = s.Stats()
	})
	t.Logf("k=3, 1 worker: %d candidates, %d parent candidates, %.0f allocations", st.Candidates, st.ParentCands, allocs)
	if st.Candidates != wantCandidates || st.ParentCands != wantParentCands {
		t.Errorf("ranks = %d / %d, want exactly %d / %d", st.Candidates, st.ParentCands, wantCandidates, wantParentCands)
	}
	if allocs > maxAllocs {
		t.Errorf("allocated %.0f times, budget %d", allocs, maxAllocs)
	}
}
