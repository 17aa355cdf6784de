package logk

import (
	"context"
	"errors"
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/decomp"
	"repro/internal/detk"
	"repro/internal/hyperbench"
	"repro/internal/hypergraph"
)

// renumbered returns h as the benchmark renders a decompose-cold
// request: edges in shuffled order, each edge's vertices shuffled, and
// fresh names, so vertex ids follow the new order of first appearance.
func renumbered(r *rand.Rand, h *hypergraph.Hypergraph) *hypergraph.Hypergraph {
	vname := r.Perm(h.NumVertices())
	var b hypergraph.Builder
	for _, e := range r.Perm(h.NumEdges()) {
		vs := h.EdgeVertices(e)
		r.Shuffle(len(vs), func(x, y int) { vs[x], vs[y] = vs[y], vs[x] })
		names := make([]string, len(vs))
		for i, v := range vs {
			names[i] = "v" + strconv.Itoa(vname[v])
		}
		b.MustAddEdge("", names...)
	}
	return b.Build()
}

// suiteNamed returns the suite instance whose full name is name.
func suiteNamed(t *testing.T, cfg hyperbench.Config, name string) *hypergraph.Hypergraph {
	t.Helper()
	for _, in := range hyperbench.Suite(cfg) {
		if in.Name == name {
			return in.H
		}
	}
	t.Fatalf("instance %s not in the suite", name)
	return nil
}

// armRung runs one ServeLadder rung of h at width k on one worker, the
// service's search apart from its shared tables, and checks its
// witness. It returns the labels det-k-decomp formed first and whether
// they ran out, in which case the rung fell back to the hybrid: that
// prefix is then run alone, since the hybrid's own hand-offs add to the
// rung's DetKCandidates.
func armRung(t *testing.T, h *hypergraph.Hypergraph, k int) (labels int64, stopped bool, res OptimalResult) {
	t.Helper()
	ctx := context.Background()
	cfg := OptimalConfig{
		Search:     Options{Workers: 1, Hybrid: PaperHybrid, HybridThreshold: PaperHybridThreshold},
		KMax:       k,
		LowerBound: k,
	}
	res, err := optimalFrom(ctx, h, cfg, BoundInitial, rule{labels: armBudget})
	if err != nil || res.Probes != 1 {
		t.Fatalf("rung at k=%d: probes=%d err=%v", k, res.Probes, err)
	}
	if res.Found {
		if err := decomp.CheckHD(res.Decomp); err != nil {
			t.Fatalf("rung at k=%d: witness: %v", k, err)
		}
		if err := decomp.CheckWidth(res.Decomp, k); err != nil {
			t.Fatalf("rung at k=%d: witness: %v", k, err)
		}
	}
	if res.Stats.Candidates == 0 && res.Stats.HybridCalls == 0 {
		return res.Stats.DetKCandidates, false, res
	}
	arm := detk.New(h, k)
	arm.Budget = armBudget
	if _, _, err := arm.Decompose(ctx); !errors.Is(err, detk.ErrBudget) {
		t.Fatalf("rung at k=%d fell back, but det-k alone ended with %v after %d labels", k, err, arm.Stats.Candidates)
	}
	return arm.Stats.Candidates, true, res
}

// TestArmBudgetCounts is the wall of the service's rule (ServeLadder):
// det-k-decomp first on armBudget λ-labels, then the hybrid. It counts
// det-k's formed labels, never times, on three sets of inputs:
//
//   - the benchmark's decompose-cold mix (perfbench's graphClasses,
//     HyperBench-sim {Scale: 3, Seed: 1}) at k = hw under 30 seeded
//     renumberings each: the budget lies above every count, so det-k
//     answers all of these YES probes;
//   - the large YES rows at k = 3 ({Scale: 4, Seed: 1}): a prefix either
//     answers or stops at exactly armBudget+1 labels, and the fallback
//     then finds the witness;
//   - the k = 3 syn-random refutations the structural bound cannot
//     answer, on which det-k needs millions of labels and log-k's
//     balanced-separator root refutes fast: the prefix stops at exactly
//     armBudget+1 labels and the fallback answers NO.
//
// Every witness passes decomp.CheckHD and CheckWidth(k).
func TestArmBudgetCounts(t *testing.T) {
	cold := []struct {
		name string
		hw   int
	}{
		{"app-cycle-30", 2}, {"app-cycle-44", 2}, {"app-chorded-20-3", 2},
		{"app-chorded-34-3", 2}, {"app-tpc-8-2", 2}, {"app-tpc-18-3", 2},
		{"app-clique-5", 3}, {"app-clique-6", 3}, {"syn-cylinder-8", 3},
		{"syn-cylinder-10", 3}, {"syn-grid-3-10", 2}, {"syn-grid-3-11", 2},
		{"syn-ladder-28", 2}, {"app-cliquechain-3-5", 3},
	}
	scale3 := hyperbench.Config{Scale: 3, Seed: 1}
	var most int64
	for _, c := range cold {
		base := suiteInstance(t, scale3, c.name)
		r := rand.New(rand.NewSource(1))
		var peak int64
		for i := 0; i < 30; i++ {
			labels, stopped, res := armRung(t, renumbered(r, base), c.hw)
			if stopped || !res.Found {
				t.Fatalf("%s renumbering %d at k=%d: %d labels, found=%v; the budget %d must answer every decompose-cold YES probe",
					c.name, i, c.hw, labels, res.Found, armBudget)
			}
			peak = max(peak, labels)
		}
		t.Logf("decompose-cold %s k=%d: at most %d labels over 30 renumberings", c.name, c.hw, peak)
		most = max(most, peak)
	}
	t.Logf("decompose-cold: at most %d labels, budget %d", most, armBudget)

	scale4 := hyperbench.Config{Scale: 4, Seed: 1}
	for _, name := range []string{"syn-cylinder-26", "syn-cylinder-36", "app-cliquechain-10-5"} {
		base := suiteInstance(t, scale4, name)
		r := rand.New(rand.NewSource(1))
		for i := 0; i < 3; i++ {
			labels, stopped, res := armRung(t, renumbered(r, base), 3)
			if !res.Found {
				t.Fatalf("%s renumbering %d at k=3: no witness", name, i)
			}
			if stopped && labels != armBudget+1 {
				t.Fatalf("%s renumbering %d: prefix stopped after %d labels, want %d", name, i, labels, armBudget+1)
			}
			t.Logf("large YES %s k=3 renumbering %d: %d labels, fell back %v", name, i, labels, stopped)
		}
	}

	for _, name := range []string{
		"syn-random-30-35#47", "syn-random-37-42#104", "syn-random-44-49#161", "syn-random-67-59#220",
	} {
		h := suiteNamed(t, scale4, name)
		if lb, err := h.WidthLowerBound(context.Background(), 3); err != nil || lb > 3 {
			t.Fatalf("%s: structural bound %d (%v) answers k=3 without a search", name, lb, err)
		}
		labels, stopped, res := armRung(t, h, 3)
		if !stopped || labels != armBudget+1 {
			t.Fatalf("%s k=3: prefix formed %d labels (stopped %v), want a stop at %d", name, labels, stopped, armBudget+1)
		}
		if res.Found || res.LowerBound != 4 {
			t.Fatalf("%s k=3: found=%v lower bound %d, want the fallback's NO", name, res.Found, res.LowerBound)
		}
		t.Logf("NO %s k=3: prefix stopped at %d labels; fallback %d log-k candidates", name, labels, res.Stats.Candidates)
	}
}

// TestServeRungMemoOnFallback: a rung asks for its width's memo table
// only when it falls back to the log-k search, so a rung det-k decides
// creates no table; a fallback searches with the table it was given.
func TestServeRungMemoOnFallback(t *testing.T) {
	ctx := context.Background()
	h := cycle(16) // hw 2: det-k refutes width 1 and decides width 2 in a few labels
	asked := map[int]*insertCountingMemo{}
	memoFor := func(k int) MemoBackend {
		asked[k] = new(insertCountingMemo)
		return asked[k]
	}
	res, err := optimalFrom(ctx, h, OptimalConfig{KMax: 4}, BoundInitial, rule{labels: armBudget, memoFor: memoFor})
	if err != nil || !res.Found || res.Width != 2 || res.Probes != 2 {
		t.Fatalf("det-k ladder: found=%v width=%d probes=%d err=%v", res.Found, res.Width, res.Probes, err)
	}
	if len(asked) != 0 || res.Stats.Candidates != 0 {
		t.Fatalf("det-k decided every rung but the ladder asked for tables %v (stats %+v)", asked, res.Stats)
	}

	// With a one-label budget every rung falls back: width 1's
	// refutation lands in its table.
	res, err = optimalFrom(ctx, h, OptimalConfig{KMax: 4}, BoundInitial, rule{labels: 1, memoFor: memoFor})
	if err != nil || !res.Found || res.Width != 2 {
		t.Fatalf("fallback ladder: found=%v width=%d err=%v", res.Found, res.Width, err)
	}
	if len(asked) != 2 || asked[1].added.Load() == 0 || res.Stats.DetKCandidates < 4 {
		t.Fatalf("fallback ladder: tables %v, stats %+v; want both widths' tables and width 1's refutation banked", asked, res.Stats)
	}
}
