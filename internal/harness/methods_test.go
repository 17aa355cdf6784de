package harness

import (
	"context"
	"strings"
	"testing"

	"repro/internal/decomp"
	"repro/internal/detk"
	"repro/internal/hyperbench"
	"repro/internal/hypergraph"
)

// detkOptimum is the HtdLEO stand-in's oracle, written apart from the
// code under test: det-k-decomp at k = 1, 2, …, kMax, up to the first
// width that admits an HD (width 0 when none does).
func detkOptimum(ctx context.Context, h *hypergraph.Hypergraph, kMax int) (int, *decomp.Decomp, error) {
	for k := 1; k <= kMax; k++ {
		d, ok, err := detk.New(h, k).Decompose(ctx)
		if err != nil || ok {
			return k, d, err
		}
	}
	return 0, nil, nil
}

// TestOptimalStandInIsDetKLoop: the HtdLEO stand-in is a configuration
// of the width ladder, and on the instances of the scale-1 suite with at
// most 70 edges it answers with the width and the very witness of a
// plain det-k loop. Three are left out for their det-k refutations
// alone: the random instances above 30 edges (up to minutes) and the
// one of known width above 4 (app-clique-10, a second; under the race
// detector each second becomes about 25).
func TestOptimalStandInIsDetKLoop(t *testing.T) {
	ctx := context.Background()
	const kMax = 6
	m := MethodOpt()
	n := 0
	for _, in := range hyperbench.Suite(hyperbench.Config{Scale: 1, Seed: 2022}) {
		if in.Edges() > 70 || in.KnownHW > 4 || (strings.HasPrefix(in.Name, "syn-random") && in.Edges() > 30) {
			continue
		}
		n++
		wantW, wantD, err := detkOptimum(ctx, in.H, kMax)
		if err != nil {
			t.Fatalf("%s: det-k loop: %v", in.Name, err)
		}
		res, err := m.SolveLadder(ctx, in.H, kMax)
		if err != nil {
			t.Fatalf("%s: stand-in: %v", in.Name, err)
		}
		if res.Found != (wantD != nil) || res.Width != wantW {
			t.Fatalf("%s: stand-in found=%v width=%d, det-k loop width %d", in.Name, res.Found, res.Width, wantW)
		}
		if res.Found && res.Decomp.String() != wantD.String() {
			t.Fatalf("%s: stand-in witness\n%s\ndet-k loop witness\n%s", in.Name, res.Decomp, wantD)
		}
	}
	if n == 0 {
		t.Fatal("no instance with at most 70 edges")
	}
}
