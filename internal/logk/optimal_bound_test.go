package logk

import (
	"context"
	"errors"
	"strconv"
	"testing"

	"repro/internal/decomp"
	"repro/internal/hypergraph"
)

// earedPrism returns the n-prism whose rungs 0 and 1 carry a third
// vertex: with an edge of 3 vertices, 2 edges cover a bag of 5, so the
// structural bound is 2 while hw is 3.
func earedPrism(n int) *hypergraph.Hypergraph {
	var b hypergraph.Builder
	for i := 0; i < n; i++ {
		j := (i + 1) % n
		a, bb := "a"+strconv.Itoa(i), "b"+strconv.Itoa(i)
		b.MustAddEdge("", a, "a"+strconv.Itoa(j))
		b.MustAddEdge("", bb, "b"+strconv.Itoa(j))
		if i < 2 {
			b.MustAddEdge("", a, bb, "p"+strconv.Itoa(i))
		} else {
			b.MustAddEdge("", a, bb)
		}
	}
	return b.Build()
}

// TestOptimalFromBound: the ladder starts at the structural bound and
// names its provenance: the bound when it is tight, a probe when it is
// below hw, the caller's bound ("memo") when that is at least as high,
// and the least width on an acyclic hypergraph. A bound above KMax
// settles the run without a probe.
func TestOptimalFromBound(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name               string
		h                  *hypergraph.Hypergraph
		kMax, callerLB     int
		found              bool
		lowerBound, probes int
		from               BoundSource
	}{
		{"path(6)", path(6), 6, 0, true, 1, 1, BoundTrivial},
		{"cycle(10)", cycle(10), 6, 0, true, 2, 1, BoundStructural},
		{"cycle(10) cached 1", cycle(10), 6, 1, true, 2, 1, BoundStructural},
		{"cylinder(8)", cylinder(8), 6, 0, true, 3, 1, BoundStructural},
		{"cylinder(8) cached 3", cylinder(8), 6, 3, true, 3, 1, BoundInitial},
		{"clique(5)", clique(5), 6, 0, true, 3, 1, BoundStructural},
		{"clique(5) KMax 2", clique(5), 2, 0, false, 3, 0, BoundStructural},
		{"earedPrism(8)", earedPrism(8), 6, 0, true, 3, 2, BoundProbe},
	} {
		res, err := OptimalFromBound(ctx, tc.h, OptimalConfig{
			Search: Options{Workers: 1}, KMax: tc.kMax, LowerBound: tc.callerLB,
		})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if res.Found != tc.found || res.LowerBound != tc.lowerBound || res.Probes != tc.probes || res.LowerBoundFrom != tc.from {
			t.Fatalf("%s: found=%v lower bound %d from %v after %d probes, want found=%v %d from %v after %d",
				tc.name, res.Found, res.LowerBound, res.LowerBoundFrom, res.Probes, tc.found, tc.lowerBound, tc.from, tc.probes)
		}
		if !res.Found {
			continue
		}
		if res.Width != tc.lowerBound {
			t.Fatalf("%s: width %d, want %d", tc.name, res.Width, tc.lowerBound)
		}
		if err := decomp.CheckHD(res.Decomp); err != nil {
			t.Fatalf("%s: invalid witness: %v", tc.name, err)
		}
		if err := decomp.CheckWidth(res.Decomp, res.Width); err != nil {
			t.Fatalf("%s: witness too wide: %v", tc.name, err)
		}
	}

	// A bound that ends on its context starts no probe: the zero result
	// and the context's error.
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	res, err := OptimalFromBound(cancelled, cylinder(40), OptimalConfig{KMax: 6})
	if !errors.Is(err, context.Canceled) || res.Probes != 0 || res.LowerBound != 0 || res.LowerBoundFrom != BoundTrivial {
		t.Fatalf("cancelled: probes=%d lower bound %d from %v, err %v; want the zero result and context.Canceled",
			res.Probes, res.LowerBound, res.LowerBoundFrom, err)
	}
}
