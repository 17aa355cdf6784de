package opt

import (
	"context"
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

func TestOptimalWidthKnownInstances(t *testing.T) {
	ctx := context.Background()
	cases := []struct {
		name string
		h    *hypergraph.Hypergraph
		want int
	}{
		{"cycle8", cycle(8), 2},
		{"cycle6", cycle(6), 2},
		{"cycle3", cycle(3), 2},
	}
	// A path has width 1.
	var pb hypergraph.Builder
	pb.MustAddEdge("p1", "a", "b")
	pb.MustAddEdge("p2", "b", "c")
	cases = append(cases, struct {
		name string
		h    *hypergraph.Hypergraph
		want int
	}{"path", pb.Build(), 1})

	for _, c := range cases {
		w, d, ok, err := New(c.h, 5).Solve(ctx)
		if err != nil || !ok {
			t.Fatalf("%s: ok=%v err=%v", c.name, ok, err)
		}
		if w != c.want {
			t.Fatalf("%s: width %d, want %d", c.name, w, c.want)
		}
		if err := decomp.CheckHD(d); err != nil {
			t.Fatalf("%s: invalid HD: %v", c.name, err)
		}
		if err := decomp.CheckWidth(d, w); err != nil {
			t.Fatal(err)
		}
	}
}

func TestMaxKExceeded(t *testing.T) {
	// hw(K_5) = 3 > 2, so MaxK = 2 reports not-ok.
	var b hypergraph.Builder
	for i := 0; i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			b.MustAddEdge("", "v"+strconv.Itoa(i), "v"+strconv.Itoa(j))
		}
	}
	_, _, ok, err := New(b.Build(), 2).Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("K_5 has hw 3; MaxK=2 should report failure")
	}
}

func TestPreprocessingLiftsCorrectly(t *testing.T) {
	// Subsumed edges must still be covered in the lifted decomposition.
	var b hypergraph.Builder
	b.MustAddEdge("big", "a", "b", "c")
	b.MustAddEdge("sub", "a", "b")
	b.MustAddEdge("next", "c", "d")
	h := b.Build()
	w, d, ok, err := New(h, 3).Solve(context.Background())
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	if w != 1 {
		t.Fatalf("width = %d, want 1 (acyclic)", w)
	}
	if d.H != h {
		t.Fatal("decomposition must be over the original hypergraph")
	}
	if err := decomp.CheckHD(d); err != nil {
		t.Fatalf("lifted HD invalid: %v\n%s", err, d)
	}
}

func TestAgreesWithDetKOnRandomInstances(t *testing.T) {
	ctx := context.Background()
	for seed := 0; seed < 20; seed++ {
		r := rand.New(rand.NewSource(int64(seed)))
		var b hypergraph.Builder
		nv := 3 + r.Intn(6)
		ne := 2 + r.Intn(7)
		for e := 0; e < ne; e++ {
			arity := 1 + r.Intn(min(3, nv))
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
		h := b.Build()
		w, d, ok, err := New(h, 4).Solve(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			continue
		}
		if err := decomp.CheckHD(d); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		// Optimality: det-k at w succeeds, at w-1 fails.
		if _, okAt, _ := detk.New(h, w).Decompose(ctx); !okAt {
			t.Fatalf("seed %d: detk disagrees at width %d", seed, w)
		}
		if w > 1 {
			if _, okBelow, _ := detk.New(h, w-1).Decompose(ctx); okBelow {
				t.Fatalf("seed %d: width %d is not optimal", seed, w)
			}
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
