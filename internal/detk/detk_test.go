package detk

import (
	"context"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"repro/internal/bitset"
	"repro/internal/decomp"
	"repro/internal/ext"
	"repro/internal/hyperbench"
	"repro/internal/hypergraph"
)

func cycle(n int) *hypergraph.Hypergraph {
	var b hypergraph.Builder
	for i := 0; i < n; i++ {
		b.MustAddEdge("R"+strconv.Itoa(i+1), "x"+strconv.Itoa(i), "x"+strconv.Itoa((i+1)%n))
	}
	return b.Build()
}

func TestCycleWidths(t *testing.T) {
	ctx := context.Background()
	for _, n := range []int{3, 4, 8, 12} {
		h := cycle(n)
		if _, ok, err := New(h, 1).Decompose(ctx); err != nil || ok {
			t.Fatalf("cycle(%d) k=1: ok=%v err=%v, want rejection", n, ok, err)
		}
		d, ok, err := New(h, 2).Decompose(ctx)
		if err != nil || !ok {
			t.Fatalf("cycle(%d) k=2: ok=%v err=%v", n, ok, err)
		}
		if err := decomp.CheckHD(d); err != nil {
			t.Fatalf("cycle(%d): invalid HD: %v", n, err)
		}
		if err := decomp.CheckWidth(d, 2); err != nil {
			t.Fatal(err)
		}
	}
}

func TestAcyclicWidthOne(t *testing.T) {
	var b hypergraph.Builder
	b.MustAddEdge("center", "a", "b", "c")
	b.MustAddEdge("s1", "a", "p")
	b.MustAddEdge("s2", "b", "q")
	h := b.Build()
	d, ok, err := New(h, 1).Decompose(context.Background())
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	if err := decomp.CheckHD(d); err != nil {
		t.Fatal(err)
	}
	if d.Width() != 1 {
		t.Fatalf("width = %d, want 1", d.Width())
	}
}

func TestCacheIsUsed(t *testing.T) {
	h := cycle(14)
	s := New(h, 2)
	_, ok, err := s.Decompose(context.Background())
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	if s.Stats.CacheHits == 0 && s.Stats.CacheMiss == 0 {
		t.Fatal("cache counters never moved")
	}
}

func TestDecomposeExtWithSpecial(t *testing.T) {
	// The extended subhypergraph of Call 1.2 from Appendix B:
	// E' = {R3,R4,R5}, Sp = {s1 = {x1,x6,x7}}, Conn = {x1,x3}.
	h := cycle(10)
	n := h.NumVertices()
	s1 := ext.Special{ID: 77, Vertices: bitset.FromSlice(n, []int{0, 5, 6})}
	g := ext.NewGraph(h, []int{2, 3, 4}, []ext.Special{s1})
	conn := bitset.FromSlice(n, []int{0, 2})

	s := New(h, 2)
	node, ok, err := s.DecomposeExt(context.Background(), g, conn)
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	d := &decomp.Decomp{H: h, Root: node}
	if err := decomp.CheckExtended(d, g, conn); err != nil {
		t.Fatalf("invalid extended HD: %v\n%s", err, d)
	}
}

func TestDecomposeExtTwoSpecialsNoEdges(t *testing.T) {
	// No edges and two specials is unsatisfiable (negative base case).
	h := cycle(6)
	n := h.NumVertices()
	g := ext.NewGraph(h, nil, []ext.Special{
		{ID: 1, Vertices: bitset.FromSlice(n, []int{0, 1})},
		{ID: 2, Vertices: bitset.FromSlice(n, []int{3, 4})},
	})
	_, ok, err := New(h, 3).DecomposeExt(context.Background(), g, h.NewVertexSet())
	if err != nil || ok {
		t.Fatalf("ok=%v err=%v, want clean rejection", ok, err)
	}
}

func TestCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// Large enough that the search cannot finish before the first check.
	_, _, err := New(cycle(30), 2).Decompose(ctx)
	if err == nil {
		t.Fatal("cancelled context should surface an error")
	}
}

func TestRandomInstancesProduceValidHDs(t *testing.T) {
	ctx := context.Background()
	for seed := 0; seed < 30; seed++ {
		r := rand.New(rand.NewSource(int64(seed)))
		var b hypergraph.Builder
		nv := 3 + r.Intn(7)
		ne := 2 + r.Intn(8)
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
		for k := 1; k <= 3; k++ {
			d, ok, err := New(h, k).Decompose(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				continue
			}
			if err := decomp.CheckHD(d); err != nil {
				t.Fatalf("seed %d k=%d: %v\n%s", seed, k, err, h)
			}
			if err := decomp.CheckWidth(d, k); err != nil {
				t.Fatal(err)
			}
			break
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// TestDetKAllocBudget pins the enumeration kernel's allocation budget on
// a det-k-decomp refutation: the λ-label count is exact (the search and
// its order are fixed), while the covers, the bag scope, the bag and
// the child interfaces live in per-depth frames instead of being
// allocated per label (cloning the cover per label cost about 246k
// allocations here). The witness at k = 3 must still be a valid HD.
func TestDetKAllocBudget(t *testing.T) {
	var h *hypergraph.Hypergraph
	for _, in := range hyperbench.Suite(hyperbench.Config{Scale: 3, Seed: 1}) {
		if strings.HasPrefix(in.Name, "syn-cylinder-10#") {
			h = in.H
			break
		}
	}
	if h == nil {
		t.Fatal("syn-cylinder-10 missing from HyperBench-sim {Scale: 3, Seed: 1}")
	}
	ctx := context.Background()

	const (
		wantLabels = 205467
		maxAllocs  = 10000
	)
	var s *Solver
	allocs := testing.AllocsPerRun(1, func() {
		s = New(h, 2)
		if _, ok, err := s.Decompose(ctx); err != nil || ok {
			t.Fatalf("k=2: ok=%v err=%v, want refutation", ok, err)
		}
	})
	t.Logf("k=2 refutation: %d λ-labels, %.0f allocations", s.Stats.Candidates, allocs)
	if s.Stats.Candidates != wantLabels {
		t.Errorf("k=2 enumerated %d λ-labels, want exactly %d", s.Stats.Candidates, wantLabels)
	}
	if allocs > maxAllocs {
		t.Errorf("k=2 refutation allocated %.0f times, budget %d", allocs, maxAllocs)
	}

	d, ok, err := New(h, 3).Decompose(ctx)
	if err != nil || !ok {
		t.Fatalf("k=3: ok=%v err=%v, want a witness", ok, err)
	}
	if err := decomp.CheckHD(d); err != nil {
		t.Fatalf("k=3 witness invalid: %v", err)
	}
	if err := decomp.CheckWidth(d, 3); err != nil {
		t.Fatal(err)
	}
}
