package hypergraph

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// Cycle builds the 10-cycle hypergraph from Appendix B of the paper.
func cycle(n int) *Hypergraph {
	var b Builder
	for i := 1; i <= n; i++ {
		next := i%n + 1
		b.MustAddEdge(
			"R"+itoa(i),
			"x"+itoa(i), "x"+itoa(next),
		)
	}
	return b.Build()
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var digits []byte
	for i > 0 {
		digits = append([]byte{byte('0' + i%10)}, digits...)
		i /= 10
	}
	return string(digits)
}

func TestBuilderBasic(t *testing.T) {
	var b Builder
	b.MustAddEdge("e1", "a", "b")
	b.MustAddEdge("e2", "b", "c")
	h := b.Build()
	if h.NumVertices() != 3 {
		t.Fatalf("NumVertices = %d, want 3", h.NumVertices())
	}
	if h.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d, want 2", h.NumEdges())
	}
	if h.EdgeName(0) != "e1" || h.VertexName(0) != "a" {
		t.Fatal("names not preserved")
	}
	if got := h.IncidentEdges(1); !reflect.DeepEqual(got, []int{0, 1}) {
		t.Fatalf("IncidentEdges(b) = %v", got)
	}
}

func TestBuilderRejectsEmptyEdge(t *testing.T) {
	var b Builder
	if err := b.AddEdge("bad"); err == nil {
		t.Fatal("empty edge accepted")
	}
}

func TestBuilderAutoNames(t *testing.T) {
	var b Builder
	b.MustAddEdge("", "a", "b")
	h := b.Build()
	if h.EdgeName(0) != "E1" {
		t.Fatalf("auto name = %q, want E1", h.EdgeName(0))
	}
}

func TestBuilderDuplicateVertexInEdge(t *testing.T) {
	var b Builder
	b.MustAddEdge("e", "a", "a", "b")
	h := b.Build()
	if h.Edge(0).Len() != 2 {
		t.Fatalf("edge arity = %d, want 2", h.Edge(0).Len())
	}
}

func TestUnionAndVertices(t *testing.T) {
	h := cycle(4)
	u := h.Union([]int{0, 1})
	if got := u.Len(); got != 3 {
		t.Fatalf("union of two adjacent cycle edges has %d vertices, want 3", got)
	}
	if h.Vertices().Len() != 4 {
		t.Fatal("cycle(4) should have 4 vertices")
	}
}

func TestParseRoundTrip(t *testing.T) {
	src := `% a comment
e1(a,b,c),
e2(c,d),  % inline comment
e3(d,a).`
	h, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	if h.NumEdges() != 3 || h.NumVertices() != 4 {
		t.Fatalf("parsed %d edges, %d vertices", h.NumEdges(), h.NumVertices())
	}
	// Round-trip through String and Parse again.
	h2, err := ParseString(h.String())
	if err != nil {
		t.Fatalf("re-parse: %v", err)
	}
	if h2.NumEdges() != h.NumEdges() || h2.NumVertices() != h.NumVertices() {
		t.Fatal("round trip changed shape")
	}
	for i := 0; i < h.NumEdges(); i++ {
		if !h.Edge(i).SubsetOf(h2.Edge(i)) || !h2.Edge(i).SubsetOf(h.Edge(i)) {
			t.Fatalf("edge %d changed in round trip", i)
		}
	}
}

func TestParseWithoutTerminator(t *testing.T) {
	h, err := ParseString("e1(a,b), e2(b,c)")
	if err != nil {
		t.Fatal(err)
	}
	if h.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d", h.NumEdges())
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",
		"   % only comments",
		"e1(a,b",
		"e1(a,b)x",
		"e1",
		"e1(a,b). trailing",
		"e1()",
		"(a,b)",
	}
	for _, src := range cases {
		if _, err := ParseString(src); err == nil {
			t.Errorf("ParseString(%q) should fail", src)
		}
	}
}

func TestParseReader(t *testing.T) {
	h, err := Parse(strings.NewReader("e(a,b)."))
	if err != nil {
		t.Fatal(err)
	}
	if h.NumEdges() != 1 {
		t.Fatal("reader parse failed")
	}
}

func TestRemoveSubsumedEdges(t *testing.T) {
	var b Builder
	b.MustAddEdge("big", "a", "b", "c")
	b.MustAddEdge("small", "a", "b")
	b.MustAddEdge("dup", "a", "b", "c")
	b.MustAddEdge("other", "c", "d")
	h := b.Build()
	r, mapping := h.RemoveSubsumedEdges()
	if r.NumEdges() != 2 {
		t.Fatalf("reduced to %d edges, want 2", r.NumEdges())
	}
	if !reflect.DeepEqual(mapping, []int{0, 3}) {
		t.Fatalf("mapping = %v, want [0 3]", mapping)
	}
}

func TestComputeStats(t *testing.T) {
	h := cycle(6)
	s := h.ComputeStats()
	if s.Vertices != 6 || s.Edges != 6 {
		t.Fatalf("stats shape wrong: %+v", s)
	}
	if s.MinArity != 2 || s.MaxArity != 2 || s.AvgArity != 2 {
		t.Fatalf("arity stats wrong: %+v", s)
	}
	if s.MinDegree != 2 || s.MaxDegree != 2 {
		t.Fatalf("degree stats wrong: %+v", s)
	}
	if !s.IsConnected {
		t.Fatal("cycle should be connected")
	}

	var b Builder
	b.MustAddEdge("e1", "a", "b")
	b.MustAddEdge("e2", "c", "d")
	if b.Build().ComputeStats().IsConnected {
		t.Fatal("two disjoint edges should be disconnected")
	}
}

func TestIsAcyclic(t *testing.T) {
	// A path is acyclic.
	var b Builder
	b.MustAddEdge("e1", "a", "b")
	b.MustAddEdge("e2", "b", "c")
	b.MustAddEdge("e3", "c", "d")
	if !b.Build().IsAcyclic() {
		t.Fatal("path should be acyclic")
	}
	// A single edge is acyclic.
	var b2 Builder
	b2.MustAddEdge("e", "a", "b", "c")
	if !b2.Build().IsAcyclic() {
		t.Fatal("single edge should be acyclic")
	}
	// Cycles of length >= 3 are cyclic.
	for _, n := range []int{3, 4, 10} {
		if cycle(n).IsAcyclic() {
			t.Fatalf("cycle(%d) should be cyclic", n)
		}
	}
	// A triangle covered by a big edge is acyclic.
	var b3 Builder
	b3.MustAddEdge("t1", "a", "b")
	b3.MustAddEdge("t2", "b", "c")
	b3.MustAddEdge("t3", "c", "a")
	b3.MustAddEdge("cover", "a", "b", "c")
	if !b3.Build().IsAcyclic() {
		t.Fatal("covered triangle should be acyclic")
	}
	// Star query (acyclic): center edge joined with satellites.
	var b4 Builder
	b4.MustAddEdge("center", "a", "b", "c", "d")
	b4.MustAddEdge("s1", "a", "x1")
	b4.MustAddEdge("s2", "b", "x2")
	b4.MustAddEdge("s3", "c", "x3")
	if !b4.Build().IsAcyclic() {
		t.Fatal("star should be acyclic")
	}
	// Two disjoint triangles: cyclic.
	var b5 Builder
	b5.MustAddEdge("p1", "a", "b")
	b5.MustAddEdge("p2", "b", "c")
	b5.MustAddEdge("p3", "c", "a")
	b5.MustAddEdge("q1", "u", "v")
	b5.MustAddEdge("q2", "v", "w")
	b5.MustAddEdge("q3", "w", "u")
	if b5.Build().IsAcyclic() {
		t.Fatal("disjoint triangles should be cyclic")
	}
	// Disjoint acyclic pieces: acyclic overall.
	var b6 Builder
	b6.MustAddEdge("p1", "a", "b")
	b6.MustAddEdge("q1", "u", "v")
	if !b6.Build().IsAcyclic() {
		t.Fatal("disjoint edges should be acyclic")
	}
}

// randomHypergraph builds a connected-ish random hypergraph for property
// tests. Exported via test helper pattern for reuse in other packages'
// tests through copy (internal packages cannot share test helpers without
// an extra package; duplication here is deliberate and tiny).
func randomHypergraph(r *rand.Rand, maxV, maxE int) *Hypergraph {
	nv := 2 + r.Intn(maxV-1)
	ne := 1 + r.Intn(maxE)
	var b Builder
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
				names = append(names, "v"+itoa(v))
			}
		}
		b.MustAddEdge("", names...)
	}
	return b.Build()
}

func TestQuickSubsumptionPreservesVertexCover(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		h := randomHypergraph(r, 10, 12)
		red, mapping := h.RemoveSubsumedEdges()
		// Every original edge must be a subset of some surviving edge.
		for i := 0; i < h.NumEdges(); i++ {
			covered := false
			for j := 0; j < red.NumEdges(); j++ {
				orig := h.Edge(mapping[j])
				if h.Edge(i).SubsetOf(orig) {
					covered = true
					break
				}
			}
			if !covered {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickParseStringRoundTrip(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		h := randomHypergraph(r, 8, 8)
		h2, err := ParseString(h.String())
		if err != nil {
			return false
		}
		if h2.NumEdges() != h.NumEdges() {
			return false
		}
		for i := 0; i < h.NumEdges(); i++ {
			if h.Edge(i).Len() != h2.Edge(i).Len() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestContentHash(t *testing.T) {
	build := func(f func(*Builder)) *Hypergraph {
		var b Builder
		f(&b)
		return b.Build()
	}
	base := build(func(b *Builder) {
		b.MustAddEdge("r1", "x", "y")
		b.MustAddEdge("r2", "y", "z")
	})

	// Names are ignored: same structure under renaming hashes equally.
	renamed := build(func(b *Builder) {
		b.MustAddEdge("other1", "a", "b")
		b.MustAddEdge("other2", "b", "c")
	})
	if base.ContentHash() != renamed.ContentHash() {
		t.Error("renaming vertices/edges changed the content hash")
	}

	// Any structural change must change the hash.
	moreEdges := build(func(b *Builder) {
		b.MustAddEdge("r1", "x", "y")
		b.MustAddEdge("r2", "y", "z")
		b.MustAddEdge("r3", "z", "x")
	})
	moreVerts := build(func(b *Builder) {
		b.MustAddEdge("r1", "x", "y")
		b.MustAddEdge("r2", "y", "z", "w")
	})
	reordered := build(func(b *Builder) {
		b.MustAddEdge("r2", "y", "z")
		b.MustAddEdge("r1", "x", "y")
	})
	for name, h := range map[string]*Hypergraph{
		"extra edge": moreEdges, "extra vertex": moreVerts, "edge order": reordered,
	} {
		if h.ContentHash() == base.ContentHash() {
			t.Errorf("%s: content hash did not change", name)
		}
	}

	// Deterministic across calls.
	if base.ContentHash() != base.ContentHash() {
		t.Error("content hash not deterministic")
	}
}
