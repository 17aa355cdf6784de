// Package hypergraph defines the hypergraph representation shared by all
// decomposition algorithms in this repository, together with a parser for
// the HyperBench text format, structural statistics, preprocessing, and
// the GYO acyclicity test.
//
// Vertices and edges are dense integer ids. Every edge is a vertex bitset
// of capacity NumVertices; sets of edges are bitsets of capacity NumEdges.
// Hypergraphs are immutable after construction — algorithms treat the
// edge bitsets as read-only and never mutate them.
package hypergraph

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"

	"repro/internal/bitset"
)

// Hypergraph is an immutable hypergraph H = (V, E). Construct one with a
// Builder or by parsing the HyperBench format (see Parse).
type Hypergraph struct {
	vertexNames []string
	vertexIndex map[string]int
	edgeNames   []string
	edges       []*bitset.Set // edge id -> vertex set
	incidence   [][]int       // vertex id -> sorted edge ids containing it

	// contentHash caches ContentHash; safe because the structure is
	// immutable after Build (racing computations agree on the value).
	contentHash atomic.Pointer[string]
}

// Builder accumulates edges and produces a Hypergraph. The zero value is
// ready to use.
type Builder struct {
	vertexIndex map[string]int
	vertexNames []string
	edgeNames   []string
	edgeVerts   [][]int
}

// AddEdge appends an edge with the given name and vertex names. Vertex
// names are interned; repeating a vertex within an edge is harmless.
// Empty edges are rejected (the paper assumes non-empty edges).
func (b *Builder) AddEdge(name string, vertices ...string) error {
	if len(vertices) == 0 {
		return fmt.Errorf("hypergraph: edge %q has no vertices", name)
	}
	if b.vertexIndex == nil {
		b.vertexIndex = make(map[string]int)
	}
	ids := make([]int, 0, len(vertices))
	for _, v := range vertices {
		id, ok := b.vertexIndex[v]
		if !ok {
			id = len(b.vertexNames)
			b.vertexIndex[v] = id
			b.vertexNames = append(b.vertexNames, v)
		}
		ids = append(ids, id)
	}
	if name == "" {
		name = fmt.Sprintf("E%d", len(b.edgeNames)+1)
	}
	b.edgeNames = append(b.edgeNames, name)
	b.edgeVerts = append(b.edgeVerts, ids)
	return nil
}

// MustAddEdge is AddEdge that panics on error, for use in tests and
// generators where edges are known to be well-formed.
func (b *Builder) MustAddEdge(name string, vertices ...string) {
	if err := b.AddEdge(name, vertices...); err != nil {
		panic(err)
	}
}

// Build finalises the hypergraph. The builder may be reused afterwards,
// but edges added later do not affect the returned value.
func (b *Builder) Build() *Hypergraph {
	n := len(b.vertexNames)
	h := &Hypergraph{
		vertexNames: append([]string(nil), b.vertexNames...),
		vertexIndex: make(map[string]int, n),
		edgeNames:   append([]string(nil), b.edgeNames...),
		edges:       make([]*bitset.Set, len(b.edgeVerts)),
	}
	for i, name := range h.vertexNames {
		h.vertexIndex[name] = i
	}
	for i, vs := range b.edgeVerts {
		e := bitset.New(n)
		for _, v := range vs {
			e.Set(v)
		}
		h.edges[i] = e
	}
	h.index()
	return h
}

// WithEdges returns the hypergraph over h's vertices whose edges are
// h's edges followed by extra, named as Builder names unnamed edges.
// Every vertex id and edge id of h is kept. Each extra set must have
// capacity NumVertices and must not change afterwards.
func (h *Hypergraph) WithEdges(extra []*bitset.Set) *Hypergraph {
	g := &Hypergraph{
		vertexNames: h.vertexNames,
		vertexIndex: h.vertexIndex,
		edgeNames:   slices.Clip(h.edgeNames),
		edges:       append(slices.Clip(h.edges), extra...),
	}
	for i := len(h.edges); i < len(g.edges); i++ {
		g.edgeNames = append(g.edgeNames, fmt.Sprintf("E%d", i+1))
	}
	g.index()
	return g
}

// index fills the incidence lists from the edges.
func (h *Hypergraph) index() {
	h.incidence = make([][]int, len(h.vertexNames))
	for i, e := range h.edges {
		e.ForEach(func(v int) {
			h.incidence[v] = append(h.incidence[v], i)
		})
	}
}

// NumVertices returns |V(H)|.
func (h *Hypergraph) NumVertices() int { return len(h.vertexNames) }

// NumEdges returns |E(H)|.
func (h *Hypergraph) NumEdges() int { return len(h.edges) }

// Edge returns the vertex set of edge i. The returned set is shared and
// must not be mutated.
func (h *Hypergraph) Edge(i int) *bitset.Set { return h.edges[i] }

// EdgeName returns the name of edge i.
func (h *Hypergraph) EdgeName(i int) string { return h.edgeNames[i] }

// VertexName returns the name of vertex v.
func (h *Hypergraph) VertexName(v int) string { return h.vertexNames[v] }

// VertexID returns the id of the vertex with the given name.
func (h *Hypergraph) VertexID(name string) (int, bool) {
	id, ok := h.vertexIndex[name]
	return id, ok
}

// IncidentEdges returns the sorted ids of edges containing vertex v. The
// returned slice is shared and must not be mutated.
func (h *Hypergraph) IncidentEdges(v int) []int { return h.incidence[v] }

// NewVertexSet returns an empty bitset with capacity NumVertices.
func (h *Hypergraph) NewVertexSet() *bitset.Set { return bitset.New(h.NumVertices()) }

// UnionInto adds the vertices of every edge in ids to dst and returns dst.
func (h *Hypergraph) UnionInto(dst *bitset.Set, ids []int) *bitset.Set {
	for _, id := range ids {
		dst.InPlaceUnion(h.edges[id])
	}
	return dst
}

// Union returns the union of the vertex sets of the given edges.
func (h *Hypergraph) Union(ids []int) *bitset.Set {
	return h.UnionInto(h.NewVertexSet(), ids)
}

// AllEdgeIDs returns 0..NumEdges-1 as a fresh slice.
func (h *Hypergraph) AllEdgeIDs() []int {
	ids := make([]int, h.NumEdges())
	for i := range ids {
		ids[i] = i
	}
	return ids
}

// Vertices returns the full vertex set as a fresh bitset.
func (h *Hypergraph) Vertices() *bitset.Set {
	s := h.NewVertexSet()
	for _, e := range h.edges {
		s.InPlaceUnion(e)
	}
	return s
}

// ContentHash returns a hex digest of the hypergraph's structure: the
// vertex count plus the vertex set of every edge, in edge-id order.
// Names are ignored — two hypergraphs with identical edge bitsets over
// the same id space hash equally, and because all solver memo keys are
// id-based, their memoised search states are interchangeable. The
// service layer keys its cross-request caches on this digest.
func (h *Hypergraph) ContentHash() string {
	if p := h.contentHash.Load(); p != nil {
		return *p
	}
	d := sha256.New()
	var hdr [8]byte
	binary.LittleEndian.PutUint64(hdr[:], uint64(len(h.vertexNames)))
	d.Write(hdr[:])
	var key []byte
	for _, e := range h.edges {
		key = e.AppendKey(key[:0])
		binary.LittleEndian.PutUint64(hdr[:], uint64(len(key)))
		d.Write(hdr[:])
		d.Write(key)
	}
	sum := hex.EncodeToString(d.Sum(nil))
	h.contentHash.Store(&sum)
	return sum
}

// EdgeVertices returns the sorted vertex ids of edge i.
func (h *Hypergraph) EdgeVertices(i int) []int { return h.edges[i].Elements() }

// String renders the hypergraph in HyperBench syntax.
func (h *Hypergraph) String() string {
	var b strings.Builder
	for i := range h.edges {
		if i > 0 {
			b.WriteString(",\n")
		}
		b.WriteString(h.edgeNames[i])
		b.WriteByte('(')
		for j, v := range h.EdgeVertices(i) {
			if j > 0 {
				b.WriteByte(',')
			}
			b.WriteString(h.vertexNames[v])
		}
		b.WriteByte(')')
	}
	b.WriteString(".")
	return b.String()
}

// RemoveSubsumedEdges returns a hypergraph without edges that are subsets
// of other edges (ties broken by keeping the lower id), plus a mapping
// from new edge ids to original ids. Removing subsumed edges preserves
// hypertree width: any node covering the superset edge also covers the
// subsumed one.
func (h *Hypergraph) RemoveSubsumedEdges() (*Hypergraph, []int) {
	m := h.NumEdges()
	keep := make([]bool, m)
	for i := range keep {
		keep[i] = true
	}
	for i := 0; i < m; i++ {
		if !keep[i] {
			continue
		}
		for j := 0; j < m; j++ {
			if i == j || !keep[j] {
				continue
			}
			if h.edges[j].SubsetOf(h.edges[i]) {
				if !h.edges[i].SubsetOf(h.edges[j]) || j > i {
					keep[j] = false
				}
			}
		}
	}
	var b Builder
	var mapping []int
	for i := 0; i < m; i++ {
		if !keep[i] {
			continue
		}
		names := make([]string, 0, h.edges[i].Len())
		for _, v := range h.EdgeVertices(i) {
			names = append(names, h.vertexNames[v])
		}
		b.MustAddEdge(h.edgeNames[i], names...)
		mapping = append(mapping, i)
	}
	return b.Build(), mapping
}

// Stats summarises structural properties of a hypergraph.
type Stats struct {
	Vertices    int
	Edges       int
	MinArity    int
	MaxArity    int
	AvgArity    float64
	MinDegree   int
	MaxDegree   int
	AvgDegree   float64
	IsConnected bool
}

// ComputeStats returns structural statistics for h.
func (h *Hypergraph) ComputeStats() Stats {
	s := Stats{Vertices: h.NumVertices(), Edges: h.NumEdges()}
	if s.Edges == 0 {
		s.IsConnected = true
		return s
	}
	s.MinArity = h.edges[0].Len()
	totalArity := 0
	for _, e := range h.edges {
		a := e.Len()
		totalArity += a
		if a < s.MinArity {
			s.MinArity = a
		}
		if a > s.MaxArity {
			s.MaxArity = a
		}
	}
	s.AvgArity = float64(totalArity) / float64(s.Edges)
	if s.Vertices > 0 {
		s.MinDegree = len(h.incidence[0])
		totalDeg := 0
		for _, inc := range h.incidence {
			d := len(inc)
			totalDeg += d
			if d < s.MinDegree {
				s.MinDegree = d
			}
			if d > s.MaxDegree {
				s.MaxDegree = d
			}
		}
		s.AvgDegree = float64(totalDeg) / float64(s.Vertices)
	}
	s.IsConnected = h.isConnected()
	return s
}

// isConnected reports whether the hypergraph has a single [∅]-component.
func (h *Hypergraph) isConnected() bool {
	m := h.NumEdges()
	if m <= 1 {
		return true
	}
	visited := make([]bool, m)
	stack := []int{0}
	visited[0] = true
	count := 1
	for len(stack) > 0 {
		e := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		h.edges[e].ForEach(func(v int) {
			for _, f := range h.incidence[v] {
				if !visited[f] {
					visited[f] = true
					count++
					stack = append(stack, f)
				}
			}
		})
	}
	return count == m
}
