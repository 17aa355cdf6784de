package ext

import (
	"repro/internal/bitset"
	"repro/internal/hypergraph"
)

// Splitter computes [U]-components of extended subhypergraphs over one
// fixed base hypergraph. It reuses internal scratch buffers between calls
// via epoch stamping, so component computation in the solvers' hot loops
// is allocation-light. A Splitter is not safe for concurrent use; give
// each worker goroutine its own.
type Splitter struct {
	h *hypergraph.Hypergraph

	// union-find over the items (edges then specials) of the current call
	parent []int32
	rank   []int8

	// root item -> output component index, reset per call
	rootComp []int32
	// root item -> items counted so far (Balanced, Oversized), or
	// component index -> edges counted so far (ComponentsInto); reset
	// per call
	size []int32
	// component index -> specials counted so far, reset per call
	spSize []int32
	// item -> its component index, written by ComponentsInto
	itemComp []int32
	// scratch: item has a vertex outside u
	hasOutside []bool

	// vertex -> first item seen containing it (outside U), epoch-stamped
	vOwner []int32
	vStamp []uint32
	epoch  uint32
}

// NewSplitter returns a Splitter for hypergraphs over h's vertex universe.
func NewSplitter(h *hypergraph.Hypergraph) *Splitter {
	return &Splitter{
		h:      h,
		vOwner: make([]int32, h.NumVertices()),
		vStamp: make([]uint32, h.NumVertices()),
	}
}

func (s *Splitter) find(i int32) int32 {
	for s.parent[i] != i {
		s.parent[i] = s.parent[s.parent[i]]
		i = s.parent[i]
	}
	return i
}

// link merges the sets of the distinct roots ra and rb and returns the
// root of the merged set.
func (s *Splitter) link(ra, rb int32) int32 {
	if s.rank[ra] < s.rank[rb] {
		ra, rb = rb, ra
	}
	s.parent[rb] = ra
	if s.rank[ra] == s.rank[rb] {
		s.rank[ra]++
	}
	return ra
}

// ComponentBuf is storage that ComponentsInto carves components out
// of. A buffer grows to the largest split it has held and is then reused,
// so splitting into it allocates nothing. Each call overwrites the
// graphs of the previous call on the same buffer: a component graph from
// a buffer lives only until that buffer's next ComponentsInto call, and
// nothing may keep it (or its Edges and Specials) past that point.
type ComponentBuf struct {
	graphs   []Graph
	comps    []*Graph
	edges    []int
	specials []Special
}

// Components returns the [u]-components of g (Definition 3.2): the
// maximal subsets of E′ ∪ Sp connected transitively through shared
// vertices outside u. Items entirely inside u (f ⊆ u) belong to no
// component. Each returned component is itself a Graph over the same
// base hypergraph, in storage of its own.
func (s *Splitter) Components(g *Graph, u *bitset.Set) []*Graph {
	return s.ComponentsInto(g, u, new(ComponentBuf))
}

// ComponentsInto is Components with the components carved out of buf;
// see ComponentBuf for how long they live.
func (s *Splitter) ComponentsInto(g *Graph, u *bitset.Set, buf *ComponentBuf) []*Graph {
	s.label(g, u)

	// Number the components by first item and count their edges and
	// specials, so each component's lists are carved out of one block.
	n, nEdges, nSpecials := int32(0), 0, 0
	for i := range s.hasOutside {
		if !s.hasOutside[i] {
			continue
		}
		r := s.find(int32(i))
		c := s.rootComp[r]
		if c < 0 {
			c, s.rootComp[r] = n, n
			n++
		}
		s.itemComp[i] = c
		if i < len(g.Edges) {
			s.size[c]++
			nEdges++
		} else {
			s.spSize[c]++
			nSpecials++
		}
	}
	if n == 0 {
		return nil
	}

	if cap(buf.graphs) < int(n) {
		buf.graphs = make([]Graph, n)
		buf.comps = make([]*Graph, n)
	}
	if cap(buf.edges) < nEdges {
		buf.edges = make([]int, nEdges)
	}
	if cap(buf.specials) < nSpecials {
		buf.specials = make([]Special, nSpecials)
	}
	graphs, comps := buf.graphs[:n], buf.comps[:n]
	edges, specials := buf.edges[:nEdges], buf.specials[:nSpecials]
	for c := range graphs {
		k, l := s.size[c], s.spSize[c]
		graphs[c] = Graph{H: g.H, Edges: edges[:0:k], Specials: specials[:0:l]}
		edges, specials = edges[k:], specials[l:]
		comps[c] = &graphs[c]
	}
	// Fill them in item order (edges first, ascending; then specials)
	// so component edge lists stay sorted.
	for i := range s.hasOutside {
		if s.hasOutside[i] {
			graphs[s.itemComp[i]].appendItem(g, i)
		}
	}
	return comps
}

// Balanced reports whether every [u]-component of g holds at most half
// of g's items, i.e. LargestComponent(Components(g, u), g.Size()) < 0.
// It only counts component sizes and allocates nothing, so the solvers'
// balancedness pre-checks can call it for every candidate.
func (s *Splitter) Balanced(g *Graph, u *bitset.Set) bool {
	return s.oversizedRoot(g, u) < 0
}

// Oversized returns the [u]-component of g holding more than half of
// g's items, or nil when there is none. It builds only that component,
// which equals the one Components would return at index
// LargestComponent(Components(g, u), g.Size()).
func (s *Splitter) Oversized(g *Graph, u *bitset.Set) *Graph {
	root := s.oversizedRoot(g, u)
	if root < 0 {
		return nil
	}
	c := &Graph{H: g.H, Edges: make([]int, 0, s.size[root])}
	for i := range s.hasOutside {
		if s.hasOutside[i] && s.find(int32(i)) == root {
			c.appendItem(g, i)
		}
	}
	return c
}

// oversizedRoot runs the union-find pass and returns the root item of
// the component holding more than half of g's items, or -1. The count
// left in s.size[root] is a lower bound on that component's size.
func (s *Splitter) oversizedRoot(g *Graph, u *bitset.Set) int32 {
	s.label(g, u)
	half := int32(len(s.hasOutside)) / 2
	for i := range s.hasOutside {
		if !s.hasOutside[i] {
			continue
		}
		r := s.find(int32(i))
		s.size[r]++
		if s.size[r] > half {
			return r
		}
	}
	return -1
}

// label runs the union-find pass shared by Components, Balanced and
// Oversized: afterwards hasOutside[i] tells whether item i (edges first,
// then specials) has a vertex outside u, and find(i) names its
// component. rootComp is reset to -1 and size and spSize to 0 for every
// item.
func (s *Splitter) label(g *Graph, u *bitset.Set) {
	nItems := g.Size()
	if cap(s.parent) < nItems {
		s.parent = make([]int32, nItems)
		s.rank = make([]int8, nItems)
		s.rootComp = make([]int32, nItems)
		s.size = make([]int32, nItems)
		s.spSize = make([]int32, nItems)
		s.itemComp = make([]int32, nItems)
		s.hasOutside = make([]bool, nItems)
	}
	s.parent = s.parent[:nItems]
	s.rank = s.rank[:nItems]
	s.rootComp = s.rootComp[:nItems]
	s.size = s.size[:nItems]
	s.spSize = s.spSize[:nItems]
	s.itemComp = s.itemComp[:nItems]
	s.hasOutside = s.hasOutside[:nItems]
	for i := range s.parent {
		s.parent[i] = int32(i)
		s.rank[i] = 0
		s.rootComp[i] = -1
		s.size[i] = 0
		s.spSize[i] = 0
	}
	s.epoch++
	if s.epoch == 0 { // wrapped; reset stamps
		for i := range s.vStamp {
			s.vStamp[i] = 0
		}
		s.epoch = 1
	}

	for i := 0; i < nItems; i++ {
		var vs *bitset.Set
		if i < len(g.Edges) {
			vs = s.h.Edge(g.Edges[i])
		} else {
			vs = g.Specials[i-len(g.Edges)].Vertices
		}
		// Item i is still a singleton when visited; ri tracks its root
		// as it merges with the earlier owners of its vertices.
		v := vs.NextDiff(u, 0)
		s.hasOutside[i] = v >= 0
		for ri := int32(i); v >= 0; v = vs.NextDiff(u, v+1) {
			if s.vStamp[v] != s.epoch {
				s.vStamp[v] = s.epoch
				s.vOwner[v] = int32(i)
			} else if ro := s.find(s.vOwner[v]); ro != ri {
				ri = s.link(ri, ro)
			}
		}
	}
}

// appendItem adds item i of g (edges first, then specials) to c.
func (c *Graph) appendItem(g *Graph, i int) {
	if i < len(g.Edges) {
		c.Edges = append(c.Edges, g.Edges[i])
	} else {
		c.Specials = append(c.Specials, g.Specials[i-len(g.Edges)])
	}
}

// LargestComponent returns the index of a component with size strictly
// greater than half the size of total (2*|C| > total), or -1 if none
// exists. At most one such component can exist.
func LargestComponent(comps []*Graph, total int) int {
	for i, c := range comps {
		if 2*c.Size() > total {
			return i
		}
	}
	return -1
}
