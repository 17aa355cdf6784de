// Package opt provides an exact optimal-width HD solver, standing in for
// HtdLEO [24] in the reproduction (see docs/RESULTS.md, "Substitutions":
// building a competitive SMT solver is out of scope).
//
// Like HtdLEO it takes no width parameter and returns the optimal
// hypertree width directly; like HtdLEO it is strictly single-threaded
// and trades memory for completeness (a memoised exhaustive search per
// width, with refutation of width k-1 playing the role of the SMT
// solver's UNSAT proofs — this is where most of the time goes, matching
// HtdLEO's much higher average runtimes in Table 1).
//
// Internally it runs subsumption preprocessing and then iterative
// deepening over k with a cached det-k-style search per width.
package opt

import (
	"context"
	"fmt"

	"repro/internal/bitset"
	"repro/internal/decomp"
	"repro/internal/detk"
	"repro/internal/hypergraph"
)

// Solver finds the exact hypertree width of a hypergraph.
type Solver struct {
	H *hypergraph.Hypergraph
	// MaxK bounds the search; Solve reports !ok if hw(H) > MaxK.
	MaxK int

	// Stats describes the completed run.
	Stats struct {
		WidthsTried   int
		RemovedEdges  int
		SearchCands   int64
		SearchCacheHt int64
	}
}

// New returns an optimal-width solver with search bound maxK.
func New(h *hypergraph.Hypergraph, maxK int) *Solver {
	if maxK < 1 {
		panic("opt: maxK must be >= 1")
	}
	return &Solver{H: h, MaxK: maxK}
}

// Solve returns the optimal hypertree width of H together with a witness
// HD of that width. ok is false if hw(H) > MaxK. On timeout the
// context's error is returned.
func (s *Solver) Solve(ctx context.Context) (width int, d *decomp.Decomp, ok bool, err error) {
	work, mapping := s.H.RemoveSubsumedEdges()
	s.Stats.RemovedEdges = s.H.NumEdges() - work.NumEdges()
	for k := 1; k <= s.MaxK; k++ {
		s.Stats.WidthsTried = k
		solver := detk.New(work, k)
		dd, found, err := solver.Decompose(ctx)
		s.Stats.SearchCands += solver.Stats.Candidates
		s.Stats.SearchCacheHt += solver.Stats.CacheHits
		if err != nil {
			return 0, nil, false, err
		}
		if found {
			dd, err = remap(dd, s.H, mapping)
			if err != nil {
				return 0, nil, false, err
			}
			return k, dd, true, nil
		}
	}
	return 0, nil, false, nil
}

// remap lifts a decomposition of the subsumption-reduced hypergraph back
// to the original: λ edge ids map through mapping, and bags translate by
// vertex name. Subsumed edges are covered automatically because each is
// a subset of a surviving edge whose covering bag contains it.
func remap(d *decomp.Decomp, orig *hypergraph.Hypergraph, mapping []int) (*decomp.Decomp, error) {
	var lift func(n *decomp.Node) (*decomp.Node, error)
	lift = func(n *decomp.Node) (*decomp.Node, error) {
		lambda := make([]int, len(n.Lambda))
		for i, e := range n.Lambda {
			lambda[i] = mapping[e]
		}
		bag := bitset.New(orig.NumVertices())
		var bagErr error
		n.Bag.ForEach(func(v int) {
			name := d.H.VertexName(v)
			id, ok := orig.VertexID(name)
			if !ok {
				bagErr = fmt.Errorf("opt: vertex %q missing from original hypergraph", name)
				return
			}
			bag.Set(id)
		})
		if bagErr != nil {
			return nil, bagErr
		}
		out := decomp.NewNode(lambda, bag)
		out.SpecialID = n.SpecialID
		for _, c := range n.Children {
			lc, err := lift(c)
			if err != nil {
				return nil, err
			}
			out.Children = append(out.Children, lc)
		}
		return out, nil
	}
	root, err := lift(d.Root)
	if err != nil {
		return nil, err
	}
	return &decomp.Decomp{H: orig, Root: root}, nil
}
