// Package csp solves constraint satisfaction problems through hypertree
// decompositions, the second motivating application of the paper (§1):
// a CSP whose constraint hypergraph has bounded hypertree width is
// solvable in polynomial time by decomposing it and running Yannakakis
// over the bag relations. A plain backtracking solver serves as the
// correctness baseline.
package csp

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/decomp"
	"repro/internal/join"
	"repro/internal/logk"
)

// Constraint is a table constraint: the scope variables and the allowed
// value combinations.
type Constraint struct {
	Vars    []string
	Allowed [][]int
}

// Problem is a CSP given by table constraints. Every variable must occur
// in at least one constraint (matching the paper's convention that
// hypergraphs have no isolated vertices).
type Problem struct {
	Constraints []Constraint
}

// AddConstraint appends a table constraint.
func (p *Problem) AddConstraint(vars []string, allowed [][]int) {
	cp := Constraint{Vars: append([]string(nil), vars...)}
	for _, row := range allowed {
		cp.Allowed = append(cp.Allowed, append([]int(nil), row...))
	}
	p.Constraints = append(p.Constraints, cp)
}

// Variables returns the problem's variables in sorted order.
func (p *Problem) Variables() []string {
	seen := map[string]bool{}
	var out []string
	for _, c := range p.Constraints {
		for _, v := range c.Vars {
			if !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
	}
	sort.Strings(out)
	return out
}

// asQuery converts the CSP to a conjunctive query plus database: each
// constraint becomes a relation and an atom over its scope.
func (p *Problem) asQuery() (join.Query, join.Database, error) {
	if len(p.Constraints) == 0 {
		return join.Query{}, nil, fmt.Errorf("csp: no constraints")
	}
	db := join.Database{}
	var q join.Query
	for i, c := range p.Constraints {
		name := fmt.Sprintf("C%d", i)
		rel := join.NewRelation(c.Vars...)
		for _, row := range c.Allowed {
			rel.Add(row...)
		}
		db[name] = rel
		q.Atoms = append(q.Atoms, join.Atom{Relation: name, Vars: c.Vars})
	}
	return q, db, nil
}

// SolveOptions configures the decomposition-guided solver.
type SolveOptions struct {
	// MaxWidth bounds the width search (default 6).
	MaxWidth int
	// Workers is passed to log-k-decomp (default 1).
	Workers int
}

// Result reports the solving outcome.
type Result struct {
	// Solutions holds every satisfying assignment, as a relation over
	// all variables.
	Solutions *join.Relation
	// Width is the constraint hypergraph's hypertree width, the width
	// of Decomp.
	Width int
	// Decomp is the decomposition that guided evaluation.
	Decomp *decomp.Decomp
}

// Solve decomposes the constraint hypergraph at its hypertree width, as
// the service plans a query: logk.Optimal's width ladder from the
// structural lower bound up to MaxWidth, under the paper's hybrid
// configuration. It then evaluates the CSP with Yannakakis' algorithm
// over the decomposition.
func Solve(ctx context.Context, p *Problem, opts SolveOptions) (*Result, error) {
	if opts.MaxWidth < 1 {
		opts.MaxWidth = 6
	}
	q, db, err := p.asQuery()
	if err != nil {
		return nil, err
	}
	h, err := q.Hypergraph()
	if err != nil {
		return nil, err
	}
	lb, err := h.WidthLowerBound(ctx, opts.MaxWidth)
	if err != nil {
		return nil, err
	}
	opt, err := logk.Optimal(ctx, h, logk.OptimalConfig{
		Search: logk.Options{Workers: opts.Workers,
			Hybrid: logk.PaperHybrid, HybridThreshold: logk.PaperHybridThreshold},
		KMax:       opts.MaxWidth,
		LowerBound: lb,
	})
	if err != nil {
		return nil, err
	}
	if !opt.Found {
		return nil, fmt.Errorf("csp: hypertree width exceeds %d", opts.MaxWidth)
	}
	sols, err := join.Evaluate(q, db, opt.Decomp)
	if err != nil {
		return nil, err
	}
	return &Result{Solutions: sols, Width: opt.Width, Decomp: opt.Decomp}, nil
}

// SolveBacktrack enumerates all solutions by chronological backtracking
// with forward constraint checks — the baseline used to validate the
// decomposition-guided solver in tests. Exponential; small inputs only.
func SolveBacktrack(p *Problem) ([]map[string]int, error) {
	vars := p.Variables()
	if len(vars) == 0 {
		return nil, fmt.Errorf("csp: no variables")
	}
	// Candidate values per variable: every value it takes in any allowed
	// tuple of any constraint mentioning it.
	domain := map[string][]int{}
	for _, c := range p.Constraints {
		for vi, v := range c.Vars {
			seen := map[int]bool{}
			for _, x := range domain[v] {
				seen[x] = true
			}
			for _, row := range c.Allowed {
				if !seen[row[vi]] {
					seen[row[vi]] = true
					domain[v] = append(domain[v], row[vi])
				}
			}
		}
	}
	for _, v := range vars {
		sort.Ints(domain[v])
	}

	assign := map[string]int{}
	var out []map[string]int

	consistent := func() bool {
		for _, c := range p.Constraints {
			// Check only constraints with fully assigned scopes partially:
			// a partial scope is consistent if some allowed row matches
			// the assigned positions.
			ok := false
			for _, row := range c.Allowed {
				match := true
				for vi, v := range c.Vars {
					if val, has := assign[v]; has && val != row[vi] {
						match = false
						break
					}
				}
				if match {
					ok = true
					break
				}
			}
			if !ok {
				return false
			}
		}
		return true
	}

	var rec func(i int)
	rec = func(i int) {
		if i == len(vars) {
			sol := map[string]int{}
			for k, v := range assign {
				sol[k] = v
			}
			out = append(out, sol)
			return
		}
		v := vars[i]
		for _, val := range domain[v] {
			assign[v] = val
			if consistent() {
				rec(i + 1)
			}
			delete(assign, v)
		}
	}
	rec(0)
	return out, nil
}

// Coloring builds the k-coloring CSP of a graph given as vertex-name
// pairs: one binary "different colour" constraint per edge.
func Coloring(edges [][2]string, colors int) *Problem {
	var p Problem
	var allowed [][]int
	for a := 0; a < colors; a++ {
		for b := 0; b < colors; b++ {
			if a != b {
				allowed = append(allowed, []int{a, b})
			}
		}
	}
	for _, e := range edges {
		p.AddConstraint([]string{e[0], e[1]}, allowed)
	}
	return &p
}
