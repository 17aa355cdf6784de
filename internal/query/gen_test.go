package query

import (
	"fmt"
	"math/rand"
	"strconv"

	"repro/internal/join"
)

// GenConfig sizes RandomInstance. The zero value picks defaults small
// enough that the naive cross-join baseline stays tractable, which is
// what the differential suite needs.
type GenConfig struct {
	MaxAtoms  int // atoms per query, 2..MaxAtoms (default 5)
	MaxVars   int // variable pool size (default 6)
	MaxArity  int // maximum atom arity (default 3)
	Domain    int // values are drawn from [0, Domain) (default 4)
	MaxTuples int // tuples per relation before dedup (default 20)
}

func (c GenConfig) withDefaults() GenConfig {
	if c.MaxAtoms <= 0 {
		c.MaxAtoms = 5
	}
	if c.MaxAtoms < 2 {
		// Queries always have 2..MaxAtoms atoms, so the bound itself
		// must be at least 2.
		c.MaxAtoms = 2
	}
	if c.MaxVars <= 0 {
		c.MaxVars = 6
	}
	if c.MaxArity <= 0 {
		c.MaxArity = 3
	}
	if c.Domain <= 0 {
		c.Domain = 4
	}
	if c.MaxTuples <= 0 {
		c.MaxTuples = 20
	}
	return c
}

// RandomInstance generates a random conjunctive query with a matching
// random database, deterministically from r. Queries are connected
// (every atom after the first reuses at least one earlier variable),
// may be cyclic, and may contain self-joins (the same relation in two
// atoms). The differential, incremental and tenant tests draw their
// workloads from it.
func RandomInstance(r *rand.Rand, cfg GenConfig) (join.Query, join.Database) {
	cfg = cfg.withDefaults()
	nAtoms := 2 + r.Intn(cfg.MaxAtoms-1)

	// Declare relations first so a relation reused across atoms keeps
	// one arity; roughly one relation per atom leaves room for
	// self-joins without forcing them.
	nRels := 1 + r.Intn(nAtoms)
	arities := make([]int, nRels)
	for i := range arities {
		arities[i] = 1 + r.Intn(cfg.MaxArity)
		if arities[i] > cfg.MaxVars {
			arities[i] = cfg.MaxVars
		}
	}

	varName := func(i int) string { return "x" + strconv.Itoa(i) }
	var q join.Query
	var usedIDs []int // insertion-ordered, so generation is deterministic in r
	used := map[int]bool{}
	use := func(v int) {
		if !used[v] {
			used[v] = true
			usedIDs = append(usedIDs, v)
		}
	}
	for i := 0; i < nAtoms; i++ {
		rel := r.Intn(nRels)
		arity := arities[rel]
		// Pick distinct variables; after the first atom, force at least
		// one previously used variable so the query stays connected.
		picked := map[int]bool{}
		vars := make([]string, 0, arity)
		if i > 0 {
			v := usedIDs[r.Intn(len(usedIDs))]
			picked[v] = true
			vars = append(vars, varName(v))
		}
		for len(vars) < arity {
			v := r.Intn(cfg.MaxVars)
			if picked[v] {
				continue
			}
			picked[v] = true
			vars = append(vars, varName(v))
		}
		for _, name := range vars {
			v, _ := strconv.Atoi(name[1:])
			use(v)
		}
		q.Atoms = append(q.Atoms, join.Atom{Relation: "R" + strconv.Itoa(rel), Vars: vars})
	}

	db := join.Database{}
	for i, arity := range arities {
		attrs := make([]string, arity)
		for j := range attrs {
			attrs[j] = "c" + strconv.Itoa(j)
		}
		// Skipping repeated draws keeps the naive baseline's
		// intermediates bounded by the domain size, not the raw tuple
		// count.
		rel := join.NewRelation(attrs...)
		seen := map[string]bool{}
		for n := r.Intn(cfg.MaxTuples + 1); n > 0; n-- {
			row := make([]int, arity)
			for j := range row {
				row[j] = r.Intn(cfg.Domain)
			}
			if key := fmt.Sprint(row); !seen[key] {
				seen[key] = true
				rel.Add(row...)
			}
		}
		db["R"+strconv.Itoa(i)] = rel
	}
	return q, db
}
