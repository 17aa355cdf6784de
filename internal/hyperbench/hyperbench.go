// Package hyperbench generates the "HyperBench-sim" instance suite, the
// reproduction's stand-in for the HyperBench benchmark [9] used in the
// paper's evaluation (the real corpus of 3648 CQ/CSP hypergraphs is not
// available offline; see docs/RESULTS.md, "Substitutions").
//
// The suite mirrors HyperBench's taxonomy: application-derived shapes
// (join-query chains, stars, snowflakes, cyclic joins, TPC-style
// fact/dimension schemas) and synthetic shapes (grids, ladders, chorded
// cycles, random CSPs, cliques), binned into the exact groups of
// Table 1: origin (application/synthetic) × |E| bucket
// (≤10, 10–50, 50–75, 75–100, >100). Generation is fully deterministic:
// the same configuration always yields the same instances.
package hyperbench

import (
	"fmt"
	"math/rand"
	"strconv"

	"repro/internal/hypergraph"
)

// Origin distinguishes application-derived from synthetic instances.
type Origin int

const (
	// Application marks instances shaped like real CQ workloads.
	Application Origin = iota
	// Synthetic marks generated CSP-like instances.
	Synthetic
)

func (o Origin) String() string {
	if o == Application {
		return "Application"
	}
	return "Synthetic"
}

// Instance is one benchmark hypergraph with provenance metadata.
type Instance struct {
	Name   string
	Origin Origin
	H      *hypergraph.Hypergraph
	// KnownHW is the exact hypertree width when the generator knows it
	// by construction, and 0 otherwise.
	KnownHW int
}

// Edges returns |E(H)| for bucketing.
func (in Instance) Edges() int { return in.H.NumEdges() }

// SizeBucket returns the Table-1 group label for an edge count.
func SizeBucket(edges int) string {
	switch {
	case edges <= 10:
		return "|E| <= 10"
	case edges <= 50:
		return "10 < |E| <= 50"
	case edges <= 75:
		return "50 < |E| <= 75"
	case edges <= 100:
		return "75 < |E| <= 100"
	default:
		return "|E| > 100"
	}
}

// BucketOrder lists the size buckets largest-first, matching Table 1.
var BucketOrder = []string{
	"|E| > 100",
	"75 < |E| <= 100",
	"50 < |E| <= 75",
	"10 < |E| <= 50",
	"|E| <= 10",
}

// Config scales the generated suite.
type Config struct {
	// Scale multiplies the number of instances per family; 1 yields a
	// small suite (46 instances) suitable for unit benches, 4 a fuller
	// one (184) for cmd/benchtab.
	Scale int
	// Seed derives all per-instance seeds.
	Seed int64
}

// Suite generates the deterministic HyperBench-sim suite.
func Suite(cfg Config) []Instance {
	if cfg.Scale < 1 {
		cfg.Scale = 1
	}
	g := &gen{seed: cfg.Seed}
	var out []Instance

	for rep := 0; rep < cfg.Scale; rep++ {
		r := rep * 7 // parameter stagger between repetitions

		// --- Application-like instances -----------------------------
		// Acyclic joins (hw 1): chains, stars, snowflakes.
		out = append(out,
			g.chainCQ(4+r%3),
			g.chainCQ(24+r),
			g.starCQ(6+r%4),
			g.starCQ(30+r),
			g.snowflakeCQ(3+r%2, 4),
			g.snowflakeCQ(8+r%4, 7),
		)
		// Cyclic joins (hw 2): plain cycles of growing length.
		out = append(out,
			g.cycleCQ(6+r%3),
			g.cycleCQ(30+r),
			g.cycleCQ(56+r),
			g.cycleCQ(80+r%20),
		)
		// Chorded cycles (hw 2..3).
		out = append(out,
			g.chordedCycleCQ(20+r, 3),
			g.chordedCycleCQ(60+r, 5),
			g.chordedCycleCQ(85+r%10, 6),
		)
		// TPC-style fact/dimension joins with cross-links (hw 2..3).
		// Edge count ≈ 1 + dims·levels + dims/3; parameters are chosen so
		// every call stays within the application buckets (≤ 100 edges).
		out = append(out,
			g.tpcCQ(3+r%2, 2),
			g.tpcCQ(8+r%3, 2),
			g.tpcCQ(18+r%4, 3),
			g.tpcCQ(20+r%3, 4),
		)
		// Clique queries (hw ⌈n/2⌉): moderate widths only.
		out = append(out,
			g.cliqueCQ(4),  // hw 2
			g.cliqueCQ(5),  // hw 3
			g.cliqueCQ(6),  // hw 3
			g.cliqueCQ(8),  // hw 4
			g.cliqueCQ(10), // hw 5: 45 edges
			g.cliqueCQ(13), // hw 7: 78 edges, expected unsolved at small timeouts
		)
		// Chains of 5-cliques sharing articulation vertices (hw 3):
		// top-down search must thread through the whole chain while
		// balanced separation splits it in the middle.
		out = append(out,
			g.cliqueChainCQ(3+r%2, 5),
			g.cliqueChainCQ(6+r%2, 5),
			g.cliqueChainCQ(9+r%2, 5),
		)

		// --- Synthetic CSP-like instances ----------------------------
		// Cylinders (prism graphs C_n × K_2, hw 3): a ring of n
		// 4-cycles, which a balanced separator cuts in half.
		out = append(out,
			g.cylinderCSP(8+r%3),
			g.cylinderCSP(18+r%3),
			g.cylinderCSP(26+r%3),
			g.cylinderCSP(35+r%3), // |E| > 100
		)
		// Wider grids (width ~rows): hard instances, realistically
		// unsolved at scaled timeouts like their HyperBench analogues.
		out = append(out,
			g.gridCSP(4, 14+r%4),
			g.gridCSP(5, 12+r%4),
		)
		out = append(out,
			g.gridCSP(2, 3+r%3),
			g.gridCSP(3, 10+r%6),
			g.gridCSP(3, 12+r%4),
			g.gridCSP(4, 11+r%3),
			g.gridCSP(4, 13+r%3),
			g.ladderCSP(28+r),
			g.ladderCSP(44+r%6),
			g.randomCSP(14+r%4, 8+r%3, 3),
			g.randomCSP(30+r, 35+r, 3),
			g.randomCSP(46+r, 58+r%10, 3),
			g.randomCSP(60+r, 82+r%14, 4),
			g.randomCSP(78+r%10, 108+r%18, 4), // |E| > 100 group
			g.randomCSP(90+r%8, 120+r%20, 3),  // |E| > 100 group
			g.cycleCSP(104+r%8),               // |E| > 100, hw 2
		)
	}
	return out
}

// Large filters the suite to the HBlarge analogue of §5.2: more than 50
// edges and hypertree width known (or believed) at most maxHW.
func Large(suite []Instance, maxHW int) []Instance {
	var out []Instance
	for _, in := range suite {
		if in.Edges() > 50 && in.KnownHW > 0 && in.KnownHW <= maxHW {
			out = append(out, in)
		}
	}
	return out
}

// gen owns naming and seeding.
type gen struct {
	seed int64
	n    int
}

func (g *gen) rng() *rand.Rand {
	g.n++
	return rand.New(rand.NewSource(g.seed + int64(g.n)*2654435761))
}

func (g *gen) name(family string, params ...int) string {
	s := family
	for _, p := range params {
		s += "-" + strconv.Itoa(p)
	}
	g.n++
	return fmt.Sprintf("%s#%d", s, g.n)
}

// chainCQ: R1(x0,x1) ⋈ R2(x1,x2) ⋈ … — acyclic, hw 1.
func (g *gen) chainCQ(n int) Instance {
	var b hypergraph.Builder
	for i := 0; i < n; i++ {
		b.MustAddEdge("R"+strconv.Itoa(i), "x"+strconv.Itoa(i), "x"+strconv.Itoa(i+1))
	}
	return Instance{Name: g.name("app-chain", n), Origin: Application, H: b.Build(), KnownHW: 1}
}

// starCQ: center fact table joined with n satellites — acyclic, hw 1.
func (g *gen) starCQ(n int) Instance {
	var b hypergraph.Builder
	center := make([]string, n)
	for i := range center {
		center[i] = "k" + strconv.Itoa(i)
	}
	b.MustAddEdge("Fact", center...)
	for i := 0; i < n; i++ {
		b.MustAddEdge("Dim"+strconv.Itoa(i), "k"+strconv.Itoa(i), "a"+strconv.Itoa(i))
	}
	return Instance{Name: g.name("app-star", n), Origin: Application, H: b.Build(), KnownHW: 1}
}

// snowflakeCQ: star of stars — acyclic, hw 1.
func (g *gen) snowflakeCQ(arms, armLen int) Instance {
	var b hypergraph.Builder
	keys := make([]string, arms)
	for i := range keys {
		keys[i] = "k" + strconv.Itoa(i)
	}
	b.MustAddEdge("Fact", keys...)
	for i := 0; i < arms; i++ {
		prev := "k" + strconv.Itoa(i)
		for j := 0; j < armLen; j++ {
			next := fmt.Sprintf("a%d_%d", i, j)
			b.MustAddEdge(fmt.Sprintf("D%d_%d", i, j), prev, next)
			prev = next
		}
	}
	return Instance{Name: g.name("app-snowflake", arms, armLen), Origin: Application, H: b.Build(), KnownHW: 1}
}

// cycleCQ: cyclic join query — hw 2 for n ≥ 3.
func (g *gen) cycleCQ(n int) Instance {
	var b hypergraph.Builder
	for i := 0; i < n; i++ {
		b.MustAddEdge("R"+strconv.Itoa(i), "x"+strconv.Itoa(i), "x"+strconv.Itoa((i+1)%n))
	}
	return Instance{Name: g.name("app-cycle", n), Origin: Application, H: b.Build(), KnownHW: 2}
}

// cycleCSP is cycleCQ labelled synthetic (for the >100 bucket).
func (g *gen) cycleCSP(n int) Instance {
	in := g.cycleCQ(n)
	in.Origin = Synthetic
	in.Name = g.name("syn-cycle", n)
	return in
}

// chordedCycleCQ: cycle of length n with chords every stride vertices.
// Width 2..3 depending on chord density (not known exactly).
func (g *gen) chordedCycleCQ(n, stride int) Instance {
	var b hypergraph.Builder
	for i := 0; i < n; i++ {
		b.MustAddEdge("R"+strconv.Itoa(i), "x"+strconv.Itoa(i), "x"+strconv.Itoa((i+1)%n))
	}
	for i := 0; i < n; i += stride * 2 {
		b.MustAddEdge("C"+strconv.Itoa(i), "x"+strconv.Itoa(i), "x"+strconv.Itoa((i+stride)%n))
	}
	return Instance{Name: g.name("app-chorded", n, stride), Origin: Application, H: b.Build()}
}

// tpcCQ: layered fact/dimension schema with levels and a few cross links
// between dimensions — typical analytics join shape, low width.
func (g *gen) tpcCQ(dims, levels int) Instance {
	r := g.rng()
	var b hypergraph.Builder
	keys := make([]string, dims)
	for i := range keys {
		keys[i] = "k0_" + strconv.Itoa(i)
	}
	b.MustAddEdge("Fact", keys...)
	for i := 0; i < dims; i++ {
		prev := "k0_" + strconv.Itoa(i)
		for l := 1; l <= levels; l++ {
			next := fmt.Sprintf("k%d_%d", l, i)
			b.MustAddEdge(fmt.Sprintf("D%d_%d", l, i), prev, next)
			prev = next
		}
	}
	// Cross links between sibling dimensions create limited cyclicity.
	for i := 0; i+1 < dims; i += 3 {
		l := 1 + r.Intn(levels)
		b.MustAddEdge(fmt.Sprintf("X%d", i),
			fmt.Sprintf("k%d_%d", l, i), fmt.Sprintf("k%d_%d", l, i+1))
	}
	return Instance{Name: g.name("app-tpc", dims, levels), Origin: Application, H: b.Build()}
}

// cliqueChainCQ: a chain of `cliques` K_size cliques, consecutive pairs
// sharing one articulation vertex. For size 5 the width is 3 (= hw(K_5)),
// independent of chain length.
func (g *gen) cliqueChainCQ(cliques, size int) Instance {
	var b hypergraph.Builder
	vname := func(c, i int) string {
		// Vertex (c, size-1) is identified with (c+1, 0).
		if i == size-1 && c+1 < cliques {
			return fmt.Sprintf("c%d_0", c+1)
		}
		return fmt.Sprintf("c%d_%d", c, i)
	}
	for c := 0; c < cliques; c++ {
		for i := 0; i < size; i++ {
			for j := i + 1; j < size; j++ {
				b.MustAddEdge("", vname(c, i), vname(c, j))
			}
		}
	}
	known := 0
	if size == 5 {
		known = 3
	}
	return Instance{Name: g.name("app-cliquechain", cliques, size), Origin: Application, H: b.Build(), KnownHW: known}
}

// cylinderCSP: the prism graph C_n × K_2 as binary constraints (two
// rails of length n plus a rung at every position) — hw 3 for n ≥ 5.
func (g *gen) cylinderCSP(n int) Instance {
	var b hypergraph.Builder
	for i := 0; i < n; i++ {
		j := (i + 1) % n
		b.MustAddEdge("", "a"+strconv.Itoa(i), "a"+strconv.Itoa(j))
		b.MustAddEdge("", "b"+strconv.Itoa(i), "b"+strconv.Itoa(j))
		b.MustAddEdge("", "a"+strconv.Itoa(i), "b"+strconv.Itoa(i))
	}
	return Instance{Name: g.name("syn-cylinder", n), Origin: Synthetic, H: b.Build(), KnownHW: 3}
}

// cliqueCQ: K_n as binary edges — hw ⌈n/2⌉ (n ≥ 3).
func (g *gen) cliqueCQ(n int) Instance {
	var b hypergraph.Builder
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			b.MustAddEdge(fmt.Sprintf("e%d_%d", i, j), "v"+strconv.Itoa(i), "v"+strconv.Itoa(j))
		}
	}
	return Instance{Name: g.name("app-clique", n), Origin: Application, H: b.Build(), KnownHW: (n + 1) / 2}
}

// gridCSP: rows×cols grid of binary constraints. For a 2×c grid the
// width is 2 (c ≥ 2); wider grids have width ≈ rows.
func (g *gen) gridCSP(rows, cols int) Instance {
	var b hypergraph.Builder
	name := func(i, j int) string { return fmt.Sprintf("g%d_%d", i, j) }
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if j+1 < cols {
				b.MustAddEdge("", name(i, j), name(i, j+1))
			}
			if i+1 < rows {
				b.MustAddEdge("", name(i, j), name(i+1, j))
			}
		}
	}
	known := 0
	if rows == 2 && cols >= 2 {
		known = 2
	}
	return Instance{Name: g.name("syn-grid", rows, cols), Origin: Synthetic, H: b.Build(), KnownHW: known}
}

// ladderCSP: a 2×n ladder (cycle pair with rungs) — hw 2.
func (g *gen) ladderCSP(n int) Instance {
	var b hypergraph.Builder
	for i := 0; i+1 < n; i++ {
		b.MustAddEdge("", "a"+strconv.Itoa(i), "a"+strconv.Itoa(i+1))
		b.MustAddEdge("", "b"+strconv.Itoa(i), "b"+strconv.Itoa(i+1))
	}
	for i := 0; i < n; i += 2 {
		b.MustAddEdge("", "a"+strconv.Itoa(i), "b"+strconv.Itoa(i))
	}
	return Instance{Name: g.name("syn-ladder", n), Origin: Synthetic, H: b.Build(), KnownHW: 2}
}

// randomCSP: ne random constraints of arity ≤ maxArity over nv variables,
// connected by construction (each edge shares a variable with an earlier
// one). Width unknown.
func (g *gen) randomCSP(nv, ne, maxArity int) Instance {
	r := g.rng()
	var b hypergraph.Builder
	for e := 0; e < ne; e++ {
		arity := 2 + r.Intn(maxArity-1)
		if arity > nv {
			arity = nv
		}
		seen := map[int]bool{}
		var names []string
		if e > 0 {
			// Anchor to the already-used variable range for connectivity.
			v := r.Intn(min(nv, e*2+1))
			seen[v] = true
			names = append(names, "v"+strconv.Itoa(v))
		}
		for len(names) < arity {
			v := r.Intn(nv)
			if !seen[v] {
				seen[v] = true
				names = append(names, "v"+strconv.Itoa(v))
			}
		}
		b.MustAddEdge("c"+strconv.Itoa(e), names...)
	}
	return Instance{Name: g.name("syn-random", nv, ne), Origin: Synthetic, H: b.Build()}
}
