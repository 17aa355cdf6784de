// cqeval: answer a cyclic conjunctive query end to end with the public
// query API — the paper's §1 motivating application (HDs reduce CQ
// evaluation to an acyclic instance solvable in polynomial time) — in
// the dataset-reference flow: upload the data once as a named,
// versioned dataset, query it many times by name, mutate it with tuple
// deltas, and query again.
//
// Datasets keep the expensive artefacts server-resident: the plan is
// cached by the service's content-addressed plan cache, and the data's
// hash indexes are *maintained* across mutations as layered deltas —
// a repeat query re-parses nothing and rebuilds nothing, and a
// mutation costs O(delta), not O(data).
//
// The query is a "triangle of paths" — three relations forming a cycle
// plus dangling selection atoms:
//
//	Q(x,y,z,…) = R(x,y) ∧ S(y,z) ∧ T(z,x) ∧ A(x,a) ∧ B(y,b)
//
// Run with: go run ./examples/cqeval
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"time"

	htd "repro"
)

func main() {
	r := rand.New(rand.NewSource(42))

	// Random data: each relation has 300 tuples over a domain of 40.
	const tuples, domain = 300, 40
	mk := func() *htd.Relation {
		rel := htd.NewRelation("c1", "c2")
		for i := 0; i < tuples; i++ {
			rel.Add(r.Intn(domain), r.Intn(domain))
		}
		return rel
	}
	db := htd.Database{"R": mk(), "S": mk(), "T": mk(), "A": mk(), "B": mk()}
	q, err := htd.ParseCQ("R(x,y), S(y,z), T(z,x), A(x,a), B(y,b).")
	if err != nil {
		log.Fatal(err)
	}

	svc := htd.NewService(htd.ServiceConfig{})
	defer svc.Close()
	planner := htd.NewQueryPlanner(svc)
	ctx := context.Background()

	// Upload once: the dataset is registered under a name at version 1.
	// (Over HTTP this is PUT /data/paths with the rel-block text.)
	version, err := svc.Datasets().Put("", "paths", db)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dataset \"paths\" uploaded at version %d\n", version)

	// Query many: requests reference the dataset by name instead of
	// shipping the data. Cold, the plan is computed by the optimal-width
	// search and the executor builds (and captures) the hash indexes.
	eval := func(label string) htd.QueryResult {
		res, err := planner.Eval(ctx, htd.QueryRequest{Query: q, Dataset: "paths"})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s: %6d answers @v%d, width %d, plan %v + exec %v (plan hit: %v, index builds %d, reuses %d)\n",
			label, res.Rows.Size(), res.DatasetVersion, res.Width,
			res.PlanElapsed.Round(time.Microsecond), res.ExecElapsed.Round(time.Microsecond),
			res.PlanCacheHit, res.Exec.IndexBuilds, res.Exec.IndexReuses)
		return res
	}
	cold := eval("cold")
	warm := eval("warm")
	if !warm.PlanCacheHit {
		log.Fatal("repeat query should hit the plan cache — this is a bug")
	}
	// Indexes over the base relations are captured on first use and
	// reused by every later query; only indexes over per-query
	// intermediate results are ever rebuilt.
	if warm.Exec.IndexReuses <= cold.Exec.IndexReuses {
		log.Fatal("repeat query should reuse the captured indexes — this is a bug")
	}
	if warm.Rows.Size() != cold.Rows.Size() {
		log.Fatal("repeat answers disagree — this is a bug")
	}

	// Mutate: one delta batch — one version bump, O(delta) index
	// maintenance. (Over HTTP: POST /data/paths/mutate, NDJSON lines.)
	ds, _ := svc.Datasets().Get("", "paths")
	mres, err := ds.Mutate([]htd.DatasetMutation{
		{Op: "insert", Rel: "R", Rows: [][]int{{0, 1}, {1, 2}, {2, 0}}},
		{Op: "delete", Rel: "S", Rows: [][]int{db["S"].Rows()[0]}},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("mutated: +%d -%d tuples -> version %d\n", mres.Inserted, mres.Deleted, mres.Version)

	// Re-query: the same plan, the maintained indexes extended by a
	// delta layer — and the answer reflects the new version.
	after := eval("after mutation")
	if after.DatasetVersion != mres.Version {
		log.Fatal("query did not read the mutated version — this is a bug")
	}

	// Pinned read: the pre-mutation version is still resolvable and
	// answers with its original rows (snapshot isolation, bounded by
	// DatasetConfig.Retain).
	pinned, err := planner.Eval(ctx, htd.QueryRequest{Query: q, Dataset: "paths", AtVersion: version})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("pinned @v%d: %6d answers (current is v%d)\n",
		pinned.DatasetVersion, pinned.Rows.Size(), after.DatasetVersion)
	if pinned.Rows.Size() != warm.Rows.Size() {
		log.Fatal("pinned answers differ from the version they pin — this is a bug")
	}

	// Differential check: the naive cross join over the materialised
	// current state must agree exactly with the incremental answer.
	snap, err := svc.Datasets().Resolve("", "paths", 0)
	if err != nil {
		log.Fatal(err)
	}
	start := time.Now()
	naive, err := htd.EvalQueryNaive(q, snap.DB)
	if err != nil {
		log.Fatal(err)
	}
	tNaive := time.Since(start)
	canon, err := htd.CanonicalRows(naive)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("naive join: %d answers in %v\n", canon.Size(), tNaive.Round(time.Microsecond))
	if canon.Size() != after.Rows.Size() {
		log.Fatal("answer sets disagree — this is a bug")
	}
	fmt.Println("results agree ✓")

	// The inline path still works for self-contained one-shot queries —
	// but ships, parses and validates the data every time.
	inline, err := planner.Eval(ctx, htd.QueryRequest{Query: q, DB: snap.DB})
	if err != nil {
		log.Fatal(err)
	}
	if inline.Rows.Size() != after.Rows.Size() {
		log.Fatal("inline and dataset answers disagree — this is a bug")
	}

	st := planner.Stats()
	fmt.Printf("planner: %d queries (%d over datasets), %d plan-cache hits, %d index builds, %d reuses\n",
		st.Queries, st.DatasetQueries, st.PlanCacheHits, st.ExecIndexBuilds, st.ExecIndexReuses)
}
