package main

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strconv"
	"time"

	htd "repro"
	"repro/internal/harness"
	"repro/internal/join"
)

// execInstance is one query+database+plan triple of the executor
// benchmark.
type execInstance struct {
	name string
	q    join.Query
	db   join.Database
	d    *htd.Decomposition
}

// execExperiment measures the two executor configurations per
// workload bucket over identical pre-computed plans:
//
//   - indexed: the hash-indexed executor, serial — build-once indexes
//     on the shared variables of each join-tree edge;
//   - parallel: the same executor with a worker pool — sibling
//     subtrees and large final-join probe loops run concurrently.
//
// Plans are decomposed once up front, so the numbers isolate execution;
// the parallel rows are checked byte-identical to the serial ones
// before anything is reported. (The serial executor's byte-identity
// with the slice-scan reference is a unit test, TestKernelsByteIdentical
// in internal/join.) With -benchjson the measurements are written as a
// benchmark JSON artifact.
func execExperiment(ctx context.Context, cfg harness.Config, jsonPath string) (*harness.Table, error) {
	type bucket struct {
		name string
		gen  func() []execInstance
	}
	// Domains are sized so the per-step join expansion factor stays ≤ 1
	// (answers bounded near the relation size) — the cost is semijoin
	// and probe volume, not an exploding output.
	buckets := []bucket{
		{"chain 3 atoms", func() []execInstance { return chainInstances(3, 8, 5000, 5000) }},
		{"star 6 atoms", func() []execInstance { return starInstances(6, 6, 800, 400) }},
		// Cycle bags join non-adjacent λ edges (a cross product before
		// projection), so the relation size is kept modest.
		{"cycle 6 atoms", func() []execInstance { return cycleInstances(6, 6, 800, 400) }},
		{"chain 8 atoms", func() []execInstance { return chainInstances(8, 5, 4000, 8000) }},
	}

	parallelism := cfg.Workers
	if parallelism < 4 {
		// Exercise the worker pool even on small hosts; oversubscription
		// is part of what the differential wall must survive.
		parallelism = 4
	}
	kernels := []struct {
		name string
		opts join.EvalOptions
	}{
		{"indexed", join.EvalOptions{}},
		{"parallel", join.EvalOptions{Parallelism: parallelism}},
	}

	out := benchFile{
		Experiment:  "exec",
		GeneratedBy: "cmd/benchtab",
		KMax:        cfg.KMax,
		Timestamp:   time.Now().UTC().Format(time.RFC3339),
	}
	t := &harness.Table{
		Title: "Executor: serial vs parallel indexed Yannakakis",
		Headers: []string{"Bucket", "N", "rows",
			"indexed-ms", "parallel-ms", "par-speedup"},
	}

	var totalMS [2]float64
	totalN := 0
	for _, b := range buckets {
		instances := b.gen()
		for i := range instances {
			h, err := instances[i].q.Hypergraph()
			if err != nil {
				return nil, fmt.Errorf("bucket %s: %w", b.name, err)
			}
			_, d, ok, err := htd.OptimalWidth(ctx, h, cfg.KMax)
			if err != nil || !ok {
				return nil, fmt.Errorf("bucket %s %s: no plan (ok=%v err=%v)", b.name, instances[i].name, ok, err)
			}
			instances[i].d = d
		}

		var ms [2]float64
		var rows int64
		var reference []*join.Relation
		for ki, k := range kernels {
			start := time.Now()
			var kernelRows int64
			results := make([]*join.Relation, len(instances))
			for i, in := range instances {
				res, err := join.EvaluateCtx(ctx, in.q, in.db, in.d, k.opts)
				if err != nil {
					return nil, fmt.Errorf("bucket %s %s kernel %s: %w", b.name, in.name, k.name, err)
				}
				results[i] = res
				kernelRows += int64(res.Size())
			}
			ms[ki] = float64(time.Since(start)) / float64(time.Millisecond)
			if ki == 0 {
				reference = results
				rows = kernelRows
			} else {
				// The wall: the parallel executor must reproduce the
				// serial answer byte for byte, tuple order included.
				for i := range results {
					if !reflect.DeepEqual(results[i].Attrs, reference[i].Attrs) ||
						!reflect.DeepEqual(results[i].Rows(), reference[i].Rows()) {
						return nil, fmt.Errorf("bucket %s %s: kernel %s diverged from the serial executor",
							b.name, instances[i].name, k.name)
					}
				}
			}
		}

		n := len(instances)
		totalN += n
		for ki := range kernels {
			totalMS[ki] += ms[ki]
			notes := map[string]string{
				"indexed": "hash-indexed executor, serial: build-once indexes per join-tree edge",
				"parallel": fmt.Sprintf("indexed executor, %d workers: concurrent sibling subtrees + partitioned final joins; %.2fx vs serial",
					parallelism, ms[0]/ms[1]),
			}[kernels[ki].name]
			out.Benchmarks = append(out.Benchmarks, benchEntry{
				Name:    "exec-" + kernels[ki].name + "/" + b.name,
				NsPerOp: ms[ki] * 1e6 / float64(n),
				Ops:     n, Solved: n, WallMS: ms[ki],
				Workers: parallelism, Rounds: 1,
				Notes: notes,
			})
		}
		t.AddRow(b.name, n, rows,
			fmt.Sprintf("%.1f", ms[0]), fmt.Sprintf("%.1f", ms[1]),
			fmt.Sprintf("%.2fx", ms[0]/ms[1]))
	}

	if totalN > 0 && totalMS[1] > 0 {
		out.Benchmarks = append(out.Benchmarks, benchEntry{
			Name:    "exec-speedup/suite",
			NsPerOp: totalMS[1] * 1e6 / float64(totalN),
			Ops:     totalN, Solved: totalN, WallMS: totalMS[1],
			Workers: parallelism, Rounds: 1,
			Notes: fmt.Sprintf("suite exec time: indexed %.1fms, parallel %.1fms = %.2fx parallel over serial",
				totalMS[0], totalMS[1], totalMS[0]/totalMS[1]),
		})
		t.AddRow("suite total", totalN, "-",
			fmt.Sprintf("%.1f", totalMS[0]), fmt.Sprintf("%.1f", totalMS[1]),
			fmt.Sprintf("%.2fx", totalMS[0]/totalMS[1]))
	}
	t.Notes = append(t.Notes,
		"identical pre-computed minimum-width plans for both configurations; times are execution only",
		"indexed: the hash-indexed executor, serial; parallel: the same executor on a worker pool",
		"parallel rows are verified byte-identical to the serial rows before anything is reported")

	if jsonPath != "" {
		if err := writeBenchJSON(jsonPath, out); err != nil {
			return nil, err
		}
		t.Notes = append(t.Notes, "benchmark JSON written to "+jsonPath)
	}
	return t, nil
}

// chainInstances builds path queries R0(x0,x1) ⋈ … ⋈ Rk-1(xk-1,xk):
// acyclic width-1 plans whose cost is pure semijoin+join volume.
func chainInstances(atoms, n, tuples, domain int) []execInstance {
	out := make([]execInstance, n)
	for i := range out {
		r := rand.New(rand.NewSource(int64(7000 + 100*atoms + i)))
		var q join.Query
		db := join.Database{}
		for a := 0; a < atoms; a++ {
			name := "R" + strconv.Itoa(a)
			rel := join.NewRelation("a", "b")
			for j := 0; j < tuples; j++ {
				rel.Add(r.Intn(domain), r.Intn(domain))
			}
			db[name] = rel
			q.Atoms = append(q.Atoms, join.Atom{Relation: name,
				Vars: []string{"x" + strconv.Itoa(a), "x" + strconv.Itoa(a+1)}})
		}
		out[i] = execInstance{name: fmt.Sprintf("chain%d-%d", atoms, i), q: q, db: db}
	}
	return out
}

// starInstances builds star queries C(x0) ⋈ A1(x0,y1) ⋈ … ⋈ Ak(x0,yk):
// the root bag has k sibling subtrees, the shape that exercises the
// parallel passes.
func starInstances(arms, n, centers, domain int) []execInstance {
	out := make([]execInstance, n)
	for i := range out {
		r := rand.New(rand.NewSource(int64(8000 + 100*arms + i)))
		var q join.Query
		db := join.Database{}
		c := join.NewRelation("a")
		for j := 0; j < centers; j++ {
			c.Add(j)
		}
		db["C"] = c
		q.Atoms = append(q.Atoms, join.Atom{Relation: "C", Vars: []string{"x0"}})
		for a := 1; a <= arms; a++ {
			name := "A" + strconv.Itoa(a)
			rel := join.NewRelation("a", "b")
			// ~2 matches per centre, so the answer grows with the arm
			// count without exploding.
			for j := 0; j < centers; j++ {
				rel.Add(j, r.Intn(domain))
				rel.Add(j, r.Intn(domain))
			}
			db[name] = rel
			q.Atoms = append(q.Atoms, join.Atom{Relation: name,
				Vars: []string{"x0", "y" + strconv.Itoa(a)}})
		}
		out[i] = execInstance{name: fmt.Sprintf("star%d-%d", arms, i), q: q, db: db}
	}
	return out
}

// cycleInstances builds cycle queries R0(x0,x1) ⋈ … ⋈ Rk-1(xk-1,x0):
// cyclic, width-2 plans whose bags join two relations each.
func cycleInstances(atoms, n, tuples, domain int) []execInstance {
	out := make([]execInstance, n)
	for i := range out {
		r := rand.New(rand.NewSource(int64(9000 + 100*atoms + i)))
		var q join.Query
		db := join.Database{}
		for a := 0; a < atoms; a++ {
			name := "R" + strconv.Itoa(a)
			rel := join.NewRelation("a", "b")
			for j := 0; j < tuples; j++ {
				rel.Add(r.Intn(domain), r.Intn(domain))
			}
			db[name] = rel
			q.Atoms = append(q.Atoms, join.Atom{Relation: name,
				Vars: []string{"x" + strconv.Itoa(a), "x" + strconv.Itoa((a+1)%atoms)}})
		}
		out[i] = execInstance{name: fmt.Sprintf("cycle%d-%d", atoms, i), q: q, db: db}
	}
	return out
}
