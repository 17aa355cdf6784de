package query

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/join"
)

// mirrorDB is the from-scratch reference state: per relation, the set
// of live tuples, maintained by replaying every delta with plain map
// operations — no shared code with the incremental path.
type mirrorDB map[string]map[string][]int

func newMirror(db join.Database) mirrorDB {
	m := mirrorDB{}
	for name, rel := range db {
		rows := map[string][]int{}
		for _, row := range rel.Rows() {
			rows[rowKey(row)] = row
		}
		m[name] = rows
	}
	return m
}

func rowKey(row []int) string {
	var b strings.Builder
	for _, v := range row {
		fmt.Fprintf(&b, "%d,", v)
	}
	return b.String()
}

// apply replays one mutation batch onto the mirror with set semantics:
// ops apply sequentially, inserts of live tuples and deletes of absent
// tuples are no-ops.
func (m mirrorDB) apply(batch []dataset.Mutation) {
	for _, mu := range batch {
		for _, row := range mu.Rows {
			k := rowKey(row)
			if mu.Op == "insert" {
				m[mu.Rel][k] = append([]int(nil), row...)
			} else {
				delete(m[mu.Rel], k)
			}
		}
	}
}

// materialise builds a fresh database from the mirror — the
// from-scratch state an incremental evaluation must match exactly.
func (m mirrorDB) materialise(db join.Database) join.Database {
	out := join.Database{}
	for name, rel := range db {
		fresh := join.NewRelation(rel.Attrs...)
		keys := make([]string, 0, len(m[name]))
		for k := range m[name] {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fresh.Add(m[name][k]...)
		}
		out[name] = fresh
	}
	return out
}

// randomBatch builds one random delta batch against the mirror's
// current state: inserts of fresh random tuples, deletes of currently
// live tuples, and deletes of tuples that were never inserted (no-ops
// the set semantics must absorb).
func randomBatch(r *rand.Rand, db join.Database, m mirrorDB, domain int) []dataset.Mutation {
	names := make([]string, 0, len(db))
	for name := range db {
		names = append(names, name)
	}
	sort.Strings(names)
	var batch []dataset.Mutation
	for _, name := range names {
		arity := len(db[name].Attrs)
		var ins [][]int
		for n := 1 + r.Intn(3); n > 0; n-- {
			row := make([]int, arity)
			for j := range row {
				row[j] = r.Intn(domain)
			}
			ins = append(ins, row)
		}
		batch = append(batch, dataset.Mutation{Op: "insert", Rel: name, Rows: ins})

		var del [][]int
		// Delete up to two live tuples (sorted iteration keeps the
		// batch deterministic in r).
		keys := make([]string, 0, len(m[name]))
		for k := range m[name] {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for n := r.Intn(3); n > 0 && len(keys) > 0; n-- {
			i := r.Intn(len(keys))
			del = append(del, append([]int(nil), m[name][keys[i]]...))
			keys = append(keys[:i], keys[i+1:]...)
		}
		// And sometimes a tuple outside the domain — never inserted,
		// so the delete must be a counted miss, not an error.
		if r.Intn(2) == 0 {
			row := make([]int, arity)
			for j := range row {
				row[j] = domain + 10 + r.Intn(5)
			}
			del = append(del, row)
		}
		if len(del) > 0 {
			batch = append(batch, dataset.Mutation{Op: "delete", Rel: name, Rows: del})
		}
	}
	return batch
}

// TestDifferentialIncremental is the incrementality wall: on seeded
// random instances registered as named datasets, a random sequence of
// insert+delete batches is applied, and after every batch the
// dataset-reference evaluation (delta-maintained indexes, snapshot
// reads) must byte-equal both an inline evaluation over the
// materialised from-scratch state and the naive cross-join baseline —
// rows and aggregates. Each version's
// row query runs twice, so the repeat reads the version's bag cache.
// Old versions stay pinnable within the retention window and answer
// with their own rows.
func TestDifferentialIncremental(t *testing.T) {
	const (
		seeds  = 50
		rounds = 4
		domain = 4
	)
	p, svc := newTestPlanner(t)
	reg := svc.Datasets()
	ctx := context.Background()

	var wg sync.WaitGroup
	errs := make(chan error, seeds*rounds)
	sem := make(chan struct{}, 8)
	for seed := 0; seed < seeds; seed++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()

			fail := func(format string, args ...any) {
				errs <- fmt.Errorf("seed %d: %s", seed, fmt.Sprintf(format, args...))
			}
			r := rand.New(rand.NewSource(int64(seed)))
			q, db := RandomInstance(r, GenConfig{Domain: domain})
			name := fmt.Sprintf("incr-%d", seed)
			if _, err := reg.Put("", name, db); err != nil {
				fail("put: %v", err)
				return
			}
			mirror := newMirror(db)
			d, _ := reg.Get("", name)

			// wantByVersion remembers each version's canonical rows for
			// the pinned reads below.
			wantByVersion := map[uint64]*join.Relation{}
			if w, err := naiveCanonical(q, db); err == nil {
				wantByVersion[1] = w
			} else {
				fail("naive: %v", err)
				return
			}

			for round := 0; round < rounds; round++ {
				batch := randomBatch(r, db, mirror, domain)
				res, err := d.Mutate(batch)
				if err != nil {
					fail("round %d mutate: %v", round, err)
					return
				}
				if res.Version != uint64(round)+2 {
					fail("round %d: version %d, want %d", round, res.Version, round+2)
					return
				}
				mirror.apply(batch)
				scratch := mirror.materialise(db)

				want, err := naiveCanonical(q, scratch)
				if err != nil {
					fail("round %d naive: %v", round, err)
					return
				}
				wantByVersion[res.Version] = want

				incr, err := p.Eval(ctx, Request{Query: q, Dataset: name})
				if err != nil {
					fail("round %d incremental eval: %v", round, err)
					return
				}
				if incr.DatasetVersion != res.Version {
					fail("round %d: read version %d, want %d", round, incr.DatasetVersion, res.Version)
					return
				}
				if !reflect.DeepEqual(incr.Rows.Rows(), want.Rows()) {
					fail("round %d: incremental rows diverge from from-scratch naive\nquery: %s\nincremental %d rows, want %d",
						round, join.FormatQuery(q), incr.Rows.Size(), want.Size())
					return
				}
				// The repeat reads the version's bag cache on the row path.
				again, err := p.Eval(ctx, Request{Query: q, Dataset: name})
				if err != nil {
					fail("round %d repeat eval: %v", round, err)
					return
				}
				if !reflect.DeepEqual(again.Rows.Rows(), want.Rows()) {
					fail("round %d: repeat rows diverge from from-scratch naive\nquery: %s\nrepeat %d rows, want %d",
						round, join.FormatQuery(q), again.Rows.Size(), want.Size())
					return
				}
				// The inline evaluation over the materialised state must
				// agree too (it exercises the planner path end to end).
				scratchRes, err := p.Eval(ctx, Request{Query: q, DB: scratch})
				if err != nil {
					fail("round %d scratch eval: %v", round, err)
					return
				}
				if !reflect.DeepEqual(incr.Rows.Rows(), scratchRes.Rows.Rows()) {
					fail("round %d: incremental and from-scratch planner rows differ", round)
					return
				}

				// Aggregate form: pushdown over the maintained snapshot vs
				// the naive fold over the materialised rows.
				spec := aggSweep(q)[round%2]
				aggIncr, err := p.Eval(ctx, Request{Query: q, Dataset: name, Aggregate: &spec})
				if err != nil {
					fail("round %d incremental agg: %v", round, err)
					return
				}
				aggWant, err := join.AggregateRows(want, spec)
				if err != nil {
					fail("round %d agg fold: %v", round, err)
					return
				}
				if !reflect.DeepEqual(*aggIncr.Agg, aggWant) {
					fail("round %d: incremental aggregate diverges: %+v vs %+v", round, *aggIncr.Agg, aggWant)
					return
				}
			}

			// Pinned reads: every retained version answers with its own
			// rows; versions past the retention window are a clear error.
			current := d.Info().Version
			for v := uint64(1); v <= current; v++ {
				res, err := p.Eval(ctx, Request{Query: q, Dataset: name, AtVersion: v})
				if err != nil {
					if errors.Is(err, dataset.ErrVersionGone) {
						continue // evicted: the clear error, never wrong rows
					}
					fail("pin v%d: %v", v, err)
					return
				}
				if res.DatasetVersion != v {
					fail("pin v%d: answered from version %d", v, res.DatasetVersion)
					return
				}
				if !reflect.DeepEqual(res.Rows.Rows(), wantByVersion[v].Rows()) {
					fail("pin v%d: rows differ from that version's materialised state", v)
					return
				}
			}
			if _, err := p.Eval(ctx, Request{Query: q, Dataset: name, AtVersion: current + 10}); !errors.Is(err, dataset.ErrFutureVersion) {
				fail("future pin: err = %v, want ErrFutureVersion", err)
			}
		}(seed)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	st := p.Stats()
	if st.DatasetQueries == 0 {
		t.Fatalf("no dataset queries counted: %+v", st)
	}
	if st.ExecIndexReuses == 0 {
		t.Fatalf("incremental evaluations never reused a maintained index: %+v", st)
	}
	if st.ExecBagReuses == 0 {
		t.Fatalf("incremental evaluations never reused a cached bag: %+v", st)
	}
	if rst := reg.Stats(); rst.Mutations != seeds*rounds {
		t.Fatalf("registry counted %d mutations, want %d", rst.Mutations, seeds*rounds)
	}
}
