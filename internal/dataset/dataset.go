package dataset

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"

	"repro/internal/join"
)

// Sentinel errors the HTTP layer maps to statuses.
var (
	// ErrNotFound: no dataset with that name for the tenant.
	ErrNotFound = errors.New("dataset: not found")
	// ErrVersionGone: the pinned version existed but fell out of the
	// retention window (or the dataset was replaced) — re-resolve,
	// don't guess: serving newer rows under an old pin would be wrong.
	ErrVersionGone = errors.New("dataset: version evicted from retention window")
	// ErrFutureVersion: the pinned version has not been produced yet.
	ErrFutureVersion = errors.New("dataset: version is ahead of the dataset")
	// ErrLimit: a registry or tuple budget would be exceeded.
	ErrLimit = errors.New("dataset: limit exceeded")
)

// Config bounds a Registry.
type Config struct {
	// MaxDatasets caps datasets per registry (all tenants combined).
	MaxDatasets int
	// MaxTuples caps live tuples per dataset across its relations.
	MaxTuples int
	// Retain is how many recent versions stay resolvable for pinned
	// reads (the current version included).
	Retain int
}

func (c Config) withDefaults() Config {
	if c.MaxDatasets <= 0 {
		c.MaxDatasets = 64
	}
	if c.MaxTuples <= 0 {
		c.MaxTuples = 2_000_000
	}
	if c.Retain <= 0 {
		c.Retain = 4
	}
	return c
}

// Mutation is one NDJSON delta line: an insert or delete of a tuple
// batch against one relation. Ops inside a batch apply sequentially —
// a delete sees tuples inserted earlier in the same batch.
type Mutation struct {
	Op   string  `json:"op"` // "insert" | "delete"
	Rel  string  `json:"rel"`
	Rows [][]int `json:"rows"`
}

// DecodeBatch reads one mutation batch in its wire form: NDJSON
// Mutation lines (any JSON whitespace between values). The error of a
// malformed line wraps the reader's or the decoder's own, so a caller
// can tell an oversized body from bad JSON.
func DecodeBatch(r io.Reader) ([]Mutation, error) {
	var batch []Mutation
	dec := json.NewDecoder(r)
	for {
		var m Mutation
		if err := dec.Decode(&m); err == io.EOF {
			return batch, nil
		} else if err != nil {
			return nil, fmt.Errorf("invalid mutation line: %w", err)
		}
		batch = append(batch, m)
	}
}

// MutationResult reports one committed batch. Deduped counts inserts
// skipped because the tuple was already live (relations are sets);
// Missed counts deletes of tuples that were not live — a no-op, not an
// error. Compacted reports whether tombstoned rows were compacted out.
type MutationResult struct {
	Version   uint64 `json:"version"`
	Inserted  int    `json:"inserted"`
	Deduped   int    `json:"deduped"`
	Deleted   int    `json:"deleted"`
	Missed    int    `json:"missed"`
	Compacted bool   `json:"compacted"`
}

// Snapshot is one immutable published version: queries evaluate over
// DB while writers advance the dataset past it. Bags is the version's
// own bag cache (join.EvalOptions.Bags): it keeps at most as many rows
// as the version has live tuples. A mutation carries its bags into the
// next version's cache (join.BagCache.Carry) and then retires it, so
// pinned reads of older versions run uncached; a replacement starts
// the new version's cache empty.
type Snapshot struct {
	Version uint64
	DB      join.Database
	Bags    *join.BagCache
}

// RelInfo describes one relation of a dataset version.
type RelInfo struct {
	Attrs []string `json:"attrs"`
	Rows  int      `json:"rows"`
}

// Info is the metadata view of a dataset (GET /data/{name}).
type Info struct {
	Name      string             `json:"name"`
	Version   uint64             `json:"version"`
	Tuples    int                `json:"tuples"`
	Relations map[string]RelInfo `json:"relations"`
	Queries   int64              `json:"queries"`
	Mutations int64              `json:"mutations"`
}

// Dataset is one named, versioned database. Mutation batches serialise
// on mu; resolved snapshots are immutable and read lock-free.
type Dataset struct {
	name   string
	tenant string

	mu        sync.Mutex
	version   uint64
	rels      map[string]*join.MRel
	snaps     []Snapshot // ascending versions, current last, ≤ retain
	retain    int
	maxTuples int
	queries   int64 // snapshots handed out by Registry.Resolve
	mutations int64
	// dropped marks a dataset Drop removed and whose counters it folded
	// into the registry's totals; it resolves and mutates as not found.
	dropped bool
}

// Registry is the tenant-namespaced dataset registry one service owns.
type Registry struct {
	cfg Config

	mu    sync.Mutex
	byKey map[string]*Dataset
	// dropped sums the counters of dropped datasets, so the registry's
	// totals never go backwards.
	dropped Stats
}

// NewRegistry returns an empty registry.
func NewRegistry(cfg Config) *Registry {
	cfg = cfg.withDefaults()
	return &Registry{
		cfg:   cfg,
		byKey: make(map[string]*Dataset),
	}
}

func key(tenant, name string) string { return tenant + "\x00" + name }

func validName(name string) error {
	if name == "" || len(name) > 128 {
		return fmt.Errorf("dataset: name must be 1..128 bytes")
	}
	for i := 0; i < len(name); i++ {
		if name[i] < 0x20 || name[i] == 0x7f {
			return fmt.Errorf("dataset: name contains control bytes")
		}
	}
	return nil
}

// Put creates or replaces tenant's dataset name with db's tuples,
// returning the new version. A replacement continues the old version
// counter (monotonicity survives replacement) and evicts every prior
// pinnable version — the old data is gone, and ErrVersionGone beats
// silently serving rows from a different upload.
func (g *Registry) Put(tenant, name string, db join.Database) (uint64, error) {
	if err := validName(name); err != nil {
		return 0, err
	}
	// The cap counts the distinct tuples the dataset will hold, so the
	// maintained relations (which drop duplicates) are built first.
	rels := make(map[string]*join.MRel, len(db))
	total := 0
	for rname, rel := range db {
		m := join.NewMRel(rel)
		rels[rname] = m
		total += m.LiveSize()
	}
	if total > g.cfg.MaxTuples {
		return 0, fmt.Errorf("%w: %d tuples > per-dataset cap %d", ErrLimit, total, g.cfg.MaxTuples)
	}

	g.mu.Lock()
	d, ok := g.byKey[key(tenant, name)]
	if !ok {
		if len(g.byKey) >= g.cfg.MaxDatasets {
			g.mu.Unlock()
			return 0, fmt.Errorf("%w: registry holds %d datasets", ErrLimit, len(g.byKey))
		}
		d = &Dataset{
			name:      name,
			tenant:    tenant,
			rels:      make(map[string]*join.MRel),
			retain:    g.cfg.Retain,
			maxTuples: g.cfg.MaxTuples,
		}
		g.byKey[key(tenant, name)] = d
	}
	g.mu.Unlock()

	d.mu.Lock()
	defer d.mu.Unlock()
	d.rels = rels
	for _, s := range d.snaps {
		s.Bags.Retire()
	}
	d.version++
	d.snaps = []Snapshot{d.publishLocked(nil, nil)}
	return d.version, nil
}

// Get returns tenant's dataset name.
func (g *Registry) Get(tenant, name string) (*Dataset, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	d, ok := g.byKey[key(tenant, name)]
	return d, ok
}

// Drop removes tenant's dataset name, reporting whether it existed.
// In-flight queries holding its snapshots finish unaffected — storage
// lives as long as any snapshot references it.
func (g *Registry) Drop(tenant, name string) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	k := key(tenant, name)
	d, ok := g.byKey[k]
	if !ok {
		return false
	}
	delete(g.byKey, k)
	d.mu.Lock()
	d.dropped = true
	g.dropped.Queries += d.queries
	g.dropped.Mutations += d.mutations
	d.mu.Unlock()
	return true
}

// List returns tenant's datasets, name-sorted.
func (g *Registry) List(tenant string) []Info {
	g.mu.Lock()
	var ds []*Dataset
	for _, d := range g.byKey {
		if d.tenant == tenant {
			ds = append(ds, d)
		}
	}
	g.mu.Unlock()
	out := make([]Info, 0, len(ds))
	for _, d := range ds {
		out = append(out, d.Info())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Resolve returns the snapshot of tenant's dataset name at version
// (0 = current) and counts the read as one dataset query.
func (g *Registry) Resolve(tenant, name string, version uint64) (Snapshot, error) {
	d, ok := g.Get(tenant, name)
	if !ok {
		return Snapshot{}, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.dropped {
		return Snapshot{}, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	snap, err := d.atLocked(version)
	if err == nil {
		d.queries++
	}
	return snap, err
}

// Stats aggregates registry-wide counters for /stats. Queries and
// Mutations include those of dropped datasets, so they never decrease.
type Stats struct {
	Datasets  int   `json:"datasets"`
	Queries   int64 `json:"queries"`
	Mutations int64 `json:"mutations"`
}

// Stats returns registry-wide totals.
func (g *Registry) Stats() Stats {
	g.mu.Lock()
	st := g.dropped
	st.Datasets = len(g.byKey)
	ds := make([]*Dataset, 0, len(g.byKey))
	for _, d := range g.byKey {
		ds = append(ds, d)
	}
	g.mu.Unlock()
	for _, d := range ds {
		d.mu.Lock()
		st.Queries += d.queries
		st.Mutations += d.mutations
		d.mu.Unlock()
	}
	return st
}

// publishLocked builds the current version's snapshot from the current
// views. Its bag cache, bounded by its live tuple count, is carried from
// prev, the previous version's, by the commits' deltas, or starts empty
// when prev is nil. Caller holds d.mu.
func (d *Dataset) publishLocked(prev *join.BagCache, deltas map[string]join.Delta) Snapshot {
	db := make(join.Database, len(d.rels))
	for name, m := range d.rels {
		db[name] = m.View()
	}
	bags := join.NewBagCache(db)
	if prev != nil {
		bags = prev.Carry(db, deltas)
	}
	return Snapshot{Version: d.version, DB: db, Bags: bags}
}

// atLocked resolves version (0 = current) to its snapshot. Evicted
// versions return ErrVersionGone, unproduced ones ErrFutureVersion —
// never a silently different version's rows. Caller holds d.mu.
func (d *Dataset) atLocked(version uint64) (Snapshot, error) {
	if len(d.snaps) == 0 {
		return Snapshot{}, fmt.Errorf("%w: %q has no published version", ErrNotFound, d.name)
	}
	if version == 0 || version == d.version {
		return d.snaps[len(d.snaps)-1], nil
	}
	if version > d.version {
		return Snapshot{}, fmt.Errorf("%w: pinned %d, current %d", ErrFutureVersion, version, d.version)
	}
	for _, s := range d.snaps {
		if s.Version == version {
			return s, nil
		}
	}
	return Snapshot{}, fmt.Errorf("%w: pinned %d, retained [%d, %d]",
		ErrVersionGone, version, d.snaps[0].Version, d.version)
}

// Mutate applies one delta batch as one version bump. The whole batch
// is validated before anything applies — an invalid op leaves the
// dataset untouched at its old version. Within the batch, ops apply
// sequentially with set semantics (see MutationResult).
func (d *Dataset) Mutate(batch []Mutation) (MutationResult, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.dropped {
		return MutationResult{}, fmt.Errorf("%w: %q", ErrNotFound, d.name)
	}

	adds := 0
	live := 0
	for _, m := range d.rels {
		live += m.LiveSize()
	}
	for i, op := range batch {
		if op.Op != "insert" && op.Op != "delete" {
			return MutationResult{}, fmt.Errorf("dataset: op %d: unknown op %q (want insert or delete)", i, op.Op)
		}
		m, ok := d.rels[op.Rel]
		if !ok {
			return MutationResult{}, fmt.Errorf("dataset: op %d: unknown relation %q", i, op.Rel)
		}
		arity := len(m.View().Attrs)
		for _, row := range op.Rows {
			if len(row) != arity {
				return MutationResult{}, fmt.Errorf("dataset: op %d: tuple arity %d != relation %q arity %d",
					i, len(row), op.Rel, arity)
			}
		}
		if op.Op == "insert" {
			adds += len(op.Rows)
		}
	}
	if live+adds > d.maxTuples {
		if after := d.liveAfter(live, batch); after > d.maxTuples {
			return MutationResult{}, fmt.Errorf("%w: %d live after the batch > per-dataset cap %d",
				ErrLimit, after, d.maxTuples)
		}
	}

	var res MutationResult
	touched := make(map[string]*join.MRel)
	for _, op := range batch {
		m := d.rels[op.Rel]
		touched[op.Rel] = m
		if op.Op == "insert" {
			ins, dups, err := m.Insert(op.Rows)
			res.Inserted += ins
			res.Deduped += dups
			if err != nil {
				// Unreachable after validation; surface rather than hide.
				return MutationResult{}, err
			}
		} else {
			del, missed, err := m.Delete(op.Rows)
			res.Deleted += del
			res.Missed += missed
			if err != nil {
				return MutationResult{}, err
			}
		}
	}
	deltas := make(map[string]join.Delta, len(touched))
	for name, m := range touched {
		if m.Commit() {
			res.Compacted = true
		}
		deltas[name] = m.LastDelta()
	}
	var prev *join.BagCache
	if n := len(d.snaps); n > 0 {
		// A concurrent first Put may not have published yet.
		prev = d.snaps[n-1].Bags
	}
	d.version++
	d.mutations++
	res.Version = d.version
	d.snaps = append(d.snaps, d.publishLocked(prev, deltas))
	if prev != nil {
		prev.Retire()
	}
	if len(d.snaps) > d.retain {
		d.snaps = d.snaps[len(d.snaps)-d.retain:]
	}
	return res, nil
}

// liveAfter counts the dataset's live tuples after batch applies, from
// live before it: ops run in order with set semantics, so an insert of
// a live tuple and a delete of an absent one change nothing. Nothing
// is applied. Caller holds d.mu and has validated the batch.
func (d *Dataset) liveAfter(live int, batch []Mutation) int {
	type tuple struct{ rel, vals string }
	state := make(map[tuple]bool) // tuples the batch touched: live or not
	for _, op := range batch {
		m := d.rels[op.Rel]
		for _, row := range op.Rows {
			k := tuple{op.Rel, fmt.Sprint(row)}
			has, seen := state[k]
			if !seen {
				has = m.Has(row)
			}
			insert := op.Op == "insert"
			if insert && !has {
				live++
			} else if !insert && has {
				live--
			}
			state[k] = insert
		}
	}
	return live
}

// Info returns the dataset's metadata at its current version.
func (d *Dataset) Info() Info {
	d.mu.Lock()
	defer d.mu.Unlock()
	info := Info{
		Name:      d.name,
		Version:   d.version,
		Relations: make(map[string]RelInfo, len(d.rels)),
		Queries:   d.queries,
		Mutations: d.mutations,
	}
	for name, m := range d.rels {
		v := m.View()
		info.Relations[name] = RelInfo{Attrs: v.Attrs, Rows: v.Size()}
		info.Tuples += v.Size()
	}
	return info
}
