package join

import (
	"maps"
	"slices"
	"sync"
)

// BagCache keeps the bags of one immutable database — one dataset
// snapshot — across evaluations: for a node whose λ holds two or more
// atoms, π_χ(⋈λ) is a function of the λ-atoms, χ and the data alone,
// so a warm query with the same plan need not join λ again. An entry
// is keyed by λ's atoms (relation and variables, in λ order) plus χ;
// semijoins with hosted atoms outside λ are not part of it and still
// run per query.
//
// A cached bag is a set carrying its own IndexSet, so the passes that
// probe it capture and later reuse its indexes as they do a base
// view's. What the cache keeps is bounded by the database it is built
// for: its bags never hold more rows than the database's relations do,
// and a bag past that bound is used by the query that built it but not
// kept. Per row, a bag costs what a base view of its width costs: one
// cell per χ variable, and an IndexSet of at most maxIndexSets indexes,
// each linear in the bag's rows, as a base view's is. A bag can be
// wider than the relations it joins, so the cache can hold more cells
// than the data by the ratio of the widths (a χ of three variables over
// binary relations: 1.5 times).
//
// A cache outlives its database's version through Carry: the next
// version's cache starts from this one's bags, each carried as is,
// maintained by the batch's delta or dropped. Retire then empties the
// superseded cache for good.
//
// A BagCache is safe for concurrent use by any number of executors.
type BagCache struct {
	db      Database
	mu      sync.Mutex
	limit   int
	rows    int
	retired bool
	m       map[string]*cachedBag
}

// cachedBag is one cached π_χ(⋈λ).
type cachedBag struct {
	rel *Relation
	// peak is the largest λ-join result of the cold build, so a hit
	// fails a row budget exactly when the cold build would have.
	peak int
	// lambda is λ's atoms, in λ order.
	lambda []Atom
	// m maintains rel across versions once a batch changed one of its
	// relations (Carry); nil until then.
	m *MRel
}

// NewBagCache returns an empty cache for db's bags that keeps at most
// as many rows as db's relations hold.
func NewBagCache(db Database) *BagCache {
	c := &BagCache{db: db, m: map[string]*cachedBag{}}
	for _, rel := range db {
		c.limit += rel.Size()
	}
	return c
}

// lookup returns the cached bag for key, nil on a miss.
func (c *BagCache) lookup(key string) *cachedBag {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.m[key]
}

// store publishes b under key and returns the bag to use. When a
// concurrent executor stored the key first, its bag wins, so every
// query at this snapshot probes one relation and one IndexSet. Past
// the row limit, or once retired, b is returned unstored.
func (c *BagCache) store(key string, b *cachedBag) *cachedBag {
	c.mu.Lock()
	defer c.mu.Unlock()
	if prior, ok := c.m[key]; ok {
		return prior
	}
	if !c.retired && c.rows+b.rel.Size() <= c.limit {
		c.m[key] = b
		c.rows += b.rel.Size()
	}
	return b
}

// Retire drops every entry and stops the cache from keeping new ones.
// Executors that already hold a cached bag finish with it; later
// evaluations over the same database run uncached.
func (c *BagCache) Retire() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.retired = true
	c.m = map[string]*cachedBag{}
	c.rows = 0
}

// Usage reports the cached bags and their total rows.
func (c *BagCache) Usage() (bags, rows int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m), c.rows
}

// Carry returns the bag cache of db, the version that follows c's
// database by one MRel.Commit of each relation deltas names (a relation
// it does not name is unchanged). The caller runs it under the lock
// that serialises the database's writes, before publishing db, and
// retires c afterwards. Each of c's bags is
//
//   - carried as is, the same relation and IndexSet, when no relation
//     of its λ changed;
//   - maintained when it is exactly the λ-join of two distinct
//     relations (χ = vars(λ), so no projection): it becomes an MRel,
//     the mechanism of a base relation, and takes the delta of
//     B = R ⋈ S: the rows whose R-part is in R⁻ or whose S-part is in
//     S⁻ go, and R⁺ ⋈ S' and (R' − R⁺) ⋈ S⁺ come in. Its peak is its
//     new size, the size of the one join a cold build runs;
//   - dropped otherwise — a projected bag (a delete would need counts),
//     a self-join or a λ of three or more atoms — for the next query
//     to build.
//
// The new cache's row limit is db's live tuple count, and bags are
// carried in key order while they fit it.
func (c *BagCache) Carry(db Database, deltas map[string]Delta) *BagCache {
	next := NewBagCache(db)
	c.mu.Lock()
	keys := slices.Sorted(maps.Keys(c.m))
	bags := make([]*cachedBag, len(keys))
	for i, key := range keys {
		bags[i] = c.m[key]
	}
	c.mu.Unlock()
	for i, b := range bags {
		for _, a := range b.lambda {
			if !deltas[a.Relation].empty() {
				b = b.maintain(c.db, db, deltas)
				break
			}
		}
		if b != nil {
			next.store(keys[i], b)
		}
	}
	return next
}

// maintain returns b, a bag over old, brought to db by the delta rule,
// or nil when b is not exactly the λ-join of two distinct relations.
func (b *cachedBag) maintain(old, db Database, deltas map[string]Delta) *cachedBag {
	if len(b.lambda) != 2 || b.lambda[0].Relation == b.lambda[1].Relation {
		return nil
	}
	var side [2]struct {
		old, new *Relation
		d        Delta
		shared   []int // columns of the join variables, paired across sides
	}
	for k, a := range b.lambda {
		side[k].old, side[k].new, side[k].d = old[a.Relation], db[a.Relation], deltas[a.Relation]
	}
	r, s := b.lambda[0], b.lambda[1]
	for i, v := range r.Vars {
		if j := slices.Index(s.Vars, v); j >= 0 {
			side[0].shared = append(side[0].shared, i)
			side[1].shared = append(side[1].shared, j)
		}
	}
	// A bag's columns are χ ⊆ vars(λ); as many as vars(λ), they are an
	// unprojected λ-join, each column read from one side's.
	if len(b.rel.Attrs) != len(r.Vars)+len(s.Vars)-len(side[0].shared) {
		return nil
	}
	from := make([][2]int, len(b.rel.Attrs))
	for c, v := range b.rel.Attrs {
		if i := slices.Index(r.Vars, v); i >= 0 {
			from[c] = [2]int{0, i}
		} else {
			from[c] = [2]int{1, slices.Index(s.Vars, v)}
		}
	}
	// rows appends the bag tuple of every pair of rel[k] row i and a
	// row of rel[1-k] whose join columns match it, among those below
	// limit (all when limit < 0).
	rows := func(out [][]int, k int, rels [2]*Relation, i, limit int) [][]int {
		o := 1 - k
		for _, ly := range stackOn(rels[o], side[o].shared) {
			for _, j := range ly.probeRow(rels[k], side[k].shared, i) {
				if limit >= 0 && int(j) >= limit {
					continue
				}
				row := [2]int{}
				row[k], row[o] = i, int(j)
				vals := make([]int, len(from))
				for c, f := range from {
					vals[c] = rels[f[0]].at(row[f[0]], f[1])
				}
				out = append(out, vals)
			}
		}
		return out
	}
	prev := [2]*Relation{side[0].old, side[1].old}
	cur := [2]*Relation{side[0].new, side[1].new}
	var del, ins [][]int
	for k := range side {
		for _, i := range side[k].d.minus {
			del = rows(del, k, prev, int(i), -1)
		}
	}
	// R⁺ ⋈ S', then (R' − R⁺) ⋈ S⁺: the inserted rows are each
	// relation's last ones.
	rPlus := cur[0].n - side[0].d.plus
	for i := rPlus; i < cur[0].n; i++ {
		ins = rows(ins, 0, cur, i, -1)
	}
	for j := cur[1].n - side[1].d.plus; j < cur[1].n; j++ {
		ins = rows(ins, 1, cur, j, rPlus)
	}
	m := b.m
	if m == nil {
		m = maintainedBag(b.rel)
	}
	// Arity is right by construction, so neither call can fail.
	m.Delete(del)
	m.Insert(ins)
	m.Commit()
	return &cachedBag{rel: m.View(), peak: m.View().Size(), lambda: b.lambda, m: m}
}

// stackOn returns the index layers of rel, a dataset view, on cols: its
// IndexSet's, or one fresh index captured into the IndexSet, so that
// the view's next commit maintains it.
func stackOn(rel *Relation, cols []int) []*hashIndex {
	if stack := rel.indexes.lookup(cols); stack != nil {
		return stack
	}
	// A nil guard cannot fail buildIndexCols.
	ix, _ := buildIndexCols(rel, cols, 0, rel.n, nil)
	return rel.indexes.store(cols, []*hashIndex{ix})
}

// bagKey encodes λ's atoms, in λ order, and χ injectively: every name
// is length-prefixed and every list count-prefixed.
func bagKey(q Query, lambda []int, chi []string) string {
	b := appendKeyVal(nil, uint64(len(lambda)))
	for _, eid := range lambda {
		a := q.Atoms[eid]
		b = appendKeyString(b, a.Relation)
		b = appendKeyStrings(b, a.Vars)
	}
	return string(appendKeyStrings(b, chi))
}

func appendKeyStrings(dst []byte, ss []string) []byte {
	dst = appendKeyVal(dst, uint64(len(ss)))
	for _, s := range ss {
		dst = appendKeyString(dst, s)
	}
	return dst
}

func appendKeyString(dst []byte, s string) []byte {
	return append(appendKeyVal(dst, uint64(len(s))), s...)
}
