package join

import "sync"

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
// binary relations: 1.5 times). Retire empties the cache for good once
// its database is superseded.
//
// A BagCache is safe for concurrent use by any number of executors.
type BagCache struct {
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
}

// NewBagCache returns an empty cache for db's bags that keeps at most
// as many rows as db's relations hold.
func NewBagCache(db Database) *BagCache {
	c := &BagCache{m: map[string]*cachedBag{}}
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
