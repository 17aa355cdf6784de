package dataset

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"sync"

	"repro/internal/join"
	"repro/internal/store"
)

// ParseCache is the inline-database fix: `/query` requests that ship
// their database inline used to pay parse + index builds per request,
// N times over for N concurrent identical requests. The cache is
// content-addressed (hash of the database text) with two pieces:
//
//   - a small LRU of parsed databases, so repeat inline uploads of the
//     same text skip parsing entirely; cached relations are
//     deduplicated and carry an IndexSet, so index builds are captured
//     once and reused across queries — the same machinery dataset
//     snapshots use;
//   - a single-flight (mirroring the plan cache's solve coalescing):
//     concurrent identical uploads elect one parser, the rest share
//     its result.
//
// Cached relations are immutable: the parser built them, queries only
// read them, and the IndexSet synchronises its own capture writes.
type ParseCache struct {
	flight *store.Flight

	mu    sync.Mutex
	cap   int
	m     map[string]join.Database
	use   []string // LRU order, most recent last
	stats ParseCacheStats
}

// ParseCacheStats counts cache outcomes: Hits served from the LRU,
// Misses parsed fresh, Coalesced attached to a concurrent leader.
type ParseCacheStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Coalesced int64 `json:"coalesced"`
}

// NewParseCache returns a cache retaining up to capacity parsed
// databases.
func NewParseCache(capacity int) *ParseCache {
	return &ParseCache{
		flight: store.NewFlight(),
		cap:    capacity,
		m:      make(map[string]join.Database, capacity),
	}
}

type parseOutcome struct {
	db  join.Database
	err error
}

// Parse returns the parsed form of the inline database text, cached
// and coalesced. Parse errors are returned but never cached — a
// malformed upload should not poison the key for a later valid one
// (hash collisions aside, the same text always fails the same way;
// re-parsing it is just the unlucky path staying slow).
func (p *ParseCache) Parse(ctx context.Context, text string) (join.Database, error) {
	sum := sha256.Sum256([]byte(text))
	key := hex.EncodeToString(sum[:])

	if db := p.lookup(key); db != nil {
		return db, nil
	}

	val, leader, err := p.flight.Do(ctx, key, func() any {
		db, perr := join.ParseRelations(text)
		if perr != nil {
			return parseOutcome{err: perr}
		}
		// A relation carrying an IndexSet must be a set (see
		// EnableIndexReuse), so repeated tuples go before it gets one.
		for name, rel := range db {
			rel = rel.Dedup()
			rel.EnableIndexReuse()
			db[name] = rel
		}
		p.insert(key, db)
		return parseOutcome{db: db}
	})
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	if leader {
		p.stats.Misses++
	} else {
		p.stats.Coalesced++
	}
	p.mu.Unlock()
	out, ok := val.(parseOutcome)
	if !ok {
		// The leader panicked mid-parse and the flight released us with
		// a nil value; re-parse on our own rather than failing the query.
		return p.Parse(ctx, text)
	}
	return out.db, out.err
}

// lookup returns the cached database for key, refreshing its LRU slot
// and counting the hit.
func (p *ParseCache) lookup(key string) join.Database {
	p.mu.Lock()
	defer p.mu.Unlock()
	db, ok := p.m[key]
	if !ok {
		return nil
	}
	p.stats.Hits++
	for i, k := range p.use {
		if k == key {
			p.use = append(append(p.use[:i:i], p.use[i+1:]...), key)
			break
		}
	}
	return db
}

// insert adds a parsed database, evicting the least recently used
// entry past capacity.
func (p *ParseCache) insert(key string, db join.Database) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, ok := p.m[key]; ok {
		return
	}
	p.m[key] = db
	p.use = append(p.use, key)
	if len(p.m) > p.cap {
		victim := p.use[0]
		p.use = p.use[1:]
		delete(p.m, victim)
	}
}

// Stats returns the cache's outcome counters.
func (p *ParseCache) Stats() ParseCacheStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}
