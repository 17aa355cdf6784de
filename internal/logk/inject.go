package logk

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// TokenSource supplies the extra-worker tokens that parallel search
// splits draw from (Appendix D.1). A Solver created without one gets a
// private TokenPool sized to Options.Workers-1; a serving layer can
// instead inject a pool shared across many concurrent Solvers so the
// process never oversubscribes its cores. Implementations must be safe
// for concurrent use.
type TokenSource interface {
	// TryAcquire takes up to max tokens without blocking and returns how
	// many it got (0..max).
	TryAcquire(max int) int
	// Release returns n previously acquired tokens.
	Release(n int)
}

// MemoBackend stores the negative memo: content keys of states whose
// search space was exhausted without success (see ext.Graph.MemoKey).
// Keys are pure content — safe to share across Solvers of the same
// hypergraph and width bound, which is how a serving layer turns the
// memo into a cross-request cache. Implementations must be safe for
// concurrent use.
type MemoBackend interface {
	// Lookup reports whether key is a known-dead state. The slice is
	// only valid for the duration of the call.
	Lookup(key []byte) bool
	// Insert records key as dead. Implementations may drop inserts
	// (e.g. when full): the memo is a pure acceleration.
	Insert(key string)
}

// TokenPool is a lock-free pool of extra-worker tokens, the
// TokenSource every Solver draws from. A Solver created without
// Options.Tokens gets a private pool; a serving layer shares one pool
// across every job it runs, so the total number of extra search
// goroutines across all concurrent decompositions never exceeds Size.
type TokenPool struct {
	size  int64
	avail atomic.Int64

	// highWater tracks the maximum number of tokens simultaneously lent
	// out, so tests and /stats can verify the bound is respected.
	highWater atomic.Int64
}

// NewTokenPool returns a pool of n tokens (negative n clamps to 0).
// Callers that run several Solvers side by side (ad hoc batch drivers,
// a serving layer) share one pool.
func NewTokenPool(n int) *TokenPool {
	if n < 0 {
		n = 0
	}
	p := &TokenPool{size: int64(n)}
	p.avail.Store(int64(n))
	return p
}

// TryAcquire implements TokenSource.
func (p *TokenPool) TryAcquire(max int) int {
	if max <= 0 {
		return 0
	}
	for {
		cur := p.avail.Load()
		if cur <= 0 {
			return 0
		}
		n := int64(max)
		if n > cur {
			n = cur
		}
		if !p.avail.CompareAndSwap(cur, cur-n) {
			continue
		}
		inUse := p.size - (cur - n)
		for {
			hw := p.highWater.Load()
			if inUse <= hw || p.highWater.CompareAndSwap(hw, inUse) {
				break
			}
		}
		return int(n)
	}
}

// Release implements TokenSource. Returning more tokens than were lent
// out is a caller bug and panics.
func (p *TokenPool) Release(n int) {
	if n <= 0 {
		return
	}
	if now := p.avail.Add(int64(n)); now > p.size {
		panic(fmt.Sprintf("logk: token pool over-released (%d tokens available, size %d)", now, p.size))
	}
}

// Size returns the total number of tokens in the pool.
func (p *TokenPool) Size() int { return int(p.size) }

// InUse returns the number of tokens currently lent out.
func (p *TokenPool) InUse() int { return int(p.size - p.avail.Load()) }

// HighWater returns the maximum number of tokens ever simultaneously
// lent out.
func (p *TokenPool) HighWater() int { return int(p.highWater.Load()) }

// ShardedMemo is the default MemoBackend: 64 RWMutex-guarded map shards
// selected by an FNV hash of the key, with the no-allocation string(buf)
// lookup form on the read path. The zero value is ready to use. It is
// exported so serving layers can reuse the same structure per cached
// hypergraph.
type ShardedMemo struct {
	shards [64]memoShard
}

// memoShard is one shard of the negative memo.
type memoShard struct {
	mu sync.RWMutex
	m  map[string]struct{}
}

// Lookup implements MemoBackend.
func (s *ShardedMemo) Lookup(key []byte) bool {
	sh := &s.shards[fnvShard(key)]
	sh.mu.RLock()
	_, dead := sh.m[string(key)] // no-alloc lookup form
	sh.mu.RUnlock()
	return dead
}

// Insert implements MemoBackend.
func (s *ShardedMemo) Insert(key string) { s.Add(key) }

// Add is Insert reporting whether the key was new, for backends that
// keep a size estimate on top of the sharded maps.
func (s *ShardedMemo) Add(key string) bool {
	sh := &s.shards[fnvShardString(key)]
	sh.mu.Lock()
	if sh.m == nil {
		sh.m = make(map[string]struct{})
	}
	_, exists := sh.m[key]
	if !exists {
		sh.m[key] = struct{}{}
	}
	sh.mu.Unlock()
	return !exists
}

// fnvShard hashes a key buffer to a shard index.
func fnvShard(b []byte) int {
	h := uint32(2166136261)
	for _, c := range b {
		h ^= uint32(c)
		h *= 16777619
	}
	return int(h & 63)
}

// fnvShardString is fnvShard over a string key (same hash, no copy).
func fnvShardString(s string) int {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return int(h & 63)
}
