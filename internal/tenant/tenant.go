package tenant

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"
)

// Default is the tenant id attributed to requests that name none.
const Default = "default"

// ErrLimited identifies per-tenant admission rejections across layers:
// errors.Is(err, ErrLimited) holds for every *LimitError the wall
// returns, whatever gate rejected.
var ErrLimited = errors.New("tenant: over limit")

// Reason names the gate that rejected a request.
type Reason string

const (
	// ReasonRate: the tenant's token bucket (and, in fair-share mode,
	// the spare pool) is empty.
	ReasonRate Reason = "rate"
	// ReasonLoad: the tenant's in-flight cap and wait queue are both
	// full.
	ReasonLoad Reason = "load"
)

// LimitError is a per-tenant admission rejection. RetryAfter is sized
// from the actual token deficit, so a well-behaved client backing off
// by it will find a token waiting rather than guessing.
type LimitError struct {
	Tenant     string
	Reason     Reason
	RetryAfter time.Duration
}

func (e *LimitError) Error() string {
	return fmt.Sprintf("tenant %q over %s limit (retry after %v)", e.Tenant, e.Reason, e.RetryAfter)
}

// Is reports ErrLimited as a match, so callers can classify without
// naming the concrete type.
func (e *LimitError) Is(target error) bool { return target == ErrLimited }

// Config sizes a Wall. Every gate is opt-in: a zero value enforces
// nothing while still accounting per-tenant counters and latency.
type Config struct {
	// Rate is each tenant's reserved admission rate in requests per
	// second. ≤ 0 disables rate limiting.
	Rate float64
	// Burst is the per-tenant token-bucket capacity — how far above
	// Rate a tenant may spike instantaneously. Default: Rate (one
	// second of traffic), minimum 1.
	Burst float64
	// MaxInFlight bounds one tenant's concurrently admitted requests.
	// ≤ 0 disables the concurrency gate.
	MaxInFlight int
	// MaxQueue bounds requests waiting for an in-flight slot; beyond
	// it Admit rejects with ReasonLoad instead of queueing. 0 means no
	// waiting: a full tenant rejects immediately.
	MaxQueue int
	// FairShare lets a tenant whose own bucket is empty draw from the
	// shared spare pool, which collects refill tokens other tenants'
	// full buckets could not hold plus the headroom above the summed
	// reserves (GlobalRate). Reserved per-tenant rates are never
	// touched, so fair-share adds throughput without costing isolation.
	FairShare bool
	// GlobalRate is the aggregate admission rate the box sustains; the
	// spare pool refills at GlobalRate minus the known tenants' summed
	// reserves (when positive) and holds at most max(GlobalRate, Burst)
	// tokens (one second of global headroom). 0 means the pool is fed
	// only by other tenants' unused refill.
	GlobalRate float64
	// MaxTenants caps tracked tenants; beyond it the least recently
	// seen fully idle tenant is evicted, so hostile tenant-id
	// cardinality cannot grow the wall's memory without bound.
	// Default 1024.
	MaxTenants int
	// Now is the wall's clock, injectable for tests. Default time.Now.
	Now func() time.Time
}

func (c Config) withDefaults() Config {
	if c.Burst <= 0 {
		c.Burst = c.Rate
		if c.Burst < 1 {
			c.Burst = 1
		}
	}
	if c.MaxQueue < 0 {
		c.MaxQueue = 0
	}
	if c.MaxTenants <= 0 {
		c.MaxTenants = 1024
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Stats is one tenant's admission snapshot, the per-tenant block of
// /stats.
type Stats struct {
	Admitted     int64   `json:"admitted"`
	RateRejected int64   `json:"rate_rejected"`
	LoadRejected int64   `json:"load_rejected"`
	Completed    int64   `json:"completed"`
	Failed       int64   `json:"failed"`
	InFlight     int64   `json:"in_flight"`
	Queued       int64   `json:"queued"`
	Tokens       float64 `json:"tokens"`
	P50Millis    float64 `json:"p50_ms"`
	P99Millis    float64 `json:"p99_ms"`
}

// state is one tenant's live admission state. All fields are guarded
// by the owning Wall's mutex except hist, which is internally atomic.
type state struct {
	tokens   float64
	inFlight int
	queued   int
	// waiters is the FIFO of requests blocked on an in-flight slot;
	// Done hands a freed slot to the head by closing its channel (the
	// in-flight count transfers, it never dips in between).
	waiters  []chan struct{}
	lastSeen time.Time

	// stats holds the counters; Wall.Stats fills in the gauges.
	stats Stats
	hist  Histogram
}

// Wall is the multi-tenant admission layer. One Wall fronts one
// service; it is safe for concurrent use.
type Wall struct {
	cfg Config

	mu         sync.Mutex
	tenants    map[string]*state
	spare      float64
	lastRefill time.Time
}

// NewWall returns a Wall enforcing cfg.
func NewWall(cfg Config) *Wall {
	cfg = cfg.withDefaults()
	return &Wall{
		cfg:        cfg,
		tenants:    make(map[string]*state),
		lastRefill: cfg.Now(),
	}
}

// Lease is one admitted request. Exactly one Done call releases the
// tenant's in-flight slot and records outcome and latency; extra calls
// and calls on a nil Lease are no-ops.
type Lease struct {
	w     *Wall
	st    *state
	start time.Time
	once  sync.Once
}

// Admit passes one request for tenant id (Default when empty) through
// the wall. It returns a Lease on admission; a *LimitError when a gate
// rejects; ctx.Err() when the context ends while queued for a slot.
func (w *Wall) Admit(ctx context.Context, id string) (*Lease, error) {
	if id == "" {
		id = Default
	}
	now := w.cfg.Now()

	w.mu.Lock()
	w.refillLocked(now)
	st := w.touchLocked(id, now)

	// Gate 1: the rate limit. Own bucket first, spare pool second —
	// drawing reserve before spare keeps the spare available for
	// tenants that actually exhausted theirs.
	if w.cfg.Rate > 0 {
		switch {
		case st.tokens >= 1:
			st.tokens--
		case w.cfg.FairShare && w.spare >= 1:
			w.spare--
		default:
			st.stats.RateRejected++
			retry := w.retryAfterLocked(st)
			w.mu.Unlock()
			return nil, &LimitError{Tenant: id, Reason: ReasonRate, RetryAfter: retry}
		}
	}

	// Gate 2: the concurrency cap, with a bounded FIFO wait queue.
	if w.cfg.MaxInFlight > 0 && st.inFlight >= w.cfg.MaxInFlight {
		if st.queued >= w.cfg.MaxQueue {
			st.stats.LoadRejected++
			retry := w.retryAfterLocked(st)
			w.mu.Unlock()
			return nil, &LimitError{Tenant: id, Reason: ReasonLoad, RetryAfter: retry}
		}
		ready := make(chan struct{})
		st.waiters = append(st.waiters, ready)
		st.queued++
		w.mu.Unlock()
		select {
		case <-ready:
			// The slot was handed over: inFlight already counts us.
			w.mu.Lock()
		case <-ctx.Done():
			w.mu.Lock()
			if !removeWaiter(st, ready) {
				// Lost the race: a Done handed us the slot while we were
				// cancelling. Pass it on (or free it) before leaving.
				w.releaseSlotLocked(st)
			}
			// It passed the rate gate and was queued, so it counts as
			// admitted, and as failed since it never ran.
			st.stats.Admitted++
			st.stats.Failed++
			w.mu.Unlock()
			return nil, ctx.Err()
		}
	} else {
		st.inFlight++
	}
	st.stats.Admitted++
	w.mu.Unlock()
	return &Lease{w: w, st: st, start: now}, nil
}

// Done releases the lease: the in-flight slot moves to the oldest
// queued waiter (or frees), the outcome is counted, and the
// admit-to-done latency lands in the tenant's histogram.
func (l *Lease) Done(failed bool) {
	if l == nil {
		return
	}
	l.once.Do(func() {
		l.st.hist.Record(l.w.cfg.Now().Sub(l.start))
		l.w.mu.Lock()
		l.w.releaseSlotLocked(l.st)
		if failed {
			l.st.stats.Failed++
		} else {
			l.st.stats.Completed++
		}
		l.w.mu.Unlock()
	})
}

// releaseSlotLocked frees one in-flight slot: the oldest waiter
// inherits it when there is one (inFlight is transferred, not
// decremented, so the cap is never transiently exceeded or starved).
func (w *Wall) releaseSlotLocked(st *state) {
	if len(st.waiters) > 0 {
		ready := st.waiters[0]
		st.waiters = st.waiters[1:]
		st.queued--
		close(ready)
		return
	}
	st.inFlight--
}

// removeWaiter unlinks a cancelled waiter; false means it was already
// promoted (its channel is closed and it owns a slot).
func removeWaiter(st *state, ready chan struct{}) bool {
	for i, c := range st.waiters {
		if c == ready {
			st.waiters = append(st.waiters[:i], st.waiters[i+1:]...)
			st.queued--
			return true
		}
	}
	return false
}

// refillLocked advances every bucket to now. Tokens a full bucket
// cannot hold spill into the spare pool (fair-share mode), as does the
// global headroom above the known tenants' summed reserves — this is
// the reflow that lets one active tenant use an idle box fully.
func (w *Wall) refillLocked(now time.Time) {
	dt := now.Sub(w.lastRefill).Seconds()
	if dt <= 0 {
		return
	}
	w.lastRefill = now
	if w.cfg.Rate > 0 {
		for _, st := range w.tenants {
			st.tokens += w.cfg.Rate * dt
			if st.tokens > w.cfg.Burst {
				if w.cfg.FairShare {
					w.spare += st.tokens - w.cfg.Burst
				}
				st.tokens = w.cfg.Burst
			}
		}
	}
	if w.cfg.FairShare {
		if head := w.cfg.GlobalRate - float64(len(w.tenants))*w.cfg.Rate; head > 0 {
			w.spare += head * dt
		}
		w.spare = min(w.spare, max(w.cfg.GlobalRate, w.cfg.Burst))
	}
}

// touchLocked returns id's state, creating it (with a full bucket)
// on first sight and evicting the least recently seen idle tenant
// beyond MaxTenants.
func (w *Wall) touchLocked(id string, now time.Time) *state {
	st, ok := w.tenants[id]
	if !ok {
		if len(w.tenants) >= w.cfg.MaxTenants {
			w.evictLocked()
		}
		st = &state{tokens: w.cfg.Burst}
		w.tenants[id] = st
	}
	st.lastSeen = now
	return st
}

// evictLocked drops the least recently seen tenant with nothing in
// flight or queued. Tenants with live requests are never evicted (the
// map can transiently exceed MaxTenants by the number of such
// tenants, which concurrency caps already bound).
func (w *Wall) evictLocked() {
	var victim string
	var oldest time.Time
	for id, st := range w.tenants {
		if st.inFlight > 0 || st.queued > 0 {
			continue
		}
		if victim == "" || st.lastSeen.Before(oldest) {
			victim, oldest = id, st.lastSeen
		}
	}
	if victim != "" {
		delete(w.tenants, victim)
	}
}

// retryAfterLocked sizes the backoff hint from the tenant's token
// deficit against its reserved refill rate (the rate it is guaranteed
// regardless of other tenants).
func (w *Wall) retryAfterLocked(st *state) time.Duration {
	if w.cfg.Rate <= 0 {
		return time.Second
	}
	deficit := 1 - st.tokens
	if deficit < 0 {
		deficit = 0
	}
	d := time.Duration(deficit / w.cfg.Rate * float64(time.Second))
	if d < time.Millisecond {
		d = time.Millisecond
	}
	return d
}

// Stats snapshots every tracked tenant (buckets refreshed to now, so
// Tokens is current).
func (w *Wall) Stats() map[string]Stats {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.refillLocked(w.cfg.Now())
	out := make(map[string]Stats, len(w.tenants))
	for id, st := range w.tenants {
		s := st.stats
		s.InFlight = int64(st.inFlight)
		s.Queued = int64(st.queued)
		s.Tokens = st.tokens
		s.P50Millis = float64(st.hist.Quantile(0.50)) / float64(time.Millisecond)
		s.P99Millis = float64(st.hist.Quantile(0.99)) / float64(time.Millisecond)
		out[id] = s
	}
	return out
}
