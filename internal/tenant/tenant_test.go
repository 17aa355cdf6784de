package tenant

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// fakeClock is an injectable, manually advanced wall clock.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// admitN admits up to max requests for id, immediately releasing each
// lease, and returns how many were admitted before the first rejection.
func admitN(t *testing.T, w *Wall, id string, max int) int {
	t.Helper()
	for i := 0; i < max; i++ {
		l, err := w.Admit(context.Background(), id)
		if err != nil {
			if !errors.Is(err, ErrLimited) {
				t.Fatalf("admit %d: unexpected error kind: %v", i, err)
			}
			return i
		}
		l.Done(false)
	}
	return max
}

func TestBurstThenRefill(t *testing.T) {
	clk := newFakeClock()
	w := NewWall(Config{Rate: 5, Burst: 3, Now: clk.Now})

	if got := admitN(t, w, "a", 10); got != 3 {
		t.Fatalf("fresh bucket admitted %d, want burst 3", got)
	}

	// The rejection's backoff hint matches the deficit: 1 token at 5/s.
	_, err := w.Admit(context.Background(), "a")
	var le *LimitError
	if !errors.As(err, &le) || le.Reason != ReasonRate {
		t.Fatalf("want rate LimitError, got %v", err)
	}
	if le.RetryAfter <= 0 || le.RetryAfter > 250*time.Millisecond {
		t.Fatalf("RetryAfter = %v, want ~200ms", le.RetryAfter)
	}

	// A full second refills 5 but the bucket caps at burst 3.
	clk.Advance(time.Second)
	if got := admitN(t, w, "a", 10); got != 3 {
		t.Fatalf("after 1s admitted %d, want 3 (burst-capped)", got)
	}
	// 200ms refills exactly one token at 5/s.
	clk.Advance(200 * time.Millisecond)
	if got := admitN(t, w, "a", 10); got != 1 {
		t.Fatalf("after 200ms admitted %d, want 1", got)
	}
}

func TestFairShareGlobalHeadroom(t *testing.T) {
	clk := newFakeClock()
	w := NewWall(Config{Rate: 1, Burst: 1, FairShare: true, GlobalRate: 10, Now: clk.Now})

	if got := admitN(t, w, "a", 5); got != 1 {
		t.Fatalf("fresh tenant admitted %d, want 1", got)
	}
	// One second: a's bucket refills its reserved 1, the spare pool
	// collects the global headroom (10 - 1 tenant × 1) = 9. A lone
	// tenant on an idle box gets the full global throughput.
	clk.Advance(time.Second)
	if got := admitN(t, w, "a", 20); got != 10 {
		t.Fatalf("fair-share admitted %d, want 10 (1 reserved + 9 spare)", got)
	}
}

func TestFairShareSpillKeepsIsolation(t *testing.T) {
	clk := newFakeClock()
	// GlobalRate 0: the spare pool is fed only by refill that full
	// buckets cannot hold — the reflow of other tenants' unused budget.
	w := NewWall(Config{Rate: 2, Burst: 2, FairShare: true, Now: clk.Now})

	// Touch both tenants once so both buckets exist (2 → 1 token each).
	if got := admitN(t, w, "greedy", 1); got != 1 {
		t.Fatal("seed greedy")
	}
	if got := admitN(t, w, "polite", 1); got != 1 {
		t.Fatal("seed polite")
	}
	// One second: each bucket 1+2 caps at 2, spilling 1 each → spare 2.
	clk.Advance(time.Second)
	w.mu.Lock()
	w.refillLocked(clk.Now())
	spare := w.spare
	w.mu.Unlock()
	if spare != 2 {
		t.Fatalf("spare = %v, want 2 (1 spilled per full bucket)", spare)
	}
	// Greedy takes its own 2 plus the whole spare pool...
	if got := admitN(t, w, "greedy", 20); got != 4 {
		t.Fatalf("greedy admitted %d, want 4 (2 reserved + 2 spare)", got)
	}
	// ...but polite's reserved tokens were never touchable.
	if got := admitN(t, w, "polite", 20); got != 2 {
		t.Fatalf("polite admitted %d, want its reserved 2", got)
	}
}

func TestNoFairShareHardCap(t *testing.T) {
	clk := newFakeClock()
	w := NewWall(Config{Rate: 1, Burst: 1, GlobalRate: 100, Now: clk.Now})
	admitN(t, w, "a", 5)
	clk.Advance(10 * time.Second)
	if got := admitN(t, w, "a", 20); got != 1 {
		t.Fatalf("without fair-share admitted %d, want hard cap 1", got)
	}
}

func TestInFlightAndQueue(t *testing.T) {
	w := NewWall(Config{MaxInFlight: 2, MaxQueue: 1})
	ctx := context.Background()

	l1, err := w.Admit(ctx, "a")
	if err != nil {
		t.Fatal(err)
	}
	l2, err := w.Admit(ctx, "a")
	if err != nil {
		t.Fatal(err)
	}

	// Third admission queues; wait until the wall sees it.
	got := make(chan *Lease, 1)
	go func() {
		l, err := w.Admit(ctx, "a")
		if err != nil {
			t.Errorf("queued admit failed: %v", err)
		}
		got <- l
	}()
	deadline := time.Now().Add(5 * time.Second)
	for w.Stats()["a"].Queued != 1 {
		if time.Now().After(deadline) {
			t.Fatal("third admission never queued")
		}
		time.Sleep(time.Millisecond)
	}

	// Fourth: queue full → immediate load rejection.
	_, err = w.Admit(ctx, "a")
	var le *LimitError
	if !errors.As(err, &le) || le.Reason != ReasonLoad {
		t.Fatalf("want load LimitError, got %v", err)
	}

	// Releasing a slot promotes the waiter.
	l1.Done(false)
	select {
	case l3 := <-got:
		l3.Done(false)
	case <-time.After(5 * time.Second):
		t.Fatal("waiter was not promoted after Done")
	}
	l2.Done(false)

	st := w.Stats()["a"]
	if st.InFlight != 0 || st.Queued != 0 {
		t.Fatalf("slots not drained: %+v", st)
	}
	if st.Admitted != 3 || st.LoadRejected != 1 {
		t.Fatalf("counters: %+v, want 3 admitted / 1 load-rejected", st)
	}
}

func TestQueuedCancellation(t *testing.T) {
	w := NewWall(Config{MaxInFlight: 1, MaxQueue: 4})
	l1, err := w.Admit(context.Background(), "a")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := w.Admit(ctx, "a")
		errc <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for w.Stats()["a"].Queued != 1 {
		if time.Now().After(deadline) {
			t.Fatal("admission never queued")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter returned %v, want context.Canceled", err)
	}
	st := w.Stats()["a"]
	if st.Queued != 0 {
		t.Fatalf("cancelled waiter still queued: %+v", st)
	}
	// The held slot is unaffected; releasing it must not panic or
	// double-promote.
	l1.Done(false)
	st = w.Stats()["a"]
	if st.InFlight != 0 {
		t.Fatalf("in-flight not released: %+v", st)
	}
	// Both requests passed the rate gate: the cancelled waiter counts
	// as admitted and failed, so every request sent has one admission
	// outcome and every admitted one a settled outcome.
	if got := st.Admitted + st.RateRejected + st.LoadRejected; got != 2 {
		t.Errorf("admitted+rate_rejected+load_rejected = %d, want the 2 requests sent: %+v", got, st)
	}
	if st.Completed+st.Failed != st.Admitted {
		t.Errorf("completed+failed = %d, want admitted %d: %+v", st.Completed+st.Failed, st.Admitted, st)
	}
}

func TestDefaultTenantAndAccountingWithoutLimits(t *testing.T) {
	w := NewWall(Config{})
	l, err := w.Admit(context.Background(), "")
	if err != nil {
		t.Fatal(err)
	}
	l.Done(false)
	l.Done(true) // idempotent: the second call must not double-count
	var nilLease *Lease
	nilLease.Done(false) // and a nil lease is a no-op

	st, ok := w.Stats()[Default]
	if !ok {
		t.Fatalf("empty tenant id not mapped to %q: %v", Default, w.Stats())
	}
	if st.Admitted != 1 || st.Completed != 1 || st.Failed != 0 {
		t.Fatalf("zero-config wall still accounts: %+v", st)
	}
}

func TestEvictionDropsOldestIdle(t *testing.T) {
	clk := newFakeClock()
	w := NewWall(Config{MaxTenants: 2, Now: clk.Now})
	admitN(t, w, "t1", 1)
	clk.Advance(time.Second)
	admitN(t, w, "t2", 1)
	clk.Advance(time.Second)
	admitN(t, w, "t3", 1)

	stats := w.Stats()
	if len(stats) != 2 {
		t.Fatalf("tracked %d tenants, want cap 2", len(stats))
	}
	if _, ok := stats["t1"]; ok {
		t.Fatalf("oldest idle tenant not evicted: %v", stats)
	}
	if _, ok := stats["t3"]; !ok {
		t.Fatalf("newest tenant missing: %v", stats)
	}
}

func TestEvictionSparesLiveTenants(t *testing.T) {
	clk := newFakeClock()
	w := NewWall(Config{MaxTenants: 1, Now: clk.Now})
	l, err := w.Admit(context.Background(), "busy")
	if err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Second)
	admitN(t, w, "other", 1)
	if _, ok := w.Stats()["busy"]; !ok {
		t.Fatal("tenant with a live lease was evicted")
	}
	l.Done(false)
}

func TestConcurrentAdmissions(t *testing.T) {
	w := NewWall(Config{
		Rate: 100000, Burst: 100000,
		MaxInFlight: 4, MaxQueue: 64,
		FairShare: true, GlobalRate: 200000,
	})
	const goroutines = 16
	const perG = 50
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			id := []string{"a", "b", "c"}[g%3]
			for i := 0; i < perG; i++ {
				l, err := w.Admit(context.Background(), id)
				if err != nil {
					if !errors.Is(err, ErrLimited) {
						t.Errorf("unexpected error: %v", err)
					}
					continue
				}
				l.Done(i%7 == 0)
			}
		}(g)
	}
	wg.Wait()

	var total, settled int64
	for _, st := range w.Stats() {
		if st.InFlight != 0 || st.Queued != 0 {
			t.Fatalf("live counts after drain: %+v", st)
		}
		total += st.Admitted + st.RateRejected + st.LoadRejected
		settled += st.Completed + st.Failed + st.RateRejected + st.LoadRejected
	}
	if total != goroutines*perG {
		t.Fatalf("admission outcomes %d, want %d", total, goroutines*perG)
	}
	if settled != goroutines*perG {
		t.Fatalf("settled outcomes %d, want %d", settled, goroutines*perG)
	}
}
