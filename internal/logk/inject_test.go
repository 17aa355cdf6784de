package logk

import (
	"sync"
	"testing"
)

func TestNewTokenPoolBounds(t *testing.T) {
	p := NewTokenPool(3)
	if got := p.TryAcquire(10); got != 3 {
		t.Fatalf("TryAcquire(10) = %d, want 3", got)
	}
	if got := p.TryAcquire(1); got != 0 {
		t.Fatalf("TryAcquire on empty pool = %d, want 0", got)
	}
	p.Release(3)
	if got := p.TryAcquire(2); got != 2 {
		t.Fatalf("TryAcquire after release = %d, want 2", got)
	}
	if p.Size() != 3 || p.InUse() != 2 || p.HighWater() != 3 {
		t.Fatalf("Size=%d InUse=%d HighWater=%d, want 3, 2, 3", p.Size(), p.InUse(), p.HighWater())
	}
	p.Release(2)
	if p.InUse() != 0 || p.HighWater() != 3 {
		t.Fatalf("after release: InUse=%d HighWater=%d, want 0, 3", p.InUse(), p.HighWater())
	}
	if NewTokenPool(-5).TryAcquire(1) != 0 {
		t.Fatal("negative pool size must clamp to empty")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("over-release must panic")
		}
	}()
	p.Release(1)
}

func TestGatedTokensShutOff(t *testing.T) {
	pool := NewTokenPool(4)
	g := NewGatedTokens(pool)
	if got := g.TryAcquire(2); got != 2 {
		t.Fatalf("open gate TryAcquire = %d, want 2", got)
	}
	g.Close()
	if !g.Closed() {
		t.Fatal("gate should report closed")
	}
	if got := g.TryAcquire(2); got != 0 {
		t.Fatal("closed gate must not grant tokens")
	}
	// Releases pass through even when closed, so tokens return to the
	// shared pool for surviving probes.
	g.Release(2)
	if got := pool.TryAcquire(4); got != 4 {
		t.Fatalf("pool should hold all 4 tokens again, got %d", got)
	}
	pool.Release(4)
}

func TestGatedTokensNilSource(t *testing.T) {
	g := NewGatedTokens(nil)
	if got := g.TryAcquire(3); got != 0 {
		t.Fatalf("nil-source gate granted %d tokens", got)
	}
	g.Release(1) // must not panic
	g.Close()
}

func TestGatedTokensConcurrentClose(t *testing.T) {
	pool := NewTokenPool(8)
	g := NewGatedTokens(pool)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			n := g.TryAcquire(2)
			g.Release(n)
		}()
	}
	g.Close()
	wg.Wait()
	if got := pool.TryAcquire(8); got != 8 {
		t.Fatalf("tokens leaked through concurrent close: recovered %d of 8", got)
	}
}
