package logk

import "testing"

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
