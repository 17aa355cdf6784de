package tenant

import (
	"sync"
	"testing"
	"time"
)

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if got := h.Quantile(0.5); got != 0 {
		t.Fatalf("empty histogram p50 = %v, want 0", got)
	}
	if h.total.Load() != 0 {
		t.Fatal("empty histogram has a count")
	}
}

func TestHistogramQuantileBounds(t *testing.T) {
	var h Histogram
	for i := 0; i < 90; i++ {
		h.Record(time.Millisecond)
	}
	for i := 0; i < 10; i++ {
		h.Record(100 * time.Millisecond)
	}
	if h.total.Load() != 100 {
		t.Fatalf("count = %d, want 100", h.total.Load())
	}
	// 1ms lands in [800µs, 1.6ms); the p50 estimate must stay inside
	// that bucket.
	p50 := h.Quantile(0.50)
	if p50 < 800*time.Microsecond || p50 > 1600*time.Microsecond {
		t.Fatalf("p50 = %v, want within 1ms's bucket [800µs, 1.6ms)", p50)
	}
	// 100ms lands in [51.2ms, 102.4ms); p99 must reach that bucket.
	p99 := h.Quantile(0.99)
	if p99 < 51200*time.Microsecond || p99 > 102400*time.Microsecond {
		t.Fatalf("p99 = %v, want within 100ms's bucket [51.2ms, 102.4ms)", p99)
	}
	if lo := h.Quantile(-1); lo < 0 {
		t.Fatalf("clamped quantile negative: %v", lo)
	}
	if hi := h.Quantile(2); hi < p99 {
		t.Fatalf("q=2 (clamped to 1) below p99: %v < %v", hi, p99)
	}
}

func TestHistogramExtremes(t *testing.T) {
	var h Histogram
	h.Record(-time.Second)         // clamped into bucket 0
	h.Record(0)                    // bucket 0
	h.Record(400 * 24 * time.Hour) // beyond the range: overflow bucket
	if h.total.Load() != 3 {
		t.Fatalf("count = %d, want 3", h.total.Load())
	}
	if p01 := h.Quantile(0.01); p01 >= histBase {
		t.Fatalf("low quantile %v escaped bucket 0", p01)
	}
	if p99 := h.Quantile(0.999); p99 <= time.Hour {
		t.Fatalf("overflow observation not visible at p99.9: %v", p99)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Record(time.Duration(g+1) * time.Millisecond)
			}
		}(g)
	}
	wg.Wait()
	if h.total.Load() != 8000 {
		t.Fatalf("count = %d, want 8000", h.total.Load())
	}
	if p50 := h.Quantile(0.5); p50 <= 0 || p50 > 16*time.Millisecond {
		t.Fatalf("p50 = %v out of plausible range", p50)
	}
}
