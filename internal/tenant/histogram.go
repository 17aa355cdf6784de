package tenant

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// Histogram bucket layout: bucket 0 covers [0, histBase); bucket i ≥ 1
// covers [histBase<<(i-1), histBase<<i). With histBase = 50µs and 40
// buckets the range runs to ~7.6h before the overflow bucket, which is
// far beyond any per-job timeout the service allows.
const (
	histBuckets = 40
	histBase    = 50 * time.Microsecond
)

// Histogram is a fixed-memory streaming latency histogram over
// power-of-two buckets. Record and Quantile are safe for concurrent
// use. Quantiles are linearly interpolated inside the winning bucket,
// so their error is bounded by one bucket's width (a factor of two),
// independent of how many samples were recorded — the right trade for
// an always-on per-tenant stat that must never grow with traffic.
type Histogram struct {
	counts [histBuckets]atomic.Int64
	total  atomic.Int64
}

func bucketOf(d time.Duration) int {
	if d < histBase {
		return 0
	}
	i := bits.Len64(uint64(d / histBase))
	if i >= histBuckets {
		return histBuckets - 1
	}
	return i
}

// bucketBounds returns the half-open duration range bucket i covers.
func bucketBounds(i int) (lo, hi time.Duration) {
	if i == 0 {
		return 0, histBase
	}
	return histBase << (i - 1), histBase << i
}

// Record adds one observation.
func (h *Histogram) Record(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.counts[bucketOf(d)].Add(1)
	h.total.Add(1)
}

// Quantile returns the q-quantile (q in [0,1]) of the recorded
// observations, or 0 when none were recorded. Concurrent Records may
// skew a racing snapshot by the samples in flight; the estimate is
// within one power-of-two bucket of the true order statistic.
func (h *Histogram) Quantile(q float64) time.Duration {
	total := h.total.Load()
	if total == 0 {
		return 0
	}
	switch {
	case q < 0:
		q = 0
	case q > 1:
		q = 1
	}
	rank := q * float64(total)
	var seen float64
	for i := 0; i < histBuckets; i++ {
		c := float64(h.counts[i].Load())
		if c == 0 {
			continue
		}
		if seen+c >= rank {
			lo, hi := bucketBounds(i)
			frac := (rank - seen) / c
			if frac < 0 {
				frac = 0
			}
			return lo + time.Duration(frac*float64(hi-lo))
		}
		seen += c
	}
	// Racing Records moved the total past the bucket sum; the largest
	// occupied bucket's upper bound is the best remaining answer.
	for i := histBuckets - 1; i >= 0; i-- {
		if h.counts[i].Load() > 0 {
			_, hi := bucketBounds(i)
			return hi
		}
	}
	return 0
}
