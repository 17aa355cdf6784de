package logk

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/comb"
	"repro/internal/decomp"
	"repro/internal/hyperbench"
)

// recordingTokens is a TokenSource that counts the acquires that
// granted a token and signals every release on returned.
type recordingTokens struct {
	mu       sync.Mutex
	free     int
	grants   int
	returned chan struct{} // buffered; a release never blocks on it
}

func newRecordingTokens(n int) *recordingTokens {
	return &recordingTokens{free: n, returned: make(chan struct{}, 16)}
}

func (r *recordingTokens) TryAcquire(max int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := min(max, r.free)
	r.free -= n
	if n > 0 {
		r.grants++
	}
	return n
}

func (r *recordingTokens) Release(n int) {
	r.mu.Lock()
	r.free += n
	r.mu.Unlock()
	select {
	case r.returned <- struct{}{}:
	default:
	}
}

func (r *recordingTokens) freeTokens() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.free
}

func (r *recordingTokens) grantCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.grants
}

// TestParallelSplitClaimsEveryRankOnce: for random spaces, chunk sizes
// and 1-8 workers, the shared-cursor claim loop hands every rank to
// exactly one worker, each worker's chunks ascend, and every token
// comes back.
func TestParallelSplitClaimsEveryRankOnce(t *testing.T) {
	prop := func(mRaw, kRaw, wRaw, cRaw uint8) bool {
		space := comb.Space{M: int(mRaw%15) + 1, K: int(kRaw%4) + 1}
		workers := int(wRaw%8) + 1
		chunk := int64(cRaw%50) + 1
		s := New(cycle(3), Options{K: space.K, Workers: workers})
		total := space.Total()

		var mu sync.Mutex
		claimed := make(map[string]int, total)
		ordered := true
		newRange := func(*worker) rangeFunc {
			next := int64(0)
			return func(_ context.Context, lo, hi int64) (*decomp.Node, bool, error) {
				it := comb.NewIter(space, lo, hi)
				mu.Lock()
				defer mu.Unlock()
				ordered = ordered && lo >= next
				next = hi
				for c := it.Next(); c != nil; c = it.Next() {
					claimed[fmt.Sprint(c)]++
				}
				return nil, false, nil
			}
		}
		w := s.getWorker()
		node, ok, err := s.splitSearch(context.Background(), w, total, chunk, newRange)
		if node != nil || ok || err != nil || !ordered {
			return false
		}
		if int64(len(claimed)) != total {
			return false
		}
		for _, n := range claimed {
			if n != 1 {
				return false
			}
		}
		return s.tokens.TryAcquire(workers) == workers-1
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestParallelSplitFirstSuccessStopsCaller: a helper's success cancels
// the caller's chunk while the caller is still inside it.
func TestParallelSplitFirstSuccessStopsCaller(t *testing.T) {
	s := New(cycle(3), Options{K: 1, Workers: 2, Tokens: newRecordingTokens(1)})
	caller := s.getWorker()
	want := &decomp.Node{}
	entered := make(chan struct{})
	var enter sync.Once
	cancelled := false
	newRange := func(w *worker) rangeFunc {
		return func(ctx context.Context, lo, hi int64) (*decomp.Node, bool, error) {
			if w != caller {
				<-entered
				return want, true, nil
			}
			enter.Do(func() { close(entered) })
			select {
			case <-ctx.Done():
				cancelled = true
				return nil, false, ctx.Err()
			case <-time.After(10 * time.Second):
				return nil, false, errors.New("caller's chunk was never cancelled")
			}
		}
	}
	node, ok, err := s.splitSearch(context.Background(), caller, 4, 1, newRange)
	if node != want || !ok || err != nil {
		t.Fatalf("splitSearch = %v, %v, %v; want the helper's node", node, ok, err)
	}
	if !cancelled {
		t.Fatal("the caller's chunk ran on after a helper succeeded")
	}
}

// TestParallelSplitReleasesLeaseEarly: once the cursor is exhausted a
// helper hands its token back while the caller is still searching its
// last chunk, so a nested split there can take it.
func TestParallelSplitReleasesLeaseEarly(t *testing.T) {
	rec := newRecordingTokens(1)
	s := New(cycle(3), Options{K: 1, Workers: 2, Tokens: rec})
	caller := s.getWorker()
	entered := make(chan struct{})
	var enter sync.Once
	nested := 0
	newRange := func(w *worker) rangeFunc {
		return func(ctx context.Context, lo, hi int64) (*decomp.Node, bool, error) {
			if w != caller {
				<-entered
				return nil, false, nil
			}
			enter.Do(func() { close(entered) })
			select {
			case <-rec.returned:
			case <-time.After(10 * time.Second):
			}
			nested = s.tokens.TryAcquire(1)
			s.tokens.Release(nested)
			return nil, false, nil
		}
	}
	node, ok, err := s.splitSearch(context.Background(), caller, 2, 1, newRange)
	if node != nil || ok || err != nil {
		t.Fatalf("splitSearch = %v, %v, %v; want an exhausted search", node, ok, err)
	}
	if nested != 1 {
		t.Fatal("the helper held its token until the caller's last chunk ended")
	}
	if free := rec.freeTokens(); free != 1 {
		t.Fatalf("%d tokens free after the split, want 1", free)
	}
}

// TestParallelSplitCancelledTakesNoTokens: a split whose context is
// already done asks for no helpers, so cancelling a search's context is
// enough to stop it taking tokens.
func TestParallelSplitCancelledTakesNoTokens(t *testing.T) {
	rec := newRecordingTokens(1)
	s := New(cycle(3), Options{K: 1, Workers: 2, Tokens: rec})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	newRange := func(*worker) rangeFunc {
		return func(ctx context.Context, lo, hi int64) (*decomp.Node, bool, error) {
			return nil, false, ctx.Err()
		}
	}
	_, ok, err := s.splitSearch(ctx, s.getWorker(), 4, 1, newRange)
	if ok || !errors.Is(err, context.Canceled) {
		t.Fatalf("splitSearch = %v, %v; want context.Canceled", ok, err)
	}
	if n := rec.grantCount(); n != 0 {
		t.Fatalf("a cancelled split took tokens %d times, want 0", n)
	}
}

// countingMemo is a ShardedMemo that counts the lookups that hit.
type countingMemo struct {
	ShardedMemo
	hits atomic.Int64
}

func (m *countingMemo) Lookup(key []byte) bool {
	hit := m.ShardedMemo.Lookup(key)
	if hit {
		m.hits.Add(1)
	}
	return hit
}

// countingPool is a TokenPool that counts the acquires that granted at
// least one token.
type countingPool struct {
	*TokenPool
	grants atomic.Int64
}

func (p *countingPool) TryAcquire(max int) int {
	n := p.TokenPool.TryAcquire(max)
	if n > 0 {
		p.grants.Add(1)
	}
	return n
}

// TestParallelStatsConservation: with four workers counting into their
// own Stats, the folded totals equal what the memo and the token source
// saw, so no helper's counts are lost.
func TestParallelStatsConservation(t *testing.T) {
	h := suiteInstance(t, hyperbench.Config{Scale: 3, Seed: 1}, "syn-cylinder-18")
	memo := &countingMemo{}
	tokens := &countingPool{TokenPool: NewTokenPool(3)}
	s := newSolver(h, Options{K: 2, Workers: 4, Tokens: tokens}, memo)
	if _, ok, err := s.Decompose(context.Background()); ok || err != nil {
		t.Fatalf("k=2: ok=%v err=%v, want a refutation", ok, err)
	}
	st := s.Stats()
	t.Logf("k=2, 4 workers: %d memo hits, %d token grabs", st.MemoHits, st.TokensGrabbed)
	if st.MemoHits == 0 || st.MemoHits != memo.hits.Load() {
		t.Errorf("MemoHits = %d, memo saw %d hits; want equal and > 0", st.MemoHits, memo.hits.Load())
	}
	if st.TokensGrabbed == 0 || st.TokensGrabbed != tokens.grants.Load() {
		t.Errorf("TokensGrabbed = %d, token source granted %d times; want equal and > 0", st.TokensGrabbed, tokens.grants.Load())
	}
}
