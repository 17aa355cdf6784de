package logk

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/bitset"
	"repro/internal/comb"
	"repro/internal/decomp"
	"repro/internal/ext"
)

// minParallelSpace is the smallest candidate-space size worth splitting
// across goroutines; below it, coordination overhead dominates.
const minParallelSpace = 64

// claimChunk is how many consecutive ranks a worker claims from a
// split's shared cursor at a time. Small chunks keep every worker close
// to the front of the candidate order, so a split finds about the same
// first success a sequential search would; each claim costs one atomic
// add and one unrank.
const claimChunk = 16

// rangeFunc searches ranks [lo, hi) of a candidate space and reports the
// first success. One worker calls its rangeFunc for each chunk it
// claims, in increasing rank order.
type rangeFunc func(ctx context.Context, lo, hi int64) (*decomp.Node, bool, error)

// searchChild runs the ChildLoop over the λ(c) candidate space,
// splitting it across workers when tokens are available (Appendix D.1:
// the workers share the search space for balanced separators and
// communicate only through a shared cursor and the first success).
//
// λ(c) is drawn only from the child pool: the edges of allowed that
// meet V(H′), in allowed order. Every recursion still gets the full
// allowed, so memo keys and the allowed-edges restriction keep their
// meaning. Dropping the edges disjoint from V(H′) loses no answer:
//
//  1. Every test of λ(c) reads ∪λ(c) only through V(H′) or a subset of
//     it: Balanced and ComponentsInto over H′, conn ⊆ ∪λ(c) (conn ⊆ V(H′),
//     checked below), χ(c) = ∪λ(c) ∩ V(H′) or ∩ vDown, and the line-31
//     test vDown ∩ ∪λ(p) ⊆ ∪λ(c). A label and its restriction to the
//     pool therefore pass or fail them alike and recurse identically.
//  2. The forbidden-vertex tests ask that ∪λ(c) avoid a set, so they can
//     only pass more often when λ(c) shrinks.
//  3. Every "new" edge (one of g.Edges) is non-empty and lies inside
//     V(H′), so it is in the pool. A successful label with its disjoint
//     edges dropped is thus still non-empty, of size ≤ k, holds a new
//     edge, and is in this enumeration.
//  4. The parent pool (edges meeting ∪λ(c), parentLoop) shrinks with
//     ∪λ(c); it stays complete by Theorem C.1 applied to the reduced
//     label.
//
// The premise conn ⊆ V(H′) holds by construction: the root's conn is
// empty; connY and connX are a component's vertices intersected with χc;
// and compUp keeps its parent's conn, whose vertices outside vDown lie
// in items compUp keeps, while those inside vDown are in ∪λ(p) (line 29)
// and hence in χc (line 31), the vertex set of compUp's new special.
func (s *Solver) searchChild(ctx context.Context, w *worker, g *ext.Graph, conn *bitset.Set, allowed []int, depth int) (*decomp.Node, bool, error) {
	verts := g.Vertices()
	if !conn.SubsetOf(verts) {
		return nil, false, fmt.Errorf("logk: internal error: interface has vertices outside the subproblem at depth %d", depth)
	}
	fr := w.frame(depth)
	fr.childPool = s.meeting(fr.childPool, allowed, verts)
	pool := fr.childPool

	total := comb.Space{M: len(pool), K: s.Opts.K}.Total()
	newRange := func(w *worker) rangeFunc {
		parents := parentCache{}
		return func(ctx context.Context, lo, hi int64) (*decomp.Node, bool, error) {
			return s.childRange(ctx, w, parents, g, conn, pool, allowed, depth, lo, hi)
		}
	}
	if total < minParallelSpace {
		return newRange(w)(ctx, 0, total)
	}
	// Force g's remaining lazy cache before it may be shared across
	// goroutines.
	g.ForbiddenUnion()
	return s.splitSearch(ctx, w, total, claimChunk, newRange)
}

// splitSearch searches ranks [0, total) with the caller's worker plus as
// many helpers as the token source grants (at most Workers-1, and no more
// than there are further chunks). Once ctx is done it asks for none, so
// a cancelled search leaves the tokens to other searches. Every worker,
// the caller included, gets its own rangeFunc from newRange and claims
// chunks of the given size from one atomic cursor, so all of them move
// through the candidate order front to back. The first success or error
// cancels the split's context, which stops every worker, the caller
// included. A helper returns its token as soon as it stops claiming, so a
// nested split inside the caller's last chunk can take it, and folds its
// counts into the Solver's as its goroutine ends.
//
// The outcome matches a sequential search of the whole space: a success
// if any worker found one; otherwise the outer context's error if it
// ended; otherwise the first worker error; otherwise (nil, false, nil),
// which means every rank was searched with no error and the state may
// be memoised as dead.
func (s *Solver) splitSearch(ctx context.Context, w *worker, total, chunk int64, newRange func(*worker) rangeFunc) (*decomp.Node, bool, error) {
	extra := 0
	if want := min(int64(s.Opts.Workers-1), (total-1)/chunk); want > 0 && ctx.Err() == nil {
		extra = s.tokens.TryAcquire(int(want))
	}
	if extra == 0 {
		return newRange(w)(ctx, 0, total)
	}
	w.stats.TokensGrabbed++

	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		cursor   atomic.Int64
		mu       sync.Mutex
		found    *decomp.Node
		firstErr error
	)
	run := func(w *worker) {
		search := newRange(w)
		for cctx.Err() == nil {
			lo := cursor.Add(chunk) - chunk
			if lo >= total {
				return
			}
			node, ok, err := search(cctx, lo, min(lo+chunk, total))
			if !ok && err == nil {
				continue
			}
			mu.Lock()
			if ok && found == nil {
				found = node
			}
			if err != nil && firstErr == nil {
				firstErr = err
			}
			mu.Unlock()
			cancel()
			return
		}
	}

	var wg sync.WaitGroup
	wg.Add(extra)
	for i := 0; i < extra; i++ {
		go func() {
			defer wg.Done()
			defer s.tokens.Release(1)
			nw := s.getWorker()
			defer s.putWorker(nw)
			run(nw)
		}()
	}
	run(w)
	wg.Wait()

	if found != nil {
		return found, true, nil
	}
	// Distinguish "our cancel" from a real deadline/cancellation above us.
	if outerErr := ctx.Err(); outerErr != nil {
		return nil, false, outerErr
	}
	return nil, false, firstErr
}
