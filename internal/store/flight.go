package store

import (
	"context"
	"sync"
	"sync/atomic"
)

// Flight coalesces concurrent identical requests: among callers that
// Do() the same key at the same time, exactly one (the leader) runs the
// function; the rest (followers) block until the leader finishes and
// share its value. Unlike a cache, nothing is retained — once the
// leader's call completes the key is forgotten, so a later Do runs
// fresh. The service layer keys flights by (content hash, mode, K) so N
// identical in-flight submissions — including duplicates inside one
// Batch — burn one solver run instead of N.
type Flight struct {
	mu      sync.Mutex
	calls   map[string]*flightCall
	waiting atomic.Int64
}

// flightCall is one in-flight key.
type flightCall struct {
	done chan struct{}
	val  any
}

// NewFlight returns an empty Flight.
func NewFlight() *Flight {
	return &Flight{calls: make(map[string]*flightCall)}
}

// Do runs fn under key, coalescing with concurrent callers. The leader
// (leader == true) executes fn on the caller's own goroutine with the
// caller's context and always runs fn to completion before returning.
// Followers wait for the leader's value, or abort with ctx.Err() when
// their own context expires first — the leader's run is unaffected.
// When the leader's value and the follower's cancellation are both
// ready, the value wins: an answer that has already been computed is
// never discarded for a context that expired in the same instant.
//
// Note the sharing contract: followers receive the leader's value as
// is, including any error it carries. Callers that must not share
// failures should inspect the value and retry outside the flight.
func (f *Flight) Do(ctx context.Context, key string, fn func() any) (val any, leader bool, err error) {
	f.mu.Lock()
	if c, ok := f.calls[key]; ok {
		f.mu.Unlock()
		f.waiting.Add(1)
		defer f.waiting.Add(-1)
		select {
		case <-c.done:
			return c.val, false, nil
		case <-ctx.Done():
			// Both arms may have been ready and select picks one at
			// random; prefer the delivered value over the cancellation.
			select {
			case <-c.done:
				return c.val, false, nil
			default:
			}
			return nil, false, ctx.Err()
		}
	}
	c := &flightCall{done: make(chan struct{})}
	f.calls[key] = c
	f.mu.Unlock()

	// The cleanup is deferred so a panicking fn cannot wedge the key:
	// the call is forgotten and followers are released (with a nil
	// value) even as the panic unwinds.
	defer func() {
		f.mu.Lock()
		delete(f.calls, key)
		f.mu.Unlock()
		close(c.done)
	}()
	c.val = fn()
	return c.val, true, nil
}

// Waiting returns the number of followers currently blocked on a
// leader's result.
func (f *Flight) Waiting() int { return int(f.waiting.Load()) }
