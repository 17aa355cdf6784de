package race

import (
	"context"
	"time"

	"repro/internal/decomp"
	"repro/internal/hypergraph"
	"repro/internal/logk"
)

// BoundSource says how the racer's final lower bound was established —
// the provenance the harness reports for "proven optimal" claims.
type BoundSource int

const (
	// BoundTrivial: the lower bound is the trivial hw ≥ 1 (the optimum
	// was width 1, so there was nothing to refute).
	BoundTrivial BoundSource = iota
	// BoundInitial: the caller-supplied initial bound (a bounds-cache or
	// memo hit in the service layer) was already tight; no probe had to
	// refute anything.
	BoundInitial
	// BoundProbe: a probe refuted width optimum-1 during this race.
	BoundProbe
)

func (b BoundSource) String() string {
	switch b {
	case BoundInitial:
		return "memo"
	case BoundProbe:
		return "probe"
	}
	return "trivial"
}

// Outcome is the terminal state of one launched probe.
type Outcome int

const (
	// Found: the probe produced an HD within its width bound.
	Found Outcome = iota
	// Refuted: the probe exhausted the search space; hw > its width.
	Refuted
	// Cancelled: a sibling's result made the probe moot before it
	// finished.
	Cancelled
	// Failed: the probe aborted on a real error (deadline, outer
	// cancellation) — not a moot kill; the race cannot conclude.
	Failed
)

func (o Outcome) String() string {
	switch o {
	case Found:
		return "found"
	case Refuted:
		return "refuted"
	case Failed:
		return "failed"
	}
	return "cancelled"
}

// ProbeReport describes one launched probe after the race.
type ProbeReport struct {
	K       int
	Outcome Outcome
	Elapsed time.Duration
	Stats   logk.Stats
}

// Config parameterises a race. KMax is required; everything else
// defaults sensibly.
type Config struct {
	// KMax bounds the width search: the racer decides hw(H) exactly when
	// hw(H) ≤ KMax and reports Found=false otherwise.
	KMax int
	// MaxProbes bounds how many width probes run concurrently.
	// Default: min(3, KMax).
	MaxProbes int
	// Workers caps one probe's internal search parallelism (logk
	// Options.Workers). Default 1. Extra workers beyond each probe's own
	// goroutine come from Tokens.
	Workers int
	// Hybrid and HybridThreshold configure det-k-decomp hybridisation
	// inside each probe, as in logk.Options.
	Hybrid          logk.HybridMetric
	HybridThreshold float64
	// Tokens is the shared extra-worker pool all probes draw from. Nil
	// creates a private pool of Workers-1 tokens shared across the
	// probes, so the race as a whole never uses more than Workers extra
	// goroutines plus one per live probe.
	Tokens logk.TokenSource
	// MemoFor, when non-nil, supplies the negative-memo backend for the
	// probe at width k. The service layer injects its cross-request
	// tables here, so refutations performed by one race accelerate every
	// later job on the same hypergraph.
	MemoFor func(k int) logk.MemoBackend
	// LowerBound, when > 1, asserts that all widths < LowerBound are
	// already refuted (e.g. by a previous race recorded in a bounds
	// cache). The racer trusts it and starts probing at LowerBound.
	LowerBound int
	// UpperBoundHint, when in [1, KMax], asserts that an HD of that
	// width is known to exist. The racer still has to re-find a witness
	// (hints carry no decomposition), but it never probes above the hint.
	UpperBoundHint int
}

// Result is the outcome of a race. Width/Decomp/Found describe the
// optimum; LowerBound and Probes survive even when the race fails with
// an error, so partial progress (refuted widths) can be banked by the
// caller.
type Result struct {
	// Width is hw(H) when Found.
	Width int
	// Decomp is a CheckHD-valid witness of width exactly Width.
	Decomp *decomp.Decomp
	// Found reports hw(H) ≤ KMax.
	Found bool
	// LowerBound is the final proven bound: all widths < LowerBound are
	// refuted. When Found, LowerBound == Width.
	LowerBound int
	// LowerBoundFrom is the provenance of the final lower bound.
	LowerBoundFrom BoundSource
	// BestWidth is the smallest width with a found witness so far (0 if
	// none); on a timeout it may exceed the yet-unknown optimum.
	BestWidth int
	// Probes reports every launched probe.
	Probes []ProbeReport
	// Cancelled counts probes killed as moot by a sibling's result (or
	// by the race shutting down); probes that aborted on real errors
	// report Failed and are not counted here.
	Cancelled int
}

// Racer races width probes for one hypergraph. Create with New; one
// Solve call per Racer.
type Racer struct {
	h   *hypergraph.Hypergraph
	cfg Config
}

// New returns a Racer for h.
func New(h *hypergraph.Hypergraph, cfg Config) *Racer {
	if cfg.KMax < 1 {
		panic("race: KMax must be >= 1")
	}
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	if cfg.MaxProbes < 1 {
		cfg.MaxProbes = 3
	}
	if cfg.MaxProbes > cfg.KMax {
		cfg.MaxProbes = cfg.KMax
	}
	if cfg.LowerBound < 1 {
		cfg.LowerBound = 1
	}
	if cfg.Tokens == nil {
		cfg.Tokens = logk.NewTokenPool(cfg.Workers - 1)
	}
	return &Racer{h: h, cfg: cfg}
}

// probeDone carries one probe's result back to the race loop.
type probeDone struct {
	k       int
	d       *decomp.Decomp
	ok      bool
	err     error
	stats   logk.Stats
	elapsed time.Duration
}

// probeHandle is the race loop's grip on a live probe.
type probeHandle struct {
	cancel context.CancelFunc
	moot   bool
}

// Solve runs the race. The returned Result is meaningful even when err
// is non-nil: LowerBound, BestWidth and Probes reflect the partial
// progress made before the deadline or cancellation hit.
func (r *Racer) Solve(ctx context.Context) (Result, error) {
	res := Result{LowerBound: r.cfg.LowerBound}
	if r.cfg.LowerBound > 1 {
		res.LowerBoundFrom = BoundInitial
	}
	if res.LowerBound > r.cfg.KMax {
		// The caller's cached bound already proves hw > KMax.
		return res, nil
	}

	ub := r.cfg.KMax + 1 // smallest width with a witness in hand
	hint := r.cfg.KMax
	if r.cfg.UpperBoundHint >= 1 && r.cfg.UpperBoundHint < hint {
		hint = r.cfg.UpperBoundHint
	}

	running := map[int]*probeHandle{}
	done := make(chan probeDone)
	launch := func(k int) {
		pctx, cancel := context.WithCancel(ctx)
		opts := logk.Options{
			K:               k,
			Workers:         r.cfg.Workers,
			Hybrid:          r.cfg.Hybrid,
			HybridThreshold: r.cfg.HybridThreshold,
			Tokens:          r.cfg.Tokens,
		}
		if r.cfg.MemoFor != nil {
			opts.Memo = r.cfg.MemoFor(k)
		}
		running[k] = &probeHandle{cancel: cancel}
		go func() {
			solver := logk.New(r.h, opts)
			start := time.Now()
			d, ok, err := solver.Decompose(pctx)
			done <- probeDone{k: k, d: d, ok: ok, err: err,
				stats: solver.Stats(), elapsed: time.Since(start)}
		}()
	}
	// kill marks a live probe moot and cancels its context. Every context
	// inside the probe derives from it, so a split of the probe that
	// starts after kill returns takes no token. The probe still reports
	// on done.
	kill := func(k int) {
		if h := running[k]; h != nil && !h.moot {
			h.moot = true
			h.cancel()
		}
	}
	// finish takes a probe's result off done and books it.
	finish := func() (probeDone, Outcome) {
		pd := <-done
		h := running[pd.k]
		delete(running, pd.k)
		return pd, res.book(pd, h.moot)
	}

	probed := map[int]bool{} // widths launched at any point
	for {
		// Fill free probe slots with the most informative unknown widths.
		for len(running) < r.cfg.MaxProbes {
			k, ok := nextWidth(res.LowerBound, ub, hint, probed, running)
			if !ok {
				break
			}
			probed[k] = true
			launch(k)
		}
		if len(running) == 0 {
			break // bounds met (or lb passed KMax): the race is decided
		}

		pd, outcome := finish()
		if outcome == Failed {
			// A real deadline/cancellation (or solver failure): the race
			// cannot decide optimality any more. Cancel everything still
			// live and wait it out, so shared tokens are back in the pool
			// and every result is banked before Solve returns.
			for k := range running {
				kill(k)
			}
			for len(running) > 0 {
				finish()
			}
			return res, pd.err
		}
		if res.Decomp != nil {
			ub = res.BestWidth
		}
		for k := range running {
			if k < res.LowerBound || k >= ub {
				kill(k)
			}
		}
	}

	if res.Decomp != nil && res.LowerBound >= ub {
		res.Found = true
		res.Width = ub
		if res.Width == 1 {
			res.LowerBoundFrom = BoundTrivial
		}
	}
	return res, nil
}

// book records one finished probe. An error reads Cancelled when the
// probe was moot and Failed otherwise; a witness narrower than any so far
// becomes BestWidth and Decomp; a refutation of width k raises LowerBound
// to k+1.
func (res *Result) book(pd probeDone, moot bool) Outcome {
	report := ProbeReport{K: pd.k, Elapsed: pd.elapsed, Stats: pd.stats}
	switch {
	case pd.err != nil && moot:
		report.Outcome = Cancelled
		res.Cancelled++
	case pd.err != nil:
		report.Outcome = Failed
	case pd.ok:
		report.Outcome = Found
		if w := pd.d.Width(); res.Decomp == nil || w < res.BestWidth {
			res.BestWidth = w
			res.Decomp = pd.d
		}
	default:
		report.Outcome = Refuted
		if pd.k+1 > res.LowerBound {
			res.LowerBound = pd.k + 1
			res.LowerBoundFrom = BoundProbe
		}
	}
	res.Probes = append(res.Probes, report)
	return report.Outcome
}

// nextWidth picks the next width to probe, or ok=false when every
// useful width is covered. The ladder is deterministic:
//
//  1. the lower-bound frontier lb itself (the probe whose refutation
//     tightens the bound, and whose success ends the race);
//  2. the hinted/known upper region's midpoint — a bisection step that
//     either finds a witness quickly (halving the open interval from
//     above) or refutes half the interval at once;
//  3. ascending fill of whatever is left.
//
// Only widths in [lb, min(ub-1, hint)] are ever probed: below lb is
// refuted, at or above ub a witness exists already.
func nextWidth(lb, ub, hint int, probed map[int]bool, running map[int]*probeHandle) (int, bool) {
	top := ub - 1
	if hint < top {
		top = hint
	}
	free := func(k int) bool { return !probed[k] && running[k] == nil }
	if lb <= top && free(lb) {
		return lb, true
	}
	if mid := (lb + top + 1) / 2; mid >= lb && mid <= top && free(mid) {
		return mid, true
	}
	for k := lb; k <= top; k++ {
		if free(k) {
			return k, true
		}
	}
	return 0, false
}

// Optimal is the one-shot convenience wrapper: race widths 1..kMax and
// return the paper's "solved" tuple.
func Optimal(ctx context.Context, h *hypergraph.Hypergraph, cfg Config) (int, *decomp.Decomp, bool, error) {
	res, err := New(h, cfg).Solve(ctx)
	if err != nil {
		return 0, nil, false, err
	}
	if !res.Found {
		return 0, nil, false, nil
	}
	return res.Width, res.Decomp, true, nil
}
