// Package harness runs decomposition methods over instance suites with
// per-run timeouts and aggregates the results into the tables and
// figures of the paper's evaluation (§5 and Appendix D). It plays the
// role HTCondor played in the original experiments: budget enforcement,
// bookkeeping of solved/timeout state, and result collation.
//
// Semantics follow §5.1: an instance is "solved" by a method when the
// optimal-width HD is found and proven optimal (all smaller widths
// refuted within budget); runtimes are reported over solved instances
// only, and every returned decomposition is validated against the
// independent checker before it counts.
package harness

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/decomp"
	"repro/internal/hyperbench"
	"repro/internal/hypergraph"
	"repro/internal/logk"
)

// WidthSolver decides hw(H) ≤ k for a fixed k and materialises an HD.
type WidthSolver interface {
	Decompose(ctx context.Context) (*decomp.Decomp, bool, error)
}

// Method is one decomposition approach under evaluation. Exactly one of
// NewParam and SolveLadder must be set.
type Method struct {
	Name string
	// NewParam constructs a width-parameterised solver (det-k, log-k, …).
	NewParam func(h *hypergraph.Hypergraph, k int) WidthSolver
	// SolveLadder runs an optimal-width ladder (logk.Optimal) and returns
	// its full report, including the lower bound and its provenance.
	SolveLadder func(ctx context.Context, h *hypergraph.Hypergraph, kMax int) (logk.OptimalResult, error)
	// GHD marks methods whose output is validated as a generalized
	// hypertree decomposition (no special condition).
	GHD bool
	// config names the solver configuration, every parameter included:
	// two methods with the same config run the same solver, whatever
	// their Name. The experiment driver keys its runs on it.
	config string
}

// BoundState records what a method established about "hw ≤ k".
type BoundState int

const (
	// Unknown: the run for this width timed out.
	Unknown BoundState = iota
	// Yes: an HD of width ≤ k was found (and validated).
	Yes
	// No: the method refuted width k within budget.
	No
)

// Result is the outcome of one (method, instance) evaluation.
type Result struct {
	Instance hyperbench.Instance
	Method   string
	// Solved: optimal width found and proven optimal within the budget.
	Solved bool
	// Width is the smallest width with a found HD (0 if none found).
	Width int
	// Runtime is the total wall time spent on the instance across all
	// width runs (the paper's per-instance "running time").
	Runtime time.Duration
	// TimedOut reports whether any width run hit the budget.
	TimedOut bool
	// Bounds[k] is the decision state for hw ≤ k, k = 1..KMax.
	Bounds map[int]BoundState
	// LBSource records how a ladder method proved its lower bound:
	// "structural" (hypergraph.WidthLowerBound), "probe" (refuted during
	// the run) or "trivial" (optimum was width 1). Empty for the
	// width-parameterised methods.
	LBSource string
	// Err records validation failures or internal errors (never expected).
	Err error
}

// Runner executes methods over instances.
type Runner struct {
	// Timeout is the budget of one run, mirroring the paper's per-run
	// one-hour limit (scaled down; see docs/RESULTS.md,
	// "Substitutions"). A width-parameterised method (runParam: det-k,
	// log-k, the hybrid) gets one Timeout per width it tries, so up to
	// KMax per instance; a ladder method (runLadder: the HtdLEO
	// stand-in and the width ladder) gets one Timeout for its whole
	// search.
	Timeout time.Duration
	// KMax bounds the width search (the paper used widths 1..10).
	KMax int
}

// Run evaluates one method on one instance.
func (r *Runner) Run(ctx context.Context, m Method, in hyperbench.Instance) Result {
	if m.SolveLadder != nil {
		return r.runLadder(ctx, m, in)
	}
	return r.runParam(ctx, m, in)
}

func (r *Runner) runParam(ctx context.Context, m Method, in hyperbench.Instance) Result {
	res := Result{Instance: in, Method: m.Name, Bounds: map[int]BoundState{}}
	provenBelow := true // all widths < current refuted
	for k := 1; k <= r.KMax; k++ {
		runCtx, cancel := context.WithTimeout(ctx, r.Timeout)
		start := time.Now()
		d, ok, err := m.NewParam(in.H, k).Decompose(runCtx)
		elapsed := time.Since(start)
		cancel()
		res.Runtime += elapsed

		switch {
		case err != nil && runCtx.Err() != nil:
			// Per-run timeout (or outer cancellation).
			res.Bounds[k] = Unknown
			res.TimedOut = true
			provenBelow = false
			if ctx.Err() != nil {
				res.Err = ctx.Err()
				return res
			}
		case err != nil:
			res.Err = err
			return res
		case ok:
			if verr := validate(d, k, m.GHD); verr != nil {
				res.Err = fmt.Errorf("harness: %s on %s k=%d: %w", m.Name, in.Name, k, verr)
				return res
			}
			res.Bounds[k] = Yes
			// hw ≤ k implies hw ≤ k' for all larger k'.
			for k2 := k + 1; k2 <= r.KMax; k2++ {
				res.Bounds[k2] = Yes
			}
			res.Width = k
			res.Solved = provenBelow
			return res
		default:
			res.Bounds[k] = No
		}
	}
	return res
}

// runLadder evaluates a width-ladder method. Widths below the reported
// lower bound are refuted, even when the run timed out; the claimed
// optimum counts only once its witness passes the independent checker,
// as runParam validates before recording Yes.
func (r *Runner) runLadder(ctx context.Context, m Method, in hyperbench.Instance) Result {
	res := Result{Instance: in, Method: m.Name, Bounds: map[int]BoundState{}}
	runCtx, cancel := context.WithTimeout(ctx, r.Timeout)
	defer cancel()
	start := time.Now()
	lr, err := m.SolveLadder(runCtx, in.H, r.KMax)
	res.Runtime = time.Since(start)

	for k := 1; k < lr.LowerBound && k <= r.KMax; k++ {
		res.Bounds[k] = No
	}
	// A ladder method's only initial bound is the structural one.
	res.LBSource = lr.LowerBoundFrom.String()
	if lr.LowerBoundFrom == logk.BoundInitial {
		res.LBSource = "structural"
	}
	switch {
	case err != nil && runCtx.Err() != nil:
		res.TimedOut = true
		if ctx.Err() != nil {
			res.Err = ctx.Err()
		}
	case err != nil:
		res.Err = err
	case lr.Found:
		if verr := validate(lr.Decomp, lr.Width, m.GHD); verr != nil {
			res.Err = fmt.Errorf("harness: %s on %s: %w", m.Name, in.Name, verr)
			return res
		}
		for k := lr.Width; k <= r.KMax; k++ {
			res.Bounds[k] = Yes
		}
		res.Width = lr.Width
		res.Solved = true
	}
	return res
}

func validate(d *decomp.Decomp, k int, ghd bool) error {
	if ghd {
		if err := decomp.CheckGHD(d); err != nil {
			return err
		}
	} else if err := decomp.CheckHD(d); err != nil {
		return err
	}
	return decomp.CheckWidth(d, k)
}

// Stat summarises runtimes of solved instances in one group.
type Stat struct {
	Count    int     // instances in the group
	Solved   int     // solved by the method
	AvgSec   float64 // over solved instances
	MaxSec   float64
	StdevSec float64
}

// Aggregate computes solved counts and runtime statistics for the subset
// of results matched by filter.
func Aggregate(results []Result, filter func(Result) bool) Stat {
	var st Stat
	var times []float64
	for _, r := range results {
		if !filter(r) {
			continue
		}
		st.Count++
		if r.Solved {
			st.Solved++
			times = append(times, r.Runtime.Seconds())
		}
	}
	if len(times) > 0 {
		sum := 0.0
		st.MaxSec = times[0]
		for _, t := range times {
			sum += t
			if t > st.MaxSec {
				st.MaxSec = t
			}
		}
		st.AvgSec = sum / float64(len(times))
		varsum := 0.0
		for _, t := range times {
			varsum += (t - st.AvgSec) * (t - st.AvgSec)
		}
		st.StdevSec = math.Sqrt(varsum / float64(len(times)))
	}
	return st
}
