package harness

import (
	"context"
	"fmt"
	"io"
	"slices"
	"strings"
	"time"

	"repro/internal/hyperbench"
)

// Config parameterises the experiment reproductions. The defaults in the
// benches use scaled-down timeouts; cmd/benchtab can raise them.
type Config struct {
	Suite   []hyperbench.Instance
	Timeout time.Duration
	KMax    int
	Workers int
	// Progress, if non-nil, receives completion ticks: done of total,
	// where total counts the runs one column request has to start.
	Progress func(done, total int)
}

// experiment is one table or figure of the evaluation. Its view asks
// the result set for the columns it reads and renders them.
type experiment struct {
	name string
	view func(*resultSet, context.Context) *Table
}

// views lists every experiment, in the order "all" runs them.
var views = []experiment{
	{"table1", (*resultSet).table1},
	{"table2", (*resultSet).table2},
	{"table3", (*resultSet).table3},
	{"table4", (*resultSet).table4},
	{"table5", (*resultSet).table5},
	{"figure1", (*resultSet).figure1},
	{"figure3", (*resultSet).figure3},
	{"depth", func(_ *resultSet, ctx context.Context) *Table {
		return DepthExperiment(ctx, []int{16, 32, 64, 128, 256, 512})
	}},
	{"ghd", (*resultSet).ghd},
}

// experiments parses a comma-separated list of experiment names, where
// "all" stands for every one. It fails on the first unknown name.
func experiments(spec string) ([]experiment, error) {
	var out []experiment
	for _, n := range strings.Split(spec, ",") {
		n = strings.TrimSpace(n)
		if n == "all" {
			out = append(out, views...)
			continue
		}
		i := slices.IndexFunc(views, func(e experiment) bool { return e.name == n })
		if i < 0 {
			return nil, fmt.Errorf("unknown experiment %q", n)
		}
		out = append(out, views[i])
	}
	return out, nil
}

// Run runs the experiments that spec lists (comma-separated names, or
// "all") over cfg and writes each one's table to w under a
// "### name ###" header. Every name is checked before the first run.
// One result set serves the whole call, so each (method configuration,
// instance, budget) runs at most once, however many experiments read
// it. The returned string is Figure 3's scatter CSV, empty unless
// figure3 is listed. Run stops at the first failed run and returns its
// error without printing the experiment that asked for it.
func Run(ctx context.Context, cfg Config, spec string, w io.Writer) (csv string, err error) {
	return newResultSet(cfg).run(ctx, spec, w)
}

func (s *resultSet) run(ctx context.Context, spec string, w io.Writer) (string, error) {
	exps, err := experiments(spec)
	if err != nil {
		return "", err
	}
	for _, e := range exps {
		out := e.view(s, ctx).Render()
		if s.err != nil {
			return "", s.err
		}
		fmt.Fprintf(w, "\n### %s ###\n\n%s", e.name, out)
	}
	return s.csv, nil
}

// runKey identifies one run: a method configuration on an instance at a
// per-run budget. The width bound is the result set's cfg.KMax.
type runKey struct {
	config   string
	instance string
	timeout  time.Duration
}

// resultSet holds every run of one driver invocation.
type resultSet struct {
	cfg  Config
	runs map[runKey]Result
	// exec runs one method on one instance at a budget; tests replace
	// it to count or fake runs.
	exec func(ctx context.Context, m Method, in hyperbench.Instance, timeout time.Duration) Result
	err  error  // the first failed run, or the context's error
	csv  string // Figure 3's scatter data, once figure3 has run
}

func newResultSet(cfg Config) *resultSet {
	return &resultSet{
		cfg:  cfg,
		runs: map[runKey]Result{},
		exec: func(ctx context.Context, m Method, in hyperbench.Instance, timeout time.Duration) Result {
			r := Runner{Timeout: timeout, KMax: cfg.KMax}
			return r.Run(ctx, m, in)
		},
	}
}

// results returns the result of every method on every instance of
// suite at budget timeout, instance by instance in the order of
// methods, each labelled with its method's Name. It runs only the pairs
// the set has not run yet, ticking cfg.Progress. Once a run has failed
// it records the error, runs nothing more and returns nil.
func (s *resultSet) results(ctx context.Context, timeout time.Duration, suite []hyperbench.Instance, methods ...Method) []Result {
	if s.err != nil {
		return nil
	}
	type pair struct {
		m  Method
		in hyperbench.Instance
	}
	var todo []pair
	for _, in := range suite {
		for _, m := range methods {
			if _, ok := s.runs[runKey{m.config, in.Name, timeout}]; !ok {
				todo = append(todo, pair{m, in})
			}
		}
	}
	for i, p := range todo {
		r := s.exec(ctx, p.m, p.in, timeout)
		s.runs[runKey{p.m.config, p.in.Name, timeout}] = r
		switch {
		case r.Err != nil:
			s.err = fmt.Errorf("%s on %s: %w", p.m.Name, p.in.Name, r.Err)
			return nil
		case ctx.Err() != nil:
			s.err = ctx.Err()
			return nil
		}
		if s.cfg.Progress != nil {
			s.cfg.Progress(i+1, len(todo))
		}
	}
	out := make([]Result, 0, len(suite)*len(methods))
	for _, in := range suite {
		for _, m := range methods {
			r := s.runs[runKey{m.config, in.Name, timeout}]
			r.Method = m.Name
			out = append(out, r)
		}
	}
	return out
}
