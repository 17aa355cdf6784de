package harness

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/hyperbench"
)

func TestExperimentsParsesLists(t *testing.T) {
	var all []string
	for _, v := range views {
		all = append(all, v.name)
	}
	for _, tc := range []struct {
		spec string
		want []string
	}{
		{"table1", []string{"table1"}},
		{"table1,table5", []string{"table1", "table5"}},
		{" table3 , figure3", []string{"table3", "figure3"}},
		{"all", all},
	} {
		exps, err := experiments(tc.spec)
		var got []string
		for _, e := range exps {
			got = append(got, e.name)
		}
		if err != nil || !slices.Equal(got, tc.want) {
			t.Errorf("experiments(%q) = %v, %v; want %v", tc.spec, got, err, tc.want)
		}
	}
	for _, spec := range []string{"tabel1", "table1,tabel3", "table1,", ""} {
		if _, err := experiments(spec); err == nil {
			t.Errorf("experiments(%q) accepted an unknown name", spec)
		}
	}
}

// TestRunRejectsUnknownBeforeAnyRun: a typo late in the list fails
// before the first experiment starts, so nothing is run or printed.
func TestRunRejectsUnknownBeforeAnyRun(t *testing.T) {
	var stdout bytes.Buffer
	s := newResultSet(Config{Suite: tinySuite(), Timeout: time.Second, KMax: 3, Workers: 1})
	calls := fakeRuns(s, 2)
	_, err := s.run(context.Background(), "table1,table3,tabel4", &stdout)
	if err == nil || !strings.Contains(err.Error(), `"tabel4"`) {
		t.Fatalf("run = %v, want an unknown experiment \"tabel4\" error", err)
	}
	if stdout.Len() != 0 || len(calls) != 0 {
		t.Fatalf("%d runs and output before the name check failed:\n%s", len(calls), &stdout)
	}
}

// fakeRuns replaces s.exec with a stand-in that starts no solver and
// returns the number of runs per key. Run n (from 1) takes n tenths of
// a second and is solved at width 2 when every divides n (never when
// every is 0), so a run repeated by mistake prints different numbers.
func fakeRuns(s *resultSet, every int) map[runKey]int {
	calls := map[runKey]int{}
	n := 0
	s.exec = func(_ context.Context, m Method, in hyperbench.Instance, timeout time.Duration) Result {
		calls[runKey{m.config, in.Name, timeout}]++
		n++
		r := Result{Instance: in, Method: m.Name, Runtime: time.Duration(n) * 100 * time.Millisecond,
			Bounds: map[int]BoundState{1: No}}
		if every > 0 && n%every == 0 {
			r.Solved, r.Width = true, 2
			for k := 2; k <= s.cfg.KMax; k++ {
				r.Bounds[k] = Yes
			}
		}
		return r
	}
	return calls
}

// TestExperimentsRunOnce is the run-once wall: the experiments that
// share columns, listed together over a suite with HBlarge-sim
// instances, run each (method configuration, instance, budget) once,
// and every configuration they read does run. Table 2's shared rows are
// the roster's columns on the large instances, number for number.
func TestExperimentsRunOnce(t *testing.T) {
	suite := hyperbench.Suite(hyperbench.Config{Scale: 1, Seed: 2022})
	large := hyperbench.Large(suite, 6)
	small := 0
	for _, in := range suite {
		if in.Edges() <= 30 {
			small++
		}
	}
	if len(large) == 0 || small == 0 {
		t.Fatalf("suite has %d large and %d small instances", len(large), small)
	}
	ctx := context.Background()
	s := newResultSet(Config{Suite: suite, Timeout: 500 * time.Millisecond, KMax: 4, Workers: 2})
	calls := fakeRuns(s, 3)
	var out bytes.Buffer
	if _, err := s.run(ctx, "table1,table2,table5,figure1,ghd", &out); err != nil {
		t.Fatal(err)
	}
	runs := 0
	for k, n := range calls {
		runs += n
		if n > 1 {
			t.Errorf("%v ran %d times", k, n)
		}
	}

	// The views asked again start no run.
	t2, cores := s.table2(ctx), len(s.figure1(ctx).Rows)
	roster := s.roster(ctx)
	again := 0
	for _, n := range calls {
		again += n
	}
	if again != runs {
		t.Errorf("asking the views again ran %d more", again-runs)
	}

	// The roster (4 methods) and Table 5's 10x column over the suite;
	// Table 2's five thresholds other than the roster's hybrid; Figure
	// 1's plain log-k at every core count and its hybrid at every one
	// but the roster's two workers; BalancedGo on the small instances.
	n, l := len(suite), len(large)
	if want := 4*n + n + 5*l + cores*l + (cores-1)*l + small; runs != want {
		t.Errorf("%d runs, want %d: configurations that differ must not share a result", runs, want)
	}

	inLarge := map[string]bool{}
	for _, in := range large {
		inLarge[in.Name] = true
	}
	for _, c := range []struct {
		row    string
		method string
	}{{"WeightedCount 40", "log-k-decomp Hybrid"}, {"NewDetKDecomp -", "NewDetKDecomp"}, {"HtdLEO(sim) -", leoName}} {
		st := Aggregate(roster, func(r Result) bool { return r.Method == c.method && inLarge[r.Instance.Name] })
		want := &Table{}
		want.AddRow(st.Solved, st.AvgSec)
		i := slices.IndexFunc(t2.Rows, func(row []string) bool { return row[0]+" "+row[1] == c.row })
		if i < 0 || !slices.Equal(t2.Rows[i][2:], want.Rows[0]) {
			t.Errorf("Table 2's %q row does not read %v, the roster's %s on HBlarge-sim:\n%s", c.row, want.Rows[0], c.method, t2.Render())
		}
	}
	for _, name := range []string{"table1", "table2", "table5", "figure1", "ghd"} {
		if !strings.Contains(out.String(), "### "+name+" ###") {
			t.Errorf("no %s in the output:\n%s", name, &out)
		}
	}
}

// TestFigure1TimeoutsPerCoreCount: with no instance solved, Figure 1
// prints one timeout count per core count and method, each the number
// of instances and none above it.
func TestFigure1TimeoutsPerCoreCount(t *testing.T) {
	suite := hyperbench.Suite(hyperbench.Config{Scale: 1, Seed: 2022})
	large := len(hyperbench.Large(suite, 6))
	s := newResultSet(Config{Suite: suite, Timeout: time.Second, KMax: 4, Workers: 2})
	fakeRuns(s, 0)
	tab := s.figure1(context.Background())
	for _, col := range []string{"log-k timeouts", "log-k(Hybrid) timeouts"} {
		for i := range tab.Rows {
			if got := cell(t, tab, i, col); got != large {
				t.Errorf("row %d: %s %d, want %d of %d instances:\n%s", i, col, got, large, large, tab.Render())
			}
		}
	}
	var detK int
	note := tab.Notes[len(tab.Notes)-1]
	if _, err := fmt.Sscanf(note, "timeouts NewDetKDecomp(1core) %d", &detK); err != nil || detK != large {
		t.Errorf("det-k note %q, want %d timeouts", note, large)
	}
}
