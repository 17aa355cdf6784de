package main

import (
	"bytes"
	"slices"
	"strings"
	"testing"
)

func TestExperimentsParsesLists(t *testing.T) {
	for _, tc := range []struct {
		spec string
		want []string
	}{
		{"table1", []string{"table1"}},
		{"table1,table5", []string{"table1", "table5"}},
		{" table3 , figure3", []string{"table3", "figure3"}},
		{"all", allExperiments},
	} {
		got, err := experiments(tc.spec)
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
// before the first experiment starts, so nothing is printed.
func TestRunRejectsUnknownBeforeAnyRun(t *testing.T) {
	var stdout bytes.Buffer
	err := run([]string{"-experiment", "table1,table3,tabel4", "-quiet"}, &stdout)
	if err == nil || !strings.Contains(err.Error(), `"tabel4"`) {
		t.Fatalf("run = %v, want an unknown experiment \"tabel4\" error", err)
	}
	if stdout.Len() != 0 {
		t.Fatalf("output before the name check failed:\n%s", &stdout)
	}
}
