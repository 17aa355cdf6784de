package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const triangleSrc = "r1(x,y), r2(y,z), r3(z,x), sub(x,y).\n"

func writeTempHG(t *testing.T, contents string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "in.hg")
	if err := os.WriteFile(path, []byte(contents), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestReportOnFile(t *testing.T) {
	path := writeTempHG(t, triangleSrc)
	var out strings.Builder
	if err := report(&out, nil, path); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"vertices:        3",
		"edges:           4  (group: |E| <= 10)",
		"connected:       true",
		"alpha-acyclic:   false",
		"width bound:     2",
		"subsumed edges:  1", // sub(x,y) ⊆ r1(x,y)
	} {
		if !strings.Contains(got, want) {
			t.Errorf("report missing %q:\n%s", want, got)
		}
	}
}

func TestReportFromStdin(t *testing.T) {
	var out strings.Builder
	if err := report(&out, strings.NewReader("a(x,y), b(y,z).\n"), "-"); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "alpha-acyclic:   true") || !strings.Contains(got, "width bound:     1") {
		t.Fatalf("chain must be acyclic, of width bound 1:\n%s", got)
	}
	if !strings.Contains(got, "-:") {
		t.Fatalf("stdin report should be labelled '-':\n%s", got)
	}
}

func TestRunMainExitCodes(t *testing.T) {
	var stdout, stderr strings.Builder

	// No args: usage on stderr, exit 2.
	if code := runMain(nil, nil, &stdout, &stderr); code != 2 {
		t.Fatalf("no args: exit %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "usage: hgstat") {
		t.Fatalf("usage missing: %q", stderr.String())
	}

	// Good file: exit 0 with the report on stdout.
	path := writeTempHG(t, triangleSrc)
	stdout.Reset()
	stderr.Reset()
	if code := runMain([]string{path}, nil, &stdout, &stderr); code != 0 {
		t.Fatalf("good file: exit %d (stderr %q)", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "vertices:") {
		t.Fatalf("report missing:\n%s", stdout.String())
	}

	// Missing file: exit 1, error on stderr, good files still reported.
	stdout.Reset()
	stderr.Reset()
	if code := runMain([]string{"/definitely/not/there.hg", path}, nil, &stdout, &stderr); code != 1 {
		t.Fatalf("missing file: exit %d, want 1", code)
	}
	if !strings.Contains(stderr.String(), "hgstat: /definitely/not/there.hg") {
		t.Fatalf("error line missing: %q", stderr.String())
	}
	if !strings.Contains(stdout.String(), "vertices:") {
		t.Fatal("surviving file should still be reported")
	}

	// Unparseable file: exit 1.
	bad := writeTempHG(t, "this is ( not a hypergraph")
	if code := runMain([]string{bad}, nil, &stdout, &stderr); code != 1 {
		t.Fatalf("bad file: exit %d, want 1", code)
	}
}
