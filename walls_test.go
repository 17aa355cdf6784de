package htd

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestWallsSelectExistingTests holds the Makefile to the tests that
// exist. `make stress` selects its tests with `go test -run 'A|B|C'
// ./pkg...`, and a renamed or deleted test drops out of such a
// selection without any failure, so every alternative of every such
// regex must match a Test, Fuzz or Example function declared in those
// packages' _test.go files. And FUZZ_TARGETS, the one list `make fuzz`,
// `make fuzz-long`, CI and the nightly run, must name exactly the
// module's Fuzz functions.
func TestWallsSelectExistingTests(t *testing.T) {
	for _, p := range wallsProblems(t, ".") {
		t.Error(p)
	}
}

// wallsProblems checks the Makefile of the module rooted at root and
// returns one line per problem.
func wallsProblems(t *testing.T, root string) []string {
	t.Helper()
	fset := token.NewFileSet()
	var problems []string
	var fuzzListed []string
	walls := 0
	for _, line := range makefileLines(t, root) {
		if name, value, ok := strings.Cut(line, "="); ok && strings.TrimSpace(name) == "FUZZ_TARGETS" {
			fuzzListed = strings.Fields(value)
			continue
		}
		// A wall is a recipe line, so a comment quoting one is not.
		_, rest, ok := strings.Cut(line, "-run '")
		if !ok || !strings.HasPrefix(line, "\t") {
			continue
		}
		walls++
		regex, args, _ := strings.Cut(rest, "'")
		var pkgs, names []string
		for _, f := range strings.Fields(args) {
			if strings.HasPrefix(f, "./") {
				pkgs = append(pkgs, f)
				names = append(names, testFuncs(t, fset, filepath.Join(root, f))...)
			}
		}
		for _, alt := range strings.Split(regex, "|") {
			re, err := regexp.Compile(alt)
			if err != nil {
				problems = append(problems, fmt.Sprintf("walls: -run alternative %q: %v", alt, err))
				continue
			}
			if !slices.ContainsFunc(names, re.MatchString) {
				problems = append(problems, fmt.Sprintf("walls: -run alternative %q matches no test in %s", alt, strings.Join(pkgs, " ")))
			}
		}
	}
	if walls == 0 {
		problems = append(problems, "walls: found no go test -run '...' command in the Makefile")
	}
	t.Logf("%d -run commands, %d FUZZ_TARGETS entries", walls, len(fuzzListed))

	// Every Fuzz function of the module, as ./package:Function ("." is
	// the root package).
	_, bps, err := modulePackages(root)
	if err != nil {
		t.Fatal(err)
	}
	var fuzzFound []string
	for _, bp := range bps {
		rel, _ := filepath.Rel(root, bp.Dir)
		if rel != "." {
			rel = "./" + filepath.ToSlash(rel)
		}
		for _, name := range testFuncs(t, fset, bp.Dir) {
			if strings.HasPrefix(name, "Fuzz") {
				fuzzFound = append(fuzzFound, rel+":"+name)
			}
		}
	}
	for _, f := range fuzzFound {
		if !slices.Contains(fuzzListed, f) {
			problems = append(problems, fmt.Sprintf("walls: fuzz target %s is missing from FUZZ_TARGETS", f))
		}
	}
	for _, f := range fuzzListed {
		if !slices.Contains(fuzzFound, f) {
			problems = append(problems, fmt.Sprintf("walls: FUZZ_TARGETS entry %s names no fuzz function", f))
		}
	}
	return problems
}

// TestMakeTargetsExist holds CI and the Makefile to the Makefile's
// targets: every `make X` that a workflow under .github/workflows runs
// (or names in backquotes in a comment), every prerequisite of `ci` and
// every .PHONY entry must name a target the Makefile defines, so a
// deleted target cannot leave CI, `make ci` or .PHONY pointing at
// nothing.
func TestMakeTargetsExist(t *testing.T) {
	for _, p := range targetProblems(t, ".") {
		t.Error(p)
	}
}

var (
	// makeRuleRE matches a rule line: the target, then its prerequisites.
	makeRuleRE = regexp.MustCompile(`^([\w.-]+)\s*:($|[^=].*)`)
	// makeRunRE matches a make call in a workflow command, and
	// makeQuotedRE one quoted in a workflow comment, where a bare
	// "make" is an English word.
	makeRunRE    = regexp.MustCompile(`(?:^|\s)make\s+([\w.-]+)`)
	makeQuotedRE = regexp.MustCompile("`make ([\\w.-]+)")
)

// targetProblems checks the Makefile and the workflows of the module
// rooted at root and returns one line per problem.
func targetProblems(t *testing.T, root string) []string {
	t.Helper()
	targets := map[string]bool{}
	lists := map[string][]string{} // the prerequisites of ci and .PHONY
	for _, line := range makefileLines(t, root) {
		m := makeRuleRE.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		if m[1] == "ci" || m[1] == ".PHONY" {
			lists[m[1]] = strings.Fields(m[2])
		}
		if m[1] != ".PHONY" {
			targets[m[1]] = true
		}
	}
	var problems []string
	for _, list := range []string{"ci", ".PHONY"} {
		if len(lists[list]) == 0 {
			problems = append(problems, fmt.Sprintf("walls: Makefile: found no %s rule with prerequisites", list))
		}
		for _, name := range lists[list] {
			if !targets[name] {
				problems = append(problems, fmt.Sprintf("walls: Makefile: %s lists %s, which is no target", list, name))
			}
		}
	}

	workflows, err := filepath.Glob(filepath.Join(root, ".github", "workflows", "*.yml"))
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	for _, wf := range workflows {
		raw, err := os.ReadFile(wf)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(raw), "\n") {
			re := makeRunRE
			if strings.HasPrefix(strings.TrimSpace(line), "#") {
				re = makeQuotedRE
			}
			for _, m := range re.FindAllStringSubmatch(line, -1) {
				calls++
				if !targets[m[1]] {
					problems = append(problems, fmt.Sprintf("walls: %s:%d: make %s names no Makefile target", wf, i+1, m[1]))
				}
			}
		}
	}
	if calls == 0 {
		problems = append(problems, "walls: found no make command in .github/workflows")
	}
	t.Logf("%d Makefile targets, %d make calls in %d workflows", len(targets), calls, len(workflows))
	return problems
}

// makefileLines returns the Makefile of the module rooted at root as
// logical lines: a backslash-newline continues a line.
func makefileLines(t *testing.T, root string) []string {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(root, "Makefile"))
	if err != nil {
		t.Fatal(err)
	}
	return strings.Split(strings.ReplaceAll(string(raw), "\\\n", ""), "\n")
}

// testFuncs returns the names of the Test, Fuzz and Example functions
// declared in the _test.go files of the package in dir.
func testFuncs(t *testing.T, fset *token.FileSet, dir string) []string {
	t.Helper()
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, file := range append(bp.TestGoFiles, bp.XTestGoFiles...) {
		f, err := parser.ParseFile(fset, filepath.Join(dir, file), nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Recv != nil {
				continue
			}
			for _, prefix := range []string{"Test", "Fuzz", "Example"} {
				if strings.HasPrefix(fn.Name.Name, prefix) {
					names = append(names, fn.Name.Name)
					break
				}
			}
		}
	}
	return names
}
