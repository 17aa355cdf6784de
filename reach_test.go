package htd

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// reachAllowlist names the non-test declarations that no main, no
// exported name of this package and no perfbench/ code reaches, but that
// stay, each with its reason. A name is its package's import path, a
// dot, then the declared name or Receiver.Method.
var reachAllowlist = map[string]string{
	"repro/internal/decomp.CheckExtended":         "Definition 3.3 oracle; detk_test.go checks extended HDs with it",
	"repro/internal/decomp.FindBalancedSeparator": "Lemma 3.10 oracle; TestBalancedSeparatorProperty finds a balanced separator in every log-k HD with it",
	"repro/internal/decomp.IsBalancedSeparator":   "Definition 3.9 oracle; TestBalancedSeparatorProperty checks the separator it finds with it",
	"repro/internal/decomp.computeSubtreeCov":     "helper of the Definition 3.9 oracles above",
	"repro/internal/join.ParseDocument":           "entry point of FuzzParseQuery, FuzzEvalDocument and the parser and aggregate tests",
	"repro/internal/join.FormatDocument":          "inverse of ParseDocument and ParseRelations; FuzzParseQuery round-trips every accepted input through it",
	"repro/internal/join.FormatQuery":             "the query half of FormatDocument; the query tests print failing queries with it",
	"repro/internal/store.Log.Sync":               "durability flush: makes every appended record survive a crash",
	"repro/internal/store.Tiered.Sync":            "durability flush of the disk tier's log",
	"repro/internal/join.BagCache.Usage":          "TestBagCacheSnapshotScope bounds a snapshot's cached rows by its live tuples; nothing else shows them",
	"repro/internal/store.Flight.Waiting":         "TestFlightCoalesces waits on it until every follower blocks; nothing else shows a blocked follower",
	"repro/internal/store.Tiered.Compact":         "TestStoreStress compacts the disk tier mid-traffic with it; nothing else compacts on demand",
	"repro/internal/store.Log.Compact":            "Tiered.Compact's callee, so TestStoreStress compacts through it; a full segment compacts through Log.compact",
}

// TestEveryDeclarationReached fails on any function, method, type, var or
// const of the module's non-test code that nothing reaches from a main,
// an init, a package-level var initialiser, an exported name of this
// package or a name perfbench/ uses, unless reachAllowlist names it. It
// also fails on an allowlist entry that is reached or no longer exists.
func TestEveryDeclarationReached(t *testing.T) {
	found, err := reachScan(".", "perfbench")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range reachProblems(found, reachAllowlist) {
		t.Error(p)
	}
}

// TestReachFixture pins the checker's rule on a tiny module under
// testdata/reach: what counts as a use, what does not, and that a stale
// allowlist entry fails.
func TestReachFixture(t *testing.T) {
	found, err := reachScan(filepath.Join("testdata", "reach"), "frozen")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for name, reached := range found {
		if !reached {
			got = append(got, name)
		}
	}
	sort.Strings(got)
	want := []string{
		"fix.internalOnly",         // unexported in the root package
		"fix/lib.Dead",             // exported; var _ = Dead is no use
		"fix/lib.Level.Reset",      // reached receiver, in no interface
		"fix/lib.Square.Perimeter", // reached receiver, in no interface
		"fix/lib.Square.Sides",     // Shape.Sides is never called
		"fix/lib.helper",           // reached only from Dead
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("unreached = %q, want %q", got, want)
	}

	allow := map[string]string{}
	for _, name := range want {
		allow[name] = "kept on purpose"
	}
	if p := reachProblems(found, allow); len(p) != 0 {
		t.Errorf("problems with an exact allowlist = %q, want none", p)
	}
	allow["fix/lib.Total"] = "stale: main reaches it"
	allow["fix/lib.Gone"] = "stale: names nothing"
	delete(allow, "fix/lib.Dead")
	wantProblems := []string{
		"reach: allowlist entry fix/lib.Gone names no declaration",
		"reach: allowlist entry fix/lib.Total is reached; delete the entry",
		"reach: fix/lib.Dead is unreached; delete it, move it into its package's tests or allowlist it with a reason",
	}
	if p := reachProblems(found, allow); !reflect.DeepEqual(p, wantProblems) {
		t.Errorf("problems = %q, want %q", p, wantProblems)
	}
}

// reachProblems compares the checker's findings (every declaration, true
// when reached) with an allowlist, in sorted order.
func reachProblems(found map[string]bool, allow map[string]string) []string {
	var out []string
	for name, reached := range found {
		if _, ok := allow[name]; !ok && !reached {
			out = append(out, fmt.Sprintf("reach: %s is unreached; delete it, move it into its package's tests or allowlist it with a reason", name))
		}
	}
	for name := range allow {
		reached, ok := found[name]
		switch {
		case !ok:
			out = append(out, fmt.Sprintf("reach: allowlist entry %s names no declaration", name))
		case reached:
			out = append(out, fmt.Sprintf("reach: allowlist entry %s is reached; delete the entry", name))
		}
	}
	sort.Strings(out)
	return out
}

// reachNode is a syntax tree to walk for uses, with its package.
type reachNode struct {
	node ast.Node
	pkg  *reachPkg
}

// reachDecl is one package-level declaration: a function, a method, or
// one name of a type, var or const spec.
type reachDecl struct {
	reachNode
	name    string
	reached bool
}

type reachPkg struct {
	path  string
	files []*ast.File
	info  *types.Info
	types *types.Package
}

// reachLoader type-checks a module's packages from source and imports
// everything else (the standard library) from export data.
type reachLoader struct {
	root, module string
	fset         *token.FileSet
	std          types.Importer
	stdPkgs      []*types.Package
	pkgs         map[string]*reachPkg
}

func (l *reachLoader) Import(path string) (*types.Package, error) {
	if path != l.module && !strings.HasPrefix(path, l.module+"/") {
		p, err := l.std.Import(path)
		if err == nil {
			l.stdPkgs = append(l.stdPkgs, p)
		}
		return p, err
	}
	p, err := l.load(path)
	if err != nil {
		return nil, err
	}
	return p.types, nil
}

// load parses the non-test files go/build selects in the package's
// directory and type-checks them, once per import path.
func (l *reachLoader) load(path string) (*reachPkg, error) {
	if p, ok := l.pkgs[path]; ok {
		if p == nil {
			return nil, fmt.Errorf("reach: import cycle through %s", path)
		}
		return p, nil
	}
	l.pkgs[path] = nil
	dir := filepath.Join(l.root, filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(path, l.module), "/")))
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	p := &reachPkg{path: path, info: &types.Info{
		Defs: map[*ast.Ident]types.Object{},
		Uses: map[*ast.Ident]types.Object{},
	}}
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	conf := types.Config{Importer: l}
	if p.types, err = conf.Check(path, l.fset, p.files, p.info); err != nil {
		return nil, err
	}
	l.pkgs[path] = p
	return p, nil
}

// reachScan loads every package of the module rooted at root (not
// testdata, not nested modules) and the frozen package at root/frozen,
// and reports each of the module's package-level declarations by name,
// true when it is reached. The roots are every main and init, every
// package-level var initialiser with a name, every exported name of the
// module's root package and every name the frozen package uses. A
// reached declaration reaches every package-level name its source uses.
// A method is reached when its receiver type is reached and it
// implements an interface method that reached code calls, or any
// interface the standard library declares (flag.Value, fmt.Stringer,
// error, ...).
func reachScan(root, frozen string) (map[string]bool, error) {
	module, bps, err := modulePackages(root)
	if err != nil {
		return nil, err
	}
	l := &reachLoader{root: root, module: module, fset: token.NewFileSet(), pkgs: map[string]*reachPkg{}}
	var paths []string
	stdImports := map[string]bool{}
	addImports := func(bp *build.Package) {
		for _, path := range bp.Imports {
			if path != module && !strings.HasPrefix(path, module+"/") {
				stdImports[path] = true
			}
		}
	}
	for _, bp := range bps {
		addImports(bp)
		rel, _ := filepath.Rel(root, bp.Dir)
		paths = append(paths, strings.TrimSuffix(module+"/"+filepath.ToSlash(rel), "/."))
	}
	bp, err := build.ImportDir(filepath.Join(root, frozen), 0)
	if err != nil {
		return nil, err
	}
	addImports(bp)
	if l.std, err = stdImporter(l.fset, stdImports); err != nil {
		return nil, err
	}
	var pkgs []*reachPkg
	for _, path := range paths {
		p, err := l.load(path)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
	frozenPkg, err := l.load(module + "/" + frozen)
	if err != nil {
		return nil, err
	}

	decls := map[types.Object]*reachDecl{}
	var methods []*types.Func
	add := func(obj types.Object, node ast.Node, p *reachPkg) {
		name := p.path + "." + obj.Name()
		if fn, ok := obj.(*types.Func); ok {
			if recv := fn.Signature().Recv(); recv != nil {
				name = p.path + "." + reachNamed(recv.Type()).Obj().Name() + "." + fn.Name()
				methods = append(methods, fn)
			}
		}
		decls[obj] = &reachDecl{reachNode: reachNode{node, p}, name: name}
	}
	var work []reachNode
	walked := map[ast.Node]bool{}
	walk := func(node ast.Node, p *reachPkg) {
		if !walked[node] {
			walked[node] = true
			work = append(work, reachNode{node, p})
		}
	}
	mark := func(obj types.Object) {
		if d := decls[obj]; d != nil && !d.reached {
			d.reached = true
			walk(d.node, d.pkg)
		}
	}
	for _, p := range pkgs {
		for _, f := range p.files {
			for _, decl := range f.Decls {
				switch decl := decl.(type) {
				case *ast.FuncDecl:
					if decl.Recv == nil && (decl.Name.Name == "init" || decl.Name.Name == "main" && p.types.Name() == "main") {
						walk(decl, p)
					} else if obj := p.info.Defs[decl.Name]; obj != nil && decl.Name.Name != "_" {
						add(obj, decl, p)
					}
				case *ast.GenDecl:
					for _, spec := range decl.Specs {
						switch spec := spec.(type) {
						case *ast.TypeSpec:
							add(p.info.Defs[spec.Name], spec, p)
						case *ast.ValueSpec:
							named := false
							for _, n := range spec.Names {
								if n.Name != "_" {
									named = true
									add(p.info.Defs[n], spec, p)
								}
							}
							if named && decl.Tok == token.VAR && len(spec.Values) > 0 {
								walk(spec, p)
							}
						}
					}
				}
			}
		}
	}
	if facade := l.pkgs[module]; facade != nil {
		for _, name := range facade.types.Scope().Names() {
			if token.IsExported(name) {
				mark(facade.types.Scope().Lookup(name))
			}
		}
	}
	for _, f := range frozenPkg.files {
		walk(f, frozenPkg)
	}

	// The interfaces whose methods may be called, by method name: every
	// interface the standard library declares, since it calls their
	// methods without naming them, and below, every module interface
	// whose method reached code calls.
	ifaces := map[string][]*types.Interface{}
	addIface := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				ifaces[it.Method(i).Name()] = append(ifaces[it.Method(i).Name()], it)
			}
		}
	}
	addIface(types.Universe.Lookup("error").Type())
	f, err := parser.ParseFile(l.fset, "unnamed.go", reachUnnamedIfaces, 0)
	if err != nil {
		return nil, err
	}
	unnamed, err := new(types.Config).Check("unnamed", l.fset, []*ast.File{f}, nil)
	if err != nil {
		return nil, err
	}
	for _, name := range unnamed.Scope().Names() {
		addIface(unnamed.Scope().Lookup(name).Type())
	}
	seen := map[*types.Package]bool{}
	for len(l.stdPkgs) > 0 {
		p := l.stdPkgs[0]
		l.stdPkgs = l.stdPkgs[1:]
		if seen[p] {
			continue
		}
		seen[p] = true
		l.stdPkgs = append(l.stdPkgs, p.Imports()...)
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok && tn.Exported() {
				if n, ok := tn.Type().(*types.Named); !ok || n.TypeParams().Len() == 0 {
					addIface(tn.Type())
				}
			}
		}
	}

	// Walk reached code until nothing new is reached, then reach the
	// methods that an interface makes callable, and repeat.
	called := map[*types.Func]bool{}
	for {
		for len(work) > 0 {
			d := work[len(work)-1]
			work = work[:len(work)-1]
			ast.Inspect(d.node, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				switch obj := d.pkg.info.Uses[id].(type) {
				case *types.Func:
					if recv := obj.Signature().Recv(); recv != nil && !called[obj] {
						if it, ok := recv.Type().Underlying().(*types.Interface); ok {
							called[obj] = true
							ifaces[obj.Name()] = append(ifaces[obj.Name()], it)
						}
					}
					mark(obj.Origin())
				case *types.Var:
					if !obj.IsField() {
						mark(obj.Origin())
					}
				case *types.TypeName, *types.Const:
					mark(obj)
				}
				return true
			})
		}
		for _, m := range methods {
			if decls[m].reached {
				continue
			}
			recv := reachNamed(m.Signature().Recv().Type())
			if !decls[recv.Obj()].reached {
				continue
			}
			for _, it := range ifaces[m.Name()] {
				// A generic receiver is taken to implement any interface
				// with a method of the name.
				if recv.TypeParams().Len() > 0 || types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it) {
					mark(m)
					break
				}
			}
		}
		if len(work) == 0 {
			break
		}
	}
	found := map[string]bool{}
	for _, d := range decls {
		found[d.name] = d.reached
	}
	return found, nil
}

// modulePackages reads the module path from root/go.mod and returns it
// with go/build's view of every package directory of the module: not
// testdata, dot or underscore directories, and not nested modules.
func modulePackages(root string) (string, []*build.Package, error) {
	gomod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", nil, err
	}
	var module string
	for _, line := range strings.Split(string(gomod), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			module = f[1]
		}
	}
	var pkgs []*build.Package
	err = filepath.WalkDir(root, func(dir string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if dir != root {
			if n := d.Name(); n == "testdata" || strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		bp, err := build.ImportDir(dir, 0)
		if err != nil {
			var noGo *build.NoGoError
			if errors.As(err, &noGo) {
				return nil
			}
			return err
		}
		pkgs = append(pkgs, bp)
		return nil
	})
	return module, pkgs, err
}

// stdImporter imports the given standard-library packages, and their
// dependencies, from the export data that one `go list -export` run
// reports for all of them. importer.Default runs go list once per
// package, which costs seconds of CPU more, enough to starve the
// timing-sensitive tests that `go test ./...` runs beside this one.
func stdImporter(fset *token.FileSet, imports map[string]bool) (types.Importer, error) {
	args := []string{"list", "-export", "-deps", "-f", "{{.ImportPath}}\t{{.Export}}"}
	for path := range imports {
		args = append(args, path)
	}
	out, err := exec.Command("go", args...).Output()
	if err != nil {
		return nil, fmt.Errorf("reach: go list -export: %w", err)
	}
	exports := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		if path, file, ok := strings.Cut(line, "\t"); ok {
			exports[path] = file
		}
	}
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if exports[path] == "" {
			return nil, fmt.Errorf("reach: no export data for %s", path)
		}
		return os.Open(exports[path])
	}), nil
}

// reachUnnamedIfaces declares the interfaces that errors.Is, errors.As
// and errors.Unwrap assert without naming them in their package scope.
const reachUnnamedIfaces = `package unnamed

type (
	is        interface{ Is(error) bool }
	as        interface{ As(any) bool }
	unwrap    interface{ Unwrap() error }
	unwrapAll interface{ Unwrap() []error }
)
`

// reachNamed is a method receiver's named type, under any pointer.
func reachNamed(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return t.(*types.Named)
}
