package htd

import (
	"bytes"
	"go/format"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestGofmt fails on every file that `gofmt -l .` lists. The walk is
// gofmt's: every directory, hidden ones, testdata and perfbench/
// included, and every file named *.go whose name does not start with a
// dot. go/format.Source is the formatter gofmt runs on a whole file.
func TestGofmt(t *testing.T) {
	files := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || strings.HasPrefix(d.Name(), ".") || !strings.HasSuffix(d.Name(), ".go") {
			return err
		}
		files++
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		out, err := format.Source(src)
		switch {
		case err != nil:
			t.Errorf("%s: %v", path, err)
		case !bytes.Equal(out, src):
			t.Errorf("%s: not gofmt-formatted; run gofmt -w %s", path, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d Go files", files)
}

// TestExamplesRun runs every directory under examples/ with `go run`.
// Each example checks its own answers and exits non-zero on a wrong
// one, and the glob picks up a new or renamed example by itself.
func TestExamplesRun(t *testing.T) {
	dirs, err := filepath.Glob(filepath.Join("examples", "*"))
	if err != nil {
		t.Fatal(err)
	}
	ran := 0
	for _, dir := range dirs {
		if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
			continue
		}
		ran++
		pkg := "./" + filepath.ToSlash(dir)
		t.Run(filepath.Base(dir), func(t *testing.T) {
			if out, err := exec.Command("go", "run", pkg).CombinedOutput(); err != nil {
				t.Errorf("go run %s: %v\n%s", pkg, err, out)
			}
		})
	}
	if ran == 0 {
		t.Fatal("no directory under examples/")
	}
}
