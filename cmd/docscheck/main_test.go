package main

import (
	"path/filepath"
	"slices"
	"testing"
)

// TestGoCommentReferences pins the Go-comment rule on
// testdata/gocomments: a *.md name resolves beside the file or at the
// root; names inside URLs and outside comments are not checked.
func TestGoCommentReferences(t *testing.T) {
	root := filepath.Join("testdata", "gocomments")
	broken, mdFiles, goFiles, err := check(root)
	if err != nil {
		t.Fatal(err)
	}
	if mdFiles != 3 || goFiles != 1 {
		t.Fatalf("read %d Markdown and %d Go files, want 3 and 1", mdFiles, goFiles)
	}
	src := filepath.Join(root, "pkg", "pkg.go")
	want := []string{
		src + `:10: comment names "MISSING.md": no such file beside it or at the root`,
		src + `:13: comment names "docs/ABSENT.md": no such file beside it or at the root`,
	}
	if !slices.Equal(broken, want) {
		t.Fatalf("diagnostics:\n%q\nwant:\n%q", broken, want)
	}
}

// TestRepositoryDocs runs both rules over the repository itself, so a
// broken intra-repo link or anchor, or a Go comment naming a missing
// *.md file, fails `go test ./...` with one line per diagnostic.
func TestRepositoryDocs(t *testing.T) {
	broken, mdFiles, goFiles, err := check(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range broken {
		t.Error(b)
	}
	t.Logf("%d Markdown and %d Go file(s) read", mdFiles, goFiles)
}
