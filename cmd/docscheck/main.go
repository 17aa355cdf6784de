// Command docscheck fails when a committed Markdown file contains a
// broken intra-repo link: a relative target that does not exist on
// disk, or a #fragment that names no heading in the target file.
// External links (http, https, mailto) are ignored — the check gates
// repo navigability, not the reachability of the wider web. It also
// fails when a Go comment names a *.md file that exists neither
// relative to the comment's directory nor relative to the root. CI
// runs it on every PR (`make docs-check` is the local mirror):
//
//	docscheck [root]
//
// The root defaults to the current directory; .git and testdata trees
// are skipped. Exit status is non-zero iff any link or reference is
// broken, with one "file:line: message" diagnostic per violation.
package main

import (
	"bufio"
	"fmt"
	"go/scanner"
	"go/token"
	"io/fs"
	"net/url"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

// linkRE matches inline Markdown links [text](target). Images
// ![alt](target) share the suffix and are checked the same way.
var linkRE = regexp.MustCompile(`\]\(([^)\s]+)(?:\s+"[^"]*")?\)`)

// mdNameRE matches a *.md file name in a Go comment, with any leading
// directories. A URL matches the first alternative as a whole, so a
// name inside one (group 1 empty) is not checked.
var mdNameRE = regexp.MustCompile(`[a-z]+://\S+|((?:\.\.?/)*\w[\w./-]*\.md)\b`)

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	broken, mdFiles, goFiles, err := check(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "docscheck:", err)
		os.Exit(2)
	}
	if len(broken) > 0 {
		for _, b := range broken {
			fmt.Fprintln(os.Stderr, b)
		}
		fmt.Fprintf(os.Stderr, "docscheck: %d broken link(s) or reference(s) in %d Markdown and %d Go file(s)\n", len(broken), mdFiles, goFiles)
		os.Exit(1)
	}
	fmt.Printf("docscheck: %d Markdown and %d Go file(s) clean\n", mdFiles, goFiles)
}

// check runs both rules over the tree at root and returns one
// diagnostic per violation and the number of files of each kind read.
func check(root string) (broken []string, mdFiles, goFiles int, err error) {
	files, goSrcs, err := walk(root)
	if err != nil {
		return nil, 0, 0, err
	}
	if len(files) == 0 {
		return nil, 0, 0, fmt.Errorf("no Markdown files under %s", root)
	}

	// Anchors are collected for every Markdown file up front so a
	// #fragment on any cross-file link can be validated in one pass.
	anchors := map[string]map[string]bool{}
	for _, f := range files {
		a, err := headingAnchors(f)
		if err != nil {
			return nil, 0, 0, err
		}
		anchors[f] = a
	}

	absRoot, err := filepath.Abs(root)
	if err != nil {
		return nil, 0, 0, err
	}

	for _, f := range files {
		b, err := checkFile(f, absRoot, anchors)
		if err != nil {
			return nil, 0, 0, err
		}
		broken = append(broken, b...)
	}
	for _, f := range goSrcs {
		b, err := checkGoComments(f, root)
		if err != nil {
			return nil, 0, 0, err
		}
		broken = append(broken, b...)
	}
	return broken, len(files), len(goSrcs), nil
}

// walk lists the Markdown and the Go files under root.
func walk(root string) (md, goSrcs []string, err error) {
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch d.Name() {
			case ".git", "testdata", "node_modules":
				return filepath.SkipDir
			}
			return nil
		}
		switch ext := filepath.Ext(path); {
		case strings.EqualFold(ext, ".md"):
			md = append(md, path)
		case ext == ".go":
			goSrcs = append(goSrcs, path)
		}
		return nil
	})
	return md, goSrcs, err
}

// checkGoComments returns a diagnostic per *.md name in a comment of
// the Go file path that resolves neither relative to the file's
// directory nor relative to root.
func checkGoComments(path, root string) ([]string, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	var sc scanner.Scanner
	sc.Init(fset.AddFile(path, -1, len(src)), src, nil, scanner.ScanComments)
	var broken []string
	for {
		pos, tok, lit := sc.Scan()
		if tok == token.EOF {
			return broken, nil
		}
		if tok != token.COMMENT {
			continue
		}
		line := fset.Position(pos).Line
		for _, l := range strings.Split(lit, "\n") {
			for _, m := range mdNameRE.FindAllStringSubmatch(l, -1) {
				if name := m[1]; name != "" && !exists(filepath.Dir(path), name) && !exists(root, name) {
					broken = append(broken, fmt.Sprintf("%s:%d: comment names %q: no such file beside it or at the root", path, line, name))
				}
			}
			line++
		}
	}
}

func exists(dir, name string) bool {
	_, err := os.Stat(filepath.Join(dir, filepath.FromSlash(name)))
	return err == nil
}

// checkFile scans one Markdown file and returns a diagnostic per
// broken relative link. Fenced code blocks are skipped so shell
// snippets like `curl ...(...)` never count as links.
func checkFile(path, absRoot string, anchors map[string]map[string]bool) ([]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()

	var broken []string
	inFence := false
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for line := 1; sc.Scan(); line++ {
		text := sc.Text()
		if strings.HasPrefix(strings.TrimSpace(text), "```") {
			inFence = !inFence
			continue
		}
		if inFence {
			continue
		}
		for _, m := range linkRE.FindAllStringSubmatch(text, -1) {
			if msg := checkLink(path, absRoot, m[1], anchors); msg != "" {
				broken = append(broken, fmt.Sprintf("%s:%d: %s", path, line, msg))
			}
		}
	}
	return broken, sc.Err()
}

// checkLink validates one link target relative to the file that
// contains it; the empty string means the target resolves.
func checkLink(fromFile, absRoot, target string, anchors map[string]map[string]bool) string {
	if u, err := url.Parse(target); err == nil && u.Scheme != "" {
		return "" // external: http, https, mailto, ...
	}
	targetPath, frag, _ := strings.Cut(target, "#")
	dest := fromFile
	if targetPath != "" {
		dest = filepath.Join(filepath.Dir(fromFile), filepath.FromSlash(targetPath))
		if abs, err := filepath.Abs(dest); err == nil && !strings.HasPrefix(abs, absRoot+string(filepath.Separator)) && abs != absRoot {
			// Targets that escape the repo root are GitHub web-UI
			// routes (e.g. ../../actions/... badges), not repo files.
			return ""
		}
		if _, err := os.Stat(dest); err != nil {
			return fmt.Sprintf("broken link %q: %s does not exist", target, dest)
		}
	}
	if frag == "" {
		return ""
	}
	a, ok := anchors[dest]
	if !ok {
		return "" // fragment into a non-Markdown file (e.g. source line refs)
	}
	if !a[strings.ToLower(frag)] {
		return fmt.Sprintf("broken anchor %q: no heading #%s in %s", target, frag, dest)
	}
	return ""
}

// headingAnchors returns the GitHub-style anchor slugs of every ATX
// heading in a Markdown file: lowercase, punctuation stripped, spaces
// to hyphens, duplicates suffixed -1, -2, ...
func headingAnchors(path string) (map[string]bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()

	anchors := map[string]bool{}
	seen := map[string]int{}
	inFence := false
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		text := sc.Text()
		if strings.HasPrefix(strings.TrimSpace(text), "```") {
			inFence = !inFence
			continue
		}
		if inFence || !strings.HasPrefix(text, "#") {
			continue
		}
		title := strings.TrimLeft(text, "#")
		if title == "" || !strings.HasPrefix(title, " ") {
			continue
		}
		slug := slugify(strings.TrimSpace(title))
		if n := seen[slug]; n > 0 {
			anchors[fmt.Sprintf("%s-%d", slug, n)] = true
		} else {
			anchors[slug] = true
		}
		seen[slug]++
	}
	return anchors, sc.Err()
}

func slugify(title string) string {
	var b strings.Builder
	for _, r := range strings.ToLower(title) {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '-', r == '_':
			b.WriteRune(r)
		case r == ' ':
			b.WriteByte('-')
		}
	}
	return b.String()
}
