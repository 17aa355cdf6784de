package store

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateFormat = flag.Bool("update", false, "rewrite the committed segment directory")

// formatDir is a segment directory written by formatScript and
// committed, so a change of the on-disk format fails a test.
const formatDir = "testdata/segments"

// formatScript drives a log in dir through every record kind and every
// transition of the on-disk format: bounds merges that change state and
// ones that do not, a tree, a narrower tree, a wider one and a drop, a
// legacy summary frame, rotation at a shrunk segment size, one
// compaction, and a reopen between them.
func formatScript(t *testing.T, dir string) {
	t.Helper()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	open := func() *Log {
		t.Helper()
		l, err := OpenLog(LogConfig{Dir: dir})
		must(err)
		return l
	}
	l := open()
	must(l.MergeBounds("a", Bounds{LB: 2}))
	must(l.MergeBounds("a", Bounds{LB: 2}))        // no change: no record
	must(l.MergeBounds("a", Bounds{LB: 1, UB: 6})) // changes UB only
	must(l.MergeBounds("b", Bounds{LB: 3}))
	must(l.PutTree("a", testTree(4)))
	must(l.PutTree("a", testTree(3))) // narrower: supersedes
	must(l.PutTree("a", testTree(5))) // wider: no record
	must(l.PutTree("b", testTree(4)))
	must(l.DropTree("b"))
	// The next append fills the segment and rotates without compacting.
	l.seg.segmentBytes = l.Stats().Bytes
	must(l.MergeBounds("c", Bounds{LB: 2}))
	must(l.PutTree("c", testTree(2)))
	must(l.MergeBounds("a", Bounds{LB: 3}))
	if st := l.Stats(); st.Segments != 2 || st.Compactions != 0 {
		t.Fatalf("before compaction: %+v, want 2 segments and no compaction", st)
	}
	must(compactLog(l))
	must(l.MergeBounds("d", Bounds{LB: 1, UB: 2}))
	must(l.Close())

	appendFrames(t, dir, legacySummaryFrame("a"))
	l = open()
	must(l.PutTree("d", testTree(1)))
	l.seg.segmentBytes = l.Stats().Bytes
	must(l.MergeBounds("e", Bounds{LB: 4}))
	must(l.PutTree("e", testTree(5)))
	if st := l.Stats(); st.Segments != 2 || st.Compactions != 0 {
		t.Fatalf("at the end: %+v, want 2 segments and no compaction in this session", st)
	}
	must(l.Close())
}

// readSegments returns every file of dir by name.
func readSegments(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte, len(ents))
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = data
	}
	return out
}

// TestLogFormatFixture pins the on-disk format. The committed directory
// replays into the recorded index, and the script that wrote it writes
// the same bytes again. Regenerate the directory only for an intended
// format change: go test ./internal/store -run LogFormatFixture -update
func TestLogFormatFixture(t *testing.T) {
	dir := t.TempDir()
	formatScript(t, dir)
	got := readSegments(t, dir)
	if *updateFormat {
		if err := os.RemoveAll(formatDir); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(formatDir, 0o755); err != nil {
			t.Fatal(err)
		}
		for name, data := range got {
			if err := os.WriteFile(filepath.Join(formatDir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	want := readSegments(t, formatDir)
	if len(got) != len(want) {
		t.Fatalf("script wrote %d files, the fixture has %d", len(got), len(want))
	}
	for name, data := range want {
		if !bytes.Equal(got[name], data) {
			t.Errorf("%s: script wrote %d bytes that differ from the fixture's %d", name, len(got[name]), len(data))
		}
	}

	// Replay a copy: opening a log may truncate or create files.
	replay := t.TempDir()
	for name, data := range want {
		if err := os.WriteFile(filepath.Join(replay, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	l, err := OpenLog(LogConfig{Dir: replay})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if got := strings.Join(l.Hashes(), ","); got != "a,b,c,d,e" {
		t.Fatalf("hashes %q, want a,b,c,d,e", got)
	}
	for _, w := range []struct {
		hash   string
		bounds Bounds
		width  int // 0: no tree
	}{
		{"a", Bounds{LB: 3, UB: 3}, 3},
		{"b", Bounds{LB: 3, UB: 4}, 0},
		{"c", Bounds{LB: 2, UB: 2}, 2},
		{"d", Bounds{LB: 1, UB: 1}, 1},
		{"e", Bounds{LB: 4, UB: 5}, 5},
	} {
		if b, ok := l.Bounds(w.hash); !ok || b != w.bounds {
			t.Errorf("%s: bounds %+v ok=%v, want %+v", w.hash, b, ok, w.bounds)
		}
		tw, ok := l.TreeWidth(w.hash)
		tr, treeOK, err := l.Tree(w.hash)
		if err != nil || ok != (w.width > 0) || treeOK != ok || tw != w.width {
			t.Errorf("%s: tree width %d ok=%v, loaded ok=%v err=%v; want width %d", w.hash, tw, ok, treeOK, err, w.width)
			continue
		}
		if !ok {
			continue
		}
		gotJS, _ := json.Marshal(tr)
		wantJS, _ := json.Marshal(testTree(w.width))
		if !bytes.Equal(gotJS, wantJS) {
			t.Errorf("%s: tree %s, want %s", w.hash, gotJS, wantJS)
		}
	}
	if st := l.Stats(); st.Segments != 2 || st.CorruptRecords != 0 || st.TruncatedTail != 0 {
		t.Errorf("replayed fixture: %+v", st)
	}
}
