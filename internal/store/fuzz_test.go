package store

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// validSegment writes a few records of every type through a real Log,
// with one legacy memo summary frame between them, and returns the
// bytes of the resulting segment file.
func validSegment(t testing.TB, dir string) []byte {
	t.Helper()
	l, err := OpenLog(LogConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	l.MergeBounds("va", Bounds{LB: 2})
	l.PutTree("va", testTree(3))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	appendFrames(t, dir, legacySummaryFrame("va"))
	if l, err = OpenLog(LogConfig{Dir: dir}); err != nil {
		t.Fatal(err)
	}
	l.PutTree("vb", testTree(2))
	l.DropTree("vb")
	l.PutTree("vc", testTree(1))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, segName(1)))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// checkedTrees is the reference scan of a segment: the JSON of every
// tree record in the prefix of frames whose length and CRC-32C check
// out — the only trees a replay may ever serve.
func checkedTrees(data []byte, into map[string]bool) {
	for off := 0; off+frameHeader <= len(data); {
		n := int(binary.LittleEndian.Uint32(data[off:]))
		crc := binary.LittleEndian.Uint32(data[off+4:])
		if n == 0 || n > len(data)-off-frameHeader {
			return
		}
		payload := data[off+frameHeader : off+frameHeader+n]
		if crc32.Checksum(payload, crcTable) != crc {
			return
		}
		var rec logRecord
		if json.Unmarshal(payload, &rec) != nil {
			return
		}
		if rec.Tree != nil {
			js, _ := json.Marshal(rec.Tree)
			into[string(js)] = true
		}
		off += frameHeader + n
	}
}

// FuzzLogReplay feeds arbitrary bytes to OpenLog as a segment file,
// both as the last segment (torn-tail truncation) and as an earlier
// segment followed by a valid one (corrupt-middle skipping). Replay
// must never panic, never serve a tree from a frame that fails its
// checksum, and be idempotent: a second open after Close sees the same
// hashes as the first.
func FuzzLogReplay(f *testing.F) {
	good := validSegment(f, f.TempDir())
	f.Add(good)
	f.Add(good[:len(good)-3]) // torn tail
	// The last record's tree, edited to still-valid JSON that fails its
	// CRC: a replay that skipped the checksum would serve it.
	edited := append([]byte(nil), good...)
	edited[bytes.LastIndex(edited, []byte(`"lambda":[0]`))+10] = '7'
	f.Add(edited)
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0, '{', '}'})

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, last := range []bool{true, false} {
			dir := t.TempDir()
			segs := [][]byte{data}
			if !last {
				segs = append(segs, good)
			}
			allowed := map[string]bool{}
			for i, seg := range segs {
				if err := os.WriteFile(filepath.Join(dir, segName(i+1)), seg, 0o644); err != nil {
					t.Fatal(err)
				}
				checkedTrees(seg, allowed)
			}

			l, err := OpenLog(LogConfig{Dir: dir})
			if err != nil {
				t.Fatalf("last=%v: open: %v", last, err)
			}
			first := l.Hashes()
			for _, h := range first {
				l.Bounds(h)
				l.TreeWidth(h)
				tr, ok, _ := l.Tree(h)
				if !ok {
					continue
				}
				js, _ := json.Marshal(tr)
				if !allowed[string(js)] {
					t.Fatalf("last=%v: hash %q served a tree from no checksummed frame: %s", last, h, js)
				}
			}
			if !last {
				if b, ok := l.Bounds("va"); !ok || b.LB < 2 {
					t.Fatalf("valid segment after a corrupt one lost its records: %+v ok=%v", b, ok)
				}
			}
			if err := l.Close(); err != nil {
				t.Fatalf("last=%v: close: %v", last, err)
			}

			l, err = OpenLog(LogConfig{Dir: dir})
			if err != nil {
				t.Fatalf("last=%v: reopen: %v", last, err)
			}
			second := l.Hashes()
			l.Close()
			if !reflect.DeepEqual(first, second) {
				t.Fatalf("last=%v: reopen saw %q, first open saw %q", last, second, first)
			}
		}
	})
}
