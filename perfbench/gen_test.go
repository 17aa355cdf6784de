package main

import (
	"context"
	"encoding/json"
	"testing"
	"time"

	htd "repro"
	"repro/internal/hypergraph"
)

func listBytes(t *testing.T, name string, seed int64) []byte {
	t.Helper()
	w, err := generate(name, seed, opCount(name, 2))
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(w)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestSameSeedSameList(t *testing.T) {
	for _, name := range workloadNames {
		a, b := listBytes(t, name, 7), listBytes(t, name, 7)
		if string(a) != string(b) {
			t.Errorf("%s: two lists from seed 7 differ", name)
		}
	}
}

func TestSeedsGiveDifferentLists(t *testing.T) {
	for _, name := range workloadNames {
		if string(listBytes(t, name, 7)) == string(listBytes(t, name, 8)) {
			t.Errorf("%s: seeds 7 and 8 give the same list", name)
		}
	}
}

// TestDecomposeHashesDistinct checks that no two decompose-cold
// requests of a run, warm-up included, share a ContentHash, so the
// plan cache can never answer one of them.
func TestDecomposeHashesDistinct(t *testing.T) {
	w, err := generate("decompose-cold", 3, opCount("decompose-cold", 10))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	for i, g := range w.Graphs {
		h, err := hypergraph.ParseString(g.Text)
		if err != nil {
			t.Fatal(err)
		}
		hash := h.ContentHash()
		if hash != g.Hash {
			t.Fatalf("graph %d: recorded hash differs from the text's", i)
		}
		if j, ok := seen[hash]; ok {
			t.Fatalf("graphs %d and %d share ContentHash %.12s", j, i, hash)
		}
		seen[hash] = i
	}
	if len(seen) != len(w.Ops)+len(w.Warmup) {
		t.Fatalf("%d graphs for %d requests", len(seen), len(w.Ops)+len(w.Warmup))
	}
}

// TestKnownWidths checks every class's width with det-k-decomp, an
// algorithm independent of the log-k-decomp solver the server runs:
// a decomposition of width hw exists and none of width hw-1 does.
func TestKnownWidths(t *testing.T) {
	base, err := suiteInstances()
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range graphClasses {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		_, ok, err := htd.DecomposeDetK(ctx, base[i], c.HW)
		if err != nil || !ok {
			t.Errorf("%s: no width-%d decomposition (err %v)", c.Instance, c.HW, err)
		}
		if c.HW > 1 {
			_, ok, err = htd.DecomposeDetK(ctx, base[i], c.HW-1)
			if err != nil || ok {
				t.Errorf("%s: width %d not refuted (ok %v err %v)", c.Instance, c.HW-1, ok, err)
			}
		}
		cancel()
	}
}
