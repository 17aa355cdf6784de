package store

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/decomp"
	"repro/internal/hypergraph"
	"repro/internal/logk"
)

func cycle(n int) *hypergraph.Hypergraph {
	var b hypergraph.Builder
	for i := 0; i < n; i++ {
		b.MustAddEdge("R"+strconv.Itoa(i+1), "x"+strconv.Itoa(i), "x"+strconv.Itoa((i+1)%n))
	}
	return b.Build()
}

// backends is the Backend contract's table of implementations: every
// contract test runs once per row, on a fresh backend of capacity 8.
var backends = []struct {
	name string
	open func(t *testing.T) Backend
}{
	{"memory", func(t *testing.T) Backend { return NewMemory(8) }},
	{"tiered", func(t *testing.T) Backend {
		ts := openTiered(t, t.TempDir(), 8)
		t.Cleanup(func() { ts.Close() })
		return ts
	}},
}

// forEachBackend runs one contract case against every Backend.
func forEachBackend(t *testing.T, test func(t *testing.T, s Backend)) {
	for _, b := range backends {
		t.Run(b.name, func(t *testing.T) { test(t, b.open(t)) })
	}
}

// TestBoundsMergeSemantics: the lower bound only ever rises, the
// witnessed upper bound only ever falls, trivial bounds are a no-op.
func TestBoundsMergeSemantics(t *testing.T) {
	forEachBackend(t, testBoundsMergeSemantics)
}

func testBoundsMergeSemantics(t *testing.T, s Backend) {
	s.MergeBounds("g1", Bounds{LB: 2})
	s.MergeBounds("g1", Bounds{LB: 3, UB: 5})
	s.MergeBounds("g1", Bounds{LB: 2, UB: 4}) // lb cannot regress, ub improves
	if b, ok := s.Bounds("g1"); !ok || b.LB != 3 || b.UB != 4 {
		t.Fatalf("g1: %+v ok=%v, want LB=3 UB=4", b, ok)
	}
	s.MergeBounds("g1", Bounds{UB: 9}) // wider witness: ignored
	if b, _ := s.Bounds("g1"); b.UB != 4 {
		t.Fatalf("ub regressed to %d", b.UB)
	}

	// Trivial bounds must not create an entry.
	s.MergeBounds("g2", Bounds{LB: 1})
	s.MergeBounds("g3", Bounds{})
	if _, ok := s.Bounds("g2"); ok {
		t.Fatal("LB=1 is trivial and must not be cached")
	}
	if st := s.Stats(); st.Entries != 1 || (st.Disk != nil && st.Disk.Entries != 1) {
		t.Fatalf("entries=%d disk=%+v, want 1", st.Entries, st.Disk)
	}

	var b Bounds
	if b.Known() || b.Exact() {
		t.Fatal("zero bounds must be unknown")
	}
	b.Merge(Bounds{LB: 3, UB: 3})
	if !b.Exact() {
		t.Fatalf("LB=UB=3 must be exact: %+v", b)
	}
}

// TestEvictionSparesJustReadEntry is the regression for the old
// boundsStore LRU: reading an entry must move it to the front, so an
// insert that triggers eviction drops the least recently used entry,
// never the one just read.
func TestEvictionSparesJustReadEntry(t *testing.T) {
	s := NewMemory(3)
	s.MergeBounds("a", Bounds{LB: 2})
	s.MergeBounds("b", Bounds{LB: 2})
	s.MergeBounds("c", Bounds{LB: 2})

	// Read "a": it becomes most recent; "b" is now LRU.
	if _, ok := s.Bounds("a"); !ok {
		t.Fatal("a missing before eviction")
	}
	s.MergeBounds("d", Bounds{LB: 2}) // evicts exactly one: "b"

	if _, ok := s.Bounds("a"); !ok {
		t.Fatal("eviction dropped the just-read entry")
	}
	if _, ok := s.Bounds("b"); ok {
		t.Fatal("LRU entry b should have been evicted")
	}
	if st := s.Stats(); st.Entries != 3 || st.Evictions != 1 {
		t.Fatalf("entries=%d evictions=%d, want 3/1", st.Entries, st.Evictions)
	}
}

// TestMemoryExactLRU: the store holds exactly its cap of content
// hashes — no entry is evicted before the cap is reached, however the
// hashes fall — and once full each insert evicts exactly one entry, the
// least recently used across the whole store.
func TestMemoryExactLRU(t *testing.T) {
	const maxGraphs = 32
	hash := func(i int) string {
		sum := sha256.Sum256([]byte(strconv.Itoa(i)))
		return hex.EncodeToString(sum[:])
	}
	s := NewMemory(maxGraphs)
	for i := 0; i < maxGraphs; i++ {
		s.MergeBounds(hash(i), Bounds{LB: 2})
	}
	if st := s.Stats(); st.Entries != maxGraphs || st.Evictions != 0 {
		t.Fatalf("after %d inserts: entries=%d evictions=%d, want %d/0",
			maxGraphs, st.Entries, st.Evictions, maxGraphs)
	}

	// Touch the oldest entry: hash(1) becomes the least recently used.
	if _, ok := s.Bounds(hash(0)); !ok {
		t.Fatal("first entry missing before the cap was exceeded")
	}
	s.MergeBounds(hash(maxGraphs), Bounds{LB: 2})
	if st := s.Stats(); st.Entries != maxGraphs || st.Evictions != 1 {
		t.Fatalf("after one more insert: entries=%d evictions=%d, want %d/1",
			st.Entries, st.Evictions, maxGraphs)
	}
	if _, ok := s.Bounds(hash(1)); ok {
		t.Fatal("least recently used entry survived the eviction")
	}
	for _, i := range []int{0, 2, maxGraphs - 1, maxGraphs} {
		if _, ok := s.Bounds(hash(i)); !ok {
			t.Fatalf("entry %d evicted; only entry 1 should have been", i)
		}
	}
	if in := s.Info(1); len(in) != 1 || in[0].Hash != hash(maxGraphs) {
		t.Fatalf("Info(1) = %+v, want the most recently used entry first", in)
	}

	// The cap holds under sustained churn: every further insert evicts one.
	for i := maxGraphs + 1; i < 4*maxGraphs; i++ {
		s.MergeBounds(hash(i), Bounds{LB: 2})
	}
	if st := s.Stats(); st.Entries != maxGraphs || st.Evictions != 3*maxGraphs {
		t.Fatalf("after churn: entries=%d evictions=%d, want %d/%d",
			st.Entries, st.Evictions, maxGraphs, 3*maxGraphs)
	}
}

// TestMemoTables: per-width tables are created once, shared afterwards,
// implement logk.MemoBackend, and honor their state cap.
func TestMemoTables(t *testing.T) {
	forEachBackend(t, testMemoTables)

	capped := NewTable(2)
	capped.Insert("s1")
	capped.Insert("s2")
	capped.Insert("s3") // beyond cap: dropped
	if !capped.Lookup([]byte("s1")) || capped.Lookup([]byte("s3")) || capped.Entries() != 2 {
		t.Fatalf("capped table: entries=%d, lookups disagree with capped inserts", capped.Entries())
	}
}

func testMemoTables(t *testing.T, s Backend) {
	m1, existed := s.Memo("g", 2)
	if existed {
		t.Fatal("first Memo call cannot find an existing table")
	}
	m2, existed := s.Memo("g", 2)
	if !existed || m1 != m2 {
		t.Fatal("second Memo call must return the same table")
	}
	if _, existed := s.Memo("g", 3); existed {
		t.Fatal("a different width is a different table")
	}

	var mb logk.MemoBackend = m1
	mb.Insert("s1")
	mb.Insert("s1") // duplicate: not counted twice
	mb.Insert("s2")
	if !mb.Lookup([]byte("s1")) || mb.Lookup([]byte("s3")) {
		t.Fatal("lookup disagrees with inserts")
	}
	if m1.Entries() != 2 {
		t.Fatalf("entries=%d, want 2", m1.Entries())
	}
	st := s.Stats()
	if st.MemoTables != 2 || st.MemoStates != 2 || st.MemoReuses != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func testDecomp(t *testing.T, h *hypergraph.Hypergraph) *decomp.Decomp {
	t.Helper()
	d, ok, err := logk.New(h, logk.Options{K: 2}).Decompose(context.Background())
	if err != nil || !ok {
		t.Fatalf("decompose: ok=%v err=%v", ok, err)
	}
	return d
}

// TestTreeRoundTrip: encode → bind reproduces a CheckHD-valid
// decomposition, including on a renamed hypergraph with the same
// content hash.
func TestTreeRoundTrip(t *testing.T) {
	h := cycle(8)
	d := testDecomp(t, h)
	tree := EncodeTree(d)
	if tree == nil || tree.Width() != d.Width() || tree.Nodes() != d.NumNodes() {
		t.Fatalf("encode lost structure: width %d/%d nodes %d/%d",
			tree.Width(), d.Width(), tree.Nodes(), d.NumNodes())
	}

	bound, err := tree.Bind(h)
	if err != nil {
		t.Fatal(err)
	}
	if err := decomp.CheckHD(bound); err != nil {
		t.Fatalf("rebound decomposition invalid: %v", err)
	}

	// Renamed copy: same content hash, different names and pointer.
	var b hypergraph.Builder
	for i := 0; i < 8; i++ {
		b.MustAddEdge("S"+strconv.Itoa(i), "y"+strconv.Itoa(i), "y"+strconv.Itoa((i+1)%8))
	}
	renamed := b.Build()
	if renamed.ContentHash() != h.ContentHash() {
		t.Fatal("test setup: hashes differ")
	}
	rebound, err := tree.Bind(renamed)
	if err != nil {
		t.Fatal(err)
	}
	if err := decomp.CheckHD(rebound); err != nil {
		t.Fatalf("decomposition invalid on renamed graph: %v", err)
	}
	if rebound.H != renamed {
		t.Fatal("rebound decomposition must reference the new hypergraph")
	}
}

// TestTreeBindRejectsCorruption: out-of-range ids (a corrupted or
// mismatched snapshot) error instead of panicking.
func TestTreeBindRejectsCorruption(t *testing.T) {
	h := cycle(4)
	if _, err := (&Tree{Lambda: []int{99}, Bag: []int{0}}).Bind(h); err == nil {
		t.Fatal("edge id out of range must fail to bind")
	}
	if _, err := (&Tree{Lambda: []int{0}, Bag: []int{99}}).Bind(h); err == nil {
		t.Fatal("vertex id out of range must fail to bind")
	}
	if _, err := (*Tree)(nil).Bind(h); err == nil {
		t.Fatal("nil tree must fail to bind")
	}
}

// TestPutDecompositionOnlyImproves: a wider or equal tree never
// replaces a narrower cached one, caching a witness merges its width
// into UB, and dropping the witness keeps the bounds.
func TestPutDecompositionOnlyImproves(t *testing.T) {
	forEachBackend(t, testPutDecompositionOnlyImproves)
}

func testPutDecompositionOnlyImproves(t *testing.T, s Backend) {
	narrow := &Tree{Lambda: []int{0, 1}, Bag: []int{0}}
	equal := &Tree{Lambda: []int{1, 2}, Bag: []int{1}}
	wide := &Tree{Lambda: []int{0, 1, 2}, Bag: []int{0}}

	s.PutDecomposition("g", wide)
	s.PutDecomposition("g", narrow)
	if got, _ := s.Decomposition("g"); got != narrow {
		t.Fatal("narrower tree must win")
	}
	s.PutDecomposition("g", wide)
	if got, _ := s.Decomposition("g"); got != narrow {
		t.Fatal("wider tree must not replace a narrower one")
	}
	s.PutDecomposition("g", equal)
	if got, _ := s.Decomposition("g"); got != narrow {
		t.Fatal("an equally wide tree must not replace the cached one")
	}
	if b, _ := s.Bounds("g"); b.UB != 2 {
		t.Fatalf("UB=%d, want 2 (width of the cached witness)", b.UB)
	}

	s.DropDecomposition("g")
	if _, ok := s.Decomposition("g"); ok {
		t.Fatal("dropped tree still cached")
	}
	if b, ok := s.Bounds("g"); !ok || b.UB != 2 {
		t.Fatalf("bounds must survive a tree drop: %+v ok=%v", b, ok)
	}
}

// TestBackendPurge: Purge forgets every entry — bounds, witnesses and
// memo tables.
func TestBackendPurge(t *testing.T) {
	forEachBackend(t, func(t *testing.T, s Backend) {
		s.MergeBounds("a", Bounds{LB: 2})
		s.PutDecomposition("b", &Tree{Lambda: []int{0, 1}, Bag: []int{0}})
		s.Memo("c", 2)
		s.Purge()
		if _, ok := s.Bounds("a"); ok {
			t.Fatal("bounds survived Purge")
		}
		if _, ok := s.Decomposition("b"); ok {
			t.Fatal("witness survived Purge")
		}
		if in := s.Info(0); len(in) != 0 {
			t.Fatalf("Info after Purge: %+v", in)
		}
		st := s.Stats()
		if st.Entries != 0 || st.MemoTables != 0 || (st.Disk != nil && st.Disk.Entries != 0) {
			t.Fatalf("stats after Purge: %+v disk=%+v", st, st.Disk)
		}
		if _, existed := s.Memo("c", 2); existed {
			t.Fatal("memo table survived Purge")
		}
	})
}

// TestFlightCoalesces: concurrent Do calls on one key run the function
// exactly once; everyone shares the value.
func TestFlightCoalesces(t *testing.T) {
	f := NewFlight()
	var runs, leaders atomic.Int64
	release := make(chan struct{})
	arrived := make(chan struct{}, 16)

	const n = 8
	vals := make([]any, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, leader, err := f.Do(context.Background(), "k", func() any {
				arrived <- struct{}{}
				<-release // hold the flight open until all callers joined
				runs.Add(1)
				return "result"
			})
			if err != nil {
				t.Error(err)
			}
			if leader {
				leaders.Add(1)
			}
			vals[i] = v
		}(i)
	}
	<-arrived // the leader is inside fn; followers will coalesce
	for f.Waiting() != n-1 {
		time.Sleep(time.Millisecond) // wait until all followers joined
	}
	close(release)
	wg.Wait()

	if runs.Load() != 1 || leaders.Load() != 1 {
		t.Fatalf("runs=%d leaders=%d, want 1/1", runs.Load(), leaders.Load())
	}
	for i, v := range vals {
		if v != "result" {
			t.Fatalf("caller %d got %v", i, v)
		}
	}
	// The key is forgotten: a later Do runs fresh.
	if _, leader, _ := f.Do(context.Background(), "k", func() any { return nil }); !leader {
		t.Fatal("flight must not retain completed keys")
	}
}

// TestFlightLeaderPanicUnwedges: a panicking leader must not wedge its
// key — waiting followers are released (with a nil value) and the next
// caller runs fresh.
func TestFlightLeaderPanicUnwedges(t *testing.T) {
	f := NewFlight()
	started := make(chan struct{})
	boom := make(chan struct{})
	followerDone := make(chan any, 1)
	go func() {
		defer func() { recover() }()
		f.Do(context.Background(), "k", func() any {
			close(started)
			<-boom
			panic("leader died")
		})
	}()
	<-started
	go func() {
		v, _, _ := f.Do(context.Background(), "k", func() any { return "never" })
		followerDone <- v
	}()
	for f.Waiting() != 1 {
		time.Sleep(time.Millisecond)
	}
	close(boom)
	if v := <-followerDone; v != nil {
		t.Fatalf("follower of a panicked leader got %v, want nil", v)
	}
	if f.InFlight() != 0 {
		t.Fatal("panicked key still registered")
	}
	if _, leader, _ := f.Do(context.Background(), "k", func() any { return 1 }); !leader {
		t.Fatal("key must be reusable after a leader panic")
	}
}

// TestFlightFollowerHonorsContext: a follower whose context expires
// stops waiting; the leader is unaffected.
func TestFlightFollowerHonorsContext(t *testing.T) {
	f := NewFlight()
	started := make(chan struct{})
	release := make(chan struct{})
	done := make(chan any, 1)
	go func() {
		v, _, _ := f.Do(context.Background(), "k", func() any {
			close(started)
			<-release
			return 42
		})
		done <- v
	}()
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := f.Do(ctx, "k", func() any { return nil }); err != context.Canceled {
		t.Fatalf("follower err=%v, want context.Canceled", err)
	}
	close(release)
	if v := <-done; v != 42 {
		t.Fatalf("leader got %v", v)
	}
}

// TestSnapshotRoundTrip: a snapshot — a byte copy of a closed log
// directory — restores bounds, a CheckHD-valid tree and refutation
// summaries into a fresh backend with a different memory front.
func TestSnapshotRoundTrip(t *testing.T) {
	h := cycle(8)
	d := testDecomp(t, h)
	hash := h.ContentHash()

	dir := t.TempDir()
	s, err := OpenTiered(TieredConfig{MaxGraphs: 8, Log: LogConfig{Dir: dir}})
	if err != nil {
		t.Fatal(err)
	}
	s.MergeBounds(hash, Bounds{LB: 2})
	s.PutDecomposition(hash, EncodeTree(d))
	m, _ := s.Memo(hash, 1)
	m.Insert("dead-state")
	s.MergeBounds("other", Bounds{LB: 4, UB: 6})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	snap := filepath.Join(t.TempDir(), "snapshot")
	if err := os.CopyFS(snap, os.DirFS(dir)); err != nil {
		t.Fatal(err)
	}
	fresh, err := OpenTiered(TieredConfig{MaxGraphs: 8, Log: LogConfig{Dir: snap}})
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	if n := fresh.Log().Len(); n != 2 {
		t.Fatalf("snapshot holds %d entries, want 2", n)
	}
	if b, ok := fresh.Bounds(hash); !ok || b.LB != 2 || b.UB != 2 {
		t.Fatalf("restored bounds: %+v ok=%v", b, ok)
	}
	if b, ok := fresh.Bounds("other"); !ok || b.LB != 4 || b.UB != 6 {
		t.Fatalf("restored bounds of other: %+v ok=%v", b, ok)
	}
	tree, ok := fresh.Decomposition(hash)
	if !ok {
		t.Fatal("restored tree missing")
	}
	bound, err := tree.Bind(h)
	if err != nil {
		t.Fatal(err)
	}
	if err := decomp.CheckHD(bound); err != nil {
		t.Fatalf("restored witness invalid: %v", err)
	}
	// Refutation summaries survive as metadata.
	var found bool
	for _, in := range fresh.Info(0) {
		if in.Hash == hash {
			for _, ws := range in.Memos {
				if ws.K == 1 && ws.States == 1 {
					found = true
				}
			}
		}
	}
	if !found {
		t.Fatal("refutation summary not restored")
	}
}

// TestMemoryConcurrency hammers one backend from many goroutines (run
// under -race in CI's store-stress job).
func TestMemoryConcurrency(t *testing.T) {
	s := NewMemory(16)
	hashes := []string{"a", "b", "c", "d", "e", "f"}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				h := hashes[(g+i)%len(hashes)]
				switch i % 5 {
				case 0:
					s.MergeBounds(h, Bounds{LB: 2 + i%3})
				case 1:
					s.Bounds(h)
				case 2:
					m, _ := s.Memo(h, 1+i%2)
					m.Insert("k" + strconv.Itoa(i%7))
					m.Lookup([]byte("k0"))
				case 3:
					s.PutDecomposition(h, &Tree{Lambda: []int{0, 1}, Bag: []int{0}})
					s.Decomposition(h)
				case 4:
					s.Stats()
					s.Info(4)
				}
			}
		}(g)
	}
	wg.Wait()
	if st := s.Stats(); st.Entries == 0 || st.Entries > 16 {
		t.Fatalf("entries=%d, want within (0,16]", st.Entries)
	}
}
