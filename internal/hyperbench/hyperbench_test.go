package hyperbench

import (
	"context"
	"testing"
	"time"

	"repro/internal/decomp"
	"repro/internal/logk"
)

func TestSuiteDeterministic(t *testing.T) {
	a := Suite(Config{Scale: 1, Seed: 42})
	b := Suite(Config{Scale: 1, Seed: 42})
	if len(a) != len(b) {
		t.Fatalf("suite sizes differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Name != b[i].Name {
			t.Fatalf("instance %d names differ: %s vs %s", i, a[i].Name, b[i].Name)
		}
		if a[i].H.NumEdges() != b[i].H.NumEdges() || a[i].H.NumVertices() != b[i].H.NumVertices() {
			t.Fatalf("instance %d shapes differ", i)
		}
		for e := 0; e < a[i].H.NumEdges(); e++ {
			if ea, eb := a[i].H.Edge(e), b[i].H.Edge(e); !ea.SubsetOf(eb) || !eb.SubsetOf(ea) {
				t.Fatalf("instance %d edge %d differs", i, e)
			}
		}
	}
}

func TestSuiteCoversAllGroups(t *testing.T) {
	suite := Suite(Config{Scale: 1})
	type key struct {
		o Origin
		b string
	}
	counts := map[key]int{}
	for _, in := range suite {
		counts[key{in.Origin, SizeBucket(in.Edges())}]++
	}
	// Application instances exist in all buckets except |E| > 100 (as in
	// Table 1); synthetic instances cover every bucket.
	for _, bucket := range BucketOrder {
		if bucket != "|E| > 100" {
			if counts[key{Application, bucket}] == 0 {
				t.Errorf("no application instances in bucket %q", bucket)
			}
		}
		if counts[key{Synthetic, bucket}] == 0 {
			t.Errorf("no synthetic instances in bucket %q", bucket)
		}
	}
	if counts[key{Application, "|E| > 100"}] != 0 {
		t.Error("application instances should not exceed 100 edges (Table 1 omits that group)")
	}
}

func TestSizeBucket(t *testing.T) {
	cases := []struct {
		edges int
		want  string
	}{
		{1, "|E| <= 10"}, {10, "|E| <= 10"}, {11, "10 < |E| <= 50"},
		{50, "10 < |E| <= 50"}, {51, "50 < |E| <= 75"}, {75, "50 < |E| <= 75"},
		{76, "75 < |E| <= 100"}, {100, "75 < |E| <= 100"}, {101, "|E| > 100"},
	}
	for _, c := range cases {
		if got := SizeBucket(c.edges); got != c.want {
			t.Errorf("SizeBucket(%d) = %q, want %q", c.edges, got, c.want)
		}
	}
}

func TestKnownWidthsAreCorrect(t *testing.T) {
	// For every small instance with a claimed known width, verify the
	// claim with the solver: succeeds at KnownHW, fails at KnownHW-1.
	ctx := context.Background()
	suite := Suite(Config{Scale: 1})
	checked := 0
	for _, in := range suite {
		if in.KnownHW == 0 || in.Edges() > 30 || in.KnownHW > 3 {
			continue
		}
		checked++
		s := logk.New(in.H, logk.Options{K: in.KnownHW, Workers: 8})
		d, ok, err := s.Decompose(ctx)
		if err != nil || !ok {
			t.Fatalf("%s: claimed hw=%d but no HD found (err=%v)", in.Name, in.KnownHW, err)
		}
		if err := decomp.CheckHD(d); err != nil {
			t.Fatalf("%s: invalid HD: %v", in.Name, err)
		}
		if in.KnownHW > 1 {
			ctx2, cancel := context.WithTimeout(ctx, 20*time.Second)
			sLow := logk.New(in.H, logk.Options{K: in.KnownHW - 1, Workers: 8})
			_, okLow, err := sLow.Decompose(ctx2)
			cancel()
			if err == nil && okLow {
				t.Fatalf("%s: claimed hw=%d but width %d HD exists", in.Name, in.KnownHW, in.KnownHW-1)
			}
		}
		if checked >= 25 {
			break
		}
	}
	if checked < 10 {
		t.Fatalf("only %d instances had verifiable known widths; generator should plant more", checked)
	}
}

func TestLargeFilter(t *testing.T) {
	suite := Suite(Config{Scale: 1})
	large := Large(suite, 6)
	if len(large) == 0 {
		t.Fatal("HBlarge-sim filter selected nothing; Figure 1 needs instances")
	}
	for _, in := range large {
		if in.Edges() <= 50 {
			t.Fatalf("%s: %d edges, should be > 50", in.Name, in.Edges())
		}
		if in.KnownHW == 0 || in.KnownHW > 6 {
			t.Fatalf("%s: known width %d outside (0,6]", in.Name, in.KnownHW)
		}
	}
}

func TestScaleGrowsSuite(t *testing.T) {
	s1 := Suite(Config{Scale: 1})
	s2 := Suite(Config{Scale: 2})
	if len(s2) != 2*len(s1) {
		t.Fatalf("scale 2 suite has %d instances, want %d", len(s2), 2*len(s1))
	}
}

func TestInstancesAreConnectedMostly(t *testing.T) {
	// Random CSPs anchor each edge to earlier variables, so the suite
	// should be overwhelmingly connected (solvers handle both, but the
	// benchmark intends connected workloads).
	suite := Suite(Config{Scale: 1})
	disconnected := 0
	for _, in := range suite {
		if !in.H.ComputeStats().IsConnected {
			disconnected++
		}
	}
	if disconnected > len(suite)/10 {
		t.Fatalf("%d of %d instances disconnected", disconnected, len(suite))
	}
}
