package main

import (
	"io"
	"math/rand"
	"runtime"
	"testing"

	htd "repro"
)

// encodeFixture is a successful row response over a canonical answer
// of rows distinct 3-column rows.
func encodeFixture(rows int) *queryAPIResponse {
	rng := rand.New(rand.NewSource(int64(rows)))
	rel := htd.NewRelation("x", "y", "z")
	for i := 0; i < rows; i++ {
		rel.Add(i, rng.Intn(100), rng.Intn(1<<20)-1<<19)
	}
	rel = rel.Canonical()
	return &queryAPIResponse{
		OK: true, Vars: rel.Attrs, RowCount: rel.Size(), Width: 2,
		Parallelism: 1, Exec: &htd.QueryExecStats{}, answer: rel,
	}
}

// TestQueryEncodeAllocBudget: writing a query response allocates at
// most one pooled buffer plus the encoded fields around the rows,
// whatever the answer's row count. Materialising the rows as [][]int
// and encoding them would allocate at least rows × (24 + 8·width)
// bytes, 4.8 MB for this 100,000-row answer.
func TestQueryEncodeAllocBudget(t *testing.T) {
	const budget = 80 << 10 // bytes per response
	for _, rows := range []int{1000, 100000} {
		resp := encodeFixture(rows)
		if err := writeQueryResponse(io.Discard, resp); err != nil {
			t.Fatal(err)
		}
		const runs = 20
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for range runs {
			if err := writeQueryResponse(io.Discard, resp); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&m1)
		got := (m1.TotalAlloc - m0.TotalAlloc) / runs
		t.Logf("%d rows: %d B/response (budget %d)", rows, got, budget)
		if got > budget {
			t.Errorf("%d rows: writing the response allocated %d B, budget %d", rows, got, budget)
		}
	}
}

// BenchmarkQueryEncode writes the response of a 4,947 × 3 answer, the
// size of a path-rows answer.
func BenchmarkQueryEncode(b *testing.B) {
	resp := encodeFixture(4947)
	b.ReportAllocs()
	for b.Loop() {
		if err := writeQueryResponse(io.Discard, resp); err != nil {
			b.Fatal(err)
		}
	}
}
