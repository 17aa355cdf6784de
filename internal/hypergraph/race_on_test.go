//go:build race

package hypergraph_test

// raceEnabled: the race detector makes sync.Pool drop pooled items at
// random, so allocation counts of pooled code say nothing under it.
const raceEnabled = true
