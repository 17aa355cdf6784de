//go:build !race

package hypergraph_test

const raceEnabled = false
