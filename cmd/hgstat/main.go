// Command hgstat prints structural statistics of a hypergraph file:
// vertex/edge counts, arity and degree distributions, connectivity,
// GYO α-acyclicity (equivalently hw = 1), the structural lower bound on
// hypertree width (hypergraph.WidthLowerBound), and the HyperBench size
// group.
//
// Usage:
//
//	hgstat file.hg [file2.hg ...]
//	cat file.hg | hgstat -
package main

import (
	"context"
	"fmt"
	"io"
	"os"

	"repro/internal/hyperbench"
	"repro/internal/hypergraph"
)

func main() {
	os.Exit(runMain(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// runMain is the testable entry point: it reports on every path in
// args ("-" reads stdin) and returns the process exit code.
func runMain(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		fmt.Fprintln(stderr, "usage: hgstat <file.hg|-> ...")
		return 2
	}
	exit := 0
	for _, path := range args {
		if err := report(stdout, stdin, path); err != nil {
			fmt.Fprintf(stderr, "hgstat: %s: %v\n", path, err)
			exit = 1
		}
	}
	return exit
}

func report(w io.Writer, stdin io.Reader, path string) error {
	var (
		h   *hypergraph.Hypergraph
		err error
	)
	if path == "-" {
		h, err = hypergraph.Parse(stdin)
	} else {
		f, ferr := os.Open(path)
		if ferr != nil {
			return ferr
		}
		defer f.Close()
		h, err = hypergraph.Parse(f)
	}
	if err != nil {
		return err
	}
	st := h.ComputeStats()
	reduced, _ := h.RemoveSubsumedEdges()
	lb, err := h.WidthLowerBound(context.Background(), st.Edges)
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "%s:\n", path)
	fmt.Fprintf(w, "  vertices:        %d\n", st.Vertices)
	fmt.Fprintf(w, "  edges:           %d  (group: %s)\n", st.Edges, hyperbench.SizeBucket(st.Edges))
	fmt.Fprintf(w, "  arity:           min %d, max %d, avg %.2f\n", st.MinArity, st.MaxArity, st.AvgArity)
	fmt.Fprintf(w, "  degree:          min %d, max %d, avg %.2f\n", st.MinDegree, st.MaxDegree, st.AvgDegree)
	fmt.Fprintf(w, "  connected:       %v\n", st.IsConnected)
	fmt.Fprintf(w, "  alpha-acyclic:   %v  (hw = 1 iff true)\n", h.IsAcyclic())
	fmt.Fprintf(w, "  width bound:     %d  (hw >= ghw >= this structural lower bound)\n", lb)
	fmt.Fprintf(w, "  subsumed edges:  %d\n", st.Edges-reduced.NumEdges())
	return nil
}
