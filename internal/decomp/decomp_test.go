package decomp

import (
	"strings"
	"testing"

	"repro/internal/bitset"
	"repro/internal/ext"
	"repro/internal/hypergraph"
)

// cycle10 builds the hypergraph of Appendix B: a cycle R1(x1,x2), ...,
// R10(x10,x1). Edge Ri has id i-1; vertex xj has id j-1.
// setOf returns a vertex set of capacity n holding elems.
func setOf(n int, elems []int) *bitset.Set {
	s := bitset.New(n)
	for _, e := range elems {
		s.Set(e)
	}
	return s
}

func cycle10() *hypergraph.Hypergraph {
	var b hypergraph.Builder
	names := func(i int) string { return "x" + string(rune('0'+i/10)) + string(rune('0'+i%10)) }
	for i := 1; i <= 10; i++ {
		next := i%10 + 1
		b.MustAddEdge("R"+names(i)[1:], names(i), names(next))
	}
	return b.Build()
}

// paperHD builds the HD of Figure 2a: a path u1..u8 with
// λ(u_i) = {R1, R_{i+1}} and χ(u_i) = {x1, x_{i+1}, x_{i+2}}.
func paperHD(h *hypergraph.Hypergraph) *Decomp {
	n := h.NumVertices()
	var prev *Node
	var root *Node
	for i := 1; i <= 8; i++ {
		bag := setOf(n, []int{0, i, i + 1})
		node := NewNode([]int{0, i}, bag)
		if prev == nil {
			root = node
		} else {
			prev.Children = append(prev.Children, node)
		}
		prev = node
	}
	return &Decomp{H: h, Root: root}
}

func TestPaperHDIsValid(t *testing.T) {
	h := cycle10()
	d := paperHD(h)
	if err := CheckHD(d); err != nil {
		t.Fatalf("paper HD rejected: %v", err)
	}
	if got := d.Width(); got != 2 {
		t.Fatalf("Width = %d, want 2", got)
	}
	if got := d.NumNodes(); got != 8 {
		t.Fatalf("NumNodes = %d, want 8", got)
	}
	if got := d.Depth(); got != 8 {
		t.Fatalf("Depth = %d, want 8", got)
	}
	if err := CheckWidth(d, 2); err != nil {
		t.Fatal(err)
	}
	if err := CheckWidth(d, 1); err == nil {
		t.Fatal("CheckWidth(1) should fail for width-2 HD")
	}
}

func TestCoverageViolationDetected(t *testing.T) {
	h := cycle10()
	d := paperHD(h)
	// Chop off the last node: R9 and R10 lose their covering bag.
	var prev *Node
	cur := d.Root
	for len(cur.Children) > 0 {
		prev = cur
		cur = cur.Children[0]
	}
	prev.Children = nil
	if err := CheckHD(d); err == nil || !strings.Contains(err.Error(), "not covered") {
		t.Fatalf("expected coverage error, got %v", err)
	}
}

func TestConnectednessViolationDetected(t *testing.T) {
	h := cycle10()
	d := paperHD(h)
	// Remove x1 (vertex 0) from a middle bag: x1 occurs above and below.
	mid := d.Root.Children[0].Children[0]
	x1 := h.NewVertexSet()
	x1.Set(0)
	mid.Bag = mid.Bag.Clone()
	mid.Bag.InPlaceDiff(x1)
	if err := CheckHD(d); err == nil || !strings.Contains(err.Error(), "connectedness") {
		t.Fatalf("expected connectedness error, got %v", err)
	}
}

func TestBagNotCoveredDetected(t *testing.T) {
	h := cycle10()
	d := paperHD(h)
	d.Root.Bag = d.Root.Bag.Clone()
	d.Root.Bag.Set(5) // x6 is not in R1 ∪ R2
	if err := CheckHD(d); err == nil || !strings.Contains(err.Error(), "λ-label") {
		t.Fatalf("expected bag-cover error, got %v", err)
	}
}

func TestSpecialConditionViolationDetected(t *testing.T) {
	// H = {R1(a,b)}; root λ={R1} χ={a}, child λ={R1} χ={a,b}.
	// Valid GHD, invalid HD (condition 4 fails at the root).
	var b hypergraph.Builder
	b.MustAddEdge("R1", "a", "b")
	h := b.Build()
	root := NewNode([]int{0}, setOf(2, []int{0}))
	child := NewNode([]int{0}, setOf(2, []int{0, 1}))
	root.Children = []*Node{child}
	d := &Decomp{H: h, Root: root}
	if err := CheckGHD(d); err != nil {
		t.Fatalf("GHD check should pass: %v", err)
	}
	if err := CheckHD(d); err == nil || !strings.Contains(err.Error(), "special condition") {
		t.Fatalf("expected special-condition error, got %v", err)
	}
}

func TestUnresolvedSpecialLeafRejected(t *testing.T) {
	h := cycle10()
	d := paperHD(h)
	leaf := NewSpecialLeaf(1, setOf(h.NumVertices(), []int{0}))
	d.Root.Children = append(d.Root.Children, leaf)
	if err := CheckHD(d); err == nil || !strings.Contains(err.Error(), "special leaf") {
		t.Fatalf("expected special-leaf error, got %v", err)
	}
}

// fragment12 builds the HD-fragment D1.2 of Figure 2c: a path over
// λ={R1,R3}, {R1,R4}, {R1,R5} ending in the special leaf s1={x1,x6,x7},
// which is an HD of the extended subhypergraph ⟨{R3,R4,R5}, {s1}, {x1,x3}⟩.
func fragment12(h *hypergraph.Hypergraph) (*Decomp, *ext.Graph, *bitset.Set) {
	n := h.NumVertices()
	s1 := ext.Special{ID: 1, Vertices: setOf(n, []int{0, 5, 6})}
	g := &ext.Graph{H: h, Edges: []int{2, 3, 4}, Specials: []ext.Special{s1}}
	conn := setOf(n, []int{0, 2})

	n1 := NewNode([]int{0, 2}, setOf(n, []int{0, 2, 3}))
	n2 := NewNode([]int{0, 3}, setOf(n, []int{0, 3, 4}))
	n3 := NewNode([]int{0, 4}, setOf(n, []int{0, 4, 5}))
	leaf := NewSpecialLeaf(1, s1.Vertices)
	n1.Children = []*Node{n2}
	n2.Children = []*Node{n3}
	n3.Children = []*Node{leaf}
	return &Decomp{H: h, Root: n1}, g, conn
}

func TestCheckExtendedAcceptsPaperFragment(t *testing.T) {
	h := cycle10()
	d, g, conn := fragment12(h)
	if err := CheckExtended(d, g, conn); err != nil {
		t.Fatalf("paper fragment rejected: %v", err)
	}
}

func TestCheckExtendedConnViolation(t *testing.T) {
	h := cycle10()
	d, g, _ := fragment12(h)
	badConn := setOf(h.NumVertices(), []int{7}) // x8 not in root bag
	if err := CheckExtended(d, g, badConn); err == nil || !strings.Contains(err.Error(), "Conn") {
		t.Fatalf("expected Conn error, got %v", err)
	}
}

func TestCheckExtendedMissingSpecialLeaf(t *testing.T) {
	h := cycle10()
	d, g, conn := fragment12(h)
	// Drop the special leaf: special #1 loses its covering leaf.
	d.Root.Children[0].Children[0].Children = nil
	if err := CheckExtended(d, g, conn); err == nil || !strings.Contains(err.Error(), "special #1") {
		t.Fatalf("expected missing-special error, got %v", err)
	}
}

func TestCheckExtendedSpecialMustBeLeaf(t *testing.T) {
	h := cycle10()
	d, g, conn := fragment12(h)
	leaf := d.Root.Children[0].Children[0].Children[0]
	leaf.Children = []*Node{NewNode([]int{0}, setOf(h.NumVertices(), []int{0}))}
	if err := CheckExtended(d, g, conn); err == nil || !strings.Contains(err.Error(), "not a leaf") {
		t.Fatalf("expected not-a-leaf error, got %v", err)
	}
}

func TestFindBalancedSeparatorOnPaperHD(t *testing.T) {
	h := cycle10()
	d := paperHD(h)
	g := ext.Root(h)
	sep := FindBalancedSeparator(d, g)
	if sep == nil {
		t.Fatal("no balanced separator found")
	}
	if !IsBalancedSeparator(d, g, sep) {
		t.Fatal("returned node fails Definition 3.9")
	}
	// The walk lands on u4 (λ = {R1, R5}): its subtree covers R6..R10 via
	// the child, 5 ≤ 10/2, and above it R1..R4 are covered, 2*4 < 10.
	if len(sep.Lambda) != 2 || sep.Lambda[0] != 0 || sep.Lambda[1] != 4 {
		t.Fatalf("separator λ = %v, want [0 4]", sep.Lambda)
	}
	// The root is NOT balanced: its child subtree covers 8 > 5.
	if IsBalancedSeparator(d, g, d.Root) {
		t.Fatal("root should not be a balanced separator")
	}
}

func TestStringAndDOT(t *testing.T) {
	h := cycle10()
	d := paperHD(h)
	s := d.String()
	if !strings.Contains(s, "lambda={R01,R02}") {
		t.Fatalf("String output missing root label:\n%s", s)
	}
	dot := d.DOT()
	if !strings.Contains(dot, "digraph HD") || !strings.Contains(dot, "->") {
		t.Fatalf("DOT output malformed:\n%s", dot)
	}
}

func TestWalkStops(t *testing.T) {
	h := cycle10()
	d := paperHD(h)
	count := 0
	d.Root.Walk(func(*Node) bool {
		count++
		return count < 3
	})
	if count != 3 {
		t.Fatalf("Walk visited %d nodes, want 3", count)
	}
}

func TestFindSpecialLeaf(t *testing.T) {
	h := cycle10()
	d, _, _ := fragment12(h)
	if d.Root.FindSpecialLeaf(1) == nil {
		t.Fatal("special leaf #1 not found")
	}
	if d.Root.FindSpecialLeaf(2) != nil {
		t.Fatal("nonexistent special leaf found")
	}
}

func TestEmptyDecomp(t *testing.T) {
	h := cycle10()
	d := &Decomp{H: h}
	if d.Width() != 0 || d.NumNodes() != 0 || d.Depth() != 0 {
		t.Fatal("empty decomposition metrics should be zero")
	}
	if err := CheckHD(d); err == nil {
		t.Fatal("empty decomposition should be invalid")
	}
}
