package decomp

import (
	"strings"
	"testing"

	"repro/internal/ext"
)

func TestPaperHDIsNormalForm(t *testing.T) {
	// The Appendix B decomposition (Figure 2a) satisfies Definition 3.5:
	// bags are chosen minimally, every child covers exactly one
	// component, and progress is made at every node.
	h := cycle10()
	d := paperHD(h)
	if err := CheckNormalForm(d, ext.Root(h)); err != nil {
		t.Fatalf("paper HD rejected as normal form: %v", err)
	}
}

func TestNormalFormRejectsMaximalBags(t *testing.T) {
	// Inflating χ(u2) with x2 (= vertex 1, present in ∪λ(u2) via R1 and
	// in χ(u1)) keeps the HD valid under the 2002-style maximal normal
	// form but violates the paper's minimal condition (3).
	h := cycle10()
	d := paperHD(h)
	c := d.Root.Children[0]
	c.Bag = c.Bag.Clone()
	c.Bag.Set(1)
	if err := CheckHD(d); err != nil {
		t.Fatalf("inflated HD should still be valid: %v", err)
	}
	err := CheckNormalForm(d, ext.Root(h))
	if err == nil || !strings.Contains(err.Error(), "normal form (3)") {
		t.Fatalf("expected condition (3) violation, got %v", err)
	}
}

func TestNormalFormRejectsNoProgress(t *testing.T) {
	// Duplicate a node: the copy covers nothing new, violating (1):
	// cov(T_c) of the duplicated child is not a full component.
	h := cycle10()
	d := paperHD(h)
	dup := NewNode(d.Root.Lambda, d.Root.Bag.Clone())
	dup.Children = d.Root.Children
	d.Root.Children = []*Node{dup}
	if err := CheckHD(d); err != nil {
		t.Fatalf("duplicated-node HD should still be valid: %v", err)
	}
	if err := CheckNormalForm(d, ext.Root(h)); err == nil {
		t.Fatal("duplicated node should violate the normal form")
	}
}

func TestNormalFormWithSpecials(t *testing.T) {
	// The paper's fragment D1.2 (Figure 2c) is in normal form for its
	// extended subhypergraph.
	h := cycle10()
	d, g, _ := fragment12(h)
	if err := CheckNormalForm(d, g); err != nil {
		t.Fatalf("paper fragment rejected: %v", err)
	}
}
