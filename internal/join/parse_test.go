package join

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestParseQueryPlain(t *testing.T) {
	q, err := ParseQuery("R(x,y), S(y,z), T(z,x)")
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Atoms) != 3 {
		t.Fatalf("got %d atoms", len(q.Atoms))
	}
	want := Atom{Relation: "S", Vars: []string{"y", "z"}}
	if !reflect.DeepEqual(q.Atoms[1], want) {
		t.Fatalf("atom 1 = %+v", q.Atoms[1])
	}
}

func TestParseQueryWithHead(t *testing.T) {
	q, err := ParseQuery("Q(x,y,z) :- R(x, y), S(y ,z).")
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Atoms) != 2 {
		t.Fatalf("got %d atoms (head must be dropped)", len(q.Atoms))
	}
	if q.Atoms[0].Relation != "R" || q.Atoms[1].Vars[1] != "z" {
		t.Fatalf("atoms = %+v", q.Atoms)
	}
}

func TestParseQuerySelfJoin(t *testing.T) {
	q, err := ParseQuery("E(x,y), E(y,z)")
	if err != nil {
		t.Fatal(err)
	}
	if q.Atoms[0].Relation != "E" || q.Atoms[1].Relation != "E" {
		t.Fatal("self-join names lost")
	}
	h, err := q.Hypergraph()
	if err != nil {
		t.Fatal(err)
	}
	if h.NumEdges() != 2 || h.NumVertices() != 3 {
		t.Fatalf("hypergraph shape: %d edges %d vertices", h.NumEdges(), h.NumVertices())
	}
}

func TestParseQueryErrors(t *testing.T) {
	for _, src := range []string{"", "R", "R(", "R()", "R(x,)", "  .  ",
		"R(x.y)", "R.S(x)", "R(x\vy)", "Q(x) :- R(a:-b)."} {
		if _, err := ParseQuery(src); err == nil {
			t.Errorf("ParseQuery(%q) should fail", src)
		}
	}
}

func TestFormatQueryRoundTrip(t *testing.T) {
	q, err := ParseQuery("Q(x,y,z) :- R(x, y), S(y ,z), S(z,x).")
	if err != nil {
		t.Fatal(err)
	}
	q2, err := ParseQuery(FormatQuery(q))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(q, q2) {
		t.Fatalf("round trip changed the query:\n%+v\nvs\n%+v", q, q2)
	}
}

func TestParseDocumentTestdata(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("testdata", "*.cq"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("testdata glob: paths=%v err=%v", paths, err)
	}
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		doc, err := ParseDocument(string(src))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if len(doc.Query.Atoms) == 0 || len(doc.DB) == 0 {
			t.Fatalf("%s parsed empty: %d atoms, %d relations", path, len(doc.Query.Atoms), len(doc.DB))
		}
		// Every testdata document must be evaluable: relations exist and
		// arities match, so the naive baseline runs without error.
		if _, err := EvaluateNaive(doc.Query, doc.DB); err != nil {
			t.Fatalf("%s does not evaluate: %v", path, err)
		}
	}
}

func TestParseDocumentTriangle(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("testdata", "triangle.cq"))
	if err != nil {
		t.Fatal(err)
	}
	doc, err := ParseDocument(string(src))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(doc.Query.Atoms); got != 3 {
		t.Fatalf("atoms = %d, want 3", got)
	}
	r := doc.DB["R"]
	if r == nil || !reflect.DeepEqual(r.Attrs, []string{"c1", "c2"}) || r.Size() != 3 {
		t.Fatalf("R = %+v", r)
	}
	if !reflect.DeepEqual(r.AppendRow(nil, 2), []int{4, 2}) {
		t.Fatalf("R tuple order not preserved: %v", r.Rows())
	}
}

func TestParseDocumentErrors(t *testing.T) {
	cases := map[string]string{
		"no query":           "rel R(a)\n1\nend\n",
		"two queries":        "query R(x).\nquery R(x).\nrel R(a)\nend\n",
		"unclosed rel":       "query R(x).\nrel R(a)\n1\n",
		"bad arity":          "query R(x).\nrel R(a)\n1 2\nend\n",
		"non-integer value":  "query R(x).\nrel R(a)\nx\nend\n",
		"duplicate relation": "query R(x).\nrel R(a)\nend\nrel R(a)\nend\n",
		"duplicate column":   "query R(x).\nrel R(a,a)\nend\n",
		"stray line":         "query R(x).\nbogus\n",
		"bad rel header":     "query R(x).\nrel R a\nend\n",
		"bad query":          "query R(.\n",
	}
	for name, src := range cases {
		if _, err := ParseDocument(src); err == nil {
			t.Errorf("%s: ParseDocument(%q) should fail", name, src)
		}
	}
}

func TestFormatDocumentDeterministic(t *testing.T) {
	src := "query B(x,y), A(y,z).\nrel B(c,d)\n1 2\nend\nrel A(c,d)\n2 3\nend\n"
	doc, err := ParseDocument(src)
	if err != nil {
		t.Fatal(err)
	}
	out := FormatDocument(doc)
	// Relations come out in sorted name order regardless of input order.
	if !strings.Contains(out, "rel A(c,d)\n2 3\nend\nrel B(c,d)\n1 2\nend\n") {
		t.Fatalf("formatted document not in sorted relation order:\n%s", out)
	}
	for i := 0; i < 3; i++ {
		if again := FormatDocument(doc); again != out {
			t.Fatalf("FormatDocument is not deterministic:\n%q\nvs\n%q", out, again)
		}
	}
}
