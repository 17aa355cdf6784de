package join

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// addDocumentSeeds adds the testdata/*.cq documents to f's seed corpus.
func addDocumentSeeds(f *testing.F) {
	seeds, err := filepath.Glob(filepath.Join("testdata", "*.cq"))
	if err != nil {
		f.Fatal(err)
	}
	if len(seeds) == 0 {
		f.Fatal("no testdata/*.cq seed documents")
	}
	for _, path := range seeds {
		src, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
}

// FuzzParseQuery fuzzes the query/database text format end to end:
// ParseDocument must never panic, and for every document it accepts,
// format → parse must reproduce the document exactly (the parser and
// formatter agree on the grammar). Every input also goes through
// ParseRelations, the upload parser behind PUT /data and the inline
// "database" field: a database it accepts holds tuples of its schema's
// arity and survives FormatDocument → ParseRelations unchanged. The
// seed corpus is the testdata documents plus hand-picked degenerate
// shapes and databases; CI runs a short -fuzz
// smoke alongside FuzzDecomposeCheckHD, and plain `go test` replays the
// seeds as regression tests.
func FuzzParseQuery(f *testing.F) {
	addDocumentSeeds(f)
	f.Add("query R(x).\nrel R(a)\nend\n")
	f.Add("query R(x,y), R(y,x).\nrel R(a,b)\n1 2\nend\n")
	f.Add("query Q(x) :- R(x), S(x).\n% no relations at all\n")
	f.Add("query R(x).\nrel R(a)\n1\nrel nested(b)\nend\n")
	f.Add("rel R(a)\n1\nend\n")
	f.Add("query R(x.\n")
	f.Add("query R(x,y).\naggregate count\nrel R(a,b)\n1 2\nend\n")
	f.Add("query R(x,y), S(y,z).\naggregate group x: count distinct(z)\n")
	f.Add("query R(x,y).\naggregate sum(y)\n")
	f.Add("query R(x,y).\naggregate group y,x: max(x)\nrel R(a,b)\nend\n")
	f.Add("query R(x).\naggregate min(q)\n")
	f.Add("query R(x).\naggregate count\naggregate count\n")
	f.Add("rel R(a,b)\n1 2\n% note\n-0 +7\nend\n\nrel S(c)\nend\n")
	f.Add("rel R(a)\n1\nend\nrel R(a)\nend\n")

	f.Fuzz(func(t *testing.T, src string) {
		checkRelationsRoundTrip(t, src)
		doc, err := ParseDocument(src)
		if err != nil {
			return
		}
		// Accepted documents must be internally consistent...
		if len(doc.Query.Atoms) == 0 {
			t.Fatalf("accepted document with no atoms:\n%s", src)
		}
		for name, rel := range doc.DB {
			for i, tup := range rel.Rows() {
				if len(tup) != len(rel.Attrs) {
					t.Fatalf("relation %q tuple %d has arity %d, schema %d", name, i, len(tup), len(rel.Attrs))
				}
			}
		}
		// ...and survive a format → parse round trip unchanged.
		out := FormatDocument(doc)
		doc2, err := ParseDocument(out)
		if err != nil {
			t.Fatalf("reparse of formatted document failed: %v\nformatted:\n%s", err, out)
		}
		if !reflect.DeepEqual(doc.Query, doc2.Query) {
			t.Fatalf("query changed across round trip:\n%+v\nvs\n%+v", doc.Query, doc2.Query)
		}
		if !reflect.DeepEqual(doc.Aggregate, doc2.Aggregate) {
			t.Fatalf("aggregate changed across round trip:\n%+v\nvs\n%+v", doc.Aggregate, doc2.Aggregate)
		}
		if doc.Aggregate != nil {
			if err := doc.Aggregate.Validate(doc.Query); err != nil {
				t.Fatalf("accepted aggregate fails validation: %v\n%s", err, src)
			}
		}
		if len(doc.DB) != len(doc2.DB) {
			t.Fatalf("database changed across round trip: %d vs %d relations", len(doc.DB), len(doc2.DB))
		}
		for name, rel := range doc.DB {
			rel2, ok := doc2.DB[name]
			if !ok {
				t.Fatalf("relation %q lost across round trip", name)
			}
			if !reflect.DeepEqual(rel.Attrs, rel2.Attrs) {
				t.Fatalf("relation %q schema changed: %v vs %v", name, rel.Attrs, rel2.Attrs)
			}
			if rel.Size() != rel2.Size() || (rel.Size() > 0 && !reflect.DeepEqual(rel.Rows(), rel2.Rows())) {
				t.Fatalf("relation %q tuples changed:\n%v\nvs\n%v", name, rel.Rows(), rel2.Rows())
			}
		}
		// Formatting is a fixed point: format(parse(format(d))) == format(d).
		if out2 := FormatDocument(doc2); out2 != out {
			t.Fatalf("formatting is not canonical:\n%q\nvs\n%q", out, out2)
		}
	})
}

// checkRelationsRoundTrip runs src through ParseRelations: an accepted
// database must hold tuples of its schema's arity, and formatting it
// and parsing the text again must give a deeply equal database.
func checkRelationsRoundTrip(t *testing.T, src string) {
	db, err := ParseRelations(src)
	if err != nil {
		return
	}
	for name, rel := range db {
		for i, tup := range rel.Rows() {
			if len(tup) != len(rel.Attrs) {
				t.Fatalf("ParseRelations: relation %q tuple %d has arity %d, schema %d", name, i, len(tup), len(rel.Attrs))
			}
		}
	}
	out := FormatDocument(Document{DB: db})
	db2, err := ParseRelations(out)
	if err != nil {
		t.Fatalf("ParseRelations rejects its formatted database: %v\nformatted:\n%s", err, out)
	}
	if !reflect.DeepEqual(db, db2) {
		t.Fatalf("database changed across FormatDocument → ParseRelations:\n%s\nvs\n%s", out, FormatDocument(Document{DB: db2}))
	}
}

// FuzzEvalDocument fuzzes the executor against the naive join on parsed
// documents of at most 6 atoms and 200 tuples per relation: planned by
// opt at width up to the atom count, the executor's answer must have
// exactly EvaluateNaive's size — the executor deduplicates only at bag
// projection, so a duplicate answer row fails here — and the same
// canonical form. A document with an aggregate head must also get
// AggregateRows' answer over the naive rows from AggregateCtx on the
// same plan, unless the document holds a value past ±2^31: within
// that, sums over at most 2^16 answers stay exact. The seed corpus is
// FuzzParseQuery's testdata documents plus shapes with repeated
// tuples, a two-atom λ-label, a cross product, a grouped count
// distinct and a sum.
func FuzzEvalDocument(f *testing.F) {
	addDocumentSeeds(f)
	f.Add("query R(x,y), S(y,z).\nrel R(a,b)\n1 2\n1 2\n3 2\nend\nrel S(a,b)\n2 9\n2 9\nend\n")
	f.Add("query R(x,y), R(y,z), R(z,x).\nrel R(a,b)\n1 2\n2 3\n3 1\n1 2\n2 1\nend\n")
	f.Add("query R(x), S(y), R(z).\nrel R(a)\n1\n1\n2\nend\nrel S(a)\n7\n7\nend\n")
	f.Add("query R(x,y), S(y,z).\naggregate group y: count distinct(x,z)\n" +
		"rel R(a,b)\n1 2\n3 2\n1 4\nend\nrel S(a,b)\n2 5\n2 6\n4 5\nend\n")
	f.Add("query R(x,y), R(y,z), R(z,x).\naggregate sum(x)\nrel R(a,b)\n1 2\n2 3\n3 1\n-4 1\n2 -4\nend\n")

	f.Fuzz(func(t *testing.T, src string) {
		doc, err := ParseDocument(src)
		if err != nil || len(doc.Query.Atoms) > 6 {
			return
		}
		small := true // every value within ±2^31
		for _, rel := range doc.DB {
			if rel.Size() > 200 {
				return
			}
			for _, row := range rel.Rows() {
				for _, v := range row {
					small = small && v <= 1<<31 && v >= -1<<31
				}
			}
		}
		// EvaluateNaive's left-to-right intermediates are bounded by the
		// product of the atoms' relation sizes; capping it keeps the
		// oracle fast on cross products.
		work := 1
		for _, a := range doc.Query.Atoms {
			if rel, ok := doc.DB[a.Relation]; ok {
				work *= max(rel.Size(), 1)
			}
			if work > 1<<16 {
				return
			}
		}
		want, err := EvaluateNaive(doc.Query, doc.DB)
		if err != nil {
			return // missing relation, arity mismatch, repeated variable
		}
		h, err := doc.Query.Hypergraph()
		if err != nil {
			t.Fatalf("naive evaluation accepted a query without a hypergraph: %v", err)
		}
		d, ok, err := minWidthPlan(h, len(doc.Query.Atoms))
		if err != nil || !ok {
			t.Fatalf("no plan of width <= %d (ok=%v err=%v)", len(doc.Query.Atoms), ok, err)
		}
		got, err := EvaluateCtx(context.Background(), doc.Query, doc.DB, d, EvalOptions{})
		if err != nil {
			t.Fatalf("executor: %v", err)
		}
		if got.Size() != want.Size() {
			t.Fatalf("executor returned %d rows, EvaluateNaive %d", got.Size(), want.Size())
		}
		g, w := got.Canonical(), want.Canonical()
		if !reflect.DeepEqual(g.Attrs, w.Attrs) || !reflect.DeepEqual(g.Rows(), w.Rows()) {
			t.Fatalf("canonical forms differ:\n%v\nvs\n%v", g, w)
		}
		if doc.Aggregate == nil || !small {
			return
		}
		wantAgg, err := AggregateRows(want, *doc.Aggregate)
		if err != nil {
			t.Fatalf("AggregateRows: %v", err)
		}
		gotAgg, err := AggregateCtx(context.Background(), doc.Query, doc.DB, d, *doc.Aggregate, EvalOptions{})
		if err != nil {
			t.Fatalf("AggregateCtx: %v", err)
		}
		if !reflect.DeepEqual(gotAgg, wantAgg) {
			t.Fatalf("%s: pushdown %+v, AggregateRows %+v", FormatAggregate(*doc.Aggregate), gotAgg, wantAgg)
		}
	})
}

// fuzzExtremes are the values a FuzzAnswerEncode tag byte can pick
// outright: the int64 and int32 limits and their neighbours.
var fuzzExtremes = []int{
	math.MinInt64, math.MinInt64 + 1, math.MaxInt64, math.MaxInt64 - 1,
	math.MinInt32 - 1, math.MinInt32, math.MaxInt32, math.MaxInt32 + 1, -1, 0,
}

// fuzzValue decodes one value from data: a tag byte picks a small
// value, an int32 or int64 from the next bytes (zero-padded), or one of
// fuzzExtremes.
func fuzzValue(data []byte) (int, []byte) {
	if len(data) == 0 {
		return 0, nil
	}
	tag, data := data[0], data[1:]
	word := func(n int) (uint64, []byte) {
		var b [8]byte
		k := copy(b[:n], data)
		return binary.LittleEndian.Uint64(b[:]), data[k:]
	}
	switch tag % 4 {
	case 0:
		return int(tag>>2) - 32, data
	case 1:
		w, rest := word(4)
		return int(int32(uint32(w))), rest
	case 2:
		w, rest := word(8)
		return int(int64(w)), rest
	}
	return fuzzExtremes[int(tag>>2)%len(fuzzExtremes)], data
}

// FuzzAnswerEncode turns bytes into a relation of 0–4 columns and
// arbitrary int64 values (the first byte picks the column count, each
// value is fuzzValue's) and checks the answer path's two halves:
// Canonical equals canonicalReference, and WriteJSON writes exactly
// encoding/json's bytes for Canonical().Rows().
func FuzzAnswerEncode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3})
	f.Add([]byte{1, 3, 7, 3, 11, 0, 0, 4, 8})
	f.Add([]byte{2, 3, 3, 2, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f, 7, 3, 3, 2})
	f.Add([]byte{3, 1, 0, 0, 0, 0x80, 5, 9, 2, 1, 2, 3, 4, 5, 6, 7, 8, 1, 0, 0, 0, 0x80, 5, 9})
	f.Add([]byte{4, 0, 4, 8, 12, 0, 4, 8, 12, 19, 23, 27, 31, 0, 4, 8, 12})
	f.Fuzz(func(t *testing.T, data []byte) {
		attrs := []string{"d", "b", "c", "a"}
		if len(data) > 0 {
			attrs, data = attrs[:data[0]%5], data[1:]
		} else {
			attrs = nil
		}
		r := NewRelation(attrs...)
		row := make([]int, len(attrs))
		for len(data) > 0 {
			if len(attrs) == 0 {
				data = data[1:] // one byte per row of no attributes
			}
			for k := range row {
				row[k], data = fuzzValue(data)
			}
			r.AddRow(row)
		}
		wantAttrs, want := canonicalReference(t, r)
		got := r.Canonical()
		if !reflect.DeepEqual(got.Attrs, wantAttrs) || !reflect.DeepEqual(got.Rows(), want) {
			t.Fatalf("Canonical %v %v, reference %v %v", got.Attrs, got.Rows(), wantAttrs, want)
		}
		var out bytes.Buffer
		buf, err := got.WriteJSON(&out, nil)
		if err != nil {
			t.Fatal(err)
		}
		out.Write(buf)
		wantJSON, err := json.Marshal(got.Rows())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), wantJSON) {
			t.Fatalf("WriteJSON wrote\n%s\nencoding/json\n%s", out.Bytes(), wantJSON)
		}
	})
}
