package join

import (
	"cmp"
	"fmt"
	"io"
	"math/bits"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Relation is a set of tuples over named attributes, stored
// column-major: each attribute is a vec of chunked int32/int64 values
// carved from the relation's arena (arena.go). A tuple is a row
// offset; operators and indexes pass offsets around and read values
// with at(), so an intermediate relation costs a handful of slab
// allocations rather than one slice header per tuple, and frees as one
// unit. Values are ints (dictionary-encode externally if needed).
// Tuples are not deduplicated on construction, so a relation built
// with Add may hold duplicates. Project, Dedup and Canonical return
// sets; Join adds no duplicates (the natural join of two sets is a
// set), which is why the executor's answer is a set once every bag is
// one (build projects a bag unless its λ-join already is a set).
//
// Relations are append-only while being built and immutable once an
// operator has consumed them — no operator mutates an input — which is
// what makes the O(1) storage-sharing views (alias, renamed) safe.
type Relation struct {
	Attrs []string
	// pos maps attribute → column position, built once at construction
	// and reused by every operation (the pre-columnar attrIndex re-ran
	// an O(attrs²) scan per semijoin instead).
	pos  map[string]int
	cols []vec
	n    int
	mem  *arena
	// indexes, when non-nil, marks a server-resident relation — a base
	// relation (a dataset snapshot view or a cached inline database)
	// or a bag kept in a snapshot's BagCache — carrying hash indexes
	// the executor reuses instead of rebuilding per query
	// (maintained.go, bagcache.go). Invariant: a relation carrying an
	// IndexSet is a set, which lets build skip the dedup projection of
	// a bag joined from such relations alone. Ephemeral relations —
	// every other operator output — leave it nil.
	indexes *IndexSet
}

// NewRelation returns an empty relation with the given attribute names.
func NewRelation(attrs ...string) *Relation {
	return newRelation(append([]string(nil), attrs...))
}

// newRelation builds an empty relation taking ownership of attrs.
func newRelation(attrs []string) *Relation {
	r := &Relation{
		Attrs: attrs,
		pos:   make(map[string]int, len(attrs)),
		cols:  make([]vec, len(attrs)),
		mem:   &arena{},
	}
	for i, a := range attrs {
		r.pos[a] = i
	}
	return r
}

// Add appends a tuple; the value count must match the attribute count.
func (r *Relation) Add(values ...int) *Relation {
	return r.AddRow(values)
}

// AddRow is Add without the varargs copy; values is not retained.
func (r *Relation) AddRow(values []int) *Relation {
	if len(values) != len(r.Attrs) {
		panic(fmt.Sprintf("join: tuple arity %d != attrs %d", len(values), len(r.Attrs)))
	}
	for c, v := range values {
		r.cols[c].push(r.mem, r.n, v)
	}
	r.n++
	return r
}

// Size returns the number of tuples.
func (r *Relation) Size() int { return r.n }

// at returns column c of row i.
func (r *Relation) at(i, c int) int { return r.cols[c].at(i) }

// Row materialises row i as a fresh slice.
func (r *Relation) Row(i int) []int {
	return r.AppendRow(make([]int, 0, len(r.cols)), i)
}

// AppendRow appends row i's values to dst and returns it.
func (r *Relation) AppendRow(dst []int, i int) []int {
	for c := range r.cols {
		dst = append(dst, r.cols[c].at(i))
	}
	return dst
}

// Rows materialises every row in order — the boundary format for
// callers leaving the columnar world (HTTP responses, test diffs).
func (r *Relation) Rows() [][]int {
	if r.n == 0 {
		// nil, not an empty slice: the pre-columnar layout's empty
		// relation had a nil tuple slice, and both the JSON wire format
		// and reflect.DeepEqual tell the two apart.
		return nil
	}
	out := make([][]int, r.n)
	flat := make([]int, r.n*len(r.cols))
	w := len(r.cols)
	for i := range out {
		out[i] = r.AppendRow(flat[i*w:i*w:(i+1)*w], i)
	}
	return out
}

// jsonFlushBytes is the buffer fill at which WriteJSON writes out.
const jsonFlushBytes = 32 << 10

// WriteJSON writes the JSON array of r's rows — the bytes
// encoding/json writes for r.Rows(), null for no rows — appending to
// buf and writing buf to w whenever it holds jsonFlushBytes, so the
// buffer stays bounded whatever the row count. It returns buf holding
// the bytes not yet written, for the caller to append to and write.
func (r *Relation) WriteJSON(w io.Writer, buf []byte) ([]byte, error) {
	if r.n == 0 {
		return append(buf, "null"...), nil
	}
	buf = append(buf, '[')
	for base := 0; base < r.n; base += chunkSize {
		ci := base >> chunkShift
		for j := range min(chunkSize, r.n-base) {
			if base+j > 0 {
				buf = append(buf, ',')
			}
			buf = append(buf, '[')
			for c := range r.cols {
				if c > 0 {
					buf = append(buf, ',')
				}
				if v := &r.cols[c]; v.wide {
					buf = strconv.AppendInt(buf, v.c64[ci][j], 10)
				} else {
					buf = strconv.AppendInt(buf, int64(v.c32[ci][j]), 10)
				}
			}
			buf = append(buf, ']')
			if len(buf) >= jsonFlushBytes {
				if _, err := w.Write(buf); err != nil {
					return buf[:0], err
				}
				buf = buf[:0]
			}
		}
	}
	return append(buf, ']'), nil
}

// alias returns an O(1) view sharing r's storage, safe because
// relations are immutable once consumed.
func (r *Relation) alias() *Relation {
	cp := *r
	return &cp
}

// renamed returns a view of r's rows under new attribute names —
// shared storage, fresh schema (atomRelation's column renaming).
// Maintained indexes carry over: they are keyed by column position,
// which renaming preserves.
func (r *Relation) renamed(attrs []string) *Relation {
	out := &Relation{
		Attrs:   attrs,
		pos:     make(map[string]int, len(attrs)),
		cols:    r.cols,
		n:       r.n,
		mem:     r.mem,
		indexes: r.indexes,
	}
	for i, a := range attrs {
		out.pos[a] = i
	}
	return out
}

// permuted returns r with its columns in attrs order, a permutation of
// r.Attrs: r itself when already so, else a view sharing r's storage
// but not its maintained indexes, which are keyed by column position.
func (r *Relation) permuted(attrs []string) *Relation {
	if slices.Equal(r.Attrs, attrs) {
		return r
	}
	cols := make([]vec, len(attrs))
	for i, a := range attrs {
		cols[i] = r.cols[r.pos[a]]
	}
	return (&Relation{cols: cols, n: r.n, mem: r.mem}).renamed(attrs)
}

// appendFrom appends row i of src (same schema) to r.
func (r *Relation) appendFrom(src *Relation, i int) {
	for c := range r.cols {
		r.cols[c].push(r.mem, r.n, src.cols[c].at(i))
	}
	r.n++
}

// appendProjected appends row i of src projected onto src columns idx
// (r's schema is attrs aligned with idx).
func (r *Relation) appendProjected(src *Relation, i int, idx []int) {
	for k, c := range idx {
		r.cols[k].push(r.mem, r.n, src.cols[c].at(i))
	}
	r.n++
}

// appendJoined appends the join row of r-side row i and s's sExtra
// columns of row j — the output layout joinSchema defines.
func (out *Relation) appendJoined(r *Relation, i int, s *Relation, j int, sExtra []int) {
	c := 0
	for rc := range r.cols {
		out.cols[c].push(out.mem, out.n, r.cols[rc].at(i))
		c++
	}
	for _, sc := range sExtra {
		out.cols[c].push(out.mem, out.n, s.cols[sc].at(j))
		c++
	}
	out.n++
}

// attrIndex returns the position of each requested attribute.
func (r *Relation) attrIndex(attrs []string) ([]int, error) {
	idx := make([]int, len(attrs))
	for i, a := range attrs {
		p, ok := r.pos[a]
		if !ok {
			return nil, fmt.Errorf("join: attribute %q not in relation %v", a, r.Attrs)
		}
		idx[i] = p
	}
	return idx, nil
}

// identCols returns [0, 1, …, n-1]: every column, in order.
func identCols(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// sharedAttrs returns the attributes common to r and s (in r's order).
func sharedAttrs(r, s *Relation) []string {
	var out []string
	for _, a := range r.Attrs {
		if _, ok := s.pos[a]; ok {
			out = append(out, a)
		}
	}
	return out
}

// appendRowKey appends the little-endian encoding of the key columns
// of row i to dst — the single no-copy key encoder behind every
// string-keyed map left in the package (Relation.Join buckets, aggregate
// cell maps); lookups use the string(buf) no-copy form. The
// open-addressing tables of index.go compare column values directly
// and need no keys at all.
func appendRowKey(dst []byte, r *Relation, i int, cols []int) []byte {
	for _, c := range cols {
		dst = appendKeyVal(dst, uint64(r.cols[c].at(i)))
	}
	return dst
}

// appendValsKey encodes an already-materialised value tuple with the
// same encoding as appendRowKey.
func appendValsKey(dst []byte, vals []int) []byte {
	for _, v := range vals {
		dst = appendKeyVal(dst, uint64(v))
	}
	return dst
}

func appendKeyVal(dst []byte, v uint64) []byte {
	return append(dst,
		byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

// Project returns the projection onto attrs, with duplicates removed
// (first occurrence wins).
func (r *Relation) Project(attrs ...string) (*Relation, error) {
	idx, err := r.attrIndex(attrs)
	if err != nil {
		return nil, err
	}
	out := NewRelation(attrs...)
	seen := make(map[string]struct{}, r.n)
	buf := make([]byte, 0, 8*len(idx))
	for i := 0; i < r.n; i++ {
		buf = appendRowKey(buf[:0], r, i, idx)
		if _, dup := seen[string(buf)]; dup {
			continue
		}
		seen[string(buf)] = struct{}{}
		out.appendProjected(r, i, idx)
	}
	return out, nil
}

// joinSchema derives a natural join's output schema: r's attrs followed
// by s's non-shared attrs, with sExtra holding the positions of those
// extra columns in s. The executor and Relation.Join share it — the
// byte-identity guarantee between them depends on identical schema
// construction.
func joinSchema(r, s *Relation, shared []string) (outAttrs []string, sExtra []int) {
	sExtra = make([]int, 0, len(s.Attrs))
	outAttrs = append([]string(nil), r.Attrs...)
	for j, a := range s.Attrs {
		isShared := false
		for _, b := range shared {
			if a == b {
				isShared = true
				break
			}
		}
		if !isShared {
			outAttrs = append(outAttrs, a)
			sExtra = append(sExtra, j)
		}
	}
	return outAttrs, sExtra
}

// Join returns the natural join r ⋈ s: a hash join bucketing s by its
// shared-key encoding, probe tuples in r order, matches in s insertion
// order. It backs EvaluateNaive and the test-only scan reference, and
// is deliberately implemented on string-keyed buckets as an independent
// cross-check of the executor's open-addressing indexes (index.go).
func (r *Relation) Join(s *Relation) (*Relation, error) {
	shared := sharedAttrs(r, s)
	rIdx, err := r.attrIndex(shared)
	if err != nil {
		return nil, err
	}
	sIdx, err := s.attrIndex(shared)
	if err != nil {
		return nil, err
	}
	outAttrs, sExtra := joinSchema(r, s, shared)
	out := newRelation(outAttrs)
	buckets := make(map[string][]int32, s.n)
	buf := make([]byte, 0, 8*len(shared))
	for j := 0; j < s.n; j++ {
		buf = appendRowKey(buf[:0], s, j, sIdx)
		buckets[string(buf)] = append(buckets[string(buf)], int32(j))
	}
	for i := 0; i < r.n; i++ {
		buf = appendRowKey(buf[:0], r, i, rIdx)
		for _, j := range buckets[string(buf)] {
			out.appendJoined(r, i, s, int(j), sExtra)
		}
	}
	return out, nil
}

// Dedup returns r with duplicate tuples removed, preserving
// first-occurrence order. The result is a fresh relation — inputs stay
// immutable — so callers must use the return value.
func (r *Relation) Dedup() *Relation {
	cols := identCols(len(r.cols))
	out := NewRelation(r.Attrs...)
	seen := make(map[string]struct{}, r.n)
	buf := make([]byte, 0, 8*len(cols))
	for i := 0; i < r.n; i++ {
		buf = appendRowKey(buf[:0], r, i, cols)
		if _, dup := seen[string(buf)]; dup {
			continue
		}
		seen[string(buf)] = struct{}{}
		out.appendFrom(r, i)
	}
	return out
}

// Sorted returns the tuples in deterministic lexicographic order (for
// test comparisons).
func (r *Relation) Sorted() [][]int {
	out := r.Rows()
	sort.Slice(out, func(i, j int) bool {
		for k := range out[i] {
			if out[i][k] != out[j][k] {
				return out[i][k] < out[j][k]
			}
		}
		return false
	})
	return out
}

// Canonical returns r's tuple set in canonical form: columns in sorted
// attribute order, rows in lexicographic order, each distinct row once.
// Any two relations holding the same tuples over the same attributes —
// whatever their column order, row order or duplicates — have equal
// canonical forms, which is what makes repeat answers byte-identical
// and differential comparisons exact.
//
// When a row fits one machine word — each column offset by its minimum
// and given just the bits of its span, first attribute most
// significant — the rows become uint64 keys whose order is row order:
// Canonical sorts the keys, drops adjacent equal ones and unpacks each
// kept key straight into the output columns. Wider rows (values near
// both int64 limits, or several columns each spanning 2³¹) sort row
// offsets with a column-by-column comparator instead, then copy each
// kept row once.
func (r *Relation) Canonical() *Relation {
	attrs := append([]string(nil), r.Attrs...)
	sort.Strings(attrs)
	src := make([]*vec, len(attrs))
	for k, a := range attrs {
		src[k] = &r.cols[r.pos[a]]
	}
	if out := canonicalPacked(attrs, src, r.n); out != nil {
		return out
	}
	order := func(i, j int32) int {
		for _, v := range src {
			if c := cmp.Compare(v.at(int(i)), v.at(int(j))); c != 0 {
				return c
			}
		}
		return 0
	}
	ord := make([]int32, r.n)
	for i := range ord {
		ord[i] = int32(i)
	}
	slices.SortFunc(ord, order)
	out := newRelation(attrs)
	for k, i := range ord {
		if k > 0 && order(ord[k-1], i) == 0 {
			continue
		}
		for c, v := range src {
			out.cols[c].push(out.mem, out.n, v.at(int(i)))
		}
		out.n++
	}
	return out
}

// canonicalPacked is Canonical over the first n rows of the columns
// src when their bit widths sum to at most 64, and nil otherwise.
func canonicalPacked(attrs []string, src []*vec, n int) *Relation {
	type packed struct {
		lo, hi       int64
		width, shift uint
	}
	var small [8]packed // a wider answer's columns go on the heap
	cols := small[:0]
	if len(src) > len(small) {
		cols = make([]packed, 0, len(src))
	}
	total := uint(0)
	for _, v := range src {
		lo, hi := v.minMax(n)
		// The span is exact in uint64 even where hi-lo overflows int64.
		width := uint(bits.Len64(uint64(hi) - uint64(lo)))
		if total += width; total > 64 {
			return nil
		}
		cols = append(cols, packed{lo: lo, hi: hi, width: width})
	}
	keys := make([]uint64, n)
	for c, v := range src {
		total -= cols[c].width
		cols[c].shift = total
		if cols[c].width > 0 {
			v.pack(keys, cols[c].lo, total)
		}
	}
	slices.Sort(keys)
	keys = slices.Compact(keys)
	out := newRelation(attrs)
	out.n = len(keys)
	for c, p := range cols {
		out.cols[c].unpack(out.mem, keys, p.lo, p.hi, p.shift, p.width)
	}
	return out
}

// String renders the relation for debugging.
func (r *Relation) String() string {
	var b strings.Builder
	b.WriteString(strings.Join(r.Attrs, ","))
	b.WriteByte('\n')
	for _, t := range r.Sorted() {
		fmt.Fprintf(&b, "%v\n", t)
	}
	return b.String()
}
