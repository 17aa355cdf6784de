package join

import (
	"cmp"
	"slices"
	"sort"
)

// Build-once hash indexes over columnar relations, the storage half of
// the indexed Yannakakis executor (exec.go). An index groups a
// relation's row offsets by their key on one column set — the shared
// variables of one join-tree edge — in CSR form: probe a key, get back
// an offset range into perm instead of a [][]int bucket.
//
// There are no keys materialised anywhere: bucket assignment runs on
// an open-addressing table that hashes column values directly and
// resolves collisions by comparing values against a representative row
// of the candidate bucket. Building an index therefore allocates a
// handful of flat arrays, where the byte-string-keyed map of the
// pre-columnar layout allocated one key string per distinct key — the
// single biggest line item of the old kernel's allocation profile.

// hashIndex is a build-once index of one relation on one column set.
// An index may cover only a row range [lo, hi) of its relation: the
// maintained-index layers of maintained.go index each insert delta as
// its own range, and a stack of such layers over disjoint ascending
// ranges probes in the same overall row order as one full index.
type hashIndex struct {
	r    *Relation
	cols []int // key column positions in the indexed relation
	// lo/hi bound the covered row range; perm holds absolute row ids.
	lo, hi int
	// slots is the open-addressing table: bucket id + 1, 0 = empty.
	slots []int32
	mask  uint64
	// starts/perm are the CSR payload: bucket b's rows are
	// perm[starts[b]:starts[b+1]], in the relation's row order, so its
	// first row perm[starts[b]] is the representative a probe compares
	// keys against.
	starts []int32
	perm   []int32
	// empty counts the bucket ids remap left without rows; they keep
	// their place in starts and are absent from slots.
	empty int
}

// rep returns bucket b's representative row: its first.
func (ix *hashIndex) rep(b int32) int { return int(ix.perm[ix.starts[b]]) }

// tableSize returns the open-addressing table size for n keys: the
// next power of two ≥ 2n, so load stays ≤ ~0.5 and probes short.
func tableSize(n int) int {
	size := 8
	for size < 2*n {
		size <<= 1
	}
	return size
}

// rowsEqualOn reports whether row i of r equals row j of s on the
// paired column sets.
func rowsEqualOn(r *Relation, rCols []int, i int, s *Relation, sCols []int, j int) bool {
	for k, c := range rCols {
		if r.cols[c].at(i) != s.cols[sCols[k]].at(j) {
			return false
		}
	}
	return true
}

// buildIndexCols indexes rows [lo, hi) of r on column positions cols.
// Bucket row offsets keep r's row order, so probes that emit matches
// bucket-by-bucket produce Relation.Join's row order — the
// byte-identity contract. perm holds absolute row ids, so a layer
// stack over disjoint ascending ranges enumerates matches in overall
// row order — the property that keeps maintained indexes
// byte-identical to a single full rebuild. A nil guard skips cancellation polling (maintenance
// builds run under the dataset lock, not a query deadline).
func buildIndexCols(r *Relation, cols []int, lo, hi int, g *guard) (*hashIndex, error) {
	n := hi - lo
	size := tableSize(n)
	ix := &hashIndex{
		r:     r,
		cols:  cols,
		lo:    lo,
		hi:    hi,
		slots: make([]int32, size),
		mask:  uint64(size - 1),
	}
	rowBucket := make([]int32, n)
	// reps holds each bucket's first row while perm does not exist yet.
	var reps []int32
	for i := lo; i < hi; i++ {
		if err := g.poll(i - lo); err != nil {
			return nil, err
		}
		j := hashRow(r, cols, i) & ix.mask
		for {
			b := ix.slots[j]
			if b == 0 {
				b = int32(len(reps)) + 1
				ix.slots[j] = b
				reps = append(reps, int32(i))
			} else if !rowsEqualOn(r, cols, int(reps[b-1]), r, cols, i) {
				j = (j + 1) & ix.mask
				continue
			}
			rowBucket[i-lo] = b - 1
			break
		}
	}
	// CSR fill: counts → prefix sums → offsets in row order, placed
	// through cursors that reuse reps, which is done with.
	ix.starts = make([]int32, len(reps)+1)
	for _, b := range rowBucket {
		ix.starts[b+1]++
	}
	for b := range reps {
		ix.starts[b+1] += ix.starts[b]
	}
	ix.perm = make([]int32, n)
	cursor := append(reps[:0], ix.starts[:len(reps)]...)
	for i := lo; i < hi; i++ {
		b := rowBucket[i-lo]
		ix.perm[cursor[b]] = int32(i)
		cursor[b]++
	}
	return ix, nil
}

// remap returns an index over rows [0, hi) of r derived from ix, an
// index over rows [0, ix.hi) of an earlier version of the same
// relation, without hashing those rows again. newID maps each row ix
// covers to its row in r, -1 for a row compaction dropped; nil keeps
// every row in place. The rows of r past those ix covers are hashed in.
// Compaction keeps the live rows in order, so each bucket's rows stay
// ascending and the result lists, for every key, the rows a fresh
// buildIndexCols over r lists.
//
// Bucket ids carry over and the table is copied: one pass over the old
// perm renumbers it, the hashed rows join their key's bucket or open
// one, and a bucket left without rows keeps its id with an empty range
// but leaves the table by backward-shift deletion, so a probe never
// meets an empty bucket and its loop needs no branch for one. Once the
// table is out of proportion to the rows — under twice them, or over
// eight times — or emptied ids are more than an eighth of all, the
// index is built afresh instead. ix itself is not modified: published
// views keep probing it.
func (ix *hashIndex) remap(r *Relation, newID []int32, hi int) *hashIndex {
	oldB := int32(len(ix.starts) - 1)
	if size := tableSize(hi); len(ix.slots) < size || len(ix.slots) > 4*size || 8*ix.empty > int(oldB) {
		// A nil guard cannot fail buildIndexCols.
		fresh, _ := buildIndexCols(r, ix.cols, 0, hi, nil)
		return fresh
	}
	// kept is the live rows ix covers: they are rows [0, kept) of r.
	kept := ix.hi
	if newID != nil {
		kept = 0
		for i := ix.hi - 1; i >= 0; i-- {
			if newID[i] >= 0 {
				kept = int(newID[i]) + 1
				break
			}
		}
	}
	out := &hashIndex{r: r, cols: ix.cols, hi: hi, slots: slices.Clone(ix.slots), mask: ix.mask}
	// The rows past the old cover join their key's bucket or open one;
	// an old bucket's key is compared on its old representative. order
	// lists them by bucket, each bucket's in row order.
	var reps []int32 // first rows of the buckets opened here
	bucket := make([]int32, hi-kept)
	order := make([]int32, hi-kept)
	for i := kept; i < hi; i++ {
		j := hashRow(r, out.cols, i) & out.mask
		for {
			b := out.slots[j]
			if b == 0 {
				reps = append(reps, int32(i))
				b = oldB + int32(len(reps))
				out.slots[j] = b
			} else if b > oldB {
				if !rowsEqualOn(r, out.cols, int(reps[b-1-oldB]), r, out.cols, i) {
					j = (j + 1) & out.mask
					continue
				}
			} else if !rowsEqualOn(ix.r, ix.cols, ix.rep(b-1), r, out.cols, i) {
				j = (j + 1) & out.mask
				continue
			}
			bucket[i-kept] = b - 1
			order[i-kept] = int32(i - kept)
			break
		}
	}
	slices.SortStableFunc(order, func(x, y int32) int { return cmp.Compare(bucket[x], bucket[y]) })
	// perm: one pass over the old perm, renumbering the live rows and
	// noting the positions of the dropped ones, with each bucket's
	// hashed rows after its old range and the opened buckets' last.
	out.perm = make([]int32, hi)
	var w, k int32
	var dropped []int32
	emit := func(upTo int32) {
		if newID == nil {
			w += int32(copy(out.perm[w:], ix.perm[k:upTo]))
			k = upTo
			return
		}
		for ; k < upTo; k++ {
			if j := newID[ix.perm[k]]; j >= 0 {
				out.perm[w] = j
				w++
			} else {
				dropped = append(dropped, k)
			}
		}
	}
	for a := 0; a < len(order); {
		b := bucket[order[a]]
		emit(ix.starts[min(b, oldB-1)+1])
		for ; a < len(order) && bucket[order[a]] == b; a++ {
			out.perm[w] = int32(kept) + order[a]
			w++
		}
	}
	emit(int32(len(ix.perm)))
	// starts: a bucket starts where its old range did, less the dropped
	// rows and plus the hashed rows before it.
	nb := oldB + int32(len(reps))
	out.starts = make([]int32, nb+1)
	d, a := 0, 0
	for b := range nb {
		pos := ix.starts[min(b, oldB)]
		for d < len(dropped) && dropped[d] < pos {
			d++
		}
		for a < len(order) && bucket[order[a]] < b {
			a++
		}
		out.starts[b] = pos - int32(d) + int32(a)
	}
	out.starts[nb] = int32(hi)
	// A bucket whose rows were all dropped leaves the table.
	out.empty = ix.empty
	last := int32(-1)
	for _, p := range dropped {
		b := int32(sort.Search(int(oldB), func(b int) bool { return ix.starts[b+1] > p }))
		if b != last && out.starts[b] == out.starts[b+1] {
			out.deleteSlot(b+1, ix, reps)
			out.empty++
		}
		last = b
	}
	return out
}

// deleteSlot removes bucket id v from the table of a remap of old that
// kept old's ids, by backward-shift deletion: each later entry of the
// probe run moves into the hole unless its home slot lies cyclically
// after the hole, so every remaining key stays reachable from its home
// without tombstones. An old id's key is hashed on old's
// representative, an id remap opened on its row in reps.
func (ix *hashIndex) deleteSlot(v int32, old *hashIndex, reps []int32) {
	oldB := int32(len(old.starts) - 1)
	home := func(v int32) uint64 {
		if v > oldB {
			return hashRow(ix.r, ix.cols, int(reps[v-1-oldB])) & ix.mask
		}
		return hashRow(old.r, old.cols, old.rep(v-1)) & ix.mask
	}
	i := home(v)
	for ix.slots[i] != v {
		i = (i + 1) & ix.mask
	}
	for j := i; ; {
		j = (j + 1) & ix.mask
		w := ix.slots[j]
		if w == 0 {
			ix.slots[i] = 0
			return
		}
		if (j-home(w))&ix.mask >= (j-i)&ix.mask {
			ix.slots[i] = w
			i = j
		}
	}
}

// lookupRow finds the bucket whose key equals row `row` of s on sCols.
func (ix *hashIndex) lookupRow(s *Relation, sCols []int, row int) (int32, bool) {
	j := hashRow(s, sCols, row) & ix.mask
	for {
		b := ix.slots[j]
		if b == 0 {
			return 0, false
		}
		if rowsEqualOn(ix.r, ix.cols, ix.rep(b-1), s, sCols, row) {
			return b - 1, true
		}
		j = (j + 1) & ix.mask
	}
}

// probeRow returns the offsets (into the indexed relation, in its row
// order) whose key equals row `row` of s on sCols; nil when none.
func (ix *hashIndex) probeRow(s *Relation, sCols []int, row int) []int32 {
	b, ok := ix.lookupRow(s, sCols, row)
	if !ok {
		return nil
	}
	return ix.perm[ix.starts[b]:ix.starts[b+1]]
}

// hashVals hashes a materialised value tuple exactly like hashRow
// hashes the same values read from a relation, so value probes and row
// probes land in the same buckets.
func hashVals(vals []int) uint64 {
	h := uint64(len(vals))*0x94d049bb133111eb + 1
	for _, v := range vals {
		h = hashMix(h, uint64(v))
	}
	return h
}

// valsEqualOn reports whether row i of r equals vals on cols.
func valsEqualOn(r *Relation, cols []int, i int, vals []int) bool {
	for k, c := range cols {
		if r.cols[c].at(i) != vals[k] {
			return false
		}
	}
	return true
}

// lookupVals finds the bucket whose key equals the materialised tuple
// vals — the mutation path's point lookup (delete-by-value, insert
// dedup) against the always-maintained all-columns index.
func (ix *hashIndex) lookupVals(vals []int) (int32, bool) {
	j := hashVals(vals) & ix.mask
	for {
		b := ix.slots[j]
		if b == 0 {
			return 0, false
		}
		if valsEqualOn(ix.r, ix.cols, ix.rep(b-1), vals) {
			return b - 1, true
		}
		j = (j + 1) & ix.mask
	}
}

// probeVals returns the absolute row offsets whose key equals vals.
func (ix *hashIndex) probeVals(vals []int) []int32 {
	b, ok := ix.lookupVals(vals)
	if !ok {
		return nil
	}
	return ix.perm[ix.starts[b]:ix.starts[b+1]]
}

// projectFast returns the projection of r onto attrs, duplicates
// removed through projectIdx, with guard polling; first-occurrence
// order is preserved, like the scan path.
func projectFast(r *Relation, attrs []string, g *guard) (*Relation, error) {
	idx, err := r.attrIndex(attrs)
	if err != nil {
		return nil, err
	}
	return projectIdx(r, NewRelation(attrs...), idx, g)
}

// projectIdx emits the distinct projections of r onto columns idx into
// out (whose schema is aligned with idx). Candidate rows dedupe
// against already-emitted output rows via an open-addressing table of
// output offsets, so the loop allocates nothing per row.
func projectIdx(r *Relation, out *Relation, idx []int, g *guard) (*Relation, error) {
	size := tableSize(r.n)
	slots := make([]int32, size)
	mask := uint64(size - 1)
	outCols := identCols(len(idx))
	for i := 0; i < r.n; i++ {
		if err := g.poll(i); err != nil {
			return nil, err
		}
		j := hashRow(r, idx, i) & mask
		for {
			o := slots[j]
			if o == 0 {
				slots[j] = int32(out.n) + 1
				out.appendProjected(r, i, idx)
				break
			}
			if rowsEqualOn(out, outCols, int(o-1), r, idx, i) {
				break
			}
			j = (j + 1) & mask
		}
	}
	return out, nil
}
