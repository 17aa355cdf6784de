package join

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
	// first maps bucket id → a representative row, for key equality.
	first []int32
	// starts/perm are the CSR payload: bucket b's rows are
	// perm[starts[b]:starts[b+1]], in the relation's row order.
	starts []int32
	perm   []int32
}

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
	for i := lo; i < hi; i++ {
		if err := g.poll(i - lo); err != nil {
			return nil, err
		}
		j := hashRow(r, cols, i) & ix.mask
		for {
			b := ix.slots[j]
			if b == 0 {
				b = int32(len(ix.first)) + 1
				ix.slots[j] = b
				ix.first = append(ix.first, int32(i))
			} else if !rowsEqualOn(r, cols, int(ix.first[b-1]), r, cols, i) {
				j = (j + 1) & ix.mask
				continue
			}
			rowBucket[i-lo] = b - 1
			break
		}
	}
	// CSR fill: counts → prefix sums → offsets in row order.
	ix.starts = make([]int32, len(ix.first)+1)
	for _, b := range rowBucket {
		ix.starts[b+1]++
	}
	for b := 0; b < len(ix.first); b++ {
		ix.starts[b+1] += ix.starts[b]
	}
	ix.perm = make([]int32, n)
	cursor := append([]int32(nil), ix.starts[:len(ix.first)]...)
	for i := lo; i < hi; i++ {
		b := rowBucket[i-lo]
		ix.perm[cursor[b]] = int32(i)
		cursor[b]++
	}
	return ix, nil
}

// lookupRow finds the bucket whose key equals row `row` of s on sCols.
func (ix *hashIndex) lookupRow(s *Relation, sCols []int, row int) (int32, bool) {
	j := hashRow(s, sCols, row) & ix.mask
	for {
		b := ix.slots[j]
		if b == 0 {
			return 0, false
		}
		if rowsEqualOn(ix.r, ix.cols, int(ix.first[b-1]), s, sCols, row) {
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
		if valsEqualOn(ix.r, ix.cols, int(ix.first[b-1]), vals) {
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
