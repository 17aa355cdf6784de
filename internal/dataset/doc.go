// Package dataset holds named, server-resident, versioned databases —
// the data half of the plan-cache story. A dataset is a set of
// maintained relations (join.MRel) plus a monotonically increasing
// version; mutation batches (insert/delete tuple deltas per relation)
// advance the version by exactly one, and every version publishes an
// immutable copy-on-write snapshot whose relations carry maintained
// hash indexes.
//
// Contracts:
//
//   - Version monotonicity: versions only increase — one batch, one
//     bump; a replaced dataset continues the old counter.
//   - Snapshot isolation: a Snapshot resolved before a mutation
//     commits reads exactly its version's rows forever; writers never
//     touch published storage.
//   - Bounded pinning: the last Config.Retain versions stay
//     resolvable; pinning an evicted or future version is a clear
//     error (ErrVersionGone / ErrFutureVersion), never wrong rows.
//   - One bag cache per snapshot: each published version owns a
//     join.BagCache for the executor, holding at most the version's
//     live tuple count in rows. A mutation starts the new version's
//     cache from the previous one's bags — carried, maintained by the
//     batch's delta, or dropped — and then retires the previous cache
//     (empties it for good); a replacement starts it empty.
//   - Incremental ≡ from-scratch: evaluating any query over a snapshot
//     equals evaluating it over a database freshly built from the
//     snapshot's materialised rows — byte-identical; the differential
//     wall in internal/query enforces this after random delta
//     sequences.
//
// The registry is tenant-namespaced: tenants see only their own
// datasets, and the tenant wall admission-controls mutations like any
// other request.
package dataset
