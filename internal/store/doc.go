// Package store is the decomposition service's cross-request state: one
// content-addressed record per hypergraph (keyed by
// hypergraph.ContentHash) holding everything any request has proven
// about that structure — width bounds (every width < LB refuted, an HD
// of width UB witnessed), a portable witness Tree of width UB, and
// per-width negative-memo tables shared with the solvers through
// logk.MemoBackend, which live in memory only.
//
// Consumers program against Backend. Memory is one mutex over a map and
// an intrusive LRU list with an exact cap. Tiered, what serving
// processes run, is a Memory front over a Log, so every bound and
// witness persists as it is computed and a restart (graceful or kill
// -9) serves the whole history warm.
//
// Log is the plan index over a segment log. The segment log (segLog)
// knows nothing of records: it frames opaque payloads with a length and
// a CRC-32C, rotates and fsyncs segments, compacts them into a fresh
// one and cuts a torn tail on open. Log encodes the bounds, tree and
// tombstone records, replays them into its index and decides which are
// live. Records are merges, so any set of segments replays, and a byte
// copy of a closed directory warm-starts another process. Flight
// coalesces concurrent identical requests onto one solver run.
package store
