// Package store is the unified cross-request state layer of the
// decomposition service: one content-addressed record per hypergraph
// (keyed by hypergraph.ContentHash) holding everything any request has
// ever proven about that structure —
//
//   - width bounds: all widths < LB are refuted, an HD of width UB has
//     been witnessed (the width-level knowledge formerly kept in the
//     service's boundsStore);
//   - a positive result cache: a portable witness decomposition (Tree)
//     of width UB, so a repeat submission is answered with a validated
//     HD instead of a fresh solver run;
//   - per-width negative-memo tables: content keys of search states
//     proven exhausted (formerly the service's memoStore), shared with
//     the solvers through logk.MemoBackend. They live in memory only:
//     a restart starts them empty, and the log holds nothing of them.
//
// All of it sits behind the small pluggable Backend interface. Two
// implementations ship:
//
//   - Memory — in-memory: one mutex over a map and an intrusive LRU
//     list, holding exactly its cap of entries with O(1) eviction of
//     the least recently used;
//   - Tiered — the composition serving processes actually run: a
//     Memory front as the LRU working set over a Log as the durable
//     truth, so every bound and witness persists as it is computed and
//     a restart (graceful or kill -9) serves the whole history warm.
//
// Log, the disk tier Tiered composes, is not a Backend itself: it is
// disk-backed and crash-safe, an append-only log of bounds, tree and
// drop-tombstone records (length-prefixed, CRC-32C-checksummed, fsync
// cadence configurable down to every append) with segment rotation,
// compaction inline in the append whose rotation finds more than half
// of the log dead, and torn-tail recovery on open.
//
// The log is the only persistence format, and its closed directory is
// the export format: records are merges, so OpenLog replays any set of
// segments, and a byte copy of a closed directory warm-starts another
// process. Request coalescing (Flight) lives here too: N concurrent
// identical requests run one solver and share the result.
package store
