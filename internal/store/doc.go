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
//     the solvers through logk.MemoBackend.
//
// All of it sits behind the small pluggable Backend interface. Three
// implementations ship:
//
//   - Memory — in-memory: one mutex over a map and an intrusive LRU
//     list, holding exactly its cap of entries with O(1) eviction of
//     the least recently used;
//   - Log — disk-backed and crash-safe: an append-only record log
//     (length-prefixed, CRC-32C-checksummed records, fsync cadence
//     configurable down to every append) with segment rotation,
//     background compaction, and torn-tail recovery on open;
//   - Tiered — the composition serving processes actually run: a
//     Memory front as the LRU working set over a Log as the durable
//     truth, so every result persists as it is computed and a restart
//     (graceful or kill -9) serves the whole history warm.
//
// The log is the only persistence format, and its closed directory is
// the export format: records are merges, so OpenLog replays any set of
// segments, and a byte copy of a closed directory warm-starts another
// process. Request coalescing (Flight) lives here too: N concurrent
// identical requests run one solver and share the result.
package store
