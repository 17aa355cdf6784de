// Package service runs decompositions as a managed, concurrent service
// rather than one Solver at a time. It owns the resources that
// individual logk.Solver instances would otherwise fight over:
//
//   - a global worker-token budget (Config.TokenBudget, one
//     logk.TokenPool): every job's parallel search splits draw from one
//     pool, so total search parallelism is bounded regardless of how
//     many requests are in flight;
//   - a job scheduler with admission control: at most MaxConcurrent
//     jobs decompose at once, at most MaxQueue more wait, the rest are
//     rejected immediately with ErrOverloaded; every job gets its own
//     context with a per-job timeout;
//   - a unified cross-request store (internal/store): one
//     content-addressed record per hypergraph holding width bounds, a
//     validated witness decomposition, and per-width negative-memo
//     tables. Submit reads through it — a repeat of an already-solved
//     request returns the cached, re-validated HD without running a
//     solver — and concurrent identical requests are coalesced onto a
//     single solver run (singleflight), including duplicates inside one
//     Batch. The store is pluggable (Config.Store) and, with
//     Config.StoreDir, disk-backed, so a serving process restarts warm.
//
// The package is exposed publicly as htd.Service.
package service
