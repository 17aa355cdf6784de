// Package query answers conjunctive queries end to end — the paper's §1
// motivating application. A Planner turns a CQ into its hypergraph,
// obtains a minimum-width hypertree decomposition through the
// decomposition service (read-through to the cross-request store: a
// repeat query is a plan-cache hit that runs no solver), and executes
// Yannakakis' algorithm over the bags on the hash-indexed kernel under
// a per-query row budget and context cancellation. A Request carrying an Aggregate spec skips
// answer materialisation entirely: the aggregate is folded down the
// join tree and the Result returns groups and values, never rows.
//
// The pipeline composes every prior subsystem: internal/join supplies
// the relational engine and the aggregate pushdown, internal/service
// the managed solvers, and internal/store the content-addressed plan
// cache keyed by the query hypergraph's structure — structurally
// identical queries (same atom shapes, any relation names) share one
// cached plan, and row and aggregate forms of the same query share it
// too.
package query
