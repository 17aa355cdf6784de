// Package join is a small in-memory relational engine supporting
// conjunctive query evaluation through hypertree decompositions: bag
// materialisation, the three semijoin/join passes of Yannakakis'
// algorithm [26], an aggregate pushdown engine, and a naive join
// baseline for cross-checking. It is the substrate for the paper's
// motivating application (§1): CQs whose hypergraphs have bounded
// hypertree width evaluate in polynomial time by reduction to an
// acyclic instance.
//
// Contract: Evaluate/EvaluateCtx return the answer set — no row
// twice — in a deterministic row order, and Relation.Canonical puts
// it in canonical form (columns sorted by variable name, rows sorted);
// AggregateCtx folds COUNT / COUNT DISTINCT / SUM / MIN / MAX —
// optionally GROUP BY a variable subset — during the bottom-up pass,
// touching per-bag state bounded by the group count instead of the
// answer count, and agrees exactly with AggregateRows over the
// materialised answers. Both honour context cancellation and the
// EvalOptions.MaxRows intermediate-size budget. Parse/FormatQuery and
// Parse/FormatDocument round-trip the text format defined in
// docs/QUERY_FORMAT.md.
package join
