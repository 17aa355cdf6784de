// Package join is a small in-memory relational engine supporting
// conjunctive query evaluation through hypertree decompositions: bag
// materialisation, Yannakakis' algorithm [26] (for a row answer the
// bottom-up semijoin pass then a top-down join pass), an aggregate
// pushdown engine (top-down over the bags' indexes when no key is
// carried below the root, else over both semijoin passes), and a naive
// join baseline for cross-checking. It is the substrate for the paper's
// motivating application (§1): CQs whose hypergraphs have bounded
// hypertree width evaluate in polynomial time by reduction to an
// acyclic instance.
//
// Contract: EvaluateCtx returns the answer set — no row
// twice — in a deterministic row order, and Relation.Canonical puts
// it in canonical form (columns sorted by variable name, rows sorted);
// AggregateCtx folds COUNT / COUNT DISTINCT / SUM / MIN / MAX —
// optionally GROUP BY a variable subset — over the join tree,
// touching per-bag state bounded by the group count instead of the
// answer count, and agrees exactly with AggregateRows over the
// materialised answers; a COUNT or SUM past int64 fails with
// ErrAggregateOverflow in both. Both evaluators honour context cancellation and the
// EvalOptions.MaxRows intermediate-size budget. Parse/FormatQuery and
// Parse/FormatDocument round-trip the text format defined in
// docs/QUERY_FORMAT.md.
package join
