package join

import (
	"context"

	"repro/internal/decomp"
)

// Count returns the number of answers of the full conjunctive query
// without materialising them, by dynamic programming over the join tree
// of the decomposition: after the semijoin reduction, each bag tuple's
// extension count is the product over children of the summed counts of
// joining child tuples. This is the tractable counting the paper cites
// as an HD application (Pichler & Skritek [23]): time is polynomial in
// the size of the bag relations, hence in N^width.
//
// Count is the scalar-COUNT special case of the aggregate pushdown
// engine (see AggregateCtx) and runs on the same budgeted indexed
// kernel.
func Count(q Query, db Database, d *decomp.Decomp) (int64, error) {
	return CountCtx(context.Background(), q, db, d, EvalOptions{})
}

// CountCtx is Count under a context and per-query limits: the reduction
// passes and the counting DP honour ctx cancellation, opts.MaxRows and
// the shared token budget exactly like EvaluateCtx.
func CountCtx(ctx context.Context, q Query, db Database, d *decomp.Decomp, opts EvalOptions) (int64, error) {
	res, err := AggregateCtx(ctx, q, db, d, AggSpec{Kind: AggCount}, opts)
	if err != nil {
		return 0, err
	}
	n, _ := res.Value()
	return n, nil
}
