// Package race computes the exact hypertree width hw(H) by racing
// width-bound probes against each other instead of probing widths
// serially. The paper's evaluation (§5.1) counts an instance as solved
// only when the optimal-width HD is found *and* every smaller width is
// refuted; a serial k = 1..kmax ladder pays for those refutations one
// after another, while the refutations and the witness search are
// independent and embarrassingly parallel. The racer runs several
// log-k-decomp probes concurrently, shares a live lower/upper bound
// pair between them, and cancels any probe made moot by a sibling's
// result:
//
//   - a probe that finds an HD of width w lowers the upper bound to w
//     and kills every probe at width ≥ w (their witnesses are redundant);
//   - a probe that refutes width k raises the lower bound to k+1 and
//     kills every probe at width ≤ k (hw > k implies hw > k' for k' < k,
//     following the bound-sharing idea of Gottlob & Samer's backtracking
//     optimal search).
//
// The race is over when the bounds meet: lb = ub with a witness at ub.
//
// A moot probe is stopped by cancelling its context and nothing else.
// Every context inside the probe derives from that one, and a search
// split asks for worker tokens only while its context is live, so from
// the moment of cancellation the probe takes no new search workers and
// its parallelism flows to the surviving probes. Every finished probe,
// including one that lands while the race winds down, is booked in one
// place, so its witness or refutation is kept in the Result. All probes
// can share one logk.TokenSource and per-width logk.MemoBackend tables,
// which is how the service layer races many jobs against a single
// machine-wide worker budget and feeds every refutation into its
// cross-request negative-memo cache.
package race
