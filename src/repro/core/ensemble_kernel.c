/* Native batched kernel for every load process with a compiled round.
 *
 * Advances an (R, n) ensemble of independent replicas for a given number
 * of rounds entirely in C.  Per round and per active replica, tokens leave
 * their bins and land in destinations chosen by one of three rules:
 *
 *   DEST_CLIQUE    one ball leaves every non-empty bin and lands in a bin
 *                  chosen uniformly among all n — the paper's repeated
 *                  balls-into-bins process (the complete graph with
 *                  self-loops, kept implicit: no CSR is read);
 *   DEST_CSR_ONE   one token leaves every non-empty node and moves to a
 *                  uniformly random CSR neighbor — constrained parallel
 *                  walks on a general graph;
 *   DEST_CSR_ALL   every token moves to a uniformly random CSR neighbor —
 *                  the unconstrained comparison process.
 *
 * One per-replica driver owns everything the rules share: the freeze
 * check, the window metrics (max load, min empty-bin count, first
 * legitimate round), the per-replica early stop on legitimacy, and the
 * fused observation.  It picks the rule once per round, outside the inner
 * loops, so a whole `run()` costs a single FFI call whatever the process.
 *
 * Layout and parallelism: the loop is replica-major — each replica runs all
 * its rounds to completion before the next starts — so the working set per
 * task is one 4·n-byte row that stays cache-resident instead of an R·n
 * sweep per round.  Replicas are fanned out across threads by
 * repro_for_each_replica() (_kernel_common.h).  The CSR rules' arrivals and
 * source-compaction buffers are per-thread slices of (n_threads, n) arrays
 * handed in by the caller, so workers never share mutable state; a
 * replica's trajectory depends only on its own xoshiro256++ stream, so
 * results are bit-identical for every thread count.
 *
 * Fused observation: when n_obs > 0 the kernel records, at every stride
 * boundary ((t+1) % observe_every == 0) and at the window end, the
 * post-round max load and empty-bin count into (n_obs, R) output buffers,
 * plus the load sum and sum of squares when the moment buffers are
 * non-NULL, and adds the row's load histogram into an (R, hist_cap + 1)
 * buffer when one is given (repro_obs_record in _kernel_common.h).  All
 * outputs are integers, so the Python trackers that ingest them reproduce
 * the segmented observation loop bit-for-bit.
 *
 * Randomness: each replica owns an independent xoshiro256++ stream whose
 * 4-word state is seeded by the caller (from a numpy SeedSequence).  A
 * replica's trajectory therefore depends only on its own seed words, not on
 * how many replicas share the batch.  Picks use Lemire's unbiased
 * bounded-integer reduction, two 32-bit lanes per 64-bit draw.  The clique
 * rule draws straight from the generator and drops the unused second lane
 * of a round's last draw; the CSR rules reset their lane buffer at every
 * round boundary, with per-node rejection thresholds precomputed by the
 * caller.  Either way no lane crosses a round, so segmented runs
 * (observation strides) follow the exact trajectory of whole-window runs.
 *
 * Compiled on demand by repro.core.native via the system C compiler; the
 * pure-numpy kernels in repro.core.batched and repro.graphs.batched are
 * the semantic references.
 */

#include "_kernel_common.h"

/* Destination rules (mirrored by repro.core.native.DEST_*). */
enum { DEST_CLIQUE = 0, DEST_CSR_ONE = 1, DEST_CSR_ALL = 2 };

/* The per-round rule functions (clique_round, csr_round) are noinline.
 * Inlined into the driver, the clique rule's arrival loop competes for
 * registers with the driver's live values and ran 5-15% slower than as
 * its own function. */

typedef struct {
    int32_t *loads;
    int64_t n;
    int64_t rounds;
    uint64_t *rng_state;
    int32_t thr;
    int stop_when_legitimate;
    int32_t *max_seen;
    int32_t *min_empty_seen;
    int64_t *first_legit;
    int64_t *rounds_done;
    uint8_t *active;
    int rule;
    uint32_t lim; /* DEST_CLIQUE: Lemire rejection threshold for n */
    const int32_t *neighbors;
    const int64_t *offsets;
    const int32_t *degrees;
    const uint32_t *lims;
    int32_t *scratch; /* (n_threads, n) arrivals, all-zero rows */
    int32_t *sources; /* (n_threads, n) non-empty-node compaction */
    repro_obs_t obs;
} ensemble_ctx;

/* DEST_CLIQUE: one round of row; leaves the post-round max load in
 * *mx_out and the empty-bin count in *empty_out. */
static __attribute__((noinline)) void
clique_round(const ensemble_ctx *c, int32_t *row, rng_t *g, int32_t *mx_out,
             int64_t *empty_out)
{
    const int64_t n = c->n;
    const uint32_t un = (uint32_t)n;
    const uint32_t lim = c->lim;

    /* departures: every non-empty bin loses one ball.  The same pass
     * collects the ball count, the post-departure max, and the
     * post-departure empty count, so no separate metrics scan is
     * needed: departures cannot create a new maximum, and arrivals
     * below track the running max / fill-ins incrementally. */
    int64_t cnt = 0;
    int32_t mx = 0;
    int64_t empty = 0;
    for (int64_t i = 0; i < n; i++) {
        const int32_t l0 = row[i];
        const int32_t ne = l0 > 0;
        const int32_t l = l0 - ne;
        row[i] = l;
        cnt += ne;
        if (l > mx)
            mx = l;
        empty += (l == 0);
    }

    /* arrivals: cnt uniform throws, two 32-bit lanes per draw; the
     * running max and empty count absorb each landing as it happens */
    int64_t j = 0;
    while (j < cnt) {
        const uint64_t w = next64(g);
        const uint64_t m0 = (uint64_t)(uint32_t)w * un;
        if ((uint32_t)m0 >= lim) {
            const int32_t v = ++row[m0 >> 32];
            empty -= (v == 1);
            if (v > mx)
                mx = v;
            j++;
        }
        if (j < cnt) {
            const uint64_t m1 = (uint64_t)(uint32_t)(w >> 32) * un;
            if ((uint32_t)m1 >= lim) {
                const int32_t v = ++row[m1 >> 32];
                empty -= (v == 1);
                if (v > mx)
                    mx = v;
                j++;
            }
        }
    }
    *mx_out = mx;
    *empty_out = empty;
}

/* One token from the CSR node with degree d, row offset off and Lemire
 * threshold lim to a uniformly random neighbor. */
static inline void csr_move(const ensemble_ctx *c, lanes_t *L, uint32_t d,
                            int64_t off, uint32_t lim, int32_t *scratch)
{
    const int64_t j = d == 1 ? 0 : (int64_t)bounded(L, d, lim);
    scratch[c->neighbors[off + j]]++;
}

/* One token from CSR node i. */
static inline void csr_move_from(const ensemble_ctx *c, lanes_t *L,
                                 int64_t i, int32_t *scratch)
{
    csr_move(c, L, (uint32_t)c->degrees[i], c->offsets[i], c->lims[i],
             scratch);
}

/* DEST_CSR_ONE departures: one token per non-empty node, landing in
 * scratch.  A SIMD-friendly count first, then the path that fits the
 * density: for sparse rows a guarded loop's branch is almost always
 * not-taken (predicts perfectly); for dense rows a branchless compaction
 * (conditional write-cursor increment) avoids mispredicting the random
 * non-empty pattern, and the draw loop touches only the cnt non-empty
 * nodes.  Both visit the nodes in index order, so they draw alike. */
static inline void csr_one_departures(const ensemble_ctx *c, int32_t *row,
                                      lanes_t *L, int32_t *scratch,
                                      int32_t *sources)
{
    const int64_t n = c->n;
    int64_t cnt = 0;
    for (int64_t i = 0; i < n; i++)
        cnt += (row[i] > 0);
    if (cnt * 8 < n) { /* sparse */
        for (int64_t i = 0; i < n; i++) {
            if (row[i] > 0) {
                row[i]--;
                csr_move_from(c, L, i, scratch);
            }
        }
    } else { /* dense */
        int64_t w = 0;
        for (int64_t i = 0; i < n; i++) {
            const int32_t ne = row[i] > 0;
            sources[w] = (int32_t)i;
            w += ne;
            row[i] -= ne;
        }
        for (int64_t s = 0; s < cnt; s++)
            csr_move_from(c, L, sources[s], scratch);
    }
}

/* DEST_CSR_ALL departures: every token moves independently. */
static inline void csr_all_departures(const ensemble_ctx *c, int32_t *row,
                                      lanes_t *L, int32_t *scratch)
{
    for (int64_t i = 0; i < c->n; i++) {
        const int32_t l = row[i];
        if (l > 0) {
            const uint32_t d = (uint32_t)c->degrees[i];
            const int64_t off = c->offsets[i];
            const uint32_t lim = c->lims[i];
            row[i] = 0;
            for (int32_t b = 0; b < l; b++)
                csr_move(c, L, d, off, lim, scratch);
        }
    }
}

/* DEST_CSR_ONE and DEST_CSR_ALL: one round of row, departures landing
 * in scratch, then the arrivals added back (restoring scratch to zero)
 * while measuring the new configuration, as clique_round does.  The lane
 * buffer starts empty every round. */
static __attribute__((noinline)) void
csr_round(const ensemble_ctx *c, int32_t *row, rng_t *g, int32_t *scratch,
          int32_t *sources, int32_t *mx_out, int64_t *empty_out)
{
    lanes_t L = {g, 0, 0};
    if (c->rule == DEST_CSR_ONE)
        csr_one_departures(c, row, &L, scratch, sources);
    else
        csr_all_departures(c, row, &L, scratch);

    int32_t mx = 0;
    int64_t empty = 0;
    for (int64_t i = 0; i < c->n; i++) {
        const int32_t l = row[i] + scratch[i];
        row[i] = l;
        scratch[i] = 0;
        if (l > mx)
            mx = l;
        empty += (l == 0);
    }
    *mx_out = mx;
    *empty_out = empty;
}

static void ensemble_replica(void *vctx, int64_t r, int tid)
{
    ensemble_ctx *c = (ensemble_ctx *)vctx;
    const int64_t n = c->n;
    const int32_t thr = c->thr;
    int32_t *row = c->loads + r * n;
    int32_t *scratch = c->scratch ? c->scratch + (int64_t)tid * n : 0;
    int32_t *sources = c->sources ? c->sources + (int64_t)tid * n : 0;
    rng_t *g = (rng_t *)(c->rng_state + 4 * r);
    int64_t k = 0;    /* next fused observation slot */
    int64_t over = 0; /* histogram overflow, written once at the end */

    for (int64_t t = 0; t < c->rounds; t++) {
        if (!c->active[r])
            break;
        int32_t mx;
        int64_t empty;
        if (c->rule == DEST_CLIQUE)
            clique_round(c, row, g, &mx, &empty);
        else
            csr_round(c, row, g, scratch, sources, &mx, &empty);

        c->rounds_done[r]++;
        if (mx > c->max_seen[r])
            c->max_seen[r] = mx;
        if ((int32_t)empty < c->min_empty_seen[r])
            c->min_empty_seen[r] = (int32_t)empty;
        if (c->first_legit[r] < 0 && mx <= thr) {
            c->first_legit[r] = c->rounds_done[r];
            if (c->stop_when_legitimate)
                c->active[r] = 0;
        }
        if (repro_obs_due(&c->obs, t, c->rounds)) {
            repro_obs_record(&c->obs, row, n, r, k, mx, empty, &over);
            k++;
        }
    }

    /* A replica that stopped early (or was frozen on entry) keeps
     * reporting its final configuration at the remaining observation
     * points, matching what the Python segmented loop observes. */
    if (k < c->obs.n_obs) {
        int32_t mx = 0;
        int64_t empty = 0;
        for (int64_t i = 0; i < n; i++) {
            const int32_t l = row[i];
            if (l > mx)
                mx = l;
            empty += (l == 0);
        }
        for (; k < c->obs.n_obs; k++)
            repro_obs_record(&c->obs, row, n, r, k, mx, empty, &over);
    }
    repro_obs_flush(&c->obs, r, over);
}

/* The legitimacy test as an integer bound.  Loads are non-negative
 * int32 values, so `load <= threshold` equals `load <= floor(threshold)`
 * once the bound is clamped: a threshold at or above INT32_MAX admits
 * every state, a negative (or NaN) one admits none.  Converting an
 * out-of-range double to int32_t directly is undefined behaviour. */
static int32_t legit_bound(double threshold)
{
    if (!(threshold >= 0.0))
        return -1;
    if (threshold >= (double)INT32_MAX)
        return INT32_MAX;
    return (int32_t)threshold;
}

/* Advance the ensemble.
 *
 * loads          (R, n) int32, C-contiguous, mutated in place
 * rounds         rounds to advance each active replica
 * rng_state      (R, 4) uint64 xoshiro256++ states, mutated in place
 * threshold      legitimacy threshold beta * log(n)
 * max_seen       (R,) int32 running window maximum, updated in place
 * min_empty_seen (R,) int32 running window minimum of the empty-bin count
 * first_legit    (R,) int64, -1 until the replica first becomes legitimate,
 *                then the (1-based, global) round index
 * rounds_done    (R,) int64 global per-replica round counters
 * active         (R,) uint8, replicas with 0 are frozen and skipped;
 *                cleared in-kernel when stop_when_legitimate is set
 * rule           DEST_CLIQUE, DEST_CSR_ONE or DEST_CSR_ALL
 * neighbors      (E,)  int32 CSR flat adjacency (shared by all replicas)
 * offsets        (n+1,) int64 CSR row offsets
 * degrees        (n,)  int32 per-node degree (offsets[i+1] - offsets[i])
 * lims           (n,)  uint32 Lemire rejection thresholds (2^32 - d) % d
 * scratch        (n_threads, n) int32 arrivals buffers, all-zero on entry
 *                and on exit
 * sources        (n_threads, n) int32 scratch for non-empty-node lists
 *                (the six CSR arguments are read by the CSR rules only and
 *                may be NULL under DEST_CLIQUE)
 * n_threads      worker threads for the replica axis (<= 1: serial)
 * observe_every  fused observation stride (ignored when n_obs == 0)
 * n_obs          number of fused observation slots; 0 disables observation
 * obs_max        (n_obs, R) int32 post-round max load per slot, or NULL
 * obs_empty      (n_obs, R) int32 empty-bin count per slot, or NULL
 * obs_sum        (n_obs, R) int64 load sum per slot, or NULL to skip moments
 * obs_sumsq      (n_obs, R) int64 load sum-of-squares per slot, or NULL
 * hist_cap       histogram cap K: buckets 0..K, loads above K count in K
 * obs_hist       (R, hist_cap + 1) int64 load counts summed over the
 *                slots, added to in place, or NULL to skip the histogram
 * obs_overflow   (R,) int64 count of loads above hist_cap, added to in
 *                place, or NULL
 */
REPRO_ABI void ensemble_run(
    int32_t *loads, int64_t R, int64_t n, int64_t rounds,
    uint64_t *rng_state, double threshold, int stop_when_legitimate,
    int32_t *max_seen, int32_t *min_empty_seen, int64_t *first_legit,
    int64_t *rounds_done, uint8_t *active, int rule,
    const int32_t *neighbors, const int64_t *offsets, const int32_t *degrees,
    const uint32_t *lims, int32_t *scratch, int32_t *sources,
    int32_t n_threads, int64_t observe_every, int64_t n_obs,
    int32_t *obs_max, int32_t *obs_empty, int64_t *obs_sum,
    int64_t *obs_sumsq, int64_t hist_cap, int64_t *obs_hist,
    int64_t *obs_overflow)
{
    const uint32_t un = (uint32_t)n;
    ensemble_ctx c;
    c.loads = loads;
    c.n = n;
    c.rounds = rounds;
    c.rng_state = rng_state;
    c.thr = legit_bound(threshold);
    c.stop_when_legitimate = stop_when_legitimate;
    c.max_seen = max_seen;
    c.min_empty_seen = min_empty_seen;
    c.first_legit = first_legit;
    c.rounds_done = rounds_done;
    c.active = active;
    c.rule = rule;
    c.lim = (uint32_t)(-un) % un;
    c.neighbors = neighbors;
    c.offsets = offsets;
    c.degrees = degrees;
    c.lims = lims;
    c.scratch = scratch;
    c.sources = sources;
    c.obs = repro_obs_make(R, observe_every, n_obs, obs_max, obs_empty,
                           obs_sum, obs_sumsq, hist_cap, obs_hist,
                           obs_overflow);
    repro_for_each_replica(&c, ensemble_replica, R, n_threads);
}
