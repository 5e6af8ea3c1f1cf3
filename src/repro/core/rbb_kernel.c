/* Native batched kernel for the repeated balls-into-bins process.
 *
 * Advances an (R, n) ensemble of independent replicas for a given number of
 * rounds entirely in C: per round and per active replica, one ball leaves
 * every non-empty bin and lands in a bin chosen uniformly at random inside
 * the same replica.  Window metrics (max load, min empty-bin count, first
 * legitimate round) and the per-replica early stop on legitimacy are
 * maintained in-kernel so a whole `run()` costs a single FFI call.
 *
 * Layout and parallelism: the loop is replica-major — each replica runs all
 * its rounds to completion before the next starts — so the working set per
 * task is one 4·n-byte row that stays cache-resident instead of an R·n
 * sweep per round.  Replicas are fanned out across threads by
 * repro_for_each_replica() (_kernel_common.h); a replica's trajectory
 * depends only on its own xoshiro256++ state, so results are bit-identical
 * for every thread count.
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
 * how many replicas share the batch.  Destinations are drawn with Lemire's
 * unbiased bounded-integer reduction, two 32-bit lanes per 64-bit output.
 *
 * Compiled on demand by repro.core.native via the system C compiler; the
 * pure-numpy kernel in repro.core.batched is the semantic reference.
 */

#include "_kernel_common.h"

typedef struct {
    int32_t *loads;
    int64_t R;
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
    uint32_t lim; /* Lemire rejection threshold for n */
    repro_obs_t obs;
} rbb_ctx;

static void rbb_replica(void *vctx, int64_t r, int tid)
{
    rbb_ctx *c = (rbb_ctx *)vctx;
    const int64_t n = c->n;
    const uint32_t un = (uint32_t)n;
    const uint32_t lim = c->lim;
    const int32_t thr = c->thr;
    int32_t *row = c->loads + r * n;
    rng_t *g = (rng_t *)(c->rng_state + 4 * r);
    int64_t k = 0;    /* next fused observation slot */
    int64_t over = 0; /* histogram overflow, written once at the end */
    (void)tid;

    for (int64_t t = 0; t < c->rounds; t++) {
        if (!c->active[r])
            break;

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

/* Advance the ensemble.
 *
 * loads          (R, n) int32, C-contiguous, mutated in place
 * rng_state      (R, 4) uint64 xoshiro256++ states, mutated in place
 * threshold      legitimacy threshold beta * log(n) (loads are integers, so
 *                comparing against floor(threshold) is exact)
 * max_seen       (R,) int32 running window maximum, updated in place
 * min_empty_seen (R,) int32 running window minimum of the empty-bin count
 * first_legit    (R,) int64, -1 until the replica first becomes legitimate,
 *                then the (1-based, global) round index
 * rounds_done    (R,) int64 global per-replica round counters
 * active         (R,) uint8, replicas with 0 are frozen and skipped;
 *                cleared in-kernel when stop_when_legitimate is set
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
REPRO_ABI void rbb_run(int32_t *loads, int64_t R, int64_t n, int64_t rounds,
             uint64_t *rng_state, double threshold, int stop_when_legitimate,
             int32_t *max_seen, int32_t *min_empty_seen, int64_t *first_legit,
             int64_t *rounds_done, uint8_t *active, int32_t n_threads,
             int64_t observe_every, int64_t n_obs, int32_t *obs_max,
             int32_t *obs_empty, int64_t *obs_sum, int64_t *obs_sumsq,
             int64_t hist_cap, int64_t *obs_hist, int64_t *obs_overflow)
{
    const uint32_t un = (uint32_t)n;
    rbb_ctx c;
    c.loads = loads;
    c.R = R;
    c.n = n;
    c.rounds = rounds;
    c.rng_state = rng_state;
    c.thr = (int32_t)threshold;
    c.stop_when_legitimate = stop_when_legitimate;
    c.max_seen = max_seen;
    c.min_empty_seen = min_empty_seen;
    c.first_legit = first_legit;
    c.rounds_done = rounds_done;
    c.active = active;
    c.lim = (uint32_t)(-un) % un;
    c.obs = repro_obs_make(R, observe_every, n_obs, obs_max, obs_empty,
                           obs_sum, obs_sumsq, hist_cap, obs_hist,
                           obs_overflow);
    repro_for_each_replica(&c, rbb_replica, R, n_threads);
}
