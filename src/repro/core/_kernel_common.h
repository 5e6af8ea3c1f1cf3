/* Runtime of the compiled batched kernel (ensemble_kernel.c): the
 * xoshiro256++ generator, Lemire's unbiased bounded-integer reduction,
 * the replica-axis threading layer, and the fused-observation row
 * reduction.
 *
 * Threading model
 * ---------------
 * Replicas are embarrassingly parallel: each one owns its load row, its
 * RNG state, and its slots in every output vector, so the kernel simply
 * fans a per-replica function out over up to `n_threads` OS threads.  The
 * backend is chosen at compile time by repro.core.native, which tries the
 * flag variants in order:
 *
 *   -fopenmp            -> OpenMP parallel-for (REPRO_THREAD_MODEL 2)
 *   -DREPRO_PTHREADS    -> a raw pthread pool with an atomic work cursor
 *                          (REPRO_THREAD_MODEL 1)
 *   (neither)           -> serial execution (REPRO_THREAD_MODEL 0)
 *
 * The kernel .so exports repro_threading_model() so the Python loader
 * can report which backend the cached binary actually has.  Work is
 * handed out dynamically (one replica at a time) in both threaded
 * backends, so early-stopped replicas do not leave threads idle.
 *
 * Determinism: a replica's trajectory depends only on its own RNG state,
 * never on which thread ran it or how many threads exist, so results are
 * bit-identical for every n_threads value.
 */

#ifndef REPRO_KERNEL_COMMON_H
#define REPRO_KERNEL_COMMON_H

#include <stdint.h>

/* Marks a function as part of the exported C<->ctypes ABI.  The marker
 * expands to nothing; it exists so that `repro lint` (repro.lint.abi)
 * can find every exported definition and cross-check its parameter
 * list against the ctypes declaration in repro.core.native.  Every
 * non-static function in the kernel must carry it. */
#define REPRO_ABI

/* ------------------------------------------------------------------ */
/* RNG: xoshiro256++ (Blackman & Vigna, public domain reference)       */
/* ------------------------------------------------------------------ */

static inline uint64_t rotl64(uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

typedef struct {
    uint64_t s[4];
} rng_t;

static inline uint64_t next64(rng_t *g)
{
    uint64_t *s = g->s;
    const uint64_t result = rotl64(s[0] + s[3], 23) + s[0];
    const uint64_t t = s[1] << 17;
    s[2] ^= s[0];
    s[3] ^= s[1];
    s[1] ^= s[2];
    s[0] ^= s[3];
    s[2] ^= t;
    s[3] = rotl64(s[3], 45);
    return result;
}

/* Two 32-bit lanes per 64-bit draw; callers reset the buffer wherever
 * their stream definition demands (the CSR rules reset per round). */
typedef struct {
    rng_t *g;
    uint64_t buf;
    int have;
} lanes_t;

static inline uint32_t lane32(lanes_t *L)
{
    if (L->have) {
        L->have = 0;
        return (uint32_t)(L->buf >> 32);
    }
    L->buf = next64(L->g);
    L->have = 1;
    return (uint32_t)L->buf;
}

/* Unbiased pick in [0, d) via Lemire's reduction; lim = (2^32 - d) % d
 * is precomputed by the caller. */
static inline uint32_t bounded(lanes_t *L, uint32_t d, uint32_t lim)
{
    for (;;) {
        const uint64_t m = (uint64_t)lane32(L) * d;
        if ((uint32_t)m >= lim)
            return (uint32_t)(m >> 32);
    }
}

/* ------------------------------------------------------------------ */
/* Replica-axis threading                                              */
/* ------------------------------------------------------------------ */

#if defined(_OPENMP)
#include <omp.h>
#define REPRO_THREAD_MODEL 2
#elif defined(REPRO_PTHREADS)
#include <pthread.h>
#define REPRO_THREAD_MODEL 1
#else
#define REPRO_THREAD_MODEL 0
#endif

#if defined(__SANITIZE_THREAD__)
#define REPRO_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define REPRO_TSAN 1
#endif
#endif
#ifndef REPRO_TSAN
#define REPRO_TSAN 0
#endif
#if REPRO_TSAN
#include <stdatomic.h>
#endif

/* Hard cap on worker threads (bounds the fixed-size thread tables). */
#define REPRO_MAX_THREADS 256

/* Exported (non-static) so the ctypes loader can probe the backend the
 * cached .so was compiled with: 0 = serial, 1 = pthreads, 2 = OpenMP. */
REPRO_ABI int repro_threading_model(void)
{
    return REPRO_THREAD_MODEL;
}

/* fn(ctx, r, tid): advance replica r; tid < n_threads identifies the
 * executing thread so per-thread scratch can be sliced. */
typedef void (*repro_replica_fn)(void *ctx, int64_t r, int tid);

#if REPRO_TSAN && REPRO_THREAD_MODEL == 2
/* TSan-visible OpenMP dispatch (see repro_for_each_replica below).
 * Workers locate the region descriptor through a file-scope atomic so
 * that their first read of main-thread-written memory is an acquire
 * load; a spinlock serializes concurrent callers' use of that static. */
typedef struct {
    void *ctx;
    repro_replica_fn fn;
    int64_t R;
    atomic_int_fast64_t cursor; /* next replica to hand out */
    atomic_int team;            /* actual team size (master writes it) */
    atomic_int exited;          /* threads done touching this struct */
} repro_tsan_region_t;

static _Atomic(repro_tsan_region_t *) repro_tsan_region;
static atomic_flag repro_tsan_region_lock = ATOMIC_FLAG_INIT;
#endif

#if REPRO_THREAD_MODEL == 1
typedef struct {
    void *ctx;
    repro_replica_fn fn;
    int64_t R;
    int tid;
    int64_t *cursor; /* shared atomic work cursor (dynamic scheduling) */
} repro_worker_arg;

static void *repro_worker_main(void *varg)
{
    repro_worker_arg *arg = (repro_worker_arg *)varg;
    for (;;) {
        const int64_t r =
            __atomic_fetch_add(arg->cursor, 1, __ATOMIC_RELAXED);
        if (r >= arg->R)
            return (void *)0;
        arg->fn(arg->ctx, r, arg->tid);
    }
}
#endif

/* Run fn over every replica on up to n_threads threads (>= 1 effective;
 * values above R or REPRO_MAX_THREADS are clamped). */
static void repro_for_each_replica(void *ctx, repro_replica_fn fn, int64_t R,
                                   int n_threads)
{
    if ((int64_t)n_threads > R)
        n_threads = (int)R;
    if (n_threads > REPRO_MAX_THREADS)
        n_threads = REPRO_MAX_THREADS;
    if (n_threads < 1)
        n_threads = 1;
#if REPRO_THREAD_MODEL == 2
    if (n_threads > 1) {
#if REPRO_TSAN
        /* Stock libgomp is not built with TSan support, so every
         * synchronization edge of a parallel region — the fork, the
         * join barrier, and the reads of the compiler-generated shared
         * struct at region entry — is invisible to the race detector,
         * and every main-thread access to the buffers before or after
         * the region (numpy allocation, result reads, the final free)
         * reports as racing with worker writes inside it.
         *
         * This block rebuilds the same edges out of TSan-visible C11
         * atomics.  The region body references ONLY the file-scope
         * `repro_tsan_region` static (so gcc's outlined function gets
         * no shared-struct argument whose unsynchronized reads would
         * themselves report as races): a worker's first read of
         * main-written memory is the acquire load of the descriptor
         * pointer, pairing with the caller's release store (fork edge);
         * a worker's LAST access to the descriptor is its release
         * increment of `exited`, and the caller's acquire spin on
         * `exited == team` pairs with those (join edge), ordering even
         * the final empty `cursor` probe before the caller reuses the
         * stack.  The spin never actually waits — GOMP_parallel has
         * already joined by then.  The atomic `cursor` reproduces
         * schedule(dynamic).  Worker-vs-worker races in the replica
         * bodies remain fully detectable; fast builds compile the
         * plain parallel-for below instead. */
        repro_tsan_region_t region;
        region.ctx = ctx;
        region.fn = fn;
        region.R = R;
        atomic_init(&region.cursor, 0);
        atomic_init(&region.team, 1);
        atomic_init(&region.exited, 0);
        while (atomic_flag_test_and_set_explicit(&repro_tsan_region_lock,
                                                 memory_order_acquire))
            ;
        atomic_store_explicit(&repro_tsan_region, &region,
                              memory_order_release);
#pragma omp parallel num_threads(n_threads)
        {
            repro_tsan_region_t *s = atomic_load_explicit(
                &repro_tsan_region, memory_order_acquire);
            const int tid = omp_get_thread_num();
            if (tid == 0) /* the master IS the caller (same thread) */
                atomic_store_explicit(&s->team, omp_get_num_threads(),
                                      memory_order_relaxed);
            for (;;) {
                const int64_t r = atomic_fetch_add_explicit(
                    &s->cursor, 1, memory_order_relaxed);
                if (r >= s->R)
                    break;
                s->fn(s->ctx, r, tid);
            }
            atomic_fetch_add_explicit(&s->exited, 1, memory_order_release);
        }
        {
            const int team =
                atomic_load_explicit(&region.team, memory_order_relaxed);
            while (atomic_load_explicit(&region.exited,
                                        memory_order_acquire) < team)
                ;
        }
        atomic_flag_clear_explicit(&repro_tsan_region_lock,
                                   memory_order_release);
#else
        int64_t r;
#pragma omp parallel for schedule(dynamic) num_threads(n_threads)
        for (r = 0; r < R; r++)
            fn(ctx, r, omp_get_thread_num());
#endif
        return;
    }
#elif REPRO_THREAD_MODEL == 1
    if (n_threads > 1) {
        pthread_t threads[REPRO_MAX_THREADS];
        repro_worker_arg args[REPRO_MAX_THREADS];
        int64_t cursor = 0;
        int started = 0;
        for (int t = 0; t < n_threads; t++) {
            args[t].ctx = ctx;
            args[t].fn = fn;
            args[t].R = R;
            args[t].tid = t;
            args[t].cursor = &cursor;
        }
        for (int t = 1; t < n_threads; t++) {
            if (pthread_create(&threads[t], (void *)0, repro_worker_main,
                               &args[t]) != 0)
                break; /* fewer workers; remaining work runs on the caller */
            started = t;
        }
        repro_worker_main(&args[0]); /* the caller is worker 0 */
        for (int t = 1; t <= started; t++)
            pthread_join(threads[t], (void *)0);
        return;
    }
#endif
    for (int64_t r = 0; r < R; r++)
        fn(ctx, r, 0);
}

/* ------------------------------------------------------------------ */
/* Fused observation                                                   */
/* ------------------------------------------------------------------ */

/* The fused-observation outputs the kernel fills (the Python side is
 * repro.metrics.fused.FusedSegmentStats).  Per-point blocks are
 * (n_obs, R); the load histogram is (R, hist_cap + 1) and, with the
 * overflow vector, sums over every observation point of the window. */
typedef struct {
    int64_t R;
    int64_t observe_every;
    int64_t n_obs;     /* 0 disables observation */
    int32_t *max;      /* (n_obs, R) post-round max load */
    int32_t *empty;    /* (n_obs, R) post-round empty-bin count */
    int64_t *sum;      /* (n_obs, R) load sum, or NULL */
    int64_t *sumsq;    /* (n_obs, R) load sum of squares, or NULL */
    int64_t hist_cap;  /* loads above it count in the last bucket */
    int64_t *hist;     /* (R, hist_cap + 1) load counts, or NULL */
    int64_t *overflow; /* (R,) loads above hist_cap, or NULL */
} repro_obs_t;

static inline repro_obs_t repro_obs_make(int64_t R, int64_t observe_every,
                                         int64_t n_obs, int32_t *max,
                                         int32_t *empty, int64_t *sum,
                                         int64_t *sumsq, int64_t hist_cap,
                                         int64_t *hist, int64_t *overflow)
{
    repro_obs_t o;
    const int want_hist = hist && overflow && hist_cap >= 0;
    o.R = R;
    o.observe_every = observe_every < 1 ? 1 : observe_every;
    o.n_obs = (max && empty) ? n_obs : 0;
    o.max = max;
    o.empty = empty;
    o.sum = sum && sumsq ? sum : 0;
    o.sumsq = sum && sumsq ? sumsq : 0;
    o.hist_cap = want_hist ? hist_cap : 0;
    o.hist = want_hist ? hist : 0;
    o.overflow = want_hist ? overflow : 0;
    return o;
}

/* Whether window round t (0-based) ends at an observation point: every
 * stride boundary, plus the window's last round. */
static inline int repro_obs_due(const repro_obs_t *o, int64_t t,
                                int64_t rounds)
{
    return o->n_obs && ((t + 1) % o->observe_every == 0 || t + 1 == rounds);
}

/* Record observation slot k of replica r, whose n-bin row currently has
 * max load mx and `empty` empty bins (the round loop keeps both as
 * by-products of the round).  When moments or the histogram are
 * requested, one pass over the row yields the sum, the sum of squares and
 * the bucket counts together.  Histogram overflow goes to *overflow, a local of the caller
 * written out once per replica by repro_obs_flush. */
static void repro_obs_record(const repro_obs_t *o, const int32_t *row,
                             int64_t n, int64_t r, int64_t k, int32_t mx,
                             int64_t empty, int64_t *overflow)
{
    const int64_t slot = k * o->R + r;
    int64_t s = 0, ss = 0;
    o->max[slot] = mx;
    o->empty[slot] = (int32_t)empty;
    if (o->hist) {
        const int64_t cap = o->hist_cap;
        int64_t *h = o->hist + r * (cap + 1);
        if (mx <= cap) { /* the usual case: no load needs clipping */
            for (int64_t i = 0; i < n; i++) {
                const int64_t l = row[i];
                s += l;
                ss += l * l;
                h[l]++;
            }
        } else {
            int64_t over = 0;
            for (int64_t i = 0; i < n; i++) {
                const int64_t l = row[i];
                const int64_t big = l > cap;
                s += l;
                ss += l * l;
                over += big;
                h[big ? cap : l]++;
            }
            *overflow += over;
        }
    } else if (o->sum) {
        for (int64_t i = 0; i < n; i++) {
            const int64_t l = row[i];
            s += l;
            ss += l * l;
        }
    }
    if (o->sum) {
        o->sum[slot] = s;
        o->sumsq[slot] = ss;
    }
}

/* Write replica r's accumulated histogram overflow. */
static inline void repro_obs_flush(const repro_obs_t *o, int64_t r,
                                   int64_t overflow)
{
    if (o->overflow)
        o->overflow[r] += overflow;
}

#endif /* REPRO_KERNEL_COMMON_H */
