/* Resident cycle loop of the array backend (repro.simulation.kernels).
 *
 * starnet_run advances a batch of replications cycle after cycle
 * entirely in C: generation, activation, VC allocation, switch
 * traversal, ejection, completion bookkeeping, channel-load sampling,
 * time-series probes and the watchdog.  Work only Python can do inside a
 * cycle (block refills, route-row fills, uniform-buffer refills) is a
 * callback; the loop returns only on stops, message-pool exhaustion, a
 * cycle limit (ArraySimulator.step), the watchdog and errors.  The
 * object engine (repro.simulation.engine) is the readable reference of
 * the same cycle semantics and the test oracle.
 *
 * Random variates are *pre-drawn* by the Python side into a per-
 * replication uniform buffer (alloc_buf); the kernel only consumes them
 * in a deterministic order (shuffle first, then at most one draw per
 * header), so it never touches a bit generator.
 *
 * Routing is data.  A header's candidate VCs come from two tables:
 * the route table, one packed int8 row {dist, nports, ports...} per
 * (cur, dst) pair (dist = -1 until the kind-2 callback fills the row:
 * at generation for (src, dst), at a transfer "ready" event for
 * (cur, dst)), and the eligibility-class table, one {a_lo, a_n, e_lo,
 * e_n} entry per (distance, colour, escape floor), built eagerly by
 * the Python side from RoutingAlgorithm.eligible.  Allocation walks the
 * ports in row order and each port's VC range in ascending index,
 * adaptive before escape.
 *
 * Round-robin arbitration uses the packed lookup table when `lut` is
 * non-null (V <= 15); otherwise a per-channel scan tracks the candidate
 * with the smallest cyclic offset from the round-robin pointer, which
 * is the same winner the table yields, so the kernel has no V cap.
 *
 * STAGING.  Every phase-2/3/4 mutation touches only one
 * replication's rows, so each replication runs the fused pipeline
 * 2 -> 4a -> 3a -> 3b -> 4b in turn.  Cross-replication structures
 * (the shared ejection-column list, the finished-injection report
 * list, the scalar counters) are written into per-replication staging
 * regions and merged in ascending replication order afterwards, and
 * phase 5 (completion bookkeeping with order-sensitive float
 * accumulation) runs last.  The kernel is single-threaded: batch-level
 * parallelism comes from running whole simulators in separate
 * processes.  Callers enter with the GIL released, so other Python
 * threads (a service's HTTP handlers) keep running meanwhile.
 *
 * Fixed-size arrays.  The ejection columns hold R * (C*V + N*slots)
 * rows, a proven bound on ejecting messages plus pending headers: every
 * ejecting message and every pending header off its source owns its
 * head VC (distinct messages, distinct VCs), and headers still at their
 * source each hold one of the node's injection slots.  The allocation
 * scratch holds 2 * deg * V candidates.  The loop still checks the
 * row bound every cycle (a broken bound is an invariant failure, not a
 * buffer overrun).  Only the message pool grows: an exhausted pool
 * returns RUN_GROW before anything is consumed.
 */

#define _POSIX_C_SOURCE 200809L /* clock_gettime under -std=c11 */

#include <stddef.h>
#include <stdint.h>
#include <time.h>

/* starnet_run return reasons (one per return; mirrored in kernels.py).
 * Every one but RUN_LIMIT leaves the current cycle unfinished. */
#define RUN_STOP 1     /* a replication reached its stop condition      */
#define RUN_GROW 2     /* message pool exhausted: Python grows it       */
#define RUN_WATCHDOG 4 /* stalled: Python raises SimulationError        */
#define RUN_CBERR 8    /* a service callback raised                     */
#define RUN_ERR 16     /* kernel invariant failure                      */
#define RUN_LIMIT 32   /* reached the call's cycle limit                */

/* run_phases error bits. */
#define ERR_INVARIANT 1
#define ERR_CALLBACK 2

/* Service callback into Python, int64 cb(kind, a, b):
 *   0 arrival-block refill (rep, node)
 *   1 dest-block refill (rep, node)
 *   2 route row (cur, dst) -> distance; fills the row in place
 *   4 uniform shortage (need_total, -): refills alloc_buf, re-bases the
 *     uniform gate and, when it widens the buffer, patches alloc_buf and
 *     buf_cap in the live block (load_uniforms re-reads them)
 * A negative return means a Python exception. */
typedef int64_t (*starnet_cb)(int64_t kind, int64_t a, int64_t b);

/* Per-replication staging of one cycle, merged in replication order. */
typedef struct RepStage {
    int64_t busy_delta; /* owned-VC count change */
    int64_t fin_n;      /* finished injections, in fin_nodes[r*C..] */
    int64_t err;        /* ERR_* bits */
    int64_t newej_n;    /* ejection columns staged at newej_base.. */
    int64_t newej_base;
    int64_t bucket_end; /* end of the rep's bucket of live columns */
} RepStage;
/* SimState sizes the stage scratch as STAGE_WORDS int64 per replication. */
#define STAGE_WORDS 6
_Static_assert(sizeof(RepStage) == STAGE_WORDS * sizeof(int64_t),
               "RepStage is STAGE_WORDS int64 words");

/* THE KERNEL INTERFACE, declared once.  One line per field of the
 * parameter block, each field one 8-byte word:
 *
 *   ARR(type, name, dtype)  array state, hashed by trace.state_digest
 *   SCR(type, name, dtype)  scratch, dead between cycles
 *   OPT(type, name, dtype)  optional array, NULL while its feature is
 *                           off (profiling, probes, the arbitration LUT)
 *   VAL(type, name)         scalar, passed as int64
 *   RUN(name)               int64 run state: read on entry, written back
 *                           on return (the uniform gate is read live)
 *
 * The Python side reads the exported layout table (starnet_fields) and
 * fills each field from the SimState attribute of the same name,
 * checking an array's numpy dtype (the third argument) and contiguity.
 * Adding a field is one line here plus one SimState attribute; a
 * per-message (R*cap) array also needs a state._POOL_FIELDS entry so
 * SimState.grow() widens it (nothing here checks shapes).
 * Shapes: R replications, N nodes, C channels, V VCs per channel, CV =
 * C*V, cap the message-pool capacity, rows the ejection-column bound. */
#define STARNET_FIELDS(ARR, SCR, OPT, VAL, RUN)                          \
    /* virtual channels (flat id = channel * V + vc) and channels */      \
    ARR(int32_t, vc_bd, int32)         /* R*CV buffered | delivered<<16 */ \
    ARR(int32_t, vc_avail, int32)      /* R*CV flits available to pull */ \
    ARR(int32_t, vc_owner, int32)      /* R*CV owning slot or -1 */       \
    ARR(int32_t, vc_upstream, int32)   /* R*CV upstream vc, -1: source */ \
    ARR(int32_t, vc_downstream, int32) /* R*CV downstream vc or -1 */     \
    ARR(int32_t, ch_rr, int32)         /* R*C round-robin pointers */     \
    ARR(uint8_t, ch_busy, uint8)       /* R*C owned-VC count */           \
    ARR(int64_t, transfers, int64)     /* R cumulative grants */          \
    ARR(int32_t, active_injections, int32) /* R*N per node */             \
    /* message pool, R*cap per field */                                   \
    ARR(double, msg_t_gen, float64)    /* generation instant */           \
    ARR(double, msg_t_inject, float64) /* injection instant */            \
    ARR(uint8_t, msg_measured, bool)                                      \
    ARR(int32_t, msg_src, int32)                                          \
    ARR(int32_t, msg_ejected, int32)   /* flits ejected */                \
    ARR(int32_t, msg_vcs_held, int32)  /* owned-VC count */               \
    ARR(int32_t, p_dst, int32)                                            \
    ARR(int32_t, p_header, int32)      /* node the header sits at */      \
    ARR(int32_t, p_dist, int32)        /* hops still to go */             \
    ARR(int32_t, p_floor, int32)       /* escape floor */                 \
    ARR(int32_t, p_hops, int32)                                           \
    ARR(int32_t, p_first_attempt, int32) /* first blocked cycle or -1 */  \
    ARR(int32_t, p_head_vc, int32)     /* head VC or -1 */                \
    ARR(int32_t, free_stack, int32)    /* free-slot stacks */             \
    ARR(int64_t, free_n, int64)        /* R stack depths */               \
    ARR(int32_t, need_slots, int32)    /* pending headers, compacted */   \
    ARR(int64_t, need_n, int64)        /* R pending counts */             \
    ARR(int32_t, qnext, int32)         /* source-queue links or -1 */     \
    /* ejection columns, rows each (live prefix ej_n) */                  \
    ARR(int64_t, ej_reps, int64)                                          \
    ARR(int64_t, ej_slots, int64)                                         \
    ARR(int64_t, ej_flats, int64)      /* head VC of a draining message */ \
    ARR(int64_t, ej_mflats, int64)     /* its message-array index */      \
    ARR(int64_t, ej_pos, int64)        /* R*cap column per message, -1 */ \
    /* routing tables and topology */                                     \
    ARR(const int8_t, route, int8)     /* N*N*route_w {dist, nports,      \
                                          ports...}; dist -1: unfilled */ \
    ARR(const int32_t, cls, int32)     /* eligibility classes {a_lo, a_n, \
                                          e_lo, e_n} at ((d-1)*2 +        \
                                          colour)*num_escape + floor;     \
                                          a_n -1: eligible() rejects */   \
    ARR(const int32_t, neighbors, int32) /* C node behind each channel */ \
    ARR(const uint8_t, color, uint8)   /* N 1 on "negative-hop" nodes */  \
    ARR(const double, alloc_buf, float64) /* R*buf_cap uniforms */        \
    ARR(int64_t, alloc_pos, int64)     /* R cursors into alloc_buf */     \
    /* generation: pre-drawn blocks (gen_block each), per-node queues */  \
    ARR(double, gen_node_t, float64)   /* R*N next arrival instant */     \
    ARR(double, gen_next, float64)     /* R minimum of gen_node_t */      \
    ARR(double, arr_buf, float64)      /* R*N*gen_block arrivals */       \
    ARR(int32_t, arr_pos, int32)       /* R*N cursors */                  \
    ARR(int32_t, arr_len, int32)       /* R*N valid entries */            \
    ARR(int32_t, dst_buf, int32)       /* R*N*gen_block destinations */   \
    ARR(int32_t, dst_pos, int32)                                          \
    ARR(int32_t, dst_len, int32)                                          \
    ARR(int32_t, qhead, int32)         /* R*N source queues */            \
    ARR(int32_t, qtail, int32)                                            \
    ARR(int32_t, qlen, int32)                                             \
    ARR(uint8_t, act, uint8)           /* R*N pending activations */      \
    /* per-replication counters, windows and accumulators (R each) */     \
    ARR(int64_t, generated, int64)                                        \
    ARR(int64_t, measured_generated, int64)                               \
    ARR(int64_t, injected, int64)      /* measured injections */          \
    ARR(int64_t, in_flight, int64)                                        \
    ARR(int64_t, measured_in_flight, int64)                               \
    ARR(int64_t, completed, int64)                                        \
    ARR(int64_t, alloc_attempts, int64)                                   \
    ARR(int64_t, alloc_failures, int64)                                   \
    ARR(int64_t, hb_req, int64)        /* R*(hb_max+1) hop blocking */    \
    ARR(int64_t, hb_blk, int64)                                           \
    ARR(int64_t, hb_wait, int64)                                          \
    ARR(double, lat_sum, float64)      /* total latency */                \
    ARR(double, net_sum, float64)      /* network latency */              \
    ARR(double, srcw_sum, float64)     /* source wait */                  \
    ARR(int64_t, mcount, int64)        /* measured completions */         \
    ARR(double, lat_bsum, float64)     /* R*max_batches batch sums */     \
    ARR(int64_t, lat_bcount, int64)                                       \
    ARR(int64_t, load_acc, int64)      /* R*4 {samples, sum_v, sum_v2,    \
                                          busy channels} */               \
    ARR(const double, w_t0, float64)   /* measurement-window start */     \
    ARR(const double, w_width, float64) /* batch width */                 \
    ARR(const int64_t, w_batches, int64)                                  \
    ARR(const int64_t, warm, int64)                                       \
    ARR(const int64_t, horizon, int64)                                    \
    ARR(const int64_t, end, int64)     /* horizon + drain budget */       \
    ARR(uint8_t, active, uint8)        /* 1 until the result is frozen */ \
    ARR(int64_t, progress_marks, int64) /* watchdog state */              \
    ARR(int64_t, last_progress, int64)                                    \
    /* scratch */                                                         \
    SCR(int32_t, ej_k, int32)          /* rows ejection picks */          \
    SCR(int64_t, completions, int64)   /* rows buckets, completions */    \
    SCR(int64_t, winners, int64)       /* R*C transfer winners */         \
    SCR(int64_t, fin_nodes, int64)     /* R*C rep*N + node finished */    \
    SCR(int32_t, alloc_scr, int32)     /* 2*degree*V free adaptive |      \
                                          escape candidates */            \
    SCR(RepStage, stage, int64)        /* R*STAGE_WORDS per-rep staging */ \
    /* optional */                                                        \
    OPT(const int8_t, lut, int8)       /* V*2^V round-robin winners */    \
    OPT(int64_t, phase_ns, int64)      /* 4 ns accumulators {generation,  \
                                          activation, route, complete} */ \
    OPT(int64_t, probe_data, int64)    /* probe_capacity*R*(V+4) ring:    \
                                          {in_flight, completed, backlog, \
                                          occupancy histogram 0..V} */    \
    OPT(int64_t, probe_cycles, int64)  /* probe_capacity cycle stamps */  \
    OPT(int64_t, probe_state, int64)   /* {sample count} */               \
    /* scalars */                                                         \
    VAL(int64_t, replications)                                            \
    VAL(int64_t, num_nodes)                                               \
    VAL(int64_t, num_channels)                                            \
    VAL(int64_t, num_vcs)                                                 \
    VAL(int64_t, degree)                                                  \
    VAL(int32_t, message_length)                                          \
    VAL(int32_t, buffer_depth)                                            \
    VAL(int32_t, ejection_rate)        /* < 0: unlimited */               \
    VAL(int64_t, injection_slots)      /* per node */                     \
    VAL(int64_t, capacity)             /* message-pool slots per rep */   \
    VAL(int64_t, policy) /* 0 adaptive-first, 1 lowest-escape, 2 random */ \
    VAL(int32_t, num_adaptive)                                            \
    VAL(int64_t, num_escape)                                              \
    VAL(int64_t, route_w)              /* 2 + degree */                   \
    VAL(int64_t, cls_d)                /* diameter */                     \
    VAL(int64_t, hb_max)                                                  \
    VAL(int64_t, max_batches)                                             \
    VAL(int64_t, buf_cap)              /* uniforms per rep */             \
    VAL(int64_t, gen_block)                                               \
    VAL(int64_t, grace)                /* watchdog grace, cycles */       \
    VAL(int64_t, sample_interval)      /* channel-load sample stride */   \
    VAL(int64_t, probe_interval)                                          \
    VAL(int64_t, probe_capacity)                                          \
    VAL(starnet_cb, cb)                                                   \
    /* run state */                                                       \
    RUN(cycle)                                                            \
    RUN(busy_vcs)                                                         \
    RUN(ej_n)                          /* live ejection columns */        \
    RUN(need_total)                    /* pending headers, all reps */    \
    RUN(ugate_headroom) /* uniform gate: every row has >= headroom left */ \
    RUN(ugate_spend)    /* ... minus at most spend consumed since */      \
    RUN(stalled_rep)                   /* the watchdog's replication */

/* The parameter block: pointers and int64 words, nothing else, so its
 * size is 8 bytes per field (ckernel.load_kernel checks). */
#define PARAM_PTR(T, name, dtype) T *name;
#define PARAM_WORD(T, name) int64_t name;
#define PARAM_RUN(name) int64_t name;
typedef struct Params {
    STARNET_FIELDS(PARAM_PTR, PARAM_PTR, PARAM_PTR, PARAM_WORD, PARAM_RUN)
} Params;

/* The exported layout table: name, kind, numpy dtype, byte offset. */
typedef struct StarnetField {
    const char *name, *kind, *dtype;
    int64_t offset;
} StarnetField;

#define FIELD(kind, name, dtype) {#name, kind, dtype, offsetof(Params, name)},
#define FIELD_ARR(T, name, dtype) FIELD("arr", name, #dtype)
#define FIELD_SCR(T, name, dtype) FIELD("scr", name, #dtype)
#define FIELD_OPT(T, name, dtype) FIELD("opt", name, #dtype)
#define FIELD_VAL(T, name) FIELD("val", name, "")
#define FIELD_RUN(name) FIELD("run", name, "")
const StarnetField starnet_fields[] = {
    STARNET_FIELDS(FIELD_ARR, FIELD_SCR, FIELD_OPT, FIELD_VAL, FIELD_RUN)};
const int64_t starnet_num_fields =
    sizeof starnet_fields / sizeof starnet_fields[0];
const int64_t starnet_params_size = sizeof(Params);

/* The decoded call context: a local copy of the block, so the loop
 * reads its fields from the stack.  The message pool grows only between
 * calls (RUN_GROW), so its pointers are stable for a whole call; the
 * uniform buffer may be regrown inside a callback, which patches the
 * live block, so load_uniforms re-reads it after every kind-4 call.
 * The route table never moves: the kind-2 callback fills its rows in
 * place.  Run-state fields are not copied: the loop keeps them in
 * locals, and the uniform gate is read from the live block. */
#define CTX_VAL(T, name) T name;
#define CTX_NONE(name)
typedef struct Ctx {
    Params *p;
    STARNET_FIELDS(PARAM_PTR, PARAM_PTR, PARAM_PTR, CTX_VAL, CTX_NONE)
    int64_t ms, CV;
    int cberr; /* a callback raised: make no further calls this entry */
} Ctx;

#define LOAD_PTR(T, name, dtype) c->name = p->name;
#define LOAD_VAL(T, name) c->name = (T)p->name;
static void load_ctx(Ctx *c, Params *p)
{
    c->p = p;
    STARNET_FIELDS(LOAD_PTR, LOAD_PTR, LOAD_PTR, LOAD_VAL, CTX_NONE)
    c->cberr = 0;
    c->ms = (int64_t)c->message_length << 16;
    c->CV = c->num_channels * c->num_vcs;
}

/* The uniform buffer, re-read after a kind-4 callback may widen it. */
static void load_uniforms(Ctx *c)
{
    c->alloc_buf = c->p->alloc_buf;
    c->buf_cap = c->p->buf_cap;
}

/* Monotonic nanoseconds for phase profiling.  The NULL check keeps the
 * profiling-off path to one predictable branch per call site — no
 * clock syscall, no accumulator write — which is the overhead contract
 * the guarded benchmarks rely on (docs/observability.md). */
static inline int64_t prof_now(const int64_t *prof)
{
    struct timespec ts;
    if (!prof)
        return 0;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (int64_t)ts.tv_sec * 1000000000LL + ts.tv_nsec;
}

/* Time-series probe: one ring-buffer sample of the batch's occupancy
 * state after the probed cycle's phases.  Observation-only — it reads
 * counters the phases already maintain and writes only the side
 * buffers — so results are bit-identical probed or not.
 * The caller's NULL check on probe_data keeps the probes-off path to one
 * predictable branch per cycle, the prof_now contract. */
static void probe_sample(const Ctx *c, int64_t cycle)
{
    const int64_t s = c->probe_state[0];
    if (s >= c->probe_capacity)
        return;
    const int64_t row = 3 + c->num_vcs + 1;
    int64_t *dst = c->probe_data + s * c->replications * row;
    for (int64_t r = 0; r < c->replications; ++r, dst += row) {
        dst[0] = c->in_flight[r];
        dst[1] = c->completed[r];
        int64_t backlog = 0;
        const int32_t *ql = c->qlen + r * c->num_nodes;
        for (int64_t u = 0; u < c->num_nodes; ++u)
            backlog += ql[u];
        dst[2] = backlog;
        for (int64_t v = 0; v <= c->num_vcs; ++v)
            dst[3 + v] = 0;
        const uint8_t *b = c->ch_busy + r * c->num_channels;
        for (int64_t ch = 0; ch < c->num_channels; ++ch)
            dst[3 + b[ch]] += 1;
    }
    c->probe_cycles[s] = cycle;
    c->probe_state[0] = s + 1;
}

/* Route row (cur, dst): {dist, nports, ports...}, filled on first use
 * by the kind-2 callback.  NULL once a callback has raised. */
static const int8_t *route_row(Ctx *c, int64_t cur, int64_t dst)
{
    const int8_t *row = c->route + (cur * c->num_nodes + dst) * c->route_w;
    if (row[0] < 0 && (c->cberr || c->cb(2, cur, dst) < 0)) {
        c->cberr = 1;
        return NULL;
    }
    return row;
}

/* Eligibility class {a_lo, a_n, e_lo, e_n} of a header d hops from home
 * on a node of colour col with escape floor fl; NULL for a state outside
 * the table or one eligible() rejects (an unresolved row has d = -1). */
static const int32_t *class_entry(const Ctx *c, int64_t d, int64_t col,
                                  int64_t fl)
{
    if (d < 1 || d > c->cls_d || fl < 0 || fl >= c->num_escape)
        return NULL;
    const int32_t *e = c->cls + (((d - 1) * 2 + col) * c->num_escape + fl) * 4;
    return e[1] < 0 ? NULL : e;
}

/* Channel-load sample of every live post-warmup replication: the
 * moments of its per-channel busy-VC counts (idle channels add zero),
 * accumulated as integers so every driver produces the same sums. */
static void load_sample(const Ctx *c, int64_t cycle)
{
    for (int64_t r = 0; r < c->replications; ++r) {
        if (!c->active[r] || cycle < c->warm[r])
            continue;
        int64_t sv = 0, sv2 = 0, nb = 0;
        const uint8_t *b = c->ch_busy + r * c->num_channels;
        for (int64_t ch = 0; ch < c->num_channels; ++ch) {
            const int64_t v = b[ch];
            if (v) {
                sv += v;
                sv2 += v * v;
                ++nb;
            }
        }
        int64_t *a = c->load_acc + r * 4;
        a[0] += 1;
        a[1] += sv;
        a[2] += sv2;
        a[3] += nb;
    }
}

/* Phases 2, 4a, 3a, 3b, 4b, replication by replication.  Every read
 * and write below touches only rep r's rows plus r's private staging
 * regions, so running the fused pipeline rep by rep matches the
 * global phase order: no phase reads another replication's state. */
static void rep_phases(Ctx *c, int64_t cycle, int64_t do_alloc)
{
    const int64_t C = c->num_channels, V = c->num_vcs;
    const int64_t cap = c->capacity, N = c->num_nodes;
    const int64_t CV = c->CV;
    const int32_t ms = (int32_t)c->ms;
    const int32_t M = c->message_length, depth = c->buffer_depth;
    const int32_t ej_rate = c->ejection_rate;
    const int8_t *lut = c->lut;
    int32_t *bd = c->vc_bd, *avail = c->vc_avail, *owner = c->vc_owner;
    int32_t *up = c->vc_upstream, *down = c->vc_downstream, *rr = c->ch_rr;
    uint8_t *busy = c->ch_busy;

    for (int64_t r = 0; r < c->replications; ++r) {
        RepStage *st = c->stage + r;
        const int64_t newej_base = st->newej_base;
        int64_t grants_r = 0, busy_delta_r = 0, err_r = 0;
        int64_t fn_r = 0, newej_r = 0;
        const int64_t rowoff = r * CV;

        /* Phase 2 — VC allocation (shuffled order, per replication). */
        if (do_alloc && c->need_n[r]) {
            const int64_t n = c->need_n[r];
            int32_t *ns = c->need_slots + r * cap;
            const double *ub = c->alloc_buf + r * c->buf_cap;
            int64_t pos = c->alloc_pos[r];
            if (n > 1) { /* Fisher-Yates over the pending list */
                for (int64_t i = n - 1; i > 0; --i) {
                    const int64_t j = (int64_t)(ub[pos++] * (i + 1));
                    const int32_t tmp = ns[i];
                    ns[i] = ns[j];
                    ns[j] = tmp;
                }
            }
            int64_t keep = 0;
            for (int64_t i = 0; i < n; ++i) {
                const int32_t s = ns[i];
                const int64_t mf = r * cap + s;
                if (c->p_first_attempt[mf] < 0)
                    c->p_first_attempt[mf] = (int32_t)cycle;
                const int64_t cur = c->p_header[mf];
                const int8_t *row =
                    c->route + (cur * N + c->p_dst[mf]) * c->route_w;
                const int32_t *e =
                    class_entry(c, row[0], c->color[cur], c->p_floor[mf]);
                if (!e) { /* broken invariant: surface, don't hang */
                    err_r = ERR_INVARIANT;
                    ns[keep++] = s;
                    continue;
                }
                /* candidates port-major in ports() order, then ascending
                 * VC index, adaptive before escape; each list holds at
                 * most deg * V entries */
                int32_t *fa = c->alloc_scr, *fe = c->alloc_scr + c->degree * V;
                int64_t na = 0, ne = 0;
                for (int64_t p = 0; p < row[1]; ++p) {
                    const int32_t vc0 =
                        (int32_t)((cur * c->degree + row[2 + p]) * V);
                    for (int32_t j = e[0]; j < e[0] + e[1]; ++j)
                        if (owner[rowoff + vc0 + j] < 0)
                            fa[na++] = vc0 + j;
                }
                for (int64_t p = 0; p < row[1]; ++p) {
                    const int32_t vc0 =
                        (int32_t)((cur * c->degree + row[2 + p]) * V);
                    for (int32_t j = e[2]; j < e[2] + e[3]; ++j)
                        if (owner[rowoff + vc0 + j] < 0)
                            fe[ne++] = vc0 + j;
                }
                int64_t flat = -1;
                if (c->policy == 0) { /* ADAPTIVE_FIRST */
                    if (na) {
                        flat = (na == 1) ? fa[0]
                                         : fa[(int64_t)(ub[pos++] * na)];
                    } else if (ne) {
                        int32_t lowest = (int32_t)V;
                        for (int64_t k = 0; k < ne; ++k) {
                            const int32_t cls = fe[k] % (int32_t)V;
                            if (cls < lowest)
                                lowest = cls;
                        }
                        int64_t np = 0;
                        for (int64_t k = 0; k < ne; ++k)
                            if (fe[k] % (int32_t)V == lowest)
                                fe[np++] = fe[k];
                        flat = fe[(int64_t)(ub[pos++] * np)];
                    }
                } else if (c->policy == 1) { /* LOWEST_ESCAPE */
                    if (ne) {
                        int32_t lowest = (int32_t)V;
                        for (int64_t k = 0; k < ne; ++k) {
                            const int32_t cls = fe[k] % (int32_t)V;
                            if (cls < lowest)
                                lowest = cls;
                        }
                        int64_t np = 0;
                        for (int64_t k = 0; k < ne; ++k)
                            if (fe[k] % (int32_t)V == lowest)
                                fe[np++] = fe[k];
                        flat = fe[(int64_t)(ub[pos++] * np)];
                    } else if (na) {
                        flat = fa[(int64_t)(ub[pos++] * na)];
                    }
                } else { /* RANDOM: adaptive ++ escape pool */
                    const int64_t tot = na + ne;
                    if (tot) {
                        const int64_t j = (int64_t)(ub[pos++] * tot);
                        flat = j < na ? fa[j] : fe[j - na];
                    }
                }
                if (flat < 0) {
                    c->alloc_failures[r] += 1;
                    ns[keep++] = s;
                    continue;
                }
                if (c->msg_measured[mf]) {
                    int64_t k = c->p_hops[mf] + 1;
                    if (k > c->hb_max)
                        k = c->hb_max;
                    const int64_t hb = r * (c->hb_max + 1) + k;
                    c->hb_req[hb] += 1;
                    const int64_t waited = cycle - c->p_first_attempt[mf];
                    if (waited > 0) {
                        c->hb_blk[hb] += 1;
                        c->hb_wait[hb] += waited;
                    }
                }
                c->p_first_attempt[mf] = -1;
                /* acquire */
                const int64_t chan = flat / V;
                const int32_t vi = (int32_t)(flat - chan * V);
                const int32_t prev = c->p_head_vc[mf];
                const int64_t af = rowoff + flat;
                bd[af] = 0;
                if (prev >= 0) {
                    const int64_t ap = rowoff + prev;
                    avail[af] = bd[ap] & 0xFFFF;
                    down[ap] = (int32_t)flat;
                } else { /* whole worm still at the source PE */
                    avail[af] = M;
                    c->msg_t_inject[mf] = (double)cycle;
                    if (c->msg_measured[mf])
                        c->injected[r] += 1;
                }
                owner[af] = s;
                up[af] = prev;
                down[af] = -1;
                busy[r * C + chan] += 1;
                c->p_head_vc[mf] = (int32_t)flat;
                c->msg_vcs_held[mf] += 1;
                busy_delta_r += 1;
                const int32_t fbase =
                    vi < c->num_adaptive ? c->p_floor[mf]
                                         : vi - c->num_adaptive;
                c->p_floor[mf] = fbase + (c->color[chan / c->degree] ? 1 : 0);
                c->p_hops[mf] += 1;
                const int32_t nxt = c->neighbors[chan];
                c->p_header[mf] = nxt;
                const int32_t d = c->p_dist[mf] - 1;
                c->p_dist[mf] = d;
                if ((d == 0) != (nxt == c->p_dst[mf]))
                    err_r = ERR_INVARIANT; /* non-minimal route */
                if (d == 0) { /* header home: stage the ejection column */
                    const int64_t ei = newej_base + newej_r;
                    c->ej_reps[ei] = r;
                    c->ej_slots[ei] = s;
                    c->ej_flats[ei] = af;
                    c->ej_mflats[ei] = mf;
                    ++newej_r; /* ej_pos assigned at the serial merge */
                }
            }
            c->need_n[r] = keep;
            c->alloc_pos[r] = pos;
            c->alloc_attempts[r] += n;
        }

        /* Phase 4a — ejection pick (pre-transfer buffered counts; heads
         * acquired this cycle sit at bd == 0 and contribute k == 0, so
         * the staged entries need no pick).  The bucket (counting-sort
         * order) visits the rep's rows in ascending column order. */
        const int64_t bend = st->bucket_end;
        const int64_t bstart = r ? c->stage[r - 1].bucket_end : 0;
        for (int64_t b = bstart; b < bend; ++b) {
            const int64_t i = c->completions[b];
            int32_t k = bd[c->ej_flats[i]] & 0xFFFF;
            if (ej_rate >= 0 && k > ej_rate)
                k = ej_rate;
            c->ej_k[i] = k;
        }

        /* Phase 3a — transfer pick: per channel, the round-robin winner
         * among candidate VCs, judged on pre-cycle state only. */
        int64_t nw = 0;
        int64_t *wr = c->winners + r * C;
        for (int64_t ch = 0; ch < C; ++ch) {
            if (!busy[r * C + ch]) /* no owned VCs: nothing can move */
                continue;
            const int64_t base = rowoff + ch * V;
            const int64_t rc = r * C + ch;
            int32_t v;
            if (lut) {
                uint32_t bits = 0;
                for (int64_t vv = 0; vv < V; ++vv) {
                    const int32_t w = bd[base + vv];
                    if (w < ms && (w & 0xFFFF) < depth && avail[base + vv] > 0)
                        bits |= (uint32_t)1 << vv;
                }
                if (!bits)
                    continue;
                v = lut[((int64_t)rr[rc] << V) | bits];
            } else { /* wide V: smallest cyclic offset from rr wins */
                const int32_t rrv = rr[rc];
                int32_t best = (int32_t)V;
                v = -1;
                for (int32_t vv = 0; vv < (int32_t)V; ++vv) {
                    const int32_t w = bd[base + vv];
                    if (w < ms && (w & 0xFFFF) < depth
                        && avail[base + vv] > 0) {
                        int32_t o = vv - rrv;
                        if (o < 0)
                            o += (int32_t)V;
                        if (o < best) {
                            best = o;
                            v = vv;
                        }
                    }
                }
                if (v < 0)
                    continue;
            }
            rr[rc] = (v + 1) % (int32_t)V;
            wr[nw++] = base + v;
            ++grants_r;
        }
        if (grants_r)
            c->transfers[r] += grants_r;

        /* Phase 3b — transfer apply. */
        for (int64_t i = 0; i < nw; ++i) {
            const int64_t x = wr[i];
            const int32_t nbx = bd[x] + 0x10001; /* buffered+1, delivered+1 */
            bd[x] = nbx;
            if (nbx == 0x10001) { /* first flit crossed: header now ready */
                const int64_t mf = r * cap + owner[x];
                if (c->p_dist[mf] > 0) { /* next hop still to claim */
                    /* a raising callback sets cberr: the merge reports it */
                    route_row(c, c->p_header[mf], c->p_dst[mf]);
                    c->need_slots[r * cap + c->need_n[r]] =
                        (int32_t)(mf - r * cap);
                    c->need_n[r] += 1;
                }
            }
            avail[x] -= 1;
            const int32_t uu = up[x];
            if (uu >= 0) {
                const int64_t ux = rowoff + uu;
                const int32_t nb = bd[ux] - 1; /* flit leaves upstream */
                bd[ux] = nb;
                if (nb == ms) { /* upstream fully drained: release it */
                    c->msg_vcs_held[r * cap + owner[ux]] -= 1;
                    owner[ux] = -1;
                    busy[uu / V + r * C] -= 1;
                    busy_delta_r -= 1;
                }
            } else if (avail[x] == 0) { /* tail flit left the source PE */
                const int32_t node = c->msg_src[r * cap + owner[x]];
                c->active_injections[r * N + node] -= 1;
                c->fin_nodes[r * C + fn_r++] = r * N + node;
            }
            const int32_t dd = down[x];
            if (dd >= 0)
                avail[rowoff + dd] += 1; /* downstream VC gains a flit */
        }

        /* Phase 4b — ejection apply; completions become -1 markers the
         * serial merge collects in ascending column order. */
        for (int64_t b = bstart; b < bend; ++b) {
            const int64_t i = c->completions[b];
            const int32_t k = c->ej_k[i];
            if (!k)
                continue;
            const int64_t x = c->ej_flats[i];
            const int32_t nb = bd[x] - k;
            bd[x] = nb;
            const int32_t ne = c->msg_ejected[c->ej_mflats[i]] + k;
            c->msg_ejected[c->ej_mflats[i]] = ne;
            if (nb == ms) { /* head drained: release it */
                c->msg_vcs_held[r * cap + owner[x]] -= 1;
                owner[x] = -1;
                busy[(x % CV) / V + r * C] -= 1;
                busy_delta_r -= 1;
            }
            if (ne == M)
                c->ej_k[i] = -1;
        }

        st->busy_delta = busy_delta_r;
        st->fin_n = fn_r;
        st->err = err_r;
        st->newej_n = newej_r;
    }
}

/* ------------------------------------------------------------------ */
/* One full cycle of phases 2-5 with deterministic merge.              */
/* ------------------------------------------------------------------ */

typedef struct CycleOut {
    int64_t busy_delta, fn, err, ej_n, need_total;
} CycleOut;

static void run_phases(Ctx *c, int64_t cycle, int64_t do_alloc,
                       int64_t ej_n_old, CycleOut *o)
{
    const int64_t R = c->replications, C = c->num_channels, cap = c->capacity;
    const int64_t pt0 = prof_now(c->phase_ns);

    /* Staging bases: new ejection columns land at ej_n_old plus the
     * prefix sum of pending-header counts (an upper bound on each
     * rep's appends), compacted leftward after the per-rep pass — the final
     * layout is exactly the serial append order. */
    int64_t off = ej_n_old;
    for (int64_t r = 0; r < R; ++r) {
        RepStage *st = c->stage + r;
        st->busy_delta = st->fin_n = st->err = st->newej_n = 0;
        st->newej_base = off;
        st->bucket_end = 0;
        if (do_alloc)
            off += c->need_n[r];
    }

    /* Rep buckets of the live ejection columns: a stable counting sort
     * into the completions scratch (dead until the merge reuses it)
     * lets phases 4a/4b walk each replication's own rows instead of
     * filtering the whole column set R times.  Each rep's bucket_end ends up
     * holding its bucket END; its start is the previous rep's end. */
    for (int64_t i = 0; i < ej_n_old; ++i)
        c->stage[c->ej_reps[i]].bucket_end += 1;
    int64_t acc = 0;
    for (int64_t r = 0; r < R; ++r) {
        const int64_t cnt = c->stage[r].bucket_end;
        c->stage[r].bucket_end = acc;
        acc += cnt;
    }
    for (int64_t i = 0; i < ej_n_old; ++i)
        c->completions[c->stage[c->ej_reps[i]].bucket_end++] = i;

    rep_phases(c, cycle, do_alloc);

    /* Serial merge, ascending replication order == serial phase order. */
    int64_t busy_delta = 0, err = 0;
    int64_t ej_n = ej_n_old;
    for (int64_t r = 0; r < R; ++r) {
        const RepStage *st = c->stage + r;
        busy_delta += st->busy_delta;
        err |= st->err;
        const int64_t base = st->newej_base;
        for (int64_t j = 0; j < st->newej_n; ++j) {
            const int64_t src = base + j;
            if (src != ej_n) {
                c->ej_reps[ej_n] = c->ej_reps[src];
                c->ej_slots[ej_n] = c->ej_slots[src];
                c->ej_flats[ej_n] = c->ej_flats[src];
                c->ej_mflats[ej_n] = c->ej_mflats[src];
            }
            c->ej_pos[c->ej_mflats[ej_n]] = ej_n;
            ++ej_n;
        }
    }
    /* Replication 0's entries are already in place at offset 0. */
    int64_t fn = c->stage[0].fin_n;
    for (int64_t r = 1; r < R; ++r)
        for (int64_t j = 0; j < c->stage[r].fin_n; ++j)
            c->fin_nodes[fn++] = c->fin_nodes[r * C + j];
    if (c->cberr)
        err |= ERR_CALLBACK;
    /* route (phases 2-4) ends here; the completion tail is phase 5 */
    const int64_t pt1 = prof_now(c->phase_ns);
    if (c->phase_ns)
        c->phase_ns[2] += pt1 - pt0;

    int64_t cn = 0;
    for (int64_t i = 0; i < ej_n_old; ++i)
        if (c->ej_k[i] == -1)
            c->completions[cn++] = i;

    /* Phase 5 — completion bookkeeping, strictly serial: the latency
     * sums are float adds in completion order.  Capture (rep, slot)
     * pairs before removing any column: swap-removal shifts later
     * columns, so the recorded indices are only valid against the
     * pre-removal layout. */
    for (int64_t j = 0; j < cn; ++j) {
        const int64_t i = c->completions[j];
        c->completions[j] = c->ej_reps[i] * cap + c->ej_slots[i];
    }
    for (int64_t j = 0; j < cn; ++j) {
        const int64_t mf = c->completions[j];
        const int64_t r = mf / cap;
        if (c->msg_vcs_held[mf] != 0)
            err |= ERR_INVARIANT; /* completed message still owns channels */
        c->in_flight[r] -= 1;
        c->completed[r] += 1;
        if (c->msg_measured[mf]) {
            c->measured_in_flight[r] -= 1;
            const double tg = c->msg_t_gen[mf];
            const double t_done = (double)(cycle + 1);
            const double v = t_done - tg;
            c->lat_sum[r] += v;
            c->net_sum[r] += t_done - c->msg_t_inject[mf];
            c->srcw_sum[r] += c->msg_t_inject[mf] - tg;
            c->mcount[r] += 1;
            int64_t b = (int64_t)((tg - c->w_t0[r]) / c->w_width[r]);
            if (b < 0)
                b = 0;
            if (b > c->w_batches[r] - 1)
                b = c->w_batches[r] - 1;
            c->lat_bsum[r * c->max_batches + b] += v;
            c->lat_bcount[r * c->max_batches + b] += 1;
        }
        /* push the message slot back on its replication's free stack */
        c->p_head_vc[mf] = -1;
        c->free_stack[r * cap + c->free_n[r]] = (int32_t)(mf - r * cap);
        c->free_n[r] += 1;
        /* swap-remove the drained ejection column */
        const int64_t pos = c->ej_pos[mf];
        c->ej_pos[mf] = -1;
        const int64_t last = ej_n - 1;
        if (pos != last) {
            const int64_t lr = c->ej_reps[last];
            const int64_t ls = c->ej_slots[last];
            c->ej_reps[pos] = lr;
            c->ej_slots[pos] = ls;
            c->ej_flats[pos] = c->ej_flats[last];
            c->ej_mflats[pos] = c->ej_mflats[last];
            c->ej_pos[lr * cap + ls] = pos;
        }
        ej_n = last;
    }

    int64_t need_total = 0;
    for (int64_t r = 0; r < R; ++r)
        need_total += c->need_n[r];

    if (c->phase_ns)
        c->phase_ns[3] += prof_now(c->phase_ns) - pt1;

    o->busy_delta = busy_delta;
    o->fn = fn;
    o->err = err;
    o->ej_n = ej_n;
    o->need_total = need_total;
}

/* ------------------------------------------------------------------ */
/* Resident driver: generation + activation + phases + watchdog in C.  */
/* ------------------------------------------------------------------ */

#define GEN_OK 0
#define GEN_GROW 1
#define GEN_CBERR 2

/* Arrival generation.  Each node holds exactly one outstanding arrival,
 * so (instant, node) pairs are unique per replication and the event
 * order is canonical: the smallest instant, ties broken by the smallest
 * node — exactly the tuple order the object engine's heap produces.
 * Refill callbacks re-enter Python (ctypes re-acquires the GIL).
 *
 * An exhausted message pool returns GEN_GROW before the event consumes
 * anything, so re-entering at the same cycle after Python grew the pool
 * is idempotent: replications that finished this cycle's arrivals have
 * gen_next > cycle and are skipped; this one resumes at the same event. */
static int gen_cycle(Ctx *c, int64_t cycle, int *act_any)
{
    const int64_t N = c->num_nodes, GB = c->gen_block, cap = c->capacity;
    const double fcycle = (double)cycle;
    for (int64_t r = 0; r < c->replications; ++r) {
        if (c->gen_next[r] > fcycle)
            continue;
        double *nt = c->gen_node_t + r * N;
        const int64_t rN = r * N;
        const double fwarm = (double)c->warm[r];
        const double fhorizon = (double)c->horizon[r];
        for (;;) {
            double best = nt[0];
            int64_t node = 0;
            for (int64_t u = 1; u < N; ++u)
                if (nt[u] < best) {
                    best = nt[u];
                    node = u;
                }
            if (best > fcycle) {
                c->gen_next[r] = best;
                break;
            }
            if (c->free_n[r] == 0) { /* pool exhausted; nothing consumed */
                c->gen_next[r] = best;
                return GEN_GROW;
            }
            /* destination draw */
            const int64_t rn = rN + node;
            int32_t dpos = c->dst_pos[rn];
            if (dpos >= c->dst_len[rn]) {
                if (c->cb(1, r, node) < 0)
                    return GEN_CBERR;
                dpos = 0;
            }
            const int32_t dst = c->dst_buf[rn * GB + dpos];
            c->dst_pos[rn] = dpos + 1;
            /* distance, off route row (src, dst) */
            const int8_t *row = route_row(c, node, dst);
            if (!row)
                return GEN_CBERR;
            const int32_t dist = row[0];
            /* pop a message slot off the replication's free stack */
            const int64_t fn2 = c->free_n[r] - 1;
            c->free_n[r] = fn2;
            const int32_t s = c->free_stack[r * cap + fn2];
            const int64_t mf = r * cap + s;
            c->msg_t_gen[mf] = best;
            c->msg_src[mf] = (int32_t)node;
            c->msg_ejected[mf] = 0;
            const uint8_t measured = best >= fwarm && best < fhorizon;
            c->msg_measured[mf] = measured;
            c->p_dst[mf] = dst;
            c->p_header[mf] = (int32_t)node;
            c->p_dist[mf] = dist;
            c->p_floor[mf] = 0;
            c->p_hops[mf] = 0;
            c->p_first_attempt[mf] = -1;
            c->generated[r] += 1;
            if (measured)
                c->measured_generated[r] += 1;
            /* append to the node's source queue */
            c->qnext[r * cap + s] = -1;
            if (c->qtail[rn] < 0)
                c->qhead[rn] = s;
            else
                c->qnext[r * cap + c->qtail[rn]] = s;
            c->qtail[rn] = s;
            c->qlen[rn] += 1;
            c->act[rn] = 1;
            *act_any = 1;
            /* next arrival for this node */
            int32_t apos = c->arr_pos[rn];
            if (apos >= c->arr_len[rn]) {
                if (c->cb(0, r, node) < 0)
                    return GEN_CBERR;
                apos = 0;
            }
            nt[node] = c->arr_buf[rn * GB + apos];
            c->arr_pos[rn] = apos + 1;
        }
    }
    return GEN_OK;
}

/* Activation, in ascending (rep, node) order.  A message entering
 * injection sits at its source, whose route row generation already
 * filled. */
static void act_cycle(const Ctx *c, int64_t *need_total)
{
    const int64_t N = c->num_nodes, cap = c->capacity;
    for (int64_t r = 0; r < c->replications; ++r) {
        const int64_t rN = r * N;
        for (int64_t node = 0; node < N; ++node) {
            const int64_t rn = rN + node;
            if (!c->act[rn])
                continue;
            while (c->qlen[rn]
                   && c->active_injections[rn] < c->injection_slots) {
                const int32_t s = c->qhead[rn];
                const int64_t mf = r * cap + s;
                const int32_t nxt = c->qnext[r * cap + s];
                c->qhead[rn] = nxt;
                if (nxt < 0)
                    c->qtail[rn] = -1;
                c->qlen[rn] -= 1;
                c->active_injections[rn] += 1;
                c->in_flight[r] += 1;
                if (c->msg_measured[mf])
                    c->measured_in_flight[r] += 1;
                c->need_slots[r * cap + c->need_n[r]] = s;
                c->need_n[r] += 1;
                *need_total += 1;
            }
            c->act[rn] = 0;
        }
    }
}

/* One call from the block's current cycle.  limit < 0 runs until a
 * replication reaches its stop condition; otherwise the loop advances to
 * cycle `limit` and applies no stop conditions (ArraySimulator.step). */
int64_t starnet_run(Params *p, int64_t limit)
{
    Ctx c;
    load_ctx(&c, p);
    int64_t cycle = p->cycle;
    int64_t busy_vcs = p->busy_vcs;
    int64_t ej_n = p->ej_n;
    int64_t need_total = p->need_total;
    int64_t reason = 0;
    const int64_t R = c.replications, N = c.num_nodes;
    /* fixed ejection rows: each pending header may append one */
    const int64_t ej_rows = R * (c.CV + N * c.injection_slots);

    int act_any = 0;
    for (int64_t i = 0; i < R * N; ++i)
        if (c.act[i]) {
            act_any = 1;
            break;
        }

    for (;;) {
        /* a limited call (step()) only counts cycles; otherwise the
         * run()-level stop check, before the cycle advances */
        if (limit >= 0) {
            if (cycle >= limit) {
                reason = RUN_LIMIT;
                goto out;
            }
        } else {
            for (int64_t r = 0; r < R; ++r)
                if (c.active[r] && cycle >= c.horizon[r]
                    && (cycle >= c.end[r] || c.measured_in_flight[r] == 0)) {
                    reason = RUN_STOP;
                    goto out;
                }
        }

        /* phase 1 — generation, then activation */
        {
            const int64_t tp = prof_now(c.phase_ns);
            const int g = gen_cycle(&c, cycle, &act_any);
            if (c.phase_ns)
                c.phase_ns[0] += prof_now(c.phase_ns) - tp;
            if (g == GEN_CBERR) {
                reason = RUN_CBERR;
                goto out;
            }
            if (g == GEN_GROW) {
                reason = RUN_GROW;
                goto out;
            }
        }
        if (act_any) {
            const int64_t tp = prof_now(c.phase_ns);
            act_cycle(&c, &need_total);
            if (c.phase_ns)
                c.phase_ns[1] += prof_now(c.phase_ns) - tp;
            act_any = 0;
        }

        /* phases 2-5 */
        if (ej_n + need_total > ej_rows) { /* the bound above broke */
            reason = RUN_ERR;
            goto out;
        }
        if (busy_vcs || need_total) {
            const int64_t do_alloc = need_total > 0;
            if (do_alloc) {
                /* uniform-headroom gate (see _ensure_uniforms): while
                 * the amortized bound holds, consume it; a failed bound
                 * with no actual shortage re-bases the gate; a real
                 * shortage calls back (kind 4) so Python refills the
                 * buffer. */
                const int64_t bound = 2 * need_total;
                if (p->ugate_spend + bound <= p->ugate_headroom) {
                    p->ugate_spend += bound;
                } else {
                    int short_any = 0;
                    int64_t posmax = 0;
                    for (int64_t r = 0; r < R; ++r) {
                        if (c.buf_cap - c.alloc_pos[r] < 2 * c.need_n[r])
                            short_any = 1;
                        if (c.alloc_pos[r] > posmax)
                            posmax = c.alloc_pos[r];
                    }
                    if (short_any) {
                        if (c.cb(4, need_total, 0) < 0) {
                            reason = RUN_CBERR;
                            goto out;
                        }
                        load_uniforms(&c);
                    } else {
                        p->ugate_headroom = c.buf_cap - posmax;
                        p->ugate_spend = bound;
                    }
                }
            }
            CycleOut o;
            run_phases(&c, cycle, do_alloc, ej_n, &o);
            if (o.err) {
                reason = (o.err & ERR_CALLBACK) ? RUN_CBERR : RUN_ERR;
                goto out;
            }
            busy_vcs += o.busy_delta;
            ej_n = o.ej_n;
            need_total = o.need_total;
            for (int64_t j = 0; j < o.fn; ++j) {
                c.act[c.fin_nodes[j]] = 1;
                act_any = 1;
            }
        }

        /* watchdog — every 32 cycles, ascending reps, first stall wins */
        if ((cycle & 31) == 0) {
            for (int64_t r = 0; r < R; ++r) {
                const int64_t prog = c.transfers[r] + c.completed[r]
                                     + c.alloc_attempts[r]
                                     - c.alloc_failures[r];
                if (prog != c.progress_marks[r]) {
                    c.progress_marks[r] = prog;
                    c.last_progress[r] = cycle;
                } else if (c.in_flight[r] > 0
                           && cycle - c.last_progress[r] > c.grace) {
                    reason = RUN_WATCHDOG;
                    p->stalled_rep = r;
                    goto out; /* Python raises at this cycle */
                }
            }
        }

        /* channel-load sample (warm-gated, per rep), then the time-
         * series probe, which samples every probed cycle of the run,
         * warmup included (the warmup-adequacy detector needs the
         * transient). */
        if (cycle % c.sample_interval == 0)
            load_sample(&c, cycle);
        if (c.probe_data && cycle % c.probe_interval == 0)
            probe_sample(&c, cycle);

        cycle += 1;
    }

out:
    p->cycle = cycle;
    p->busy_vcs = busy_vcs;
    p->ej_n = ej_n;
    p->need_total = need_total;
    return reason;
}
