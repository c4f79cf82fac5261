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
 *
 * All arguments arrive through one int64 parameter block (pointers cast
 * to int64), so each call marshals a single argument.  Slot layout must
 * match kernels.ArraySimulator._refresh_c_args:
 *
 *   0 bd          (int32*, R*CV)  packed buffered | delivered << 16
 *   1 avail       (int32*, R*CV)  flits available to pull
 *   2 owner       (int32*, R*CV)  owning slot or -1
 *   3 up          (int32*, R*CV)  upstream vc or -1 (source PE)
 *   4 down        (int32*, R*CV)  downstream vc or -1
 *   5 rr          (int32*, R*C)   round-robin pointers
 *   6 lut         (int8*)         round-robin winner table (0: scan)
 *   7 R   8 C   9 V
 *  10 M  11 depth  12 ej_rate (< 0: unlimited)
 *  13 transfers   (int64*, R)     cumulative grant counts
 *  14 vcs_held    (int32*, R*cap) per-message owned-VC counts
 *  15 msg_src     (int32*, R*cap) source node per message
 *  16 active_inj  (int32*, R*N)   concurrent injections per node
 *  17 msg_ejected (int32*, R*cap) ejected flits per message
 *  18 cap  19 N
 *  20 ej_reps     (int64*)        ejection columns (fixed rows, above)
 *  21 ej_slots    (int64*)
 *  22 ej_flats    (int64*)        head VC of each draining message
 *  23 ej_mflats   (int64*)        message-array index of each
 *  24 ej_pos      (int64*, R*cap) column position per message (-1)
 *  25 ej_k        (int32*, scratch, one per ejection row)
 *  26 winners     (int64*, scratch R*C, per-rep region C)
 *  27 fin_nodes   (int64*, scratch R*C) rep*N + node of finished injections
 *  28 completions (int64*, scratch, one per ejection row)
 *  29 alloc_scr   (int32*, scratch 2*deg*V) free adaptive | escape VCs
 *  30 load_acc    (int64*, R*4)   channel-load sample accumulators
 *                                  {samples, sum_v, sum_v2, busy}, per rep
 *  31 busy        (uint8*, R*C)   owned-VC count per channel
 *  32 policy       0 adaptive-first, 1 lowest-escape, 2 random
 *  33 num_adaptive
 *  34 deg
 *  35 need_slots  (int32*, R*cap) pending headers, compacted in place
 *  36 need_n      (int64*, R)     pending counts
 *  37 p_dst  38 p_header  39 p_dist  40 p_floor  41 p_hops
 *  42 p_first  43 p_head_vc   (all int32*, R*cap)
 *  44 route       (int8*, N*N*route_w) rows {dist, nports, ports...};
 *                                  dist -1: unresolved (kind 2 fills it)
 *  45 route_w                     row width, 2 + deg
 *  46 cls         (int32*, cls_d*2*num_escape*4) eligibility classes
 *                                  {a_lo, a_n, e_lo, e_n} at ((d-1)*2 +
 *                                  colour)*num_escape + floor; a_n -1:
 *                                  a state eligible() rejects
 *  47 cls_d                       diameter  48 num_escape
 *  49 alloc_buf   (double*, R*buf_cap) pre-drawn uniforms
 *  50 buf_cap     51 alloc_pos (int64*, R)
 *  52 neighbors   (int32*, C)     node reached through each channel
 *  53 color       (uint8*, N)     1 on "negative-hop" nodes
 *  54 msg_measured(uint8*, R*cap)
 *  55 msg_t_inject(double*, R*cap)
 *  56 alloc_attempts (int64*, R)  57 alloc_failures (int64*, R)
 *  58 injected    (int64*, R)     measured injections in window
 *  59 hb_req  60 hb_blk  61 hb_wait (int64*, R*(hb_max+1))
 *  62 hb_max
 *  63 msg_t_gen   (double*, R*cap) generation instant per message
 *  64 in_flight   (int64*, R)     live message counts
 *  65 meas_flight (int64*, R)     live *measured* message counts
 *  66 completed   (int64*, R)     cumulative completions
 *  67 free_stack  (int32*, R*cap) free-slot stacks  68 free_n (int64*, R)
 *  69 lat_sum     (double*, R)    total-latency accumulator
 *  70 net_sum     (double*, R)    network-latency accumulator
 *  71 srcw_sum    (double*, R)    source-wait accumulator
 *  72 mcount      (int64*, R)     measured completions
 *  73 lat_bsum    (double*, R*Bmax) per-batch latency sums
 *  74 lat_bcount  (int64*, R*Bmax)  per-batch latency counts
 *  75 w_t0        (double*, R)    measurement-window start per rep
 *  76 w_width     (double*, R)    batch width per rep
 *  77 w_batches   (int64*, R)     batch count per rep  78 Bmax
 *  79 tstage      (int64*, R*8)   per-rep staging {-, busy_delta,
 *                                  fin_n, -, err, newej_n,
 *                                  newej_base, bucket_end}
 *  80 gen_node_t  (double*, R*N)  next arrival instant per node
 *  81 gen_next    (double*, R)    cached per-rep minimum of gen_node_t
 *  82 arr_buf     (double*, R*N*GB) pre-drawn arrival blocks
 *  83 arr_pos     (int32*, R*N)   cursor into arr_buf
 *  84 arr_len     (int32*, R*N)   valid entries in arr_buf
 *  85 dst_buf     (int32*, R*N*GB) pre-drawn destination blocks
 *  86 dst_pos     (int32*, R*N)  87 dst_len (int32*, R*N)
 *  88 GB                          generation block size
 *  89 qnext       (int32*, R*cap) source-queue links (next slot or -1)
 *  90 qhead  91 qtail  92 qlen   (int32*, R*N) per-node queues
 *  93 act         (uint8*, R*N)   nodes with pending activations
 *  94 cb                          service callback into Python
 *                                  int64 cb(kind, a, b):
 *                                  0 arrival-block refill (rep, node)
 *                                  1 dest-block refill (rep, node)
 *                                  2 route row (cur, dst) -> distance;
 *                                    fills the row in place
 *                                  4 uniform shortage (need_total, -):
 *                                    refill + re-base ugate; re-read
 *                                    slots 49-50 afterwards
 *                                  negative return: Python exception
 *  95 generated   (int64*, R)   96 meas_generated (int64*, R)
 *  97 warm        (int64*, R)   98 horizon (int64*, R)
 *  99 end         (int64*, R)     horizon + drain budget
 * 100 active      (uint8*, R)     1 until the rep's result is frozen
 * 101 slots                       injection slots per node
 * 102 grace                       watchdog grace (cycles)
 * 103 marks       (int64*, R)  104 lastp (int64*, R)  watchdog state
 * 105 sample_interval             cycles between channel-load samples
 * 106 ugate       (int64*, 2)     {headroom, spend} uniform gate
 * 107 run_state   (int64*, 8)     {cycle, busy_vcs, ej_n, need_total,
 *                                  reason, aux, limit, 0}: the first
 *                                  four in/out, reason/aux out; limit
 *                                  in (< 0: run until a stop, else
 *                                  advance to that cycle and apply no
 *                                  stop conditions)
 * 108 prof        (int64*, 8)     phase-profiling ns accumulators, or 0
 *                                  when profiling is off: {generation,
 *                                  activation, route, complete, -, -,
 *                                  -, -} (total/cycles live Python-side;
 *                                  see ArraySimulator.phase_profile)
 *
 * Time-series probe slots (109+), the same NULL-pointer = zero-overhead
 * contract as slot 108 (see probe_sample / docs/observability.md):
 *
 * 109 pb_data     (int64*, cap*R*(3+V+1)) sample ring buffer, or 0
 *                                  when probing is off; one sample is
 *                                  R rows of {in_flight, completed,
 *                                  backlog, occupancy histogram 0..V}
 * 110 pb_cycles   (int64*, cap)   cycle stamp per sample
 * 111 pb_state    (int64*, 1)     {sample count}
 * 112 pb_interval                 cycles between samples
 * 113 pb_cap                      ring capacity (samples)
 */

#include <stdint.h>
#include <stdlib.h>
#include <time.h>

/* starnet_run return reasons (one per return; mirrored in kernels.py).
 * Every one but RUN_LIMIT leaves the current cycle unfinished. */
#define RUN_STOP 1     /* a replication reached its stop condition      */
#define RUN_GROW 2     /* message pool exhausted: Python grows it       */
#define RUN_WATCHDOG 4 /* stalled: Python raises SimulationError        */
#define RUN_CBERR 8    /* a service callback raised                     */
#define RUN_ERR 16     /* kernel invariant failure                      */
#define RUN_LIMIT 32   /* reached the run-state cycle limit             */

/* run_phases error bits. */
#define ERR_INVARIANT 1
#define ERR_CALLBACK 2

typedef int64_t (*starnet_cb)(int64_t kind, int64_t a, int64_t b);

/* Decoded parameter block.  The message pool grows only between calls
 * (RUN_GROW), so its pointers are stable for a whole call; the uniform
 * buffer may be regrown inside a callback, which patches the block in
 * place, so its pointer is re-read after every kind-4 call.  The route
 * table never moves: the kind-2 callback fills its rows in place. */
typedef struct Ctx {
    const int64_t *P;
    int32_t *bd, *avail, *owner, *up, *down, *rr;
    const int8_t *lut;
    int64_t R, C, V;
    int32_t M, depth, ej_rate;
    int64_t *transfers;
    int32_t *vcs_held;
    int32_t *msg_src;
    int32_t *active_inj, *msg_ejected;
    int64_t cap, N;
    int64_t *ej_reps, *ej_slots, *ej_flats, *ej_mflats, *ej_pos;
    int32_t *ej_k;
    int64_t *winners, *fin_nodes, *completions, *load_acc;
    int32_t *alloc_scr;
    uint8_t *busy;
    int64_t policy;
    int32_t num_adaptive;
    int64_t deg;
    int32_t *need_slots;
    int64_t *need_n;
    int32_t *p_dst, *p_header, *p_dist, *p_floor, *p_hops, *p_first;
    int32_t *p_head_vc;
    const int8_t *route;
    int64_t route_w;
    const int32_t *cls;
    int64_t cls_d, num_escape;
    const double *alloc_buf;
    int64_t buf_cap;
    int64_t *alloc_pos;
    const int32_t *neighbors;
    const uint8_t *color;
    uint8_t *measured;
    double *t_inject;
    int64_t *alloc_attempts, *alloc_failures, *injected;
    int64_t *hb_req, *hb_blk, *hb_wait;
    int64_t hb_max;
    double *t_gen;
    int64_t *in_flight, *meas_flight, *completed;
    int32_t *free_stack;
    int64_t *free_n;
    double *lat_sum, *net_sum, *srcw_sum;
    int64_t *mcount;
    double *lat_bsum;
    int64_t *lat_bcount;
    const double *w_t0, *w_width;
    const int64_t *w_batches;
    int64_t Bmax;
    int64_t *tstage;
    double *gen_node_t, *gen_next;
    double *arr_buf;
    int32_t *arr_pos, *arr_len;
    int32_t *dst_buf, *dst_pos, *dst_len;
    int64_t GB;
    int32_t *qnext, *qhead, *qtail, *qlen;
    uint8_t *act;
    starnet_cb cb;
    int64_t *generated, *meas_generated;
    const int64_t *warm, *horizon, *end;
    uint8_t *active;
    int64_t slots, grace;
    int64_t *marks, *lastp;
    int64_t sample_interval;
    int64_t *ugate;
    int64_t *run_state;
    int64_t *prof;
    int64_t *pb_data, *pb_cycles, *pb_state;
    int64_t pb_interval, pb_cap;
    int64_t ms, CV;
    int cberr; /* a callback raised: make no further calls this entry */
} Ctx;

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

/* Uniform buffer (slots 49-50): widened by the kind-4 callback. */
static void load_uniforms(Ctx *c)
{
    c->alloc_buf = (const double *)c->P[49];
    c->buf_cap = c->P[50];
}

static void decode(Ctx *c, int64_t *P)
{
    c->P = P;
    c->cberr = 0;
    c->bd = (int32_t *)P[0];
    c->avail = (int32_t *)P[1];
    c->owner = (int32_t *)P[2];
    c->up = (int32_t *)P[3];
    c->down = (int32_t *)P[4];
    c->rr = (int32_t *)P[5];
    c->lut = (const int8_t *)P[6];
    c->R = P[7];
    c->C = P[8];
    c->V = P[9];
    c->M = (int32_t)P[10];
    c->depth = (int32_t)P[11];
    c->ej_rate = (int32_t)P[12];
    c->transfers = (int64_t *)P[13];
    c->vcs_held = (int32_t *)P[14];
    c->msg_src = (int32_t *)P[15];
    c->active_inj = (int32_t *)P[16];
    c->msg_ejected = (int32_t *)P[17];
    c->cap = P[18];
    c->N = P[19];
    c->ej_reps = (int64_t *)P[20];
    c->ej_slots = (int64_t *)P[21];
    c->ej_flats = (int64_t *)P[22];
    c->ej_mflats = (int64_t *)P[23];
    c->ej_pos = (int64_t *)P[24];
    c->ej_k = (int32_t *)P[25];
    c->winners = (int64_t *)P[26];
    c->fin_nodes = (int64_t *)P[27];
    c->completions = (int64_t *)P[28];
    c->alloc_scr = (int32_t *)P[29];
    c->load_acc = (int64_t *)P[30];
    c->busy = (uint8_t *)P[31];
    c->policy = P[32];
    c->num_adaptive = (int32_t)P[33];
    c->deg = P[34];
    c->need_slots = (int32_t *)P[35];
    c->need_n = (int64_t *)P[36];
    c->p_dst = (int32_t *)P[37];
    c->p_header = (int32_t *)P[38];
    c->p_dist = (int32_t *)P[39];
    c->p_floor = (int32_t *)P[40];
    c->p_hops = (int32_t *)P[41];
    c->p_first = (int32_t *)P[42];
    c->p_head_vc = (int32_t *)P[43];
    c->route = (const int8_t *)P[44];
    c->route_w = P[45];
    c->cls = (const int32_t *)P[46];
    c->cls_d = P[47];
    c->num_escape = P[48];
    load_uniforms(c);
    c->alloc_pos = (int64_t *)P[51];
    c->neighbors = (const int32_t *)P[52];
    c->color = (const uint8_t *)P[53];
    c->measured = (uint8_t *)P[54];
    c->t_inject = (double *)P[55];
    c->alloc_attempts = (int64_t *)P[56];
    c->alloc_failures = (int64_t *)P[57];
    c->injected = (int64_t *)P[58];
    c->hb_req = (int64_t *)P[59];
    c->hb_blk = (int64_t *)P[60];
    c->hb_wait = (int64_t *)P[61];
    c->hb_max = P[62];
    c->t_gen = (double *)P[63];
    c->in_flight = (int64_t *)P[64];
    c->meas_flight = (int64_t *)P[65];
    c->completed = (int64_t *)P[66];
    c->free_stack = (int32_t *)P[67];
    c->free_n = (int64_t *)P[68];
    c->lat_sum = (double *)P[69];
    c->net_sum = (double *)P[70];
    c->srcw_sum = (double *)P[71];
    c->mcount = (int64_t *)P[72];
    c->lat_bsum = (double *)P[73];
    c->lat_bcount = (int64_t *)P[74];
    c->w_t0 = (const double *)P[75];
    c->w_width = (const double *)P[76];
    c->w_batches = (const int64_t *)P[77];
    c->Bmax = P[78];
    c->tstage = (int64_t *)P[79];
    c->gen_node_t = (double *)P[80];
    c->gen_next = (double *)P[81];
    c->arr_buf = (double *)P[82];
    c->arr_pos = (int32_t *)P[83];
    c->arr_len = (int32_t *)P[84];
    c->dst_buf = (int32_t *)P[85];
    c->dst_pos = (int32_t *)P[86];
    c->dst_len = (int32_t *)P[87];
    c->GB = P[88];
    c->qnext = (int32_t *)P[89];
    c->qhead = (int32_t *)P[90];
    c->qtail = (int32_t *)P[91];
    c->qlen = (int32_t *)P[92];
    c->act = (uint8_t *)P[93];
    c->cb = (starnet_cb)(intptr_t)P[94];
    c->generated = (int64_t *)P[95];
    c->meas_generated = (int64_t *)P[96];
    c->warm = (const int64_t *)P[97];
    c->horizon = (const int64_t *)P[98];
    c->end = (const int64_t *)P[99];
    c->active = (uint8_t *)P[100];
    c->slots = P[101];
    c->grace = P[102];
    c->marks = (int64_t *)P[103];
    c->lastp = (int64_t *)P[104];
    c->sample_interval = P[105];
    c->ugate = (int64_t *)P[106];
    c->run_state = (int64_t *)P[107];
    c->prof = (int64_t *)P[108];
    c->pb_data = (int64_t *)P[109];
    c->pb_cycles = (int64_t *)P[110];
    c->pb_state = (int64_t *)P[111];
    c->pb_interval = P[112];
    c->pb_cap = P[113];
    c->ms = (int64_t)c->M << 16;
    c->CV = c->C * c->V;
}

/* Time-series probe: one ring-buffer sample of the batch's occupancy
 * state after the probed cycle's phases.  Observation-only — it reads
 * counters the phases already maintain and writes only the side
 * buffers — so results are bit-identical probed or not.
 * The caller's NULL check on pb_data keeps the probes-off path to one
 * predictable branch per cycle, the prof_now contract. */
static void probe_sample(const Ctx *c, int64_t cycle)
{
    const int64_t s = c->pb_state[0];
    if (s >= c->pb_cap)
        return;
    const int64_t row = 3 + c->V + 1;
    int64_t *dst = c->pb_data + s * c->R * row;
    for (int64_t r = 0; r < c->R; ++r, dst += row) {
        dst[0] = c->in_flight[r];
        dst[1] = c->completed[r];
        int64_t backlog = 0;
        const int32_t *ql = c->qlen + r * c->N;
        for (int64_t u = 0; u < c->N; ++u)
            backlog += ql[u];
        dst[2] = backlog;
        for (int64_t v = 0; v <= c->V; ++v)
            dst[3 + v] = 0;
        const uint8_t *b = c->busy + r * c->C;
        for (int64_t ch = 0; ch < c->C; ++ch)
            dst[3 + b[ch]] += 1;
    }
    c->pb_cycles[s] = cycle;
    c->pb_state[0] = s + 1;
}

/* Route row (cur, dst): {dist, nports, ports...}, filled on first use
 * by the kind-2 callback.  NULL once a callback has raised. */
static const int8_t *route_row(Ctx *c, int64_t cur, int64_t dst)
{
    const int8_t *row = c->route + (cur * c->N + dst) * c->route_w;
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
    for (int64_t r = 0; r < c->R; ++r) {
        if (!c->active[r] || cycle < c->warm[r])
            continue;
        int64_t sv = 0, sv2 = 0, nb = 0;
        const uint8_t *b = c->busy + r * c->C;
        for (int64_t ch = 0; ch < c->C; ++ch) {
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
    const int64_t C = c->C, V = c->V, cap = c->cap, N = c->N;
    const int64_t CV = c->CV;
    const int32_t ms = (int32_t)c->ms;
    const int32_t M = c->M, depth = c->depth, ej_rate = c->ej_rate;
    const int8_t *lut = c->lut;
    int32_t *bd = c->bd, *avail = c->avail, *owner = c->owner;
    int32_t *up = c->up, *down = c->down, *rr = c->rr;
    uint8_t *busy = c->busy;

    for (int64_t r = 0; r < c->R; ++r) {
        int64_t *ts = c->tstage + r * 8;
        const int64_t newej_base = ts[6];
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
                if (c->p_first[mf] < 0)
                    c->p_first[mf] = (int32_t)cycle;
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
                int32_t *fa = c->alloc_scr, *fe = c->alloc_scr + c->deg * V;
                int64_t na = 0, ne = 0;
                for (int64_t p = 0; p < row[1]; ++p) {
                    const int32_t vc0 = (int32_t)((cur * c->deg + row[2 + p]) * V);
                    for (int32_t j = e[0]; j < e[0] + e[1]; ++j)
                        if (owner[rowoff + vc0 + j] < 0)
                            fa[na++] = vc0 + j;
                }
                for (int64_t p = 0; p < row[1]; ++p) {
                    const int32_t vc0 = (int32_t)((cur * c->deg + row[2 + p]) * V);
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
                if (c->measured[mf]) {
                    int64_t k = c->p_hops[mf] + 1;
                    if (k > c->hb_max)
                        k = c->hb_max;
                    const int64_t hb = r * (c->hb_max + 1) + k;
                    c->hb_req[hb] += 1;
                    const int64_t waited = cycle - c->p_first[mf];
                    if (waited > 0) {
                        c->hb_blk[hb] += 1;
                        c->hb_wait[hb] += waited;
                    }
                }
                c->p_first[mf] = -1;
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
                    c->t_inject[mf] = (double)cycle;
                    if (c->measured[mf])
                        c->injected[r] += 1;
                }
                owner[af] = s;
                up[af] = prev;
                down[af] = -1;
                busy[r * C + chan] += 1;
                c->p_head_vc[mf] = (int32_t)flat;
                c->vcs_held[mf] += 1;
                busy_delta_r += 1;
                const int32_t fbase =
                    vi < c->num_adaptive ? c->p_floor[mf] : vi - c->num_adaptive;
                c->p_floor[mf] = fbase + (c->color[chan / c->deg] ? 1 : 0);
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
        const int64_t bend = ts[7];
        const int64_t bstart = r ? c->tstage[(r - 1) * 8 + 7] : 0;
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
                    c->vcs_held[r * cap + owner[ux]] -= 1;
                    owner[ux] = -1;
                    busy[uu / V + r * C] -= 1;
                    busy_delta_r -= 1;
                }
            } else if (avail[x] == 0) { /* tail flit left the source PE */
                const int32_t node = c->msg_src[r * cap + owner[x]];
                c->active_inj[r * N + node] -= 1;
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
                c->vcs_held[r * cap + owner[x]] -= 1;
                owner[x] = -1;
                busy[(x % CV) / V + r * C] -= 1;
                busy_delta_r -= 1;
            }
            if (ne == M)
                c->ej_k[i] = -1;
        }

        ts[1] = busy_delta_r;
        ts[2] = fn_r;
        ts[4] = err_r;
        ts[5] = newej_r;
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
    const int64_t R = c->R, C = c->C, cap = c->cap;
    const int64_t pt0 = prof_now(c->prof);

    /* Staging bases: new ejection columns land at ej_n_old plus the
     * prefix sum of pending-header counts (an upper bound on each
     * rep's appends), compacted leftward after the per-rep pass — the final
     * layout is exactly the serial append order. */
    int64_t off = ej_n_old;
    for (int64_t r = 0; r < R; ++r) {
        int64_t *ts = c->tstage + r * 8;
        ts[1] = ts[2] = ts[4] = ts[5] = 0;
        ts[6] = off;
        ts[7] = 0;
        if (do_alloc)
            off += c->need_n[r];
    }

    /* Rep buckets of the live ejection columns: a stable counting sort
     * into the completions scratch (dead until the merge reuses it)
     * lets phases 4a/4b walk each replication's own rows instead of
     * filtering the whole column set R times.  Staging slot 7 ends up
     * holding each rep's bucket END; its start is the previous end. */
    for (int64_t i = 0; i < ej_n_old; ++i)
        c->tstage[c->ej_reps[i] * 8 + 7] += 1;
    int64_t acc = 0;
    for (int64_t r = 0; r < R; ++r) {
        const int64_t cnt = c->tstage[r * 8 + 7];
        c->tstage[r * 8 + 7] = acc;
        acc += cnt;
    }
    for (int64_t i = 0; i < ej_n_old; ++i)
        c->completions[c->tstage[c->ej_reps[i] * 8 + 7]++] = i;

    rep_phases(c, cycle, do_alloc);

    /* Serial merge, ascending replication order == serial phase order. */
    int64_t busy_delta = 0, err = 0;
    int64_t ej_n = ej_n_old;
    for (int64_t r = 0; r < R; ++r) {
        const int64_t *ts = c->tstage + r * 8;
        busy_delta += ts[1];
        err |= ts[4];
        const int64_t base = ts[6];
        for (int64_t j = 0; j < ts[5]; ++j) {
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
    int64_t fn = c->tstage[2];
    for (int64_t r = 1; r < R; ++r)
        for (int64_t j = 0; j < c->tstage[r * 8 + 2]; ++j)
            c->fin_nodes[fn++] = c->fin_nodes[r * C + j];
    if (c->cberr)
        err |= ERR_CALLBACK;
    /* route (phases 2-4) ends here; the completion tail is phase 5 */
    const int64_t pt1 = prof_now(c->prof);
    if (c->prof)
        c->prof[2] += pt1 - pt0;

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
        if (c->vcs_held[mf] != 0)
            err |= ERR_INVARIANT; /* completed message still owns channels */
        c->in_flight[r] -= 1;
        c->completed[r] += 1;
        if (c->measured[mf]) {
            c->meas_flight[r] -= 1;
            const double tg = c->t_gen[mf];
            const double t_done = (double)(cycle + 1);
            const double v = t_done - tg;
            c->lat_sum[r] += v;
            c->net_sum[r] += t_done - c->t_inject[mf];
            c->srcw_sum[r] += c->t_inject[mf] - tg;
            c->mcount[r] += 1;
            int64_t b = (int64_t)((tg - c->w_t0[r]) / c->w_width[r]);
            if (b < 0)
                b = 0;
            if (b > c->w_batches[r] - 1)
                b = c->w_batches[r] - 1;
            c->lat_bsum[r * c->Bmax + b] += v;
            c->lat_bcount[r * c->Bmax + b] += 1;
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

    if (c->prof)
        c->prof[3] += prof_now(c->prof) - pt1;

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
    const int64_t N = c->N, GB = c->GB, cap = c->cap;
    const double fcycle = (double)cycle;
    for (int64_t r = 0; r < c->R; ++r) {
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
            c->t_gen[mf] = best;
            c->msg_src[mf] = (int32_t)node;
            c->msg_ejected[mf] = 0;
            const uint8_t measured = best >= fwarm && best < fhorizon;
            c->measured[mf] = measured;
            c->p_dst[mf] = dst;
            c->p_header[mf] = (int32_t)node;
            c->p_dist[mf] = dist;
            c->p_floor[mf] = 0;
            c->p_hops[mf] = 0;
            c->p_first[mf] = -1;
            c->generated[r] += 1;
            if (measured)
                c->meas_generated[r] += 1;
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
    const int64_t N = c->N, cap = c->cap;
    for (int64_t r = 0; r < c->R; ++r) {
        const int64_t rN = r * N;
        for (int64_t node = 0; node < N; ++node) {
            const int64_t rn = rN + node;
            if (!c->act[rn])
                continue;
            while (c->qlen[rn] && c->active_inj[rn] < c->slots) {
                const int32_t s = c->qhead[rn];
                const int64_t mf = r * cap + s;
                const int32_t nxt = c->qnext[r * cap + s];
                c->qhead[rn] = nxt;
                if (nxt < 0)
                    c->qtail[rn] = -1;
                c->qlen[rn] -= 1;
                c->active_inj[rn] += 1;
                c->in_flight[r] += 1;
                if (c->measured[mf])
                    c->meas_flight[r] += 1;
                c->need_slots[r * cap + c->need_n[r]] = s;
                c->need_n[r] += 1;
                *need_total += 1;
            }
            c->act[rn] = 0;
        }
    }
}

int64_t starnet_run(int64_t *P)
{
    Ctx c;
    decode(&c, P);
    int64_t *RS = c.run_state;
    int64_t cycle = RS[0];
    int64_t busy_vcs = RS[1];
    int64_t ej_n = RS[2];
    int64_t need_total = RS[3];
    const int64_t limit = RS[6];
    int64_t reason = 0, aux = 0;
    const int64_t R = c.R, N = c.N;
    /* fixed ejection rows: each pending header may append one */
    const int64_t ej_rows = R * (c.CV + N * c.slots);

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
                    && (cycle >= c.end[r] || c.meas_flight[r] == 0)) {
                    reason = RUN_STOP;
                    goto out;
                }
        }

        /* phase 1 — generation, then activation */
        {
            const int64_t tp = prof_now(c.prof);
            const int g = gen_cycle(&c, cycle, &act_any);
            if (c.prof)
                c.prof[0] += prof_now(c.prof) - tp;
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
            const int64_t tp = prof_now(c.prof);
            act_cycle(&c, &need_total);
            if (c.prof)
                c.prof[1] += prof_now(c.prof) - tp;
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
                if (c.ugate[1] + bound <= c.ugate[0]) {
                    c.ugate[1] += bound;
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
                        c.ugate[0] = c.buf_cap - posmax;
                        c.ugate[1] = bound;
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
                const int64_t p = c.transfers[r] + c.completed[r]
                                  + c.alloc_attempts[r] - c.alloc_failures[r];
                if (p != c.marks[r]) {
                    c.marks[r] = p;
                    c.lastp[r] = cycle;
                } else if (c.in_flight[r] > 0
                           && cycle - c.lastp[r] > c.grace) {
                    reason = RUN_WATCHDOG;
                    aux = r;
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
        if (c.pb_data && cycle % c.pb_interval == 0)
            probe_sample(&c, cycle);

        cycle += 1;
    }

out:
    RS[0] = cycle;
    RS[1] = busy_vcs;
    RS[2] = ej_n;
    RS[3] = need_total;
    RS[4] = reason;
    RS[5] = aux;
    return reason;
}
