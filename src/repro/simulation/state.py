"""Structure-of-arrays simulation state (the data layer of the array backend).

The object engine (:mod:`repro.simulation.engine`) represents the network
as a graph of ``Message``/``VirtualChannel``/``PhysicalChannel`` objects.
:class:`SimState` holds the same information as flat numpy arrays that
the compiled cycle loop (``_ckernel.c``) reads and writes in place, for
many independent replications at once.  Every array carries the
replication axis first; a virtual channel is addressed by its flat id
``channel * V + vc``.

SimState is the one owner of everything the loop sees: each field of
the kernel's parameter block (``STARNET_FIELDS`` in ``_ckernel.c``) is
the SimState attribute of the same name — state arrays, tables, scratch,
scalars and the run state that crosses on every call.  It sets all of
it up; :mod:`repro.simulation.kernels` only drives the loop, fills the
pre-drawn random blocks and reads the results.

Hot-path layout choices (benchmarked on the S4 batch workload):

* ``vc_bd`` packs a VC's *buffered* (low 16 bits) and *delivered* (high
  bits) flit counts into one int32, so the per-grant read-modify-write is
  a single scatter (``bd += 0x1_0001``) and the tail-release test is one
  compare (``bd == M << 16``).  Free VCs keep the sentinel ``M << 16``
  (all delivered, none buffered), which also excludes them from the
  transfer-candidate mask without a separate ownership test.
* ``vc_avail`` counts flits available for a VC to *pull* — its upstream
  VC's buffered count, or the flits still at the source PE for the first
  VC of a chain.  It is maintained incrementally by the kernel (grant,
  acquire, downstream-gain) precisely so the candidate test needs no
  gather through the upstream pointers.
* Every per-message field, including the header-position/escape-floor
  fields that only the allocation phase reads, is a contiguous ``(R,
  cap)`` array the kernel runs the allocation loop on directly.  A
  header's candidate VCs are not stored per message: the kernel derives
  them from (``p_header``, ``p_dst``, ``p_floor``) through the route and
  eligibility-class tables.
"""

from __future__ import annotations

import math

import numpy as np

from repro.routing.base import MessageRouteState, RoutingAlgorithm, SelectionPolicy
from repro.topology.base import Topology
from repro.utils.exceptions import ConfigurationError

__all__ = ["SimState"]

#: Field-width limits of the packed buffered/delivered word.
MAX_MESSAGE_LENGTH = (1 << 15) - 1
MAX_BUFFER_DEPTH = (1 << 15) - 1

#: Largest network the array backend takes: the N x N route table
#: grows quadratically (larger networks run on engine='object').
MAX_NODES = 2048

#: Widest VC count the packed round-robin lookup table supports; wider
#: configurations use the kernel's cyclic-offset scan.
_MAX_LUT_VCS = 15

#: Initial width of the pre-drawn allocation-uniform buffer per replication.
_UNIFORM_BUFFER = 4096

#: Arrival-instant / destination block size per (replication, node).
_GEN_BLOCK = 64

#: int64 words of the kernel's per-replication cycle staging
#: (``STAGE_WORDS`` in ``_ckernel.c``).
_STAGE_WORDS = 6

_POLICY_CODES = {
    SelectionPolicy.ADAPTIVE_FIRST: 0,
    SelectionPolicy.LOWEST_ESCAPE: 1,
    SelectionPolicy.RANDOM: 2,
}

#: The message pool: one ``(R, capacity)`` array per field and the value
#: a fresh slot holds, both at construction and when :meth:`grow` widens it.
_POOL_FIELDS = (
    ("msg_t_gen", np.float64, 0.0),
    ("msg_t_inject", np.float64, np.nan),
    ("msg_measured", np.bool_, False),
    ("msg_src", np.int32, 0),
    ("msg_ejected", np.int32, 0),
    ("msg_vcs_held", np.int32, 0),
    ("p_dst", np.int32, 0),
    ("p_header", np.int32, 0),
    ("p_dist", np.int32, 0),
    ("p_floor", np.int32, 0),
    ("p_hops", np.int32, 0),
    ("p_first_attempt", np.int32, -1),
    ("p_head_vc", np.int32, -1),
    ("need_slots", np.int32, 0),
    ("qnext", np.int32, -1),
    ("ej_pos", np.int64, -1),
)

#: Per-replication int64 counters, zero at the start.
_REP_COUNTERS = (
    "transfers",
    "need_n",
    "alloc_pos",
    "generated",
    "measured_generated",
    "injected",
    "in_flight",
    "measured_in_flight",
    "completed",
    "alloc_attempts",
    "alloc_failures",
    "mcount",
    "last_progress",
)


def build_rr_lut(num_vcs: int) -> np.ndarray:
    """Round-robin winner table: ``lut[rr << V | bits]`` is the first VC
    index at or cyclically after ``rr`` whose candidate bit is set in
    ``bits`` (-1 when ``bits`` is empty)."""
    V = num_vcs
    bits = np.arange(1 << V)
    lut = np.full((V, 1 << V), -1, dtype=np.int8)
    for start in range(V):
        # Nearest offset wins: write farthest first so closer overwrite.
        for step in reversed(range(V)):
            v = (start + step) % V
            lut[start, ((bits >> v) & 1) == 1] = v
    return lut.ravel()


def build_class_table(algorithm: RoutingAlgorithm, cfg, diameter: int) -> np.ndarray:
    """Tabulate ``algorithm.eligible`` over its whole domain.

    One int32 entry ``{a_lo, a_n, e_lo, e_n}`` (contiguous adaptive and
    escape VC-index ranges) per (remaining distance 1..diameter, colour
    of the current node, escape floor 0..num_escape-1), at ``((d - 1) *
    2 + colour) * num_escape + floor``.  States that ``eligible()``
    rejects are stored as -1 rows: the floor invariant makes them
    unreachable, so meeting one is an invariant failure.  Exact because
    ``eligible()`` reads nothing else (its contract).
    """
    num_escape = cfg.num_escape
    table = np.full((diameter, 2, num_escape, 4), -1, dtype=np.int32)
    state = MessageRouteState()
    state.hops_taken = state.negative_hops = 0
    for d in range(1, diameter + 1):
        for colour in (0, 1):
            for floor in range(num_escape):
                state.escape_floor = floor
                try:
                    es = algorithm.eligible(cfg, d, colour == 1, state)
                except ConfigurationError:
                    continue
                for r in (es.adaptive, es.escape):
                    if len(r) > 1 and r.step != 1:
                        raise ConfigurationError(
                            f"{algorithm.name}: the array backend "
                            f"needs contiguous eligible ranges, got {r} "
                            "(use engine='object')"
                        )
                table[d - 1, colour, floor] = (
                    es.adaptive.start,
                    len(es.adaptive),
                    es.escape.start,
                    len(es.escape),
                )
    return table.reshape(-1, 4)


class SimState:
    """All state of a batch of wormhole simulations, as kernel fields.

    ``configs`` holds one config per replication; their structural
    fields must match (checked by the caller).  Randomness is left to
    the driver: the arrival/destination blocks (``gen_block`` entries per
    node) and the allocation-uniform buffer are allocated here and
    filled there, and ``cb`` holds the address of the driver's service
    callback.
    """

    def __init__(
        self,
        topology: Topology,
        algorithm: RoutingAlgorithm,
        vc_config,
        configs: list,
        *,
        profile: bool = False,
        probe_interval: int | None = None,
    ):
        if not configs:
            raise ConfigurationError("replications must be >= 1, got 0")
        base = configs[0]
        if base.message_length > MAX_MESSAGE_LENGTH:
            raise ConfigurationError(
                f"array backend supports message_length <= {MAX_MESSAGE_LENGTH}, "
                f"got {base.message_length} (use engine='object')"
            )
        if base.buffer_depth > MAX_BUFFER_DEPTH:
            raise ConfigurationError(
                f"array backend supports buffer_depth <= {MAX_BUFFER_DEPTH} "
                "(use engine='object')"
            )
        diameter = topology.diameter()
        if topology.num_nodes > MAX_NODES or max(topology.degree, diameter) > 127:
            raise ConfigurationError(
                f"array backend supports at most {MAX_NODES} nodes with "
                f"degree and diameter <= 127 (an int8 route table), got "
                f"{topology.name} (use engine='object')"
            )
        # -- scalars -----------------------------------------------------
        self.replications = R = len(configs)
        self.num_nodes = N = topology.num_nodes
        self.num_channels = C = topology.num_channels
        self.num_vcs = V = base.total_vcs
        self.degree = topology.degree
        self.message_length = base.message_length
        self.buffer_depth = base.buffer_depth
        self.ejection_rate = -1 if base.ejection_rate is None else int(base.ejection_rate)
        self.injection_slots = base.effective_injection_slots()
        self.policy = _POLICY_CODES[algorithm.policy]
        self.num_adaptive = vc_config.num_adaptive
        self.num_escape = vc_config.num_escape
        self.sample_interval = base.sample_interval
        grace = base.watchdog_grace
        if grace is None:
            # The object engine's module default, resolved late so a
            # monkeypatched _WATCHDOG_GRACE governs both backends.
            from repro.simulation import engine as engine_mod

            grace = engine_mod._WATCHDOG_GRACE
        self.grace = grace
        #: Address of the driver's service callback (set by the driver).
        self.cb = 0

        # -- run state: crosses into the kernel and back on every call --
        self.cycle = 0
        self.busy_vcs = 0
        #: Live ejection columns (the prefix of the ej_* columns in use).
        self.ej_n = 0
        #: Pending headers over all replications.
        self.need_total = 0
        #: Amortized uniform-shortage gate (see
        #: ArraySimulator._ensure_uniforms): headroom is a lower bound on
        #: every row's remaining variates at the last exact check, spend
        #: an upper bound on any row's consumption since.
        self.ugate_headroom = _UNIFORM_BUFFER
        self.ugate_spend = 0
        #: The replication the watchdog stopped on.
        self.stalled_rep = -1

        # -- virtual channels and channels ------------------------------
        CV = C * V
        free_word = np.int32(base.message_length << 16)  # delivered == M
        self.vc_bd = np.full((R, CV), free_word, dtype=np.int32)
        self.vc_avail = np.zeros((R, CV), dtype=np.int32)
        self.vc_owner = np.full((R, CV), -1, dtype=np.int32)
        self.vc_upstream = np.full((R, CV), -1, dtype=np.int32)
        self.vc_downstream = np.full((R, CV), -1, dtype=np.int32)
        self.ch_rr = np.zeros((R, C), dtype=np.int32)
        #: Owned-VC count per channel; lets the kernel skip idle channels.
        self.ch_busy = np.zeros((R, C), dtype=np.uint8)
        self.active_injections = np.zeros((R, N), dtype=np.int32)

        # -- message pool ------------------------------------------------
        self.capacity = cap = max(64, 2 * N * self.injection_slots)
        for name, dtype, fill in _POOL_FIELDS:
            setattr(self, name, np.full((R, cap), fill, dtype=dtype))
        #: Per-replication free-slot stacks (stack top hands out low ids
        #: first), popped at generation and pushed at completion.
        self.free_stack = np.empty((R, cap), dtype=np.int32)
        self.free_stack[:] = np.arange(cap - 1, -1, -1, dtype=np.int32)[None, :]
        self.free_n = np.full(R, cap, dtype=np.int64)

        # -- ejection columns and scratch -------------------------------
        # Ejecting messages plus pending headers are at most
        # R * (C*V + N*slots) (see _ckernel.c), so these never grow.
        rows = R * (CV + N * self.injection_slots)
        self.ej_reps = np.zeros(rows, dtype=np.int64)
        self.ej_slots = np.zeros(rows, dtype=np.int64)
        self.ej_flats = np.zeros(rows, dtype=np.int64)
        self.ej_mflats = np.zeros(rows, dtype=np.int64)
        self.ej_k = np.empty(rows, dtype=np.int32)
        self.completions = np.empty(rows, dtype=np.int64)
        self.winners = np.empty(R * C, dtype=np.int64)
        self.fin_nodes = np.empty(R * C, dtype=np.int64)
        self.alloc_scr = np.empty(2 * self.degree * V, dtype=np.int32)
        self.stage = np.empty(R * _STAGE_WORDS, dtype=np.int64)

        # -- routing tables and topology --------------------------------
        #: Route table, one packed int8 row {dist, nports, ports...} per
        #: (cur, dst) pair; dist = -1 until the driver resolves the row
        #: (at generation for (src, dst), at a ready event for (cur, dst)).
        self.route_w = 2 + self.degree
        self.route = np.full(N * N * self.route_w, -1, dtype=np.int8)
        self.cls = build_class_table(algorithm, vc_config, diameter)
        self.cls_d = diameter
        #: Entry ``channel`` = node reached through it.
        self.neighbors = np.ascontiguousarray(
            topology.neighbor_table.ravel(), dtype=np.int32
        )
        self.color = np.array([topology.color(u) for u in range(N)], dtype=np.uint8)
        # Round-robin winners come from a packed lookup table up to
        # _MAX_LUT_VCS; wider VC counts use the kernel's cyclic scan.
        self.lut = build_rr_lut(V) if V <= _MAX_LUT_VCS else None
        self.buf_cap = _UNIFORM_BUFFER
        self.alloc_buf = np.empty((R, self.buf_cap), dtype=np.float64)

        # -- generation: pre-drawn blocks and per-node source queues ----
        # One outstanding arrival per node makes the event order
        # canonical — the smallest (instant, node) pair.
        self.gen_block = gen_block = _GEN_BLOCK
        self.gen_node_t = np.full((R, N), math.inf, dtype=np.float64)
        #: Per-replication minima of ``gen_node_t``, so the kernel's
        #: generation fast path compares one float per replication.
        self.gen_next = np.full(R, math.inf, dtype=np.float64)
        self.arr_buf = np.zeros((R, N, gen_block), dtype=np.float64)
        self.arr_pos = np.zeros((R, N), dtype=np.int32)
        self.arr_len = np.zeros((R, N), dtype=np.int32)
        self.dst_buf = np.zeros((R, N, gen_block), dtype=np.int32)
        self.dst_pos = np.zeros((R, N), dtype=np.int32)
        self.dst_len = np.zeros((R, N), dtype=np.int32)
        self.qhead = np.full((R, N), -1, dtype=np.int32)
        self.qtail = np.full((R, N), -1, dtype=np.int32)
        self.qlen = np.zeros((R, N), dtype=np.int32)
        #: Nodes with messages to (re)activate.
        self.act = np.zeros((R, N), dtype=np.uint8)

        # -- per-replication counters, windows and accumulators ---------
        for name in _REP_COUNTERS:
            setattr(self, name, np.zeros(R, dtype=np.int64))
        self.progress_marks = np.full(R, -1, dtype=np.int64)
        self.hb_max = diameter
        self.hb_req = np.zeros((R, diameter + 1), dtype=np.int64)
        self.hb_blk = np.zeros((R, diameter + 1), dtype=np.int64)
        self.hb_wait = np.zeros((R, diameter + 1), dtype=np.int64)
        # Streaming latency sums (the array twin of LatencyAccumulator):
        # one scalar sum per metric plus per-batch sums for the CI, all
        # accumulated in message-completion order.
        self.lat_sum = np.zeros(R, dtype=np.float64)
        self.net_sum = np.zeros(R, dtype=np.float64)
        self.srcw_sum = np.zeros(R, dtype=np.float64)
        self.max_batches = max(c.batches for c in configs)
        self.lat_bsum = np.zeros((R, self.max_batches), dtype=np.float64)
        self.lat_bcount = np.zeros((R, self.max_batches), dtype=np.int64)
        #: Channel-load sample accumulators {samples, sum_v, sum_v2,
        #: busy channels} per replication — the integer moments behind
        #: ChannelLoadSampler.
        self.load_acc = np.zeros((R, 4), dtype=np.int64)
        # Per-replication measurement windows (ragged horizons allowed).
        self.w_batches = np.array([c.batches for c in configs], dtype=np.int64)
        self.w_t0 = np.array([float(c.warmup_cycles) for c in configs])
        self.w_width = np.array(
            [(c.horizon - c.warmup_cycles) / c.batches for c in configs]
        )
        self.warm = np.array([c.warmup_cycles for c in configs], dtype=np.int64)
        self.horizon = np.array([c.horizon for c in configs], dtype=np.int64)
        self.end = np.array(
            [c.horizon + c.drain_cycles for c in configs], dtype=np.int64
        )
        #: 1 while the replication's result is not yet frozen.
        self.active = np.ones(R, dtype=np.uint8)

        # -- observation: NULL to the kernel while off -------------------
        #: Phase-profiling accumulators (nanoseconds) {generation,
        #: activation, route, complete}, or None when profiling is off;
        #: see docs/observability.md.
        self.phase_ns = np.zeros(4, dtype=np.int64) if profile else None
        #: Time-series probe stride (0: off) and ring buffers,
        #: unallocated unless probing — the same zero-overhead contract
        #: as ``phase_ns``.  See docs/observability.md.
        self.probe_interval = probe_interval or 0
        self.probe_capacity = 0
        self.probe_row = 3 + V + 1
        self.probe_data: np.ndarray | None = None
        self.probe_cycles: np.ndarray | None = None
        self.probe_state: np.ndarray | None = None
        if probe_interval:
            # The batch never cycles past the longest drain horizon, so
            # a ring sized off it can't overflow (the kernel still
            # guards on capacity); warmup cycles are probed too — the
            # warmup-adequacy detector needs the transient.
            self.alloc_probes(int(self.end.max()) // probe_interval + 2)

    def alloc_probes(self, capacity: int) -> None:
        """Allocate the probe ring buffers for ``capacity`` samples.

        One sample holds, per replication, ``[in_flight, completed,
        backlog, occupancy histogram over busy-VC counts 0..V]`` — all
        int64, written by the kernel.  ``probe_state[0]`` is the sample
        count, kept across kernel calls so every call appends to the
        same ring.
        """
        if capacity < 1:
            raise ConfigurationError(f"probe capacity must be >= 1, got {capacity}")
        self.probe_capacity = capacity
        self.probe_data = np.zeros(
            (capacity, self.replications, self.probe_row), dtype=np.int64
        )
        self.probe_cycles = np.zeros(capacity, dtype=np.int64)
        self.probe_state = np.zeros(1, dtype=np.int64)

    # ------------------------------------------------------------------
    # Message pool
    # ------------------------------------------------------------------

    def grow(self) -> None:
        """Double the message-pool capacity (all replications at once).

        Every ``(R, capacity)`` array keeps its rows and gains fresh
        slots; the ejection columns' message-array indices are re-based
        on the new row width.
        """
        old = self.capacity
        new = old * 2
        R = self.replications
        for name, dtype, fill in _POOL_FIELDS:
            wide = np.full((R, new), fill, dtype=dtype)
            wide[:, :old] = getattr(self, name)
            setattr(self, name, wide)
        # New (higher) slot ids go on top of each stack in descending
        # order, so the next pops hand out the lowest new ids first —
        # the same order the old per-rep list ``extend`` produced.
        new_ids = np.arange(new - 1, old - 1, -1, dtype=np.int32)
        wide_stack = np.empty((R, new), dtype=np.int32)
        wide_stack[:, :old] = self.free_stack
        for rep in range(R):
            n = int(self.free_n[rep])
            wide_stack[rep, n : n + new_ids.size] = new_ids
        self.free_stack = wide_stack
        self.free_n += new_ids.size
        n = self.ej_n
        self.ej_mflats[:n] = self.ej_reps[:n] * new + self.ej_slots[:n]
        self.capacity = new
