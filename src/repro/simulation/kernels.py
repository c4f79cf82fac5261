"""Vectorized cycle kernels: the array backend of the wormhole simulator.

:class:`ArraySimulator` advances a *batch* of R independent replications
through the same four-phase cycle as the object engine
(:mod:`repro.simulation.engine`):

1. **generation/activation** — per-replication arrival heaps feed
   per-node source queues; up to ``injection_slots`` messages per node
   are concurrently active;
2. **virtual-channel allocation** — headers consult the routing
   algorithm (profitable ports × eligible VC classes) and claim one free
   VC; contention is resolved in a random order each cycle, per
   replication;
3. **switch traversal** — at most one flit moves per physical channel,
   chosen round-robin among its busy virtual channels with a flit
   available and downstream buffer space;
4. **ejection** — flits of routing-complete messages drain into the PE.

Phases 3 and 4 are evaluated against pre-cycle state and applied
atomically, exactly like the object engine's two-phase update.

The cycle body exists twice, bit-identically (asserted by the trace-diff
tests): a compiled C megakernel (``_ckernel.c``) covering allocation,
traversal and ejection in one call per cycle, and a Python/numpy
fallback.  Design choices shared by both paths:

* **Pre-drawn randomness.**  Arrival instants and destinations are drawn
  in per-node blocks from the workload objects
  (:meth:`ArrivalProcess.draw_block` /
  :meth:`SpatialPattern.destinations_block`), which reproduce the
  one-at-a-time stream bit for bit; allocation uniforms are pre-drawn
  into a per-replication buffer the kernels consume in a deterministic
  order (shuffle first, then at most one draw per header).  The C path
  therefore never touches a bit generator.
* **Routing as data.**  A header's candidate VCs are the product of two
  tables: a packed route table ``route[cur * N + dst] = {dist, nports,
  ports...}`` (int8, ``dist = -1`` until first asked for, then filled
  by :meth:`ArraySimulator._fill_route`) and an eligibility-class table
  built eagerly from :meth:`RoutingAlgorithm.eligible` over every
  (remaining distance, colour, escape floor) — the paper's equations
  (9)-(11).  Both kernels enumerate candidates port-major in
  ``ports()`` order, then ascending VC index, adaptive before escape.
* **Arbitration without a V cap.**  Round-robin winners come from a
  packed lookup table up to V = 15 and from an equivalent
  smallest-cyclic-offset scan (C) / argmin (numpy) beyond.
* **Per-replication configs.**  Replications may differ in generation
  rate, seed and measurement windows (ragged horizons); structural
  parameters (topology, V, M, buffers, workload shape) must match.
  Each replication's headline numbers are snapshotted at its own
  logical stop cycle, so batch companions never leak into its result.

Semantics match the object engine with two documented exceptions: the
round-robin arbiter cycles over *VC indices* (the classic Dally router)
rather than over VCs in acquisition order, and destination draws consume
a dedicated ``dest`` stream instead of interleaving with the arrival
stream.  Both backends remain statistically equivalent (see
``docs/simulation.md`` for the equivalence contract).  Batching is
invisible: a replication's result depends only on its own config and
seed, never on its batch companions.

**The C-resident cycle loop** sits on top, bit-identical by
construction: when the whole cycle can run in C (compiled kernel
present, stock floor arithmetic, block-safe workload),
:meth:`ArraySimulator.run` hands the loop to ``starnet_run``, which also
advances generation, activation, channel-load sampling and the
watchdog.  Work Python must do inside a cycle — block refills, route-row
fills, uniform-buffer refills — is a callback
(:meth:`ArraySimulator._cb_dispatch`); the loop returns only on stops,
message-pool or ejection-row growth, the watchdog and errors, and a
return costs O(1) Python work (the generation/activation mirrors are
rebuilt only when Python next runs a cycle itself).  The kernel is
single-threaded and releases the GIL, so parallelism comes from running
whole simulators on separate campaign lanes (see docs/simulation.md,
"Parallelism model").
"""

from __future__ import annotations

import ctypes
import dataclasses
import heapq
import math
import time
import weakref

import numpy as np

from repro.routing.base import MessageRouteState, RoutingAlgorithm, SelectionPolicy
from repro.simulation.ckernel import load_bundle
from repro.simulation.config import SimulationConfig
from repro.simulation.metrics import HopBlockingStats, SimulationResult
from repro.simulation.state import MAX_BUFFER_DEPTH, SimState
from repro.topology.base import Topology
from repro.utils.exceptions import ConfigurationError, SimulationError
from repro.utils.rng import RngStreams

__all__ = ["ArraySimulator"]

#: Widest VC count the packed round-robin lookup table supports; wider
#: configurations use the cyclic-offset scan in both C and numpy.
_MAX_LUT_VCS = 15

#: Per-cycle patched slots of the C kernel's parameter block (layout in
#: _ckernel.c, kept in lockstep with _refresh_c_args).
_EJ_N_SLOT = 25
_DO_ALLOC_SLOT = 33
_CYCLE_SLOT = 34

#: Slots a service callback may patch in the live parameter block when
#: it regrows the uniform buffer (kind 4; the kernel re-reads them).
_UNIFORM_SLOT = 52

#: On-stack free-VC scratch width of the C allocation loop; wider
#: candidate sets (deg * V) keep allocation in Python.
_ALLOC_SCRATCH = 512

#: Arrival-instant / destination block size per (replication, node).
_GEN_BLOCK = 64

#: Largest network the array backend takes: the N x N route table
#: grows quadratically (larger networks run on engine='object').
_MAX_NODES = 2048

#: starnet_run return reasons, one per return (mirrored in _ckernel.c).
_RUN_STOP = 1
_RUN_PUNT = 2
_RUN_WATCHDOG = 4
_RUN_CBERR = 8
_RUN_ERR = 16

#: Error bits of the per-cycle kernel's ``out_counts[4]``.
_ERR_CALLBACK = 2

#: What a kernel invariant failure (either C driver) can mean.
_INVARIANT_CAUSES = (
    "non-minimal route, unresolved route row, a routing state outside "
    "the eligibility-class table, or a completed message still owning "
    "channels"
)

#: Service callback signature of the C kernel: ``cb(kind, a, b)`` with
#: kind 0 = arrival-block refill (rep, node), 1 = destination-block
#: refill (rep, node), 2 = route row (cur, dst) -> distance, 4 =
#: uniform-buffer shortage (need_total, -).
_CB_TYPE = ctypes.CFUNCTYPE(
    ctypes.c_int64, ctypes.c_int64, ctypes.c_int64, ctypes.c_int64
)


def _weak_dispatch(method):
    """Wrap a bound callback so the ctypes thunk holds its owner weakly."""
    ref = weakref.WeakMethod(method)

    def dispatch(kind: int, a: int, b: int) -> int:
        bound = ref()
        return -1 if bound is None else bound(kind, a, b)

    return dispatch


#: Phase-profiling slot names of ``SimState.phase_ns`` (slots 0-3; slot
#: 5 holds the total run() wall time).  Mirrored in _ckernel.c: the C
#: paths and the Python per-cycle/numpy drivers write the same slots.
_PROF_PHASES = ("generation", "activation", "route", "complete")
_PROF_TOTAL_SLOT = 5

#: Structural config fields every replication of one batch must share.
_SHARED_FIELDS = (
    "message_length",
    "total_vcs",
    "buffer_depth",
    "ejection_rate",
    "traffic",
    "workload",
    "sample_interval",
    "watchdog_grace",
)


def _build_rr_lut(num_vcs: int) -> np.ndarray:
    """Round-robin winner table: ``lut[rr << V | bits]`` is the first VC
    index at or cyclically after ``rr`` whose candidate bit is set in
    ``bits`` (-1 when ``bits`` is empty).  The rr-major layout lets the
    kernel index with ``rr * 2**V + bits``, whose first operand is int32
    — the uint8 ``bits`` vector then promotes instead of overflowing."""
    V = num_vcs
    bits = np.arange(1 << V)
    lut = np.full((V, 1 << V), -1, dtype=np.int8)
    for start in range(V):
        # Nearest offset wins: write farthest first so closer overwrite.
        for step in reversed(range(V)):
            v = (start + step) % V
            lut[start, ((bits >> v) & 1) == 1] = v
    return lut.ravel()


class ArraySimulator:
    """A batch of R simulation replications advanced by vectorized passes.

    Construct with either ``config`` (+ optional ``seeds``, the classic
    homogeneous batch: one config, one seed per replication) or
    ``configs`` (heterogeneous work units: per-replication rate, seed and
    cycle windows — structural parameters must match).

    ``profile=True`` turns on per-phase cycle timing: the kernel (and
    the Python drivers on the fallback paths) accumulate monotonic-clock
    nanoseconds per phase into ``state.phase_ns``, surfaced through
    :meth:`phase_profile` and attached to the first replication's
    result.  It is a pure observation knob — results are bit-identical
    either way and campaign content-hash keys ignore it.  Off (the
    default) the kernel passes a NULL profiling pointer, so the cost is
    one predictable branch per phase — the guarded benchmarks run with
    it off.

    ``probe_interval=k`` turns on cycle-resolution time-series probes:
    every k cycles both kernels write per-replication in-flight,
    completed and backlog counts plus a busy-VC occupancy histogram
    into preallocated ring buffers (``state.probe_*``), surfaced as
    ``SimulationResult.timeseries`` on the first replication.  Same
    observation-only contract as ``profile``: results are bit-identical
    probed or not (asserted in tests), the kernel sees a NULL data
    pointer when probing is off, and campaign keys ignore the knob.
    """

    def __init__(
        self,
        topology: Topology,
        algorithm: RoutingAlgorithm,
        config: SimulationConfig | None = None,
        seeds: tuple[int, ...] | None = None,
        configs: list[SimulationConfig] | None = None,
        profile: bool = False,
        probe_interval: int | None = None,
    ):
        if configs is not None:
            if config is not None or seeds is not None:
                raise ConfigurationError(
                    "pass either config (+ seeds) or configs, not both"
                )
            configs = list(configs)
            if not configs:
                raise ConfigurationError("ArraySimulator needs at least one config")
        else:
            if config is None:
                raise ConfigurationError("ArraySimulator needs a config")
            if seeds is None:
                seeds = (config.seed,)
            if not seeds:
                raise ConfigurationError("ArraySimulator needs at least one seed")
            configs = [
                config if int(s) == config.seed else config.with_seed(int(s))
                for s in seeds
            ]
        base = configs[0]
        for c in configs[1:]:
            for f in _SHARED_FIELDS:
                if getattr(c, f) != getattr(base, f):
                    raise ConfigurationError(
                        f"batched configs must share {f!r}: "
                        f"{getattr(c, f)!r} != {getattr(base, f)!r}"
                    )
            if c.effective_injection_slots() != base.effective_injection_slots():
                raise ConfigurationError(
                    "batched configs must share effective injection slots"
                )
        self.topology = topology
        self.algorithm = algorithm
        self.configs = configs
        self.config = base
        self.seeds = tuple(c.seed for c in configs)
        self.vc_config = algorithm.make_vc_config(base.total_vcs, topology)
        algorithm.validate(self.vc_config, topology)
        if base.buffer_depth > MAX_BUFFER_DEPTH:
            raise ConfigurationError(
                f"array backend supports buffer_depth <= {MAX_BUFFER_DEPTH} "
                "(use engine='object')"
            )
        if topology.num_nodes > _MAX_NODES or max(
            topology.degree, topology.diameter()
        ) > 127:
            raise ConfigurationError(
                f"array backend supports at most {_MAX_NODES} nodes with "
                f"degree and diameter <= 127 (an int8 route table), got "
                f"{topology.name} (use engine='object')"
            )

        R = len(configs)
        N = topology.num_nodes
        V = base.total_vcs

        self._M = base.message_length
        self._ms = np.int32(self._M << 16)  # packed-word release sentinel
        self._depth = base.buffer_depth
        self._ej_rate = base.ejection_rate
        self._slots = base.effective_injection_slots()
        self._V = V
        self._deg = topology.degree
        self._C = topology.num_channels
        self._CV = self._C * V
        self._R = R
        self.state = SimState(
            topology, V, self._M, R, initial_capacity=max(64, 2 * N * self._slots)
        )
        self.profile = bool(profile)
        #: Phase-timing accumulators, or None when profiling is off —
        #: the hot paths test this once per phase and skip the clock.
        self._prof = self.state.phase_ns if self.profile else None
        if probe_interval is not None and probe_interval < 1:
            raise ConfigurationError(
                f"probe_interval must be >= 1, got {probe_interval}"
            )
        #: Time-series probe stride in cycles, or None when probing is
        #: off (the ring buffers are allocated after the measurement
        #: windows are known, below).
        self._probe_int = None if probe_interval is None else int(probe_interval)
        self._color_py = [topology.color(u) for u in range(N)]
        self._color_np = np.array(self._color_py, dtype=np.uint8)
        #: Flat neighbor list: entry ``channel`` = node reached through it.
        self._neighbors_np = np.ascontiguousarray(
            topology.neighbor_table.ravel(), dtype=np.int32
        )
        self._neighbors_py = [int(x) for x in self._neighbors_np]
        #: Route table, one packed int8 row {dist, nports, ports...} per
        #: (cur, dst) pair; dist = -1 until _fill_route resolves the row
        #: (at generation for (src, dst), at a ready event for (cur, dst)).
        self._route_state = MessageRouteState()
        self._route_w = 2 + self._deg
        self._route = np.full(N * N * self._route_w, -1, dtype=np.int8)
        #: The numpy path's Python copy of filled rows, key cur*N + dst:
        #: (dist, first flat VC of each port in ports() order).
        self._vc0_rows: dict[int, tuple[int, tuple[int, ...]]] = {}
        self._build_class_table()
        # Round-robin arbitration state: up to _MAX_LUT_VCS the winner
        # comes from a packed lookup table; wider VC counts use the
        # cyclic-offset scan/argmin in both kernels.
        if V <= _MAX_LUT_VCS:
            self._lut = _build_rr_lut(V)
            self._pow2 = (1 << np.arange(V)).astype(np.uint8 if V <= 8 else np.int32)
        else:
            self._lut = None
            self._pow2 = None
        # advance_floor is pure arithmetic for every stock algorithm; only
        # call through the method when a subclass actually overrides it.
        self._plain_floor = (
            type(algorithm).advance_floor is RoutingAlgorithm.advance_floor
        )
        self._policy_code = {
            SelectionPolicy.ADAPTIVE_FIRST: 0,
            SelectionPolicy.LOWEST_ESCAPE: 1,
            SelectionPolicy.RANDOM: 2,
        }[algorithm.policy]
        #: The C kernel may run the allocation loop only when the floor
        #: advance is the stock arithmetic and its on-stack scratch fits.
        self._c_alloc_ok = self._plain_floor and self._deg * V <= _ALLOC_SCRATCH

        # -- per-replication random streams ------------------------------
        # Same (seed, name) keys as a single run with that seed, so each
        # replication's draws are a pure function of its own config.
        self.workload = base.workload_spec()
        self.spatial = self.workload.build_spatial(topology=topology)
        self._rngs = [RngStreams(c.seed) for c in configs]
        self._alloc_gen = [streams.allocator() for streams in self._rngs]
        self._buf_cap = 4096
        self._alloc_buf = np.empty((R, self._buf_cap), dtype=np.float64)
        for rep in range(R):
            self._alloc_buf[rep] = self._alloc_gen[rep].random(self._buf_cap)
        self._alloc_pos = np.zeros(R, dtype=np.int64)
        # Amortized shortage gate for _ensure_uniforms: _u_headroom is a
        # lower bound on every row's remaining variates at the last exact
        # check, _u_spend an upper bound on any row's consumption since.
        self._u_headroom = self._buf_cap
        self._u_spend = 0
        #: Stateful spatial patterns (trace replay) opt out of block
        #: buffering: their draw order across nodes is semantic.
        self._dest_blocks = getattr(self.spatial, "block_safe", True)
        self._dest_rng = [
            [streams.dest(u) for u in range(N)] for streams in self._rngs
        ]
        self._sources = [
            [
                self.workload.build_temporal(
                    configs[rep].generation_rate, self._rngs[rep].traffic(u)
                )
                for u in range(N)
            ]
            for rep in range(R)
        ]
        # Generation state lives in flat arrays shared with the resident
        # C loop: pre-drawn arrival/destination blocks with cursors, the
        # next-arrival instant per node, and the linked-list source
        # queues below.  One outstanding arrival per node makes the
        # event order canonical — the smallest (instant, node) pair —
        # so an argmin over the node row replaces the old heap exactly.
        self._arr_buf = np.zeros((R, N, _GEN_BLOCK), dtype=np.float64)
        self._arr_pos = np.zeros((R, N), dtype=np.int32)
        self._arr_len = np.zeros((R, N), dtype=np.int32)
        self._dst_buf = np.zeros((R, N, _GEN_BLOCK), dtype=np.int32)
        self._dst_pos = np.zeros((R, N), dtype=np.int32)
        self._dst_len = np.zeros((R, N), dtype=np.int32)
        self._gen_node_t = np.full((R, N), math.inf, dtype=np.float64)
        for rep in range(R):
            for node, src in enumerate(self._sources[rep]):
                if src.rate == 0:
                    continue
                buf = src.draw_block(_GEN_BLOCK)
                self._arr_buf[rep, node, : len(buf)] = buf
                self._arr_len[rep, node] = len(buf)
                # Seed with the first instant *unconsumed* (cursor 0):
                # the engines seed their heaps with peek(), so the
                # first event re-pushes the same instant — that quirk
                # is part of the frozen per-seed generation contract.
                self._gen_node_t[rep, node] = buf[0]
        #: Per-replication minima of ``_gen_node_t``, so the generation
        #: fast path compares one float per replication.
        self._gen_next = self._gen_node_t.min(axis=1)
        self._next_arrival = float(self._gen_next.min()) if R else math.inf
        #: Python mirrors of the two arrays above: the stepwise
        #: generation path peeks a per-rep (t, node) heap and writes
        #: through to the arrays (which stay authoritative — the C loop
        #: reads and updates them).
        self._gen_next_list = self._gen_next.tolist()
        self._rebuild_gen_heaps()
        #: Nodes with messages to (re)activate, as a bitmap plus a dirty
        #: flag — the array twin of the old ``_activatable`` set.
        self._act = np.zeros((R, N), dtype=np.uint8)
        #: Python mirror of the bitmap's set coords — the stepwise path
        #: iterates the set (cheap), the C loop walks the bitmap.
        self._act_set: set[tuple[int, int]] = set()
        self._act_any = False
        #: True once the resident loop has moved the arrays under the
        #: mirrors above; _sync_mirrors rebuilds them before Python next
        #: runs a cycle, so a return from C costs no O(R*N) work.
        self._mirrors_dirty = False
        #: Optional generation-event tap for the trace-diff harness:
        #: called with (rep, node, t, dst) per generated message.
        self._gen_hook = None
        #: Test seam: when set to a callable ``(rep, slot) -> flat | None``
        #: it replaces the selection policy (no uniform draws) and forces
        #: allocation onto the Python path.  The watchdog tests wedge it.
        self._choose_vc = None

        # -- pending headers / ejection columns --------------------------
        cap = self.state.capacity
        #: Per-node source queues as linked lists over message slots
        #: (resized with the pool): qnext[rep, s] chains slot s to the
        #: next queued slot of the same node, -1 terminates.
        self._qnext = np.full((R, cap), -1, dtype=np.int32)
        self._qhead = np.full((R, N), -1, dtype=np.int32)
        self._qtail = np.full((R, N), -1, dtype=np.int32)
        self._qlen = np.zeros((R, N), dtype=np.int32)
        self._need_slots = np.zeros((R, cap), dtype=np.int32)
        self._need_n = np.zeros(R, dtype=np.int64)
        self._need_total = 0
        self._ej_cap_rows = 64
        self._ej_reps = np.zeros(self._ej_cap_rows, dtype=np.int64)
        self._ej_slots = np.zeros(self._ej_cap_rows, dtype=np.int64)
        self._ej_flats = np.zeros(self._ej_cap_rows, dtype=np.int64)
        self._ej_mflats = np.zeros(self._ej_cap_rows, dtype=np.int64)
        self._ej_pos = np.full((R, cap), -1, dtype=np.int64)
        self._ejecting_count = 0
        self._msg_cap = cap
        self._busy_vcs = 0
        self.cycle = 0
        self._sample_int = self.config.sample_interval
        self._Nn = N
        # Raveled views of the per-event hot arrays (flat index
        # rep*cap + slot or rep*N + node): scalar access through a 1-D
        # view is markedly cheaper than tuple indexing, and every write
        # lands in the authoritative 2-D array underneath.
        self._f_qhead = self._qhead.ravel()
        self._f_qtail = self._qtail.ravel()
        self._f_qlen = self._qlen.ravel()
        self._f_act = self._act.ravel()
        self._f_ai = self.state.active_injections.ravel()
        self._f_arr_pos = self._arr_pos.ravel()
        self._f_arr_len = self._arr_len.ravel()
        self._f_arr_buf = self._arr_buf.ravel()
        self._f_dst_pos = self._dst_pos.ravel()
        self._f_dst_len = self._dst_len.ravel()
        self._f_dst_buf = self._dst_buf.ravel()
        self._rebuild_flat_views()

        # Scratch buffers for the numpy transfer kernel's dense passes.
        RC = R * self._C
        self._b_cand = np.empty((R, self._CV), dtype=bool)
        self._b_tmpb = np.empty((R, self._CV), dtype=bool)
        self._b_tmpi = np.empty((R, self._CV), dtype=np.int32)
        if self._lut is not None:
            self._b_bits = np.empty(RC, dtype=self._pow2.dtype)
            self._b_idx = np.empty(RC, dtype=np.int64)
            self._b_w = np.empty(RC, dtype=np.int8)
        else:
            self._voffs = np.arange(V, dtype=np.int32)
            self._b_key = np.empty((RC, V), dtype=np.int32)
            self._b_w = np.empty(RC, dtype=np.intp)
            self._rc_arange = np.arange(RC)
        self._b_ok = np.empty(RC, dtype=bool)

        # Optional compiled megakernel (bit-identical to the numpy path,
        # asserted in the test-suite).  Wide V uses the C scan, so the
        # kernel is loaded regardless of the LUT.
        self._ck_bundle = load_bundle()
        self._ck = None if self._ck_bundle is None else self._ck_bundle.cycle
        self._c_out = np.zeros(8, dtype=np.int64)
        self._c_args: np.ndarray | None = None
        self._c_params: np.ndarray | None = None
        self._c_msg_cap = -1
        #: Scalar in/out block of the resident loop: {cycle, busy_vcs,
        #: ejecting_count, need_total, reason, aux rep, spare, spare}.
        self._c_rs = np.zeros(8, dtype=np.int64)
        #: Uniform-gate mirror of (_u_headroom, _u_spend) for the C loop.
        self._c_ugate = np.zeros(2, dtype=np.int64)
        #: Per-replication staging block of the C kernel's merge.
        self._c_tstage = np.zeros(R * 8, dtype=np.int64)
        #: ctypes callback handed to both C drivers (see _cb_dispatch);
        #: exceptions are stashed and re-raised after the C call
        #: returns.  It reaches the simulator through a weak method, so
        #: the callback never keeps its owner alive.
        self._cb_exc: BaseException | None = None
        self._c_cb = _CB_TYPE(_weak_dispatch(self._cb_dispatch))
        self._c_cb_ptr = ctypes.c_void_p.from_buffer(self._c_cb).value or 0
        #: Test seam: True forces the per-cycle driver (same bits).
        self._no_resident = False
        #: Driver event counters surfaced by phase_profile(): returns
        #: from starnet_run, cycles it punted to step(), and service
        #: callbacks from either C driver.
        self._n_returns = 0
        self._n_punts = 0
        self._n_callbacks = 0

        self._last_progress = np.zeros(R, dtype=np.int64)
        self._progress_marks = np.full(R, -1, dtype=np.int64)
        # Message/latency bookkeeping lives in flat numpy arrays shared
        # with the compiled megakernel, which handles completions (phase
        # 5) without a Python round-trip; the numpy fallback updates the
        # same arrays in the same order, so both stay bit-identical.
        self._in_flight = np.zeros(R, dtype=np.int64)
        self._measured_in_flight = np.zeros(R, dtype=np.int64)
        self._completed = np.zeros(R, dtype=np.int64)
        self._generated = np.zeros(R, dtype=np.int64)
        self._measured_generated = np.zeros(R, dtype=np.int64)
        self._injected = np.zeros(R, dtype=np.int64)
        self.alloc_attempts = np.zeros(R, dtype=np.int64)
        self.alloc_failures = np.zeros(R, dtype=np.int64)

        # Per-replication measurement windows (ragged horizons allowed).
        self._warm = [c.warmup_cycles for c in configs]
        self._horizon_per = [c.horizon for c in configs]
        self._end_per = [c.horizon + c.drain_cycles for c in configs]
        self._warm_np = np.array(self._warm, dtype=np.int64)
        self._horizon_np = np.array(self._horizon_per, dtype=np.int64)
        self._end_np = np.array(self._end_per, dtype=np.int64)
        #: 1 while the replication's result is not yet frozen (the
        #: resident loop's mirror of ``_final[rep] is None``).
        self._active_np = np.ones(R, dtype=np.uint8)
        for c in configs:
            if c.batches < 1:
                raise ValueError("batches must be >= 1")
            if c.horizon <= c.warmup_cycles:
                raise ValueError("empty measurement window")
        if self._probe_int is not None:
            # The batch never cycles past the longest drain horizon, so
            # a ring sized off it can't overflow (both kernels still
            # guard on capacity); warmup cycles are probed too — the
            # warmup-adequacy detector needs the transient.
            self.state.alloc_probes(max(self._end_per) // self._probe_int + 2)
        # Streaming latency sums (the array twin of LatencyAccumulator):
        # one scalar sum per metric plus per-batch sums for the CI, all
        # accumulated in message-completion order by whichever kernel
        # retires the message.
        Bmax = max(c.batches for c in configs)
        self._w_batches = np.array([c.batches for c in configs], dtype=np.int64)
        self._w_t0 = np.array(
            [float(c.warmup_cycles) for c in configs], dtype=np.float64
        )
        self._w_width = np.array(
            [
                (c.horizon - c.warmup_cycles) / c.batches
                for c in configs
            ],
            dtype=np.float64,
        )
        self._Bmax = Bmax
        self._lat_sum = np.zeros(R, dtype=np.float64)
        self._net_sum = np.zeros(R, dtype=np.float64)
        self._srcw_sum = np.zeros(R, dtype=np.float64)
        self._mcount = np.zeros(R, dtype=np.int64)
        self._lat_bsum = np.zeros((R, Bmax), dtype=np.float64)
        self._lat_bcount = np.zeros((R, Bmax), dtype=np.int64)
        #: Channel-load sample accumulators {samples, sum_v, sum_v2,
        #: busy channels} per replication — the integer moments behind
        #: ChannelLoadSampler, written by step() and starnet_run alike.
        self._load_acc = np.zeros((R, 4), dtype=np.int64)
        self._hb_max = topology.diameter()
        self._hb_req = np.zeros((R, self._hb_max + 1), dtype=np.int64)
        self._hb_blk = np.zeros((R, self._hb_max + 1), dtype=np.int64)
        self._hb_wait = np.zeros((R, self._hb_max + 1), dtype=np.int64)
        self._final: list[dict | None] = [None] * R

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def run(self) -> list[SimulationResult]:
        """Run every replication to completion; one result per config.

        Each replication's headline numbers are snapshotted at the first
        cycle where the object engine's run loop would have stopped it
        (its measurement window over and no measured message in flight,
        or its drain budget exhausted); the batch keeps cycling until
        every replication has stopped.  Accumulator-derived values are
        frozen in the snapshot so a replication with an early horizon is
        untouched by its companions' remaining cycles.

        When the compiled kernel can run the whole cycle (stock floor
        arithmetic, no test seams, block-safe workload), the loop itself
        moves into C (``starnet_run``), which calls back for refills and
        route-row fills and returns only on stops, pool/ejection-row growth,
        the watchdog and errors — same bits, a handful of returns per
        run instead of one ctypes crossing per cycle.

        With ``profile=True`` the call also accumulates its wall time
        and attaches :meth:`phase_profile` to the first replication's
        result (the batch advances as one unit, so phase timing is a
        whole-batch property).
        """
        if self._prof is None and self._probe_int is None:
            return self._run_to_completion()
        t0 = time.perf_counter_ns()
        results = self._run_to_completion()
        if self._prof is not None:
            self._prof[_PROF_TOTAL_SLOT] += time.perf_counter_ns() - t0
            results[0] = dataclasses.replace(
                results[0], phase_ns=self.phase_profile()
            )
        if self._probe_int is not None:
            results[0] = dataclasses.replace(
                results[0], timeseries=self.probe_series()
            )
        return results

    def _run_to_completion(self) -> list[SimulationResult]:
        if self._resident_ok():
            return self._run_resident()
        R = self._R
        horizons = self._horizon_per
        ends = self._end_per
        remaining = R
        step = self.step
        min_h = min(horizons)
        while self.cycle < min_h:  # no replication can stop before this
            step()
        final = self._final
        while True:
            cyc = self.cycle
            for rep in range(R):
                if (
                    final[rep] is None
                    and cyc >= horizons[rep]
                    and (cyc >= ends[rep] or self._measured_in_flight[rep] == 0)
                ):
                    final[rep] = self._snapshot(rep)
                    self._stop_rep(rep)
                    remaining -= 1
            if remaining == 0:
                break
            step()
        return [self._result(rep) for rep in range(R)]

    def phase_profile(self) -> dict:
        """Accumulated per-phase wall time in nanoseconds.

        Keys: the four phase groups (``generation``, ``activation``,
        ``route`` — VC allocation, switch traversal and ejection picking,
        phases 2-4 — and ``complete``, the serial phase-5 bookkeeping),
        plus ``other`` (driver overhead: watchdog, sampling, Python/C
        crossings), ``total`` and ``cycles``.  On the fused per-cycle C
        path, phases 2-5 run as one kernel call whose route/complete
        split is timed inside C; the numpy fallback times the same split
        in Python.  The timings are all zeros when profiling is off.

        Three event counts ride along, counted whether profiling is on
        or not: ``returns`` from the resident loop to Python, ``punts``
        (cycles it handed back to :meth:`step`) and ``callbacks`` into
        Python from either C driver.
        """
        p = self.state.phase_ns
        phases = {name: int(p[i]) for i, name in enumerate(_PROF_PHASES)}
        accounted = sum(phases.values())
        total = max(int(p[_PROF_TOTAL_SLOT]), accounted)
        phases["other"] = total - accounted
        phases["total"] = total
        phases["cycles"] = int(self.cycle)
        phases["returns"] = self._n_returns
        phases["punts"] = self._n_punts
        phases["callbacks"] = self._n_callbacks
        return phases

    def _stop_rep(self, rep: int) -> None:
        """Freeze one replication: no further traffic, samples or checks.

        Dirty mirrors stay dirty: the next :meth:`_sync_mirrors` reads
        the stop off ``_gen_next``, so a stop in the resident loop costs
        no rebuild of every rep's mirrors.
        """
        self._gen_next[rep] = math.inf
        self._active_np[rep] = 0
        if not self._mirrors_dirty:
            self._gen_next_list[rep] = math.inf
            self._next_arrival = min(self._gen_next_list)

    def _resident_ok(self) -> bool:
        """May :meth:`run` hand the cycle loop to ``starnet_run``?

        Requires the compiled kernel with in-C allocation, no Python
        seams (``_choose_vc``/``_gen_hook``) and a block-safe workload;
        setting the ``_no_resident`` attribute (a test seam) forces the
        per-cycle driver, which produces identical bits.
        """
        return (
            self._ck is not None
            and self._ck_bundle is not None
            and self._c_alloc_ok
            and self._choose_vc is None
            and self._gen_hook is None
            and self._dest_blocks
            and not self._no_resident
        )

    def _run_resident(self) -> list[SimulationResult]:
        """The in-C run loop: drive ``starnet_run`` return to return.

        Scalar state crosses through the run-state block; every return
        reason maps onto exactly the work the per-cycle driver would
        have done at the same point, so the two run paths are
        bit-identical cycle for cycle.  A return leaves the Python
        mirrors of the generation/activation arrays dirty; they are
        rebuilt only if Python runs a cycle itself (a punt or a stop).
        """
        R = self._R
        st = self.state
        final = self._final
        horizons = self._horizon_per
        ends = self._end_per
        run = self._ck_bundle.run
        rs = self._c_rs
        remaining = sum(1 for f in final if f is None)
        while remaining:
            if self._msg_cap != st.capacity:
                self._sync_msg_cap()
            if self._c_args is None or self._c_msg_cap != st.capacity:
                self._refresh_c_args()
            self._c_ugate[0] = self._u_headroom
            self._c_ugate[1] = self._u_spend
            rs[0] = self.cycle
            rs[1] = self._busy_vcs
            rs[2] = self._ejecting_count
            rs[3] = self._need_total
            run(self._c_params_ptr)
            self._n_returns += 1
            reason = int(rs[4])
            self.cycle = int(rs[0])
            self._busy_vcs = int(rs[1])
            self._ejecting_count = int(rs[2])
            self._need_total = int(rs[3])
            self._u_headroom = int(self._c_ugate[0])
            self._u_spend = int(self._c_ugate[1])
            self._mirrors_dirty = True
            if reason == _RUN_CBERR:
                self._raise_cb_exc()
            if reason == _RUN_ERR:
                raise SimulationError(
                    f"compiled cycle kernel invariant failure at cycle "
                    f"{self.cycle} ({_INVARIANT_CAUSES})"
                )
            if reason == _RUN_WATCHDOG:
                rep = int(rs[5])
                grace = self._c_grace
                raise SimulationError(
                    f"no progress for {grace} cycles at cycle {self.cycle} "
                    f"with {self._in_flight[rep]} messages in flight "
                    f"(replication {rep}, seed {self.seeds[rep]}) — "
                    "routing deadlock?"
                )
            if reason == _RUN_PUNT:
                # The message pool or the ejection rows must grow: run
                # exactly this one cycle through the per-cycle driver
                # (which reallocates them) and re-enter.
                self._n_punts += 1
                self.step()
            elif reason == _RUN_STOP:
                cyc = self.cycle
                for rep in range(R):
                    if (
                        final[rep] is None
                        and cyc >= horizons[rep]
                        and (cyc >= ends[rep] or self._measured_in_flight[rep] == 0)
                    ):
                        final[rep] = self._snapshot(rep)
                        self._stop_rep(rep)
                        remaining -= 1
        self._sync_mirrors()
        return [self._result(rep) for rep in range(R)]

    def step(self) -> None:
        """Advance every replication by one cycle.

        With profiling on, each phase group's wall time lands in the
        same ``phase_ns`` slots the resident C loop uses; the per-cycle
        C kernel times its own route/complete split (it reads the
        profiling pointer from the param block), so only the phases that
        run in Python are timed here.
        """
        if self._mirrors_dirty:
            self._sync_mirrors()
        prof = self._prof
        cycle = self.cycle
        if prof is not None:
            t0 = time.perf_counter_ns()
        if cycle >= self._next_arrival:
            self._generate(cycle)
        if prof is not None:
            t1 = time.perf_counter_ns()
            prof[0] += t1 - t0
            t0 = t1
        if self._act_any:
            self._activate()
        if prof is not None:
            t1 = time.perf_counter_ns()
            prof[1] += t1 - t0
            t0 = t1
        c_alloc = self._c_alloc_ok and self._choose_vc is None
        if self._ck is not None:
            if self._need_total and not c_alloc:
                self._ensure_uniforms()
                self._allocate_py(cycle)
                if prof is not None:
                    t1 = time.perf_counter_ns()
                    prof[2] += t1 - t0
            if self._busy_vcs or (c_alloc and self._need_total):
                self._cycle_c(cycle)
        else:
            if self._need_total:
                self._ensure_uniforms()
                self._allocate_py(cycle)
            picks = self._pick_ejections() if self._ejecting_count else None
            if self._busy_vcs:
                self._transfer_phase()
            if prof is not None:
                t1 = time.perf_counter_ns()
                prof[2] += t1 - t0
                t0 = t1
            if picks is not None:
                self._apply_ejections(picks, cycle)
            if prof is not None:
                t1 = time.perf_counter_ns()
                prof[3] += t1 - t0
        if (cycle & 31) == 0:
            self._watchdog(cycle)
        if cycle % self._sample_int == 0:
            self._load_sample(cycle)
        # Time-series probe: the resident C loop probes the cycles it
        # completes itself; every cycle that finishes here (numpy path,
        # per-cycle C path, or a PUNTed resident cycle) is probed by
        # this twin, through the same shared sample counter.
        if self._probe_int is not None and cycle % self._probe_int == 0:
            self._probe_sample(cycle)
        self.cycle = cycle + 1

    def _probe_sample(self, cycle: int) -> None:
        """Append one probe sample — the bit-exact twin of the C
        kernel's ``probe_sample`` (same layout, same int64 values)."""
        st = self.state
        s = int(st.probe_state[0])
        if s >= st.probe_capacity:
            return
        data = st.probe_data[s]
        data[:, 0] = self._in_flight
        data[:, 1] = self._completed
        data[:, 2] = self._qlen.sum(axis=1)
        V = self._V
        for rep in range(self._R):
            data[rep, 3:] = np.bincount(st.ch_busy[rep], minlength=V + 1)
        st.probe_cycles[s] = cycle
        st.probe_state[0] = s + 1

    def probe_series(self) -> dict:
        """The probed samples as an aggregate time-series dict.

        See :func:`repro.obs.probes.build_timeseries` for the schema;
        raises when the simulator was built without ``probe_interval``.
        """
        if self._probe_int is None:
            raise ConfigurationError(
                "probe_series() needs ArraySimulator(probe_interval=k)"
            )
        from repro.obs.probes import build_timeseries

        st = self.state
        n = int(st.probe_state[0])
        return build_timeseries(
            st.probe_data[:n],
            st.probe_cycles[:n],
            interval=self._probe_int,
            num_vcs=self._V,
        )

    def _load_sample(self, cycle: int) -> None:
        """Channel-load sample — the twin of the C kernel's
        ``load_sample`` (same integer moments into ``_load_acc``).

        A replication samples only inside its own post-warmup life, so
        batch companions never influence its multiplexing estimate.
        """
        due = (self._active_np != 0) & (self._warm_np <= cycle)
        if not due.any():
            return
        cb = self.state.ch_busy[due].astype(np.int64)
        acc = self._load_acc
        acc[due, 0] += 1
        acc[due, 1] += cb.sum(axis=1)
        acc[due, 2] += (cb * cb).sum(axis=1)
        acc[due, 3] += np.count_nonzero(cb, axis=1)

    def _sync_mirrors(self) -> None:
        """Rebuild the Python mirrors of the generation/activation
        arrays after the resident loop moved them (no-op when clean)."""
        if not self._mirrors_dirty:
            return
        self._mirrors_dirty = False
        self._gen_next_list = self._gen_next.tolist()
        self._rebuild_gen_heaps()
        self._next_arrival = min(self._gen_next_list) if self._R else math.inf
        nz = np.nonzero(self._act)
        self._act_set = set(zip(nz[0].tolist(), nz[1].tolist()))
        self._act_any = bool(self._act_set)

    def _watchdog(self, cycle: int) -> None:
        """Periodic stall check (every 32 cycles).

        Progress is read off cumulative counters — flit transfers,
        successful allocations, completed messages — instead of a
        per-cycle flag, so the common fully-loaded cycle pays nothing.
        """
        transfers = self.state.transfers.tolist()
        marks = self._progress_marks
        last = self._last_progress
        attempts = self.alloc_attempts.tolist()
        failures = self.alloc_failures.tolist()
        completed = self._completed.tolist()
        for rep in range(self._R):
            p = transfers[rep] + completed[rep] + attempts[rep] - failures[rep]
            if p != marks[rep]:
                marks[rep] = p
                last[rep] = cycle
            elif self._in_flight[rep] > 0:
                grace = self.config.watchdog_grace
                if grace is None:
                    # The object engine's module default, resolved late so
                    # a monkeypatched _WATCHDOG_GRACE governs both backends.
                    from repro.simulation import engine as engine_mod

                    grace = engine_mod._WATCHDOG_GRACE
                if cycle - last[rep] > grace:
                    raise SimulationError(
                        f"no progress for {grace} cycles at cycle {cycle} "
                        f"with {self._in_flight[rep]} messages in flight "
                        f"(replication {rep}, seed {self.seeds[rep]}) — "
                        "routing deadlock?"
                    )

    # ------------------------------------------------------------------
    # Phase 1 — generation and activation (event-driven, per replication)
    # ------------------------------------------------------------------

    def _refill_arr(self, rep: int, node: int) -> None:
        """Refill one node's pre-drawn arrival block, cursor reset."""
        buf = self._sources[rep][node].draw_block(_GEN_BLOCK)
        self._arr_buf[rep, node, : len(buf)] = buf
        self._arr_len[rep, node] = len(buf)
        self._arr_pos[rep, node] = 0

    def _refill_dst(self, rep: int, node: int) -> None:
        """Refill one node's pre-drawn destination block, cursor reset."""
        buf = self.spatial.destinations_block(
            node, _GEN_BLOCK, self._dest_rng[rep][node]
        )
        self._dst_buf[rep, node, : len(buf)] = buf
        self._dst_len[rep, node] = len(buf)
        self._dst_pos[rep, node] = 0

    def _cb_dispatch(self, kind: int, a: int, b: int) -> int:
        """The C kernel's service callback (ctypes re-acquires the GIL).

        kind 0/1 refill one node's arrival/destination block, kind 2
        fills route row (cur a, dst b) and returns its distance, kind 4
        refills the uniform buffer for ``need_total`` = a and re-bases
        the loop's gate (patching the live parameter block when it
        widens the buffer).  Exceptions can't cross the C frame: the
        first is stashed for the driver to re-raise
        (:meth:`_raise_cb_exc`) and signalled to C as -1.
        """
        self._n_callbacks += 1
        try:
            if kind == 0:
                self._refill_arr(a, b)
                return 0
            if kind == 1:
                self._refill_dst(a, b)
                return 0
            if kind == 2:
                return self._fill_route(a, b)
            gate = self._c_ugate
            self._u_headroom = int(gate[0])
            self._u_spend = int(gate[1])
            self._need_total = a
            self._ensure_uniforms()
            gate[0] = self._u_headroom
            gate[1] = self._u_spend
            return 0
        except BaseException as exc:  # noqa: BLE001 — crossing a C frame
            if self._cb_exc is None:
                self._cb_exc = exc
            return -1

    def _raise_cb_exc(self) -> None:
        """Re-raise the exception a service callback stashed."""
        exc, self._cb_exc = self._cb_exc, None
        if exc is None:
            raise SimulationError("kernel callback failed without an exception")
        raise exc

    def _next_arrival_time(self, rep: int, node: int) -> float:
        """Pop the node's next arrival instant from its pre-drawn block."""
        k = rep * self._Nn + node
        pos = int(self._f_arr_pos[k])
        if pos >= int(self._f_arr_len[k]):
            self._refill_arr(rep, node)
            pos = 0
        self._f_arr_pos[k] = pos + 1
        return float(self._f_arr_buf[k * _GEN_BLOCK + pos])

    def _next_dest(self, rep: int, node: int) -> int:
        """Pop the node's next destination from its pre-drawn block."""
        if not self._dest_blocks:
            return self.spatial.destination(node, self._dest_rng[rep][node])
        k = rep * self._Nn + node
        pos = int(self._f_dst_pos[k])
        if pos >= int(self._f_dst_len[k]):
            self._refill_dst(rep, node)
            pos = 0
        self._f_dst_pos[k] = pos + 1
        return int(self._f_dst_buf[k * _GEN_BLOCK + pos])

    def _generate(self, cycle: int) -> None:
        st = self.state
        N = st.num_nodes
        gen_next = self._gen_next
        gnl = self._gen_next_list
        fcycle = float(cycle)
        cap = self._msg_cap
        (f_tgen, f_src, f_ejd, f_meas, f_dst, f_hdr, f_dist, f_flr,
         f_hops, f_fa, f_qnext) = self._flatc
        f_qhead = self._f_qhead
        f_qtail = self._f_qtail
        f_qlen = self._f_qlen
        f_act = self._f_act
        act_set = self._act_set
        for rep in range(self._R):
            if gnl[rep] > fcycle:
                continue
            nt = self._gen_node_t[rep]
            heap = self._gen_heaps[rep]
            warm = self._warm[rep]
            horizon = self._horizon_per[rep]
            nb = rep * N
            mb = rep * cap
            g = mg = 0
            while True:
                # One outstanding arrival per node makes (t, node) pairs
                # unique, so heap (t, node) order ≡ the array's strict
                # first-minimum scan (what the C loop performs).
                t, node = heap[0]
                if t > fcycle:
                    gen_next[rep] = t
                    gnl[rep] = t
                    break
                heapq.heappop(heap)
                dst = self._next_dest(rep, node)
                dist = self._route_dist(node, dst)
                s = st.alloc_slot(rep)
                if cap != st.capacity:
                    self._sync_msg_cap()  # pool grew: views reallocated
                    cap = self._msg_cap
                    (f_tgen, f_src, f_ejd, f_meas, f_dst, f_hdr, f_dist,
                     f_flr, f_hops, f_fa, f_qnext) = self._flatc
                    mb = rep * cap
                i = mb + s
                f_tgen[i] = t
                f_src[i] = node
                f_ejd[i] = 0
                measured = warm <= t < horizon
                f_meas[i] = measured
                f_dst[i] = dst
                f_hdr[i] = node
                f_dist[i] = dist
                f_flr[i] = 0
                f_hops[i] = 0
                f_fa[i] = -1
                g += 1
                if measured:
                    mg += 1
                f_qnext[i] = -1
                k = nb + node
                tail = int(f_qtail[k])
                if tail < 0:
                    f_qhead[k] = s
                else:
                    f_qnext[mb + tail] = s
                f_qtail[k] = s
                f_qlen[k] += 1
                f_act[k] = 1
                act_set.add((rep, node))
                if self._gen_hook is not None:
                    self._gen_hook(rep, node, t, dst)
                tn = self._next_arrival_time(rep, node)
                heapq.heappush(heap, (tn, node))
                nt[node] = tn
            if g:
                self._generated[rep] += g
                if mg:
                    self._measured_generated[rep] += mg
                self._act_any = True
        self._next_arrival = min(gnl)

    def _rebuild_gen_heaps(self) -> None:
        """Re-derive the per-rep (t, node) event heaps from the array."""
        self._gen_heaps = [
            [(t, n) for n, t in enumerate(row)]
            for row in self._gen_node_t.tolist()
        ]
        for h in self._gen_heaps:
            heapq.heapify(h)

    def _activate(self) -> None:
        st = self.state
        N = st.num_nodes
        cap = self._msg_cap
        slots = self._slots
        flatc = self._flatc
        f_meas = flatc[3]
        f_qnext = flatc[10]
        f_qhead = self._f_qhead
        f_qtail = self._f_qtail
        f_qlen = self._f_qlen
        f_act = self._f_act
        f_ai = self._f_ai
        f_need_slots = self._f_need_slots
        need_n = self._need_n
        total_new = 0
        # The set mirrors the bitmap's nonzero coords, so sorted order
        # == the bitmap's row-major order (what the C loop walks).
        for rep, node in sorted(self._act_set):
            k = rep * N + node
            n = int(f_qlen[k])
            a = int(f_ai[k])
            if n and a < slots:
                mb = rep * cap
                head = int(f_qhead[k])
                nn = int(need_n[rep])
                popped = mcount = 0
                while n and a < slots:
                    s = head
                    i = mb + s
                    head = int(f_qnext[i])
                    n -= 1
                    a += 1
                    popped += 1
                    if f_meas[i]:
                        mcount += 1
                    # Route row (src, dst) was filled at generation.
                    f_need_slots[mb + nn] = s
                    nn += 1
                f_qhead[k] = head
                if head < 0:
                    f_qtail[k] = -1
                f_qlen[k] = n
                f_ai[k] = a
                need_n[rep] = nn
                self._in_flight[rep] += popped
                if mcount:
                    self._measured_in_flight[rep] += mcount
                total_new += popped
            f_act[k] = 0
        if total_new:
            self._need_total += total_new
        self._act_set.clear()
        self._act_any = False

    # ------------------------------------------------------------------
    # Routing tables (shared by both kernels)
    # ------------------------------------------------------------------

    def _build_class_table(self) -> None:
        """Tabulate ``algorithm.eligible`` over its whole domain.

        One int32 entry ``{a_lo, a_n, e_lo, e_n}`` (contiguous adaptive
        and escape VC-index ranges) per (remaining distance 1..diameter,
        colour of the current node, escape floor 0..num_escape-1), at
        ``((d - 1) * 2 + colour) * num_escape + floor``.  States that
        ``eligible()`` rejects are stored as -1 rows: the floor invariant
        makes them unreachable, so meeting one is an invariant failure.
        Exact because ``eligible()`` reads nothing else (its contract).
        """
        cfg = self.vc_config
        diameter = self.topology.diameter()
        num_escape = cfg.num_escape
        table = np.full((diameter, 2, num_escape, 4), -1, dtype=np.int32)
        state = self._route_state
        state.hops_taken = state.negative_hops = 0
        for d in range(1, diameter + 1):
            for colour in (0, 1):
                for floor in range(num_escape):
                    state.escape_floor = floor
                    try:
                        es = self.algorithm.eligible(cfg, d, colour == 1, state)
                    except ConfigurationError:
                        continue
                    for r in (es.adaptive, es.escape):
                        if len(r) > 1 and r.step != 1:
                            raise ConfigurationError(
                                f"{self.algorithm.name}: the array backend "
                                f"needs contiguous eligible ranges, got {r} "
                                "(use engine='object')"
                            )
                    table[d - 1, colour, floor] = (
                        es.adaptive.start,
                        len(es.adaptive),
                        es.escape.start,
                        len(es.escape),
                    )
        self._cls = table.reshape(-1, 4)
        self._cls_py = [
            None if a_n < 0 else (range(a_lo, a_lo + a_n), range(e_lo, e_lo + e_n))
            for a_lo, a_n, e_lo, e_n in self._cls.tolist()
        ]
        self._cls_d = diameter

    def _fill_route(self, cur: int, dst: int) -> int:
        """Resolve route row (cur, dst) — distance and ports — and
        return the distance (the kind-2 callback lands here too)."""
        ports = self.algorithm.ports(self.topology, cur, dst)
        dist = self.topology.distance(cur, dst)
        off = (cur * self.state.num_nodes + dst) * self._route_w
        row = self._route
        row[off + 1] = len(ports)
        row[off + 2 : off + 2 + len(ports)] = ports
        row[off] = dist
        return dist

    def _route_dist(self, cur: int, dst: int) -> int:
        """Distance off route row (cur, dst), filling the row if needed."""
        dist = int(self._route[(cur * self.state.num_nodes + dst) * self._route_w])
        return dist if dist >= 0 else self._fill_route(cur, dst)

    def _queue_need(self, rep: int, slot: int) -> None:
        """Append a ready header to the pending list, its route row
        (cur, dst) resolved — the numpy twin of the C ready event."""
        st = self.state
        self._route_dist(int(st.p_header[rep, slot]), int(st.p_dst[rep, slot]))
        n = self._need_n[rep]
        self._need_slots[rep, n] = slot
        self._need_n[rep] = n + 1
        self._need_total += 1

    def _candidates(
        self, cur: int, dst: int, floor: int
    ) -> tuple[tuple[int, ...], range, range]:
        """Candidate VCs of a header at ``cur`` bound for ``dst``: the
        first flat VC of each profitable port (in ``ports()`` order) and
        the adaptive and escape VC-index ranges, so ``base + j`` over
        ports, then indices, enumerates the C kernel's order.

        Reads Python copies of the tables (``_cls_py`` and the row
        cache ``_vc0_rows``), since blocked headers retry every cycle.
        """
        key = cur * self.state.num_nodes + dst
        row = self._vc0_rows.get(key)
        if row is None:
            off = key * self._route_w
            dist, nports = self._route[off : off + 2].tolist()
            base = cur * self._deg
            vc0s = tuple(
                (base + p) * self._V
                for p in self._route[off + 2 : off + 2 + nports].tolist()
            )
            row = (dist, vc0s)
            if dist >= 0:
                self._vc0_rows[key] = row
        dist, vc0s = row
        num_escape = self.vc_config.num_escape
        entry = None
        if 1 <= dist <= self._cls_d and 0 <= floor < num_escape:
            k = ((dist - 1) * 2 + self._color_py[cur]) * num_escape + floor
            entry = self._cls_py[k]
        if entry is None:
            raise SimulationError(
                f"pending header at node {cur} for {dst} without a route "
                f"row or eligibility class: {dist} hops left, floor {floor}"
            )
        return vc0s, entry[0], entry[1]

    # ------------------------------------------------------------------
    # Phase 2 — virtual-channel allocation (Python/numpy fallback)
    # ------------------------------------------------------------------

    def _ensure_uniforms(self) -> None:
        """Guarantee enough pre-drawn uniforms for this cycle's allocation.

        Worst case per replication: n-1 shuffle draws plus one draw per
        header = 2n-1.  A short buffer is refilled wholesale (remaining
        variates are discarded) — deterministic, and identical for the C
        and numpy paths since both consume through this buffer.  When
        the need outgrows the buffer itself, it is widened and *every*
        row is refilled, so no row reads past its old capacity.
        """
        # Cheap amortized gate first: no row can have consumed more than
        # _u_spend variates since the last exact check, and every row had
        # at least _u_headroom remaining then, so while the bound holds
        # the vectorized shortage test (several numpy dispatches per
        # cycle) is provably redundant.
        bound = 2 * self._need_total
        if self._u_spend + bound <= self._u_headroom:
            self._u_spend += bound
            return
        worst = 2 * self._need_n
        short = (self._buf_cap - self._alloc_pos) < worst
        if short.any():
            wmax = int(worst.max())
            if wmax > self._buf_cap:
                self._buf_cap = 1 << (wmax - 1).bit_length()
                self._alloc_buf = np.empty((self._R, self._buf_cap), dtype=np.float64)
                refill = range(self._R)
                if self._c_params is not None:
                    # patched in place: a kind-4 callback may be mid-call
                    self._c_params[_UNIFORM_SLOT] = self._alloc_buf.ctypes.data
                    self._c_params[_UNIFORM_SLOT + 1] = self._buf_cap
            else:
                refill = np.nonzero(short)[0].tolist()
            for rep in refill:
                self._alloc_buf[rep] = self._alloc_gen[rep].random(self._buf_cap)
                self._alloc_pos[rep] = 0
        self._u_headroom = self._buf_cap - int(self._alloc_pos.max())
        self._u_spend = bound

    def _allocate_py(self, cycle: int) -> None:
        """Allocation fallback, bit-identical to the C megakernel's loop.

        Consumes the same pre-drawn uniform buffer in the same order and
        leaves identical pending-list contents (``need_slots[:need_n]``).
        """
        st = self.state
        V = self._V
        policy = self._policy_code
        owner = st.owner_flat
        CV = self._CV
        hb_max = self._hb_max
        chooser = self._choose_vc
        for rep in range(self._R):
            n = int(self._need_n[rep])
            if not n:
                continue
            ns = self._need_slots[rep]
            order = ns[:n].tolist()
            ub = self._alloc_buf[rep]
            pos = int(self._alloc_pos[rep])
            if n > 1:  # Fisher-Yates, same draws as the C kernel
                for i in range(n - 1, 0, -1):
                    j = int(ub[pos] * (i + 1))
                    pos += 1
                    order[i], order[j] = order[j], order[i]
            keep = 0
            rowoff = rep * CV
            first = st.p_first_attempt[rep]
            hdr_row = st.p_header[rep]
            dst_row = st.p_dst[rep]
            floor_row = st.p_floor[rep]
            hops_row = st.p_hops[rep]
            meas = st.msg_measured[rep]
            for s in order:
                if first[s] < 0:
                    first[s] = cycle
                vc0s, a_vcs, e_vcs = self._candidates(
                    hdr_row.item(s), dst_row.item(s), floor_row.item(s)
                )
                fa = [b + j for b in vc0s for j in a_vcs if owner[rowoff + b + j] < 0]
                fe = [b + j for b in vc0s for j in e_vcs if owner[rowoff + b + j] < 0]
                flat = -1
                if chooser is not None:  # test seam replaces the policy
                    picked = chooser(rep, s)
                    flat = -1 if picked is None else picked
                elif policy == 0:  # ADAPTIVE_FIRST
                    if fa:
                        if len(fa) == 1:
                            flat = fa[0]
                        else:
                            flat = fa[int(ub[pos] * len(fa))]
                            pos += 1
                    elif fe:
                        # Lowest class first; random among equal-class ports.
                        lowest = min(f % V for f in fe)
                        pool = [f for f in fe if f % V == lowest]
                        flat = pool[int(ub[pos] * len(pool))]
                        pos += 1
                elif policy == 1:  # LOWEST_ESCAPE
                    if fe:
                        lowest = min(f % V for f in fe)
                        pool = [f for f in fe if f % V == lowest]
                        flat = pool[int(ub[pos] * len(pool))]
                        pos += 1
                    elif fa:
                        flat = fa[int(ub[pos] * len(fa))]
                        pos += 1
                else:  # RANDOM
                    pool = fa + fe
                    if pool:
                        flat = pool[int(ub[pos] * len(pool))]
                        pos += 1
                if flat < 0:
                    self.alloc_failures[rep] += 1
                    order[keep] = s
                    keep += 1
                    continue
                if meas[s]:
                    k = int(hops_row[s]) + 1
                    if k > hb_max:
                        k = hb_max
                    self._hb_req[rep, k] += 1
                    waited = cycle - int(first[s])
                    if waited > 0:
                        self._hb_blk[rep, k] += 1
                        self._hb_wait[rep, k] += waited
                first[s] = -1
                self._acquire(rep, s, flat, cycle)
                if st.p_dist[rep, s] == 0:  # header reached the destination
                    self._ej_add(rep, s, flat)
            ns[:keep] = order[:keep]
            self._need_total -= n - keep
            self._need_n[rep] = keep
            self._alloc_pos[rep] = pos
            self.alloc_attempts[rep] += n

    def _acquire(self, rep: int, slot: int, flat: int, cycle: int) -> None:
        st = self.state
        V = self._V
        chan = flat // V
        v_index = flat - chan * V
        hop_negative = self._color_py[chan // self._deg] == 1
        prev = int(st.p_head_vc[rep, slot])
        base = rep * self._CV
        af = base + flat
        bdf = st.bd_flat
        availf = st.avail_flat
        bdf[af] = 0
        if prev >= 0:
            ap = base + prev
            availf[af] = bdf[ap] & 0xFFFF
            st.down_flat[ap] = flat
        else:
            availf[af] = self._M  # whole worm still at the source PE
            st.msg_t_inject[rep, slot] = float(cycle)
            if st.msg_measured[rep, slot]:
                self._injected[rep] += 1
        st.owner_flat[af] = slot
        st.up_flat[af] = prev
        st.down_flat[af] = -1
        st.busy_flat[rep * self._C + chan] += 1
        st.p_head_vc[rep, slot] = flat
        st.msg_vcs_held[rep, slot] += 1
        self._busy_vcs += 1
        if self._plain_floor:
            # Inlined RoutingAlgorithm.advance_floor: the floor becomes the
            # used escape class (class-a hops keep it) plus one across
            # negative hops.
            adaptive = self.vc_config.num_adaptive
            fbase = (
                int(st.p_floor[rep, slot])
                if v_index < adaptive
                else v_index - adaptive
            )
            st.p_floor[rep, slot] = fbase + (1 if hop_negative else 0)
            st.p_hops[rep, slot] += 1
        else:
            state = self._route_state
            state.escape_floor = int(st.p_floor[rep, slot])
            state.hops_taken = int(st.p_hops[rep, slot])
            state.negative_hops = 0
            self.algorithm.advance_floor(self.vc_config, state, v_index, hop_negative)
            st.p_floor[rep, slot] = state.escape_floor
            st.p_hops[rep, slot] = state.hops_taken
        nxt = self._neighbors_py[chan]
        st.p_header[rep, slot] = nxt
        d = int(st.p_dist[rep, slot]) - 1
        st.p_dist[rep, slot] = d
        if (d == 0) != (nxt == int(st.p_dst[rep, slot])):
            raise SimulationError(
                f"non-minimal route for slot {slot} (replication {rep}): "
                f"{d} hops left at node {nxt}"
            )

    # ------------------------------------------------------------------
    # Phase 3 — switch traversal (vectorized over all replications)
    # ------------------------------------------------------------------

    def _transfer_phase(self) -> None:
        st = self.state
        V = self._V
        # Candidate = owned, not fully delivered, downstream buffer space,
        # and a flit available to pull.  Free VCs carry the bd sentinel
        # (delivered == M), which the first compare rejects.  All dense
        # passes write into preallocated scratch to avoid temporaries.
        bd = st.vc_bd
        cand = self._b_cand
        np.less(bd, self._ms, out=cand)
        tmpi = self._b_tmpi
        np.bitwise_and(bd, 0xFFFF, out=tmpi)
        tmpb = self._b_tmpb
        np.less(tmpi, self._depth, out=tmpb)
        cand &= tmpb
        np.greater(st.vc_avail, 0, out=tmpb)
        cand &= tmpb
        if self._lut is not None:
            # Pack each channel's candidate VCs into an integer and resolve
            # the round-robin winner with one lookup-table gather.
            bits = self._b_bits
            np.matmul(cand.view(np.uint8).reshape(-1, V), self._pow2, out=bits)
            idx = self._b_idx
            np.multiply(st.rr_flat, 1 << V, out=idx)
            idx += bits
            w = self._b_w
            self._lut.take(idx, out=w)
            ok = self._b_ok
            np.greater_equal(w, 0, out=ok)
        else:
            # Wide-V fallback (V > _MAX_LUT_VCS): the winner is the
            # candidate with the smallest cyclic offset from the
            # round-robin pointer — an argmin over a (channels, V) key
            # matrix instead of a 2**V-wide table gather.  Offsets are
            # unique per VC, so the winner matches the LUT path (and the
            # C kernel's per-channel scan) exactly.
            key = self._b_key
            np.subtract(self._voffs, st.rr_flat[:, None], out=key)
            np.mod(key, V, out=key)
            key[~cand.reshape(-1, V)] = V  # non-candidates never win
            w = self._b_w
            np.argmin(key, axis=1, out=w)
            ok = self._b_ok
            np.less(key[self._rc_arange, w], V, out=ok)
        if not ok.any():
            return
        rc = np.nonzero(ok)[0]  # winning (rep, channel) pairs, flattened
        v = w[rc]
        flat = rc * V + v  # == rep * CV + channel * V + vc
        st.rr_flat[rc] = (v + 1) % V
        bdf = st.bd_flat
        availf = st.avail_flat
        bdf[flat] += 0x10001  # buffered += 1, delivered += 1
        availf[flat] -= 1
        # First flit across a newly acquired channel: its owner's header
        # is ready for the next hop — re-queue it for allocation, in the
        # C kernel's ascending-index order.
        nready = flat[bdf[flat] == 0x10001]
        if nready.size:
            CV = self._CV
            owner_flat = st.owner_flat
            p_dist = st.p_dist
            for x in nready.tolist():
                rep = x // CV
                slot = int(owner_flat[x])
                if p_dist[rep, slot] > 0:  # not yet at its destination
                    self._queue_need(rep, slot)
        counts = np.bincount(rc // self._C, minlength=self._R)
        st.transfers += counts
        rowoff = flat - flat % self._CV  # == rep * CV
        u = st.up_flat[flat]
        ipull = np.nonzero(u >= 0)[0]
        if ipull.size:
            uflat = rowoff[ipull] + u[ipull]
            nb = bdf[uflat] - 1  # flit leaves the upstream buffer
            bdf[uflat] = nb
            rel = np.nonzero(nb == self._ms)[0]
            if rel.size:
                self._release(uflat[rel])
        if ipull.size != flat.size:  # some grants injected from the PE
            isrc = np.nonzero(u < 0)[0]
            sflat = flat[isrc]
            fin = sflat[availf[sflat] == 0]  # tail flit left the PE
            if fin.size:
                self._finish_injection(fin)
        d = st.down_flat[flat]
        idown = np.nonzero(d >= 0)[0]
        if idown.size:
            availf[rowoff[idown] + d[idown]] += 1  # downstream gains a flit

    def _finish_injection(self, fin: np.ndarray) -> None:
        """Messages whose tail flit just left the PE free their source slot."""
        st = self.state
        CV = self._CV
        act = self._act
        act_set = self._act_set
        for aflat in fin.tolist():
            rep = aflat // CV
            slot = int(st.owner_flat[aflat])
            node = int(st.msg_src[rep, slot])
            st.active_injections[rep, node] -= 1
            act[rep, node] = 1
            act_set.add((rep, node))
        if len(fin):
            self._act_any = True

    def _release(self, flats: np.ndarray) -> None:
        """Free drained VCs (tail flit crossed and downstream buffer empty).

        ``flats`` are absolute indices (``rep * CV + vc``); the packed
        word already equals the free-VC sentinel when this is called.
        The stale up/down pointers need no reset — they are only ever
        read through granted (owned) VCs — but the owner must clear so
        allocation scans and the multiplexing sampler see a free VC.
        """
        st = self.state
        CV = self._CV
        C = self._C
        V = self._V
        vcs_held = st.msg_vcs_held
        busy = st.busy_flat
        owner_flat = st.owner_flat
        for aflat in flats.tolist():
            rep = aflat // CV
            x = aflat - rep * CV
            vcs_held[rep, int(owner_flat[aflat])] -= 1
            busy[rep * C + x // V] -= 1
        owner_flat[flats] = -1
        self._busy_vcs -= len(flats)

    # ------------------------------------------------------------------
    # Phase 4 — ejection (vectorized over routing-complete messages)
    # ------------------------------------------------------------------

    def _sync_msg_cap(self) -> None:
        """Re-size capacity-dependent side arrays after the pool grew."""
        st = self.state
        if self._msg_cap == st.capacity:
            return
        old = self._msg_cap
        new = st.capacity
        self._msg_cap = new
        R = self._R
        ns = np.zeros((R, new), dtype=np.int32)
        ns[:, :old] = self._need_slots
        self._need_slots = ns
        qn = np.full((R, new), -1, dtype=np.int32)
        qn[:, :old] = self._qnext
        self._qnext = qn
        ep = np.full((R, new), -1, dtype=np.int64)
        ep[:, :old] = self._ej_pos
        self._ej_pos = ep
        n = self._ejecting_count
        self._ej_mflats[:n] = self._ej_reps[:n] * new + self._ej_slots[:n]
        self._c_args = None  # msg_* arrays were reallocated too
        self._rebuild_flat_views()

    def _rebuild_flat_views(self) -> None:
        """Refresh the raveled views of the capacity-sized arrays.

        The message pool's arrays are reallocated whenever it grows, so
        the 1-D views the generation/activation hot paths index through
        must be re-derived alongside (``_sync_msg_cap`` calls this).
        """
        st = self.state
        self._flatc = (
            st.msg_t_gen.ravel(),
            st.msg_src.ravel(),
            st.msg_ejected.ravel(),
            st.msg_measured.ravel(),
            st.p_dst.ravel(),
            st.p_header.ravel(),
            st.p_dist.ravel(),
            st.p_floor.ravel(),
            st.p_hops.ravel(),
            st.p_first_attempt.ravel(),
            self._qnext.ravel(),
        )
        self._f_need_slots = self._need_slots.ravel()

    def _grow_ej_rows(self) -> None:
        n = self._ejecting_count
        self._ej_cap_rows *= 2
        for name in ("_ej_reps", "_ej_slots", "_ej_flats", "_ej_mflats"):
            old = getattr(self, name)
            wide = np.zeros(self._ej_cap_rows, dtype=np.int64)
            wide[:n] = old[:n]
            setattr(self, name, wide)
        self._c_args = None  # ejection columns moved: refresh pointers

    def _ensure_ej_capacity(self, rows: int) -> None:
        while self._ej_cap_rows < rows:
            self._grow_ej_rows()

    def _ej_add(self, rep: int, slot: int, head: int) -> None:
        self._sync_msg_cap()
        n = self._ejecting_count
        if n == self._ej_cap_rows:
            self._grow_ej_rows()
        self._ej_reps[n] = rep
        self._ej_slots[n] = slot
        self._ej_flats[n] = rep * self._CV + head
        self._ej_mflats[n] = rep * self._msg_cap + slot
        self._ej_pos[rep, slot] = n
        self._ejecting_count = n + 1

    def _ej_remove(self, rep: int, slot: int) -> None:
        """Swap-remove one draining message from the ejection columns."""
        i = int(self._ej_pos[rep, slot])
        self._ej_pos[rep, slot] = -1
        n = self._ejecting_count - 1
        if i != n:
            lr = int(self._ej_reps[n])
            ls = int(self._ej_slots[n])
            self._ej_reps[i] = lr
            self._ej_slots[i] = ls
            self._ej_flats[i] = self._ej_flats[n]
            self._ej_mflats[i] = self._ej_mflats[n]
            self._ej_pos[lr, ls] = i
        self._ejecting_count = n

    def _pick_ejections(self):
        """Flits each draining message ejects this cycle (pre-cycle state)."""
        st = self.state
        self._sync_msg_cap()
        n = self._ejecting_count
        k = st.bd_flat[self._ej_flats[:n]] & 0xFFFF
        if self._ej_rate is not None:
            np.minimum(k, self._ej_rate, out=k)
        if not k.any():
            return None
        return k

    def _apply_ejections(self, k: np.ndarray, cycle: int) -> None:
        st = self.state
        ip = np.nonzero(k)[0]
        flats = self._ej_flats[ip]
        kk = k[ip]
        bdf = st.bd_flat
        nb = bdf[flats] - kk
        bdf[flats] = nb
        ej = st.msg_ejected_flat
        mflats = self._ej_mflats[ip]
        ne = ej[mflats] + kk
        ej[mflats] = ne
        rel = np.nonzero(nb == self._ms)[0]
        if rel.size:
            self._release(flats[rel])
        done = np.nonzero(ne == self._M)[0]
        if done.size:
            self._complete(self._ej_reps[ip[done]], self._ej_slots[ip[done]], cycle)

    def _complete(self, reps: np.ndarray, slots: np.ndarray, cycle: int) -> None:
        self._complete_pairs(list(zip(reps.tolist(), slots.tolist())), cycle)

    def _complete_pairs(self, pairs: list[tuple[int, int]], cycle: int) -> None:
        """Retire completed messages (numpy-path twin of C phase 5).

        Scalar adds in pair order, exactly as the compiled kernel
        accumulates, so the latency sums stay bit-identical between the
        two paths (float addition is order-sensitive).
        """
        st = self.state
        t_done = cycle + 1.0
        for rep, slot in pairs:
            if st.msg_vcs_held[rep, slot] != 0:
                raise SimulationError("completed message still owns channels")
            self._in_flight[rep] -= 1
            self._completed[rep] += 1
            if st.msg_measured[rep, slot]:
                self._measured_in_flight[rep] -= 1
                tg = float(st.msg_t_gen[rep, slot])
                ti = float(st.msg_t_inject[rep, slot])
                v = t_done - tg
                self._lat_sum[rep] += v
                self._net_sum[rep] += t_done - ti
                self._srcw_sum[rep] += ti - tg
                self._mcount[rep] += 1
                b = int((tg - self._w_t0[rep]) / self._w_width[rep])
                b = min(max(b, 0), int(self._w_batches[rep]) - 1)
                self._lat_bsum[rep, b] += v
                self._lat_bcount[rep, b] += 1
            st.free_slot(rep, slot)
            self._ej_remove(rep, slot)

    # ------------------------------------------------------------------
    # Compiled megakernel (phases 2 + 3 + 4 in one C call)
    # ------------------------------------------------------------------

    def _refresh_c_args(self) -> None:
        """(Re)build the C kernel's parameter block.

        Called whenever an array the kernel touches may have been
        reallocated outside a kernel call: the message pool grew or the
        ejection columns doubled.  (Uniform-buffer growth patches its
        slots in place instead — it can happen inside a callback; the
        route table never moves, its rows fill in place.)  Slot layout
        documented in _ckernel.c — the indices here must match it
        exactly.
        """
        st = self.state
        rows = self._ej_cap_rows
        RC = self._R * self._C
        self._c_ejk = np.empty(rows, dtype=np.int32)
        self._c_comps = np.empty(rows, dtype=np.int64)
        self._c_winners = np.empty(RC, dtype=np.int64)
        self._c_fin = np.empty(RC, dtype=np.int64)
        self._c_msg_cap = st.capacity
        ej_rate = -1 if self._ej_rate is None else int(self._ej_rate)
        grace = self.config.watchdog_grace
        if grace is None:
            # The object engine's module default, resolved late so a
            # monkeypatched _WATCHDOG_GRACE governs the resident loop too.
            from repro.simulation import engine as engine_mod

            grace = engine_mod._WATCHDOG_GRACE
        self._c_grace = grace
        params = np.array(
            [
                st.vc_bd.ctypes.data,  # 0
                st.vc_avail.ctypes.data,  # 1
                st.vc_owner.ctypes.data,  # 2
                st.vc_upstream.ctypes.data,  # 3
                st.vc_downstream.ctypes.data,  # 4
                st.ch_rr.ctypes.data,  # 5
                0 if self._lut is None else self._lut.ctypes.data,  # 6
                self._R,  # 7
                self._C,  # 8
                self._V,  # 9
                self._M,  # 10
                self._depth,  # 11
                ej_rate,  # 12
                st.transfers.ctypes.data,  # 13
                st.msg_vcs_held.ctypes.data,  # 14
                st.msg_src.ctypes.data,  # 15
                st.active_injections.ctypes.data,  # 16
                st.msg_ejected.ctypes.data,  # 17
                st.capacity,  # 18
                st.num_nodes,  # 19
                self._ej_reps.ctypes.data,  # 20
                self._ej_slots.ctypes.data,  # 21
                self._ej_flats.ctypes.data,  # 22
                self._ej_mflats.ctypes.data,  # 23
                self._ej_pos.ctypes.data,  # 24
                0,  # 25 ej_n, patched per cycle
                self._c_ejk.ctypes.data,  # 26
                self._c_winners.ctypes.data,  # 27
                self._c_fin.ctypes.data,  # 28
                self._c_comps.ctypes.data,  # 29
                self._load_acc.ctypes.data,  # 30
                self._c_out.ctypes.data,  # 31
                st.ch_busy.ctypes.data,  # 32
                0,  # 33 do_alloc, patched per cycle
                0,  # 34 cycle, patched per cycle
                self._policy_code,  # 35
                self.vc_config.num_adaptive,  # 36
                self._deg,  # 37
                self._need_slots.ctypes.data,  # 38
                self._need_n.ctypes.data,  # 39
                st.p_dst.ctypes.data,  # 40
                st.p_header.ctypes.data,  # 41
                st.p_dist.ctypes.data,  # 42
                st.p_floor.ctypes.data,  # 43
                st.p_hops.ctypes.data,  # 44
                st.p_first_attempt.ctypes.data,  # 45
                st.p_head_vc.ctypes.data,  # 46
                self._route.ctypes.data,  # 47
                self._route_w,  # 48
                self._cls.ctypes.data,  # 49
                self._cls_d,  # 50
                self.vc_config.num_escape,  # 51
                self._alloc_buf.ctypes.data,  # 52
                self._buf_cap,  # 53
                self._alloc_pos.ctypes.data,  # 54
                self._neighbors_np.ctypes.data,  # 55
                self._color_np.ctypes.data,  # 56
                st.msg_measured.ctypes.data,  # 57
                st.msg_t_inject.ctypes.data,  # 58
                self.alloc_attempts.ctypes.data,  # 59
                self.alloc_failures.ctypes.data,  # 60
                self._injected.ctypes.data,  # 61
                self._hb_req.ctypes.data,  # 62
                self._hb_blk.ctypes.data,  # 63
                self._hb_wait.ctypes.data,  # 64
                self._hb_max,  # 65
                st.msg_t_gen.ctypes.data,  # 66
                self._in_flight.ctypes.data,  # 67
                self._measured_in_flight.ctypes.data,  # 68
                self._completed.ctypes.data,  # 69
                st.free_stack.ctypes.data,  # 70
                st.free_n.ctypes.data,  # 71
                self._lat_sum.ctypes.data,  # 72
                self._net_sum.ctypes.data,  # 73
                self._srcw_sum.ctypes.data,  # 74
                self._mcount.ctypes.data,  # 75
                self._lat_bsum.ctypes.data,  # 76
                self._lat_bcount.ctypes.data,  # 77
                self._w_t0.ctypes.data,  # 78
                self._w_width.ctypes.data,  # 79
                self._w_batches.ctypes.data,  # 80
                self._Bmax,  # 81
                self._c_tstage.ctypes.data,  # 82
                self._gen_node_t.ctypes.data,  # 83
                self._gen_next.ctypes.data,  # 84
                self._arr_buf.ctypes.data,  # 85
                self._arr_pos.ctypes.data,  # 86
                self._arr_len.ctypes.data,  # 87
                self._dst_buf.ctypes.data,  # 88
                self._dst_pos.ctypes.data,  # 89
                self._dst_len.ctypes.data,  # 90
                _GEN_BLOCK,  # 91
                self._qnext.ctypes.data,  # 92
                self._qhead.ctypes.data,  # 93
                self._qtail.ctypes.data,  # 94
                self._qlen.ctypes.data,  # 95
                self._act.ctypes.data,  # 96
                self._c_cb_ptr,  # 97
                self._generated.ctypes.data,  # 98
                self._measured_generated.ctypes.data,  # 99
                self._warm_np.ctypes.data,  # 100
                self._horizon_np.ctypes.data,  # 101
                self._end_np.ctypes.data,  # 102
                self._active_np.ctypes.data,  # 103
                self._slots,  # 104
                grace,  # 105
                self._progress_marks.ctypes.data,  # 106
                self._last_progress.ctypes.data,  # 107
                self.config.sample_interval,  # 108
                self._c_ugate.ctypes.data,  # 109
                self._ej_cap_rows,  # 110
                self._c_rs.ctypes.data,  # 111
                self.state.phase_ns.ctypes.data if self._prof is not None else 0,  # 112
                0 if st.probe_data is None else st.probe_data.ctypes.data,  # 113
                0 if st.probe_cycles is None else st.probe_cycles.ctypes.data,  # 114
                0 if st.probe_state is None else st.probe_state.ctypes.data,  # 115
                self._probe_int or 0,  # 116
                st.probe_capacity,  # 117
            ],
            dtype=np.int64,
        )
        self._c_params = params
        self._c_params_ptr = params.ctypes.data
        self._c_args = params  # sentinel: block is built

    def _cycle_c(self, cycle: int) -> None:
        """Run allocation + transfer + ejection through the compiled kernel.

        Completion bookkeeping (latency sums, slot recycling, ejection-
        column removal) happens inside the kernel too, and unresolved
        route rows of ready headers fill through the kind-2 callback, so the
        common steady-state cycle is one ctypes call plus a handful of
        scalar reads here.
        """
        st = self.state
        if self._msg_cap != st.capacity:
            self._sync_msg_cap()
        do_alloc = (
            1
            if (self._c_alloc_ok and self._choose_vc is None and self._need_total)
            else 0
        )
        if do_alloc:
            self._ensure_uniforms()
            # Every pending header could finish routing and append an
            # ejection row; reserve up front so C never reallocates.
            rows = self._ejecting_count + self._need_total
            if self._ej_cap_rows < rows:
                self._ensure_ej_capacity(rows)
        if self._c_args is None or self._c_msg_cap != st.capacity:
            self._refresh_c_args()
        params = self._c_params
        params[_EJ_N_SLOT] = self._ejecting_count
        params[_DO_ALLOC_SLOT] = do_alloc
        params[_CYCLE_SLOT] = cycle
        self._ck(self._c_params_ptr)
        out = self._c_out.tolist()  # one bulk read beats 5 scalar reads
        if out[4]:
            if out[4] & _ERR_CALLBACK:
                self._raise_cb_exc()
            raise SimulationError(
                f"compiled cycle kernel invariant failure at cycle {cycle} "
                f"({_INVARIANT_CAUSES})"
            )
        self._busy_vcs += out[1]
        self._ejecting_count = out[5]
        # Allocation consumed headers and/or ready events appended some:
        # the C-side sum is authoritative either way.
        self._need_total = out[6]
        fn = out[2]
        if fn:
            N = st.num_nodes
            af = self._f_act
            act_set = self._act_set
            for x in self._c_fin[:fn].tolist():
                af[x] = 1
                act_set.add((x // N, x % N))
            self._act_any = True

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------

    def _snapshot(self, rep: int) -> dict:
        """Headline numbers of ``rep``, frozen at its logical stop cycle.

        Accumulator-derived values (latency means, CI, hop-blocking
        counters) are copied out here because batch companions with later
        horizons keep the simulation — but not this replication's
        result — moving.
        """
        cnt = int(self._mcount[rep])
        lat_mean = float(self._lat_sum[rep]) / cnt if cnt else math.nan
        net_mean = float(self._net_sum[rep]) / cnt if cnt else math.nan
        srcw_mean = float(self._srcw_sum[rep]) / cnt if cnt else math.nan
        # ~95% CI half-width from batch means — same estimator (and the
        # same normal critical value) as LatencyAccumulator.ci_halfwidth.
        bs = self._lat_bsum[rep]
        bc = self._lat_bcount[rep]
        means = [
            float(bs[i]) / int(bc[i])
            for i in range(int(self._w_batches[rep]))
            if bc[i] > 0
        ]
        k = len(means)
        if k < 2:
            lat_ci = math.nan
        else:
            mu = sum(means) / k
            var = sum((m - mu) ** 2 for m in means) / (k - 1)
            lat_ci = 1.96 * math.sqrt(var / k)
        sum_v, sum_v2 = self._load_acc[rep, 1:3].tolist()
        return {
            "cycles_run": self.cycle,
            "transfers": int(self.state.transfers[rep]),
            "backlog": int(self._qlen[rep].sum()),
            "generated": int(self._generated[rep]),
            "measured_generated": int(self._measured_generated[rep]),
            "incomplete": int(self._measured_in_flight[rep]),
            "completed": int(self._completed[rep]),
            "injected_in_window": int(self._injected[rep]),
            "lat_mean": lat_mean,
            "lat_ci": lat_ci,
            "lat_count": cnt,
            "net_mean": net_mean,
            "srcw_mean": srcw_mean,
            # V̄ = E[v²]/E[v] (Dally's eq. 19), as ChannelLoadSampler.
            "multiplexing": sum_v2 / sum_v if sum_v else 1.0,
            "hb_req": self._hb_req[rep].copy(),
            "hb_blk": self._hb_blk[rep].copy(),
            "hb_wait": self._hb_wait[rep].copy(),
        }

    def _result(self, rep: int) -> SimulationResult:
        cfg = self.configs[rep]
        snap = self._final[rep]
        assert snap is not None
        measured_window = cfg.measure_cycles * self.topology.num_nodes
        accepted = (
            snap["injected_in_window"] / measured_window if measured_window else 0.0
        )
        saturated = False
        if cfg.generation_rate > 0:
            if snap["backlog"] > max(20.0, 0.02 * snap["generated"]):
                saturated = True
            if snap["incomplete"] > 0.05 * max(snap["measured_generated"], 1):
                saturated = True
        total_capacity = self._C * max(snap["cycles_run"], 1)
        hb = HopBlockingStats(self._hb_max)
        hb._requests = [int(x) for x in snap["hb_req"]]
        hb._blocked = [int(x) for x in snap["hb_blk"]]
        hb._wait_total = [float(x) for x in snap["hb_wait"]]
        return SimulationResult(
            mean_latency=snap["lat_mean"],
            mean_network_latency=snap["net_mean"],
            mean_source_wait=snap["srcw_mean"],
            latency_ci=snap["lat_ci"],
            messages_measured=snap["lat_count"],
            messages_generated=snap["generated"],
            messages_completed=snap["completed"],
            saturated=saturated,
            offered_rate=cfg.generation_rate,
            accepted_rate=accepted,
            mean_multiplexing=snap["multiplexing"],
            channel_utilization=snap["transfers"] / total_capacity,
            cycles_run=snap["cycles_run"],
            backlog=snap["backlog"],
            hop_blocking=hb,
        )
