"""The array backend of the wormhole simulator: a resident C cycle loop.

:class:`ArraySimulator` advances a *batch* of R independent replications
through the same four-phase cycle as the object engine
(:mod:`repro.simulation.engine`):

1. **generation/activation** — per-replication arrival events feed
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

Every cycle runs in one compiled C function, ``starnet_run``
(``_ckernel.c``, built by :mod:`repro.simulation.ckernel`), over
structure-of-arrays state (:class:`~repro.simulation.state.SimState`
plus the side arrays set up here).  Python sets the state up, services
the loop's callbacks and reads the results; it never runs a cycle.
Without a C compiler the array engine refuses to construct and names
``engine='object'``, the readable reference engine and test oracle.
Design choices:

* **Pre-drawn randomness.**  Arrival instants and destinations are drawn
  in per-node blocks from the workload objects
  (:meth:`ArrivalProcess.draw_block` /
  :meth:`SpatialPattern.destinations_block`), which reproduce the
  one-at-a-time stream bit for bit; allocation uniforms are pre-drawn
  into a per-replication buffer the kernel consumes in a deterministic
  order (shuffle first, then at most one draw per header).  The kernel
  therefore never touches a bit generator.
* **Routing as data.**  A header's candidate VCs are the product of two
  tables: a packed route table ``route[cur * N + dst] = {dist, nports,
  ports...}`` (int8, ``dist = -1`` until first asked for, then filled
  by :meth:`ArraySimulator._fill_route`) and an eligibility-class table
  built eagerly from :meth:`RoutingAlgorithm.eligible` over every
  (remaining distance, colour, escape floor) — the paper's equations
  (9)-(11).  Candidates are enumerated port-major in ``ports()`` order,
  then ascending VC index, adaptive before escape.  The escape-floor
  update is the stock :meth:`RoutingAlgorithm.advance_floor` arithmetic;
  algorithms that override it run on ``engine='object'``.
* **Arbitration without a V cap.**  Round-robin winners come from a
  packed lookup table up to V = 15 and from an equivalent
  smallest-cyclic-offset scan beyond.
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

Work Python must do inside a cycle — block refills, route-row fills,
uniform-buffer refills — is a callback
(:meth:`ArraySimulator._cb_dispatch`).  The loop returns only on stops,
message-pool exhaustion (Python grows the pool and re-enters at the same
generation event), the one-cycle limit of :meth:`ArraySimulator.step`,
the watchdog and errors; a return costs O(1) Python work.  The kernel is
single-threaded, so parallelism comes from running whole simulators in
separate processes (see docs/simulation.md, "Parallelism model").
ctypes releases the GIL while it runs, which keeps the service's HTTP
threads answering during a refinement.
"""

from __future__ import annotations

import ctypes
import dataclasses
import math
import time
import weakref

import numpy as np

from repro.routing.base import MessageRouteState, RoutingAlgorithm, SelectionPolicy
from repro.simulation.ckernel import kernel_error, load_kernel
from repro.simulation.config import SimulationConfig
from repro.simulation.metrics import HopBlockingStats, SimulationResult, t_halfwidth
from repro.simulation.state import MAX_BUFFER_DEPTH, SimState
from repro.topology.base import Topology
from repro.utils.exceptions import ConfigurationError, SimulationError
from repro.utils.rng import StreamBank, spawn_generator

__all__ = ["ArraySimulator"]

#: Widest VC count the packed round-robin lookup table supports; wider
#: configurations use the kernel's cyclic-offset scan.
_MAX_LUT_VCS = 15

#: Slot of the uniform buffer in the kernel's parameter block (layout in
#: _ckernel.c, kept in lockstep with _refresh_c_args); a kind-4 callback
#: that widens the buffer patches it and the next slot in place.
_UNIFORM_SLOT = 49

#: Arrival-instant / destination block size per (replication, node).
_GEN_BLOCK = 64

#: Largest network the array backend takes: the N x N route table
#: grows quadratically (larger networks run on engine='object').
_MAX_NODES = 2048

#: starnet_run return reasons, one per return (mirrored in _ckernel.c).
_RUN_STOP = 1
_RUN_GROW = 2
_RUN_WATCHDOG = 4
_RUN_CBERR = 8
_RUN_ERR = 16
_RUN_LIMIT = 32

#: What a kernel invariant failure can mean.
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


#: Phase-profiling slot names of ``SimState.phase_ns`` (slots 0-3,
#: written by the kernel; slot 5 holds the total run() wall time).
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


class ArraySimulator:
    """A batch of R simulation replications advanced by the C cycle loop.

    Construct with either ``config`` (+ optional ``seeds``, the classic
    homogeneous batch: one config, one seed per replication) or
    ``configs`` (heterogeneous work units: per-replication rate, seed and
    cycle windows — structural parameters must match).  Needs the
    compiled kernel: without one, construction raises
    :class:`ConfigurationError` naming ``engine='object'``.

    ``profile=True`` turns on per-phase cycle timing: the kernel
    accumulates monotonic-clock nanoseconds per phase into
    ``state.phase_ns``, surfaced through :meth:`phase_profile` and
    attached to the first replication's result.  It is a pure
    observation knob — results are bit-identical either way and campaign
    content-hash keys ignore it.  Off (the default) the kernel gets a
    NULL profiling pointer, so the cost is one predictable branch per
    phase — the guarded benchmarks run with it off.

    ``probe_interval=k`` turns on cycle-resolution time-series probes:
    every k cycles the kernel writes per-replication in-flight,
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
        self._kernel = load_kernel()
        if self._kernel is None:
            raise ConfigurationError(
                f"the array engine needs the compiled C kernel "
                f"({kernel_error()}); use engine='object'"
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
        if type(algorithm).advance_floor is not RoutingAlgorithm.advance_floor:
            raise ConfigurationError(
                f"{algorithm.name}: the array backend runs the stock "
                f"advance_floor arithmetic, which {type(algorithm).__name__} "
                "overrides (use engine='object')"
            )

        R = len(configs)
        N = topology.num_nodes
        V = base.total_vcs

        self._M = base.message_length
        self._depth = base.buffer_depth
        self._ej_rate = base.ejection_rate
        self._slots = base.effective_injection_slots()
        self._V = V
        self._deg = topology.degree
        self._C = topology.num_channels
        self._R = R
        self._N = N
        self.state = SimState(
            topology, V, self._M, R, initial_capacity=max(64, 2 * N * self._slots)
        )
        self.profile = bool(profile)
        #: Phase-timing accumulators, or None when profiling is off.
        self._prof = self.state.phase_ns if self.profile else None
        if probe_interval is not None and probe_interval < 1:
            raise ConfigurationError(
                f"probe_interval must be >= 1, got {probe_interval}"
            )
        #: Time-series probe stride in cycles, or None when probing is
        #: off (the ring buffers are allocated after the measurement
        #: windows are known, below).
        self._probe_int = None if probe_interval is None else int(probe_interval)
        self._color_np = np.array(
            [topology.color(u) for u in range(N)], dtype=np.uint8
        )
        #: Flat neighbor list: entry ``channel`` = node reached through it.
        self._neighbors_np = np.ascontiguousarray(
            topology.neighbor_table.ravel(), dtype=np.int32
        )
        #: Route table, one packed int8 row {dist, nports, ports...} per
        #: (cur, dst) pair; dist = -1 until _fill_route resolves the row
        #: (at generation for (src, dst), at a ready event for (cur, dst)).
        self._route_state = MessageRouteState()
        self._route_w = 2 + self._deg
        self._route = np.full(N * N * self._route_w, -1, dtype=np.int8)
        self._build_class_table()
        # Round-robin winners come from a packed lookup table up to
        # _MAX_LUT_VCS; wider VC counts use the kernel's cyclic scan.
        self._lut = _build_rr_lut(V) if V <= _MAX_LUT_VCS else None
        self._policy_code = {
            SelectionPolicy.ADAPTIVE_FIRST: 0,
            SelectionPolicy.LOWEST_ESCAPE: 1,
            SelectionPolicy.RANDOM: 2,
        }[algorithm.policy]

        # -- per-replication random streams ------------------------------
        # Same (seed, name) keys as a single run with that seed, so each
        # replication's draws are a pure function of its own config.
        self.workload = base.workload_spec()
        #: One spatial pattern per replication: a stateful pattern (trace
        #: replay keeps a cursor per source) must not couple replications.
        self._spatial = [
            self.workload.build_spatial(topology=topology) for _ in configs
        ]
        self._alloc_gen = [spawn_generator(c.seed, "allocator") for c in configs]
        self._buf_cap = 4096
        self._alloc_buf = np.empty((R, self._buf_cap), dtype=np.float64)
        for rep in range(R):
            self._alloc_buf[rep] = self._alloc_gen[rep].random(self._buf_cap)
        self._alloc_pos = np.zeros(R, dtype=np.int64)
        #: Amortized shortage gate {headroom, spend} shared with the
        #: kernel (see _ensure_uniforms): headroom is a lower bound on
        #: every row's remaining variates at the last exact check, spend
        #: an upper bound on any row's consumption since.
        self._c_ugate = np.array([self._buf_cap, 0], dtype=np.int64)
        #: Arrival streams (rep * N + node), then destination streams
        #: (R * N + rep * N + node): the same draws as RngStreams'
        #: traffic(node) and dest(node) for that replication's seed.
        self._streams = StreamBank(
            [(c.seed, "traffic", u) for c in configs for u in range(N)]
            + [(c.seed, "dest", u) for c in configs for u in range(N)]
        )
        # Generation state: pre-drawn arrival/destination blocks with
        # cursors, the next-arrival instant per node, and the linked-list
        # source queues below.  One outstanding arrival per node makes the
        # event order canonical — the smallest (instant, node) pair.
        self._arr_buf = np.zeros((R, N, _GEN_BLOCK), dtype=np.float64)
        self._arr_pos = np.zeros((R, N), dtype=np.int32)
        self._arr_len = np.zeros((R, N), dtype=np.int32)
        self._dst_buf = np.zeros((R, N, _GEN_BLOCK), dtype=np.int32)
        self._dst_pos = np.zeros((R, N), dtype=np.int32)
        self._dst_len = np.zeros((R, N), dtype=np.int32)
        self._gen_node_t = np.full((R, N), math.inf, dtype=np.float64)
        self._sources = [[None] * N for _ in range(R)]
        for rep in range(R):
            for node in range(N):
                # every arrival process shares the bank's Generator, so
                # its stream is selected before each of its draws
                gen = self._streams.select(rep * N + node)
                src = self.workload.build_temporal(configs[rep].generation_rate, gen)
                self._sources[rep][node] = src
                if src.rate == 0:
                    continue
                buf = src.draw_block(_GEN_BLOCK)
                self._arr_buf[rep, node, : len(buf)] = buf
                self._arr_len[rep, node] = len(buf)
                # Seed with the first instant *unconsumed* (cursor 0):
                # the object engine seeds its heap with peek(), so the
                # first event re-pushes the same instant — that quirk
                # is part of the frozen per-seed generation contract.
                self._gen_node_t[rep, node] = buf[0]
        #: Per-replication minima of ``_gen_node_t``, so the kernel's
        #: generation fast path compares one float per replication.
        self._gen_next = self._gen_node_t.min(axis=1)
        #: Nodes with messages to (re)activate.
        self._act = np.zeros((R, N), dtype=np.uint8)

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
        # Ejection columns never grow: ejecting messages plus pending
        # headers are at most R * (C*V + N*slots) (see _ckernel.c).
        rows = R * (self._C * V + N * self._slots)
        self._ej_reps = np.zeros(rows, dtype=np.int64)
        self._ej_slots = np.zeros(rows, dtype=np.int64)
        self._ej_flats = np.zeros(rows, dtype=np.int64)
        self._ej_mflats = np.zeros(rows, dtype=np.int64)
        self._ej_pos = np.full((R, cap), -1, dtype=np.int64)
        self._ejecting_count = 0
        self._msg_cap = cap
        self._busy_vcs = 0
        self.cycle = 0

        # Kernel scratch: ejection picks and completions (one per row),
        # per-rep transfer winners and finished injections, free
        # candidate VCs of one header (adaptive | escape), per-rep
        # staging of the merge.
        self._c_ejk = np.empty(rows, dtype=np.int32)
        self._c_comps = np.empty(rows, dtype=np.int64)
        self._c_winners = np.empty(R * self._C, dtype=np.int64)
        self._c_fin = np.empty(R * self._C, dtype=np.int64)
        self._c_alloc_scr = np.empty(2 * self._deg * V, dtype=np.int32)
        self._c_tstage = np.zeros(R * 8, dtype=np.int64)
        #: Scalar in/out block of the kernel: {cycle, busy_vcs,
        #: ejecting_count, need_total, reason, aux rep, limit, spare}.
        self._c_rs = np.zeros(8, dtype=np.int64)
        #: ctypes callback handed to the kernel (see _cb_dispatch);
        #: exceptions are stashed and re-raised after the C call
        #: returns.  It reaches the simulator through a weak method, so
        #: the callback never keeps its owner alive.
        self._cb_exc: BaseException | None = None
        self._c_cb = _CB_TYPE(_weak_dispatch(self._cb_dispatch))
        self._c_cb_ptr = ctypes.c_void_p.from_buffer(self._c_cb).value or 0
        #: Driver event counters surfaced by phase_profile(): returns
        #: from run()'s kernel calls and service callbacks into Python.
        self._n_returns = 0
        self._n_callbacks = 0

        self._last_progress = np.zeros(R, dtype=np.int64)
        self._progress_marks = np.full(R, -1, dtype=np.int64)
        # Message/latency bookkeeping: flat arrays the kernel updates.
        self._in_flight = np.zeros(R, dtype=np.int64)
        self._measured_in_flight = np.zeros(R, dtype=np.int64)
        self._completed = np.zeros(R, dtype=np.int64)
        self._generated = np.zeros(R, dtype=np.int64)
        self._measured_generated = np.zeros(R, dtype=np.int64)
        self._injected = np.zeros(R, dtype=np.int64)
        self.alloc_attempts = np.zeros(R, dtype=np.int64)
        self.alloc_failures = np.zeros(R, dtype=np.int64)

        # Per-replication measurement windows (ragged horizons allowed).
        self._horizon_per = [c.horizon for c in configs]
        self._end_per = [c.horizon + c.drain_cycles for c in configs]
        self._warm_np = np.array([c.warmup_cycles for c in configs], dtype=np.int64)
        self._horizon_np = np.array(self._horizon_per, dtype=np.int64)
        self._end_np = np.array(self._end_per, dtype=np.int64)
        #: 1 while the replication's result is not yet frozen.
        self._active_np = np.ones(R, dtype=np.uint8)
        for c in configs:
            if c.batches < 1:
                raise ValueError("batches must be >= 1")
            if c.horizon <= c.warmup_cycles:
                raise ValueError("empty measurement window")
        if self._probe_int is not None:
            # The batch never cycles past the longest drain horizon, so
            # a ring sized off it can't overflow (the kernel still
            # guards on capacity); warmup cycles are probed too — the
            # warmup-adequacy detector needs the transient.
            self.state.alloc_probes(max(self._end_per) // self._probe_int + 2)
        # Streaming latency sums (the array twin of LatencyAccumulator):
        # one scalar sum per metric plus per-batch sums for the CI, all
        # accumulated in message-completion order.
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
        #: ChannelLoadSampler.
        self._load_acc = np.zeros((R, 4), dtype=np.int64)
        self._hb_max = topology.diameter()
        self._hb_req = np.zeros((R, self._hb_max + 1), dtype=np.int64)
        self._hb_blk = np.zeros((R, self._hb_max + 1), dtype=np.int64)
        self._hb_wait = np.zeros((R, self._hb_max + 1), dtype=np.int64)
        self._final: list[dict | None] = [None] * R
        self._refresh_c_args()

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
        untouched by its companions' remaining cycles.  The kernel
        returns to Python only for those stops and for message-pool
        growth — a handful of returns per run.

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
        R = self._R
        final = self._final
        horizons = self._horizon_per
        ends = self._end_per
        remaining = sum(1 for f in final if f is None)
        while remaining:
            reason = self._enter(-1)
            self._n_returns += 1
            if reason == _RUN_STOP:
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
        return [self._result(rep) for rep in range(R)]

    def step(self) -> None:
        """Advance every replication by one cycle.

        One kernel call limited to the next cycle (re-entered after a
        message-pool growth).  Like the object engine's ``step()``, it
        applies no stop conditions: replications keep generating until
        :meth:`run` stops them.
        """
        limit = self.cycle + 1
        while self._enter(limit) != _RUN_LIMIT:
            pass

    def phase_profile(self) -> dict:
        """Accumulated per-phase wall time in nanoseconds.

        Keys: the four phase groups (``generation``, ``activation``,
        ``route`` — VC allocation, switch traversal and ejection picking,
        phases 2-4 — and ``complete``, the serial phase-5 bookkeeping),
        plus ``other`` (driver overhead: watchdog, sampling, Python/C
        crossings), ``total`` and ``cycles``.  The timings are all zeros
        when profiling is off.

        Two event counts ride along, counted whether profiling is on or
        not: ``returns`` of :meth:`run`'s kernel calls to Python (one per
        stop or message-pool growth) and ``callbacks`` into Python.
        """
        p = self.state.phase_ns
        phases = {name: int(p[i]) for i, name in enumerate(_PROF_PHASES)}
        accounted = sum(phases.values())
        total = max(int(p[_PROF_TOTAL_SLOT]), accounted)
        phases["other"] = total - accounted
        phases["total"] = total
        phases["cycles"] = int(self.cycle)
        phases["returns"] = self._n_returns
        phases["callbacks"] = self._n_callbacks
        return phases

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

    # ------------------------------------------------------------------
    # The kernel call and its callbacks
    # ------------------------------------------------------------------

    def _enter(self, limit: int) -> int:
        """One ``starnet_run`` call from the current cycle; its reason.

        ``limit < 0`` runs until a replication reaches its stop
        condition, otherwise to cycle ``limit`` with no stop conditions.
        Scalar state crosses through the run-state block.  An exhausted
        message pool is grown here and the caller re-enters at the same
        generation event, without Python running any of the cycle.
        Watchdog, callback and invariant returns raise.
        """
        if self._msg_cap != self.state.capacity:  # grown by the caller
            self._sync_msg_cap()
        rs = self._c_rs
        rs[0] = self.cycle
        rs[1] = self._busy_vcs
        rs[2] = self._ejecting_count
        rs[3] = self._need_total
        rs[6] = limit
        self._kernel(self._c_params_ptr)
        reason = int(rs[4])
        self.cycle = int(rs[0])
        self._busy_vcs = int(rs[1])
        self._ejecting_count = int(rs[2])
        self._need_total = int(rs[3])
        if reason == _RUN_CBERR:
            self._raise_cb_exc()
        if reason == _RUN_ERR:
            raise SimulationError(
                f"compiled cycle kernel invariant failure at cycle "
                f"{self.cycle} ({_INVARIANT_CAUSES})"
            )
        if reason == _RUN_WATCHDOG:
            rep = int(rs[5])
            raise SimulationError(
                f"no progress for {self._c_grace} cycles at cycle {self.cycle} "
                f"with {self._in_flight[rep]} messages in flight "
                f"(replication {rep}, seed {self.seeds[rep]}) — "
                "routing deadlock?"
            )
        if reason == _RUN_GROW:
            self.state.grow()
        return reason

    def _stop_rep(self, rep: int) -> None:
        """Freeze one replication: no further traffic, samples or checks."""
        self._gen_next[rep] = math.inf
        self._active_np[rep] = 0

    def _refill_arr(self, rep: int, node: int) -> None:
        """Refill one node's pre-drawn arrival block, cursor reset."""
        self._streams.select(rep * self._N + node)
        buf = self._sources[rep][node].draw_block(_GEN_BLOCK)
        self._arr_buf[rep, node, : len(buf)] = buf
        self._arr_len[rep, node] = len(buf)
        self._arr_pos[rep, node] = 0

    def _refill_dst(self, rep: int, node: int) -> None:
        """Refill one node's pre-drawn destination block, cursor reset."""
        buf = self._spatial[rep].destinations_block(
            node, _GEN_BLOCK, self._streams.select((self._R + rep) * self._N + node)
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
            self._need_total = a
            self._ensure_uniforms()
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

    # ------------------------------------------------------------------
    # Routing tables
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
        self._cls_d = diameter

    def _fill_route(self, cur: int, dst: int) -> int:
        """Resolve route row (cur, dst) — distance and ports — and
        return the distance (the kind-2 callback lands here)."""
        ports = self.algorithm.ports(self.topology, cur, dst)
        dist = self.topology.distance(cur, dst)
        off = (cur * self.state.num_nodes + dst) * self._route_w
        row = self._route
        row[off + 1] = len(ports)
        row[off + 2 : off + 2 + len(ports)] = ports
        row[off] = dist
        return dist

    # ------------------------------------------------------------------
    # Buffers the kernel cannot grow itself
    # ------------------------------------------------------------------

    def _ensure_uniforms(self) -> None:
        """Refill the pre-drawn uniforms for this cycle's allocation.

        The kind-4 callback: the kernel calls it when its amortized gate
        ``_c_ugate`` fails and some row is actually short.  Worst case
        per replication: n-1 shuffle draws plus one draw per header =
        2n-1.  A short row is refilled wholesale (remaining variates are
        discarded), which keeps the stream deterministic.  When the need
        outgrows the buffer itself, it is widened and *every* row is
        refilled, so no row reads past its old capacity; the new buffer
        is patched into the live parameter block.  Finally the gate is
        re-based: every row has at least ``headroom`` variates left, and
        this cycle spends at most ``2 * need_total`` of them.
        """
        worst = 2 * self._need_n
        short = (self._buf_cap - self._alloc_pos) < worst
        if short.any():
            wmax = int(worst.max())
            if wmax > self._buf_cap:
                self._buf_cap = 1 << (wmax - 1).bit_length()
                self._alloc_buf = np.empty((self._R, self._buf_cap), dtype=np.float64)
                refill = range(self._R)
                self._c_params[_UNIFORM_SLOT] = self._alloc_buf.ctypes.data
                self._c_params[_UNIFORM_SLOT + 1] = self._buf_cap
            else:
                refill = np.nonzero(short)[0].tolist()
            for rep in refill:
                self._alloc_buf[rep] = self._alloc_gen[rep].random(self._buf_cap)
                self._alloc_pos[rep] = 0
        self._c_ugate[0] = self._buf_cap - int(self._alloc_pos.max())
        self._c_ugate[1] = 2 * self._need_total

    def _sync_msg_cap(self) -> None:
        """Re-size the capacity-sized side arrays after the pool grew,
        then rebuild the kernel's parameter block (every message array
        moved)."""
        old = self._msg_cap
        new = self.state.capacity
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
        self._refresh_c_args()

    def _refresh_c_args(self) -> None:
        """(Re)build the C kernel's parameter block.

        Called at construction and whenever the message pool grew (every
        message array moved).  Uniform-buffer growth patches its slots
        in place instead — it happens inside a callback; the route table
        never moves, its rows fill in place.  Slot layout documented in
        _ckernel.c — the indices here must match it exactly.
        """
        st = self.state
        ej_rate = -1 if self._ej_rate is None else int(self._ej_rate)
        grace = self.config.watchdog_grace
        if grace is None:
            # The object engine's module default, resolved late so a
            # monkeypatched _WATCHDOG_GRACE governs both backends.
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
                self._c_ejk.ctypes.data,  # 25
                self._c_winners.ctypes.data,  # 26
                self._c_fin.ctypes.data,  # 27
                self._c_comps.ctypes.data,  # 28
                self._c_alloc_scr.ctypes.data,  # 29
                self._load_acc.ctypes.data,  # 30
                st.ch_busy.ctypes.data,  # 31
                self._policy_code,  # 32
                self.vc_config.num_adaptive,  # 33
                self._deg,  # 34
                self._need_slots.ctypes.data,  # 35
                self._need_n.ctypes.data,  # 36
                st.p_dst.ctypes.data,  # 37
                st.p_header.ctypes.data,  # 38
                st.p_dist.ctypes.data,  # 39
                st.p_floor.ctypes.data,  # 40
                st.p_hops.ctypes.data,  # 41
                st.p_first_attempt.ctypes.data,  # 42
                st.p_head_vc.ctypes.data,  # 43
                self._route.ctypes.data,  # 44
                self._route_w,  # 45
                self._cls.ctypes.data,  # 46
                self._cls_d,  # 47
                self.vc_config.num_escape,  # 48
                self._alloc_buf.ctypes.data,  # 49
                self._buf_cap,  # 50
                self._alloc_pos.ctypes.data,  # 51
                self._neighbors_np.ctypes.data,  # 52
                self._color_np.ctypes.data,  # 53
                st.msg_measured.ctypes.data,  # 54
                st.msg_t_inject.ctypes.data,  # 55
                self.alloc_attempts.ctypes.data,  # 56
                self.alloc_failures.ctypes.data,  # 57
                self._injected.ctypes.data,  # 58
                self._hb_req.ctypes.data,  # 59
                self._hb_blk.ctypes.data,  # 60
                self._hb_wait.ctypes.data,  # 61
                self._hb_max,  # 62
                st.msg_t_gen.ctypes.data,  # 63
                self._in_flight.ctypes.data,  # 64
                self._measured_in_flight.ctypes.data,  # 65
                self._completed.ctypes.data,  # 66
                st.free_stack.ctypes.data,  # 67
                st.free_n.ctypes.data,  # 68
                self._lat_sum.ctypes.data,  # 69
                self._net_sum.ctypes.data,  # 70
                self._srcw_sum.ctypes.data,  # 71
                self._mcount.ctypes.data,  # 72
                self._lat_bsum.ctypes.data,  # 73
                self._lat_bcount.ctypes.data,  # 74
                self._w_t0.ctypes.data,  # 75
                self._w_width.ctypes.data,  # 76
                self._w_batches.ctypes.data,  # 77
                self._Bmax,  # 78
                self._c_tstage.ctypes.data,  # 79
                self._gen_node_t.ctypes.data,  # 80
                self._gen_next.ctypes.data,  # 81
                self._arr_buf.ctypes.data,  # 82
                self._arr_pos.ctypes.data,  # 83
                self._arr_len.ctypes.data,  # 84
                self._dst_buf.ctypes.data,  # 85
                self._dst_pos.ctypes.data,  # 86
                self._dst_len.ctypes.data,  # 87
                _GEN_BLOCK,  # 88
                self._qnext.ctypes.data,  # 89
                self._qhead.ctypes.data,  # 90
                self._qtail.ctypes.data,  # 91
                self._qlen.ctypes.data,  # 92
                self._act.ctypes.data,  # 93
                self._c_cb_ptr,  # 94
                self._generated.ctypes.data,  # 95
                self._measured_generated.ctypes.data,  # 96
                self._warm_np.ctypes.data,  # 97
                self._horizon_np.ctypes.data,  # 98
                self._end_np.ctypes.data,  # 99
                self._active_np.ctypes.data,  # 100
                self._slots,  # 101
                grace,  # 102
                self._progress_marks.ctypes.data,  # 103
                self._last_progress.ctypes.data,  # 104
                self.config.sample_interval,  # 105
                self._c_ugate.ctypes.data,  # 106
                self._c_rs.ctypes.data,  # 107
                self.state.phase_ns.ctypes.data if self._prof is not None else 0,  # 108
                0 if st.probe_data is None else st.probe_data.ctypes.data,  # 109
                0 if st.probe_cycles is None else st.probe_cycles.ctypes.data,  # 110
                0 if st.probe_state is None else st.probe_state.ctypes.data,  # 111
                self._probe_int or 0,  # 112
                st.probe_capacity,  # 113
            ],
            dtype=np.int64,
        )
        self._c_params = params
        self._c_params_ptr = params.ctypes.data

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
        # 95% CI half-width from batch means — the same estimator as
        # LatencyAccumulator.ci_halfwidth.
        bs = self._lat_bsum[rep]
        bc = self._lat_bcount[rep]
        lat_ci = t_halfwidth([
            float(bs[i]) / int(bc[i])
            for i in range(int(self._w_batches[rep]))
            if bc[i] > 0
        ])
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
