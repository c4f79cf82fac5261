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
structure-of-arrays state (:class:`~repro.simulation.state.SimState`,
the one owner of every array and scalar the loop sees, filled into the
kernel's parameter block by name).  This module is the driver: it draws
the random blocks, services the loop's callbacks, grows the message pool
and reads the results; it never runs a cycle.
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
  built eagerly (:func:`~repro.simulation.state.build_class_table`) from
  :meth:`RoutingAlgorithm.eligible` over every
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

from repro.routing.base import RoutingAlgorithm
from repro.simulation.ckernel import ParamBlock, kernel_error, kernel_fields, load_kernel
from repro.simulation.config import SimulationConfig
from repro.simulation.metrics import HopBlockingStats, SimulationResult, t_halfwidth
from repro.simulation.state import SimState
from repro.topology.base import Topology
from repro.utils.exceptions import ConfigurationError, SimulationError
from repro.utils.rng import StreamBank, spawn_generator

__all__ = ["ArraySimulator"]

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


#: Phase names of ``SimState.phase_ns``, in kernel order.
_PROF_PHASES = ("generation", "activation", "route", "complete")

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
        for c in configs:
            if c.batches < 1:
                raise ValueError("batches must be >= 1")
            if c.horizon <= c.warmup_cycles:
                raise ValueError("empty measurement window")
        if probe_interval is not None and probe_interval < 1:
            raise ConfigurationError(
                f"probe_interval must be >= 1, got {probe_interval}"
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
        if type(algorithm).advance_floor is not RoutingAlgorithm.advance_floor:
            raise ConfigurationError(
                f"{algorithm.name}: the array backend runs the stock "
                f"advance_floor arithmetic, which {type(algorithm).__name__} "
                "overrides (use engine='object')"
            )
        self.profile = bool(profile)
        #: Time-series probe stride in cycles, or None when probing is off.
        self._probe_int = None if probe_interval is None else int(probe_interval)
        self.state = st = SimState(
            topology,
            algorithm,
            self.vc_config,
            configs,
            profile=self.profile,
            probe_interval=self._probe_int,
        )

        # -- per-replication random streams ------------------------------
        # Same (seed, name) keys as a single run with that seed, so each
        # replication's draws are a pure function of its own config.
        R, N = st.replications, st.num_nodes
        self.workload = base.workload_spec()
        #: One spatial pattern per replication: a stateful pattern (trace
        #: replay keeps a cursor per source) must not couple replications.
        self._spatial = [
            self.workload.build_spatial(topology=topology) for _ in configs
        ]
        self._alloc_gen = [spawn_generator(c.seed, "allocator") for c in configs]
        for rep in range(R):
            st.alloc_buf[rep] = self._alloc_gen[rep].random(st.buf_cap)
        #: Arrival streams (rep * N + node), then destination streams
        #: (R * N + rep * N + node): the same draws as RngStreams'
        #: traffic(node) and dest(node) for that replication's seed.
        self._streams = StreamBank(
            [(c.seed, "traffic", u) for c in configs for u in range(N)]
            + [(c.seed, "dest", u) for c in configs for u in range(N)]
        )
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
                self._refill_arr(rep, node)
                # Seed with the first instant *unconsumed* (cursor 0):
                # the object engine seeds its heap with peek(), so the
                # first event re-pushes the same instant — that quirk
                # is part of the frozen per-seed generation contract.
                st.gen_node_t[rep, node] = st.arr_buf[rep, node, 0]
        st.gen_next[:] = st.gen_node_t.min(axis=1)

        #: ctypes callback handed to the kernel (see _cb_dispatch);
        #: exceptions are stashed and re-raised after the C call
        #: returns.  It reaches the simulator through a weak method, so
        #: the callback never keeps its owner alive.
        self._cb_exc: BaseException | None = None
        self._c_cb = _CB_TYPE(_weak_dispatch(self._cb_dispatch))
        st.cb = ctypes.c_void_p.from_buffer(self._c_cb).value or 0
        #: Driver event counters surfaced by phase_profile(): returns
        #: from run()'s kernel calls and service callbacks into Python.
        self._n_returns = 0
        self._n_callbacks = 0
        #: Wall time of the profiled run() calls, in nanoseconds.
        self._total_ns = 0
        self._final: list[dict | None] = [None] * R
        self._block = ParamBlock(kernel_fields(), st)

    @property
    def cycle(self) -> int:
        """Cycles completed so far."""
        return self.state.cycle

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
        if not self.profile and self._probe_int is None:
            return self._run_to_completion()
        t0 = time.perf_counter_ns()
        results = self._run_to_completion()
        if self.profile:
            self._total_ns += time.perf_counter_ns() - t0
            results[0] = dataclasses.replace(
                results[0], phase_ns=self.phase_profile()
            )
        if self._probe_int is not None:
            results[0] = dataclasses.replace(
                results[0], timeseries=self.probe_series()
            )
        return results

    def _run_to_completion(self) -> list[SimulationResult]:
        st = self.state
        final = self._final
        horizons = [c.horizon for c in self.configs]
        ends = [c.horizon + c.drain_cycles for c in self.configs]
        remaining = sum(1 for f in final if f is None)
        while remaining:
            reason = self._enter(-1)
            self._n_returns += 1
            if reason == _RUN_STOP:
                cyc = st.cycle
                for rep, f in enumerate(final):
                    if (
                        f is None
                        and cyc >= horizons[rep]
                        and (cyc >= ends[rep] or st.measured_in_flight[rep] == 0)
                    ):
                        final[rep] = self._snapshot(rep)
                        self._stop_rep(rep)
                        remaining -= 1
        return [self._result(rep) for rep in range(st.replications)]

    def step(self) -> None:
        """Advance every replication by one cycle.

        One kernel call limited to the next cycle (re-entered after a
        message-pool growth).  Like the object engine's ``step()``, it
        applies no stop conditions: replications keep generating until
        :meth:`run` stops them.
        """
        limit = self.state.cycle + 1
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
        phases = {
            name: 0 if p is None else int(p[i]) for i, name in enumerate(_PROF_PHASES)
        }
        accounted = sum(phases.values())
        total = max(self._total_ns, accounted)
        phases["other"] = total - accounted
        phases["total"] = total
        phases["cycles"] = self.state.cycle
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
            num_vcs=st.num_vcs,
        )

    # ------------------------------------------------------------------
    # The kernel call and its callbacks
    # ------------------------------------------------------------------

    def _enter(self, limit: int) -> int:
        """One ``starnet_run`` call from the current cycle; its reason.

        ``limit < 0`` runs until a replication reaches its stop
        condition, otherwise to cycle ``limit`` with no stop conditions.
        The run state crosses through the parameter block.  An exhausted
        message pool is grown here and the caller re-enters at the same
        generation event, without Python running any of the cycle; a
        pool grown since the last call (here or by the caller) is
        re-filled into the block first.  Watchdog, callback and
        invariant returns raise.
        """
        st = self.state
        if self._block.struct.capacity != st.capacity:
            self._block.fill()
        reason = self._block.call(self._kernel, limit)
        if reason == _RUN_CBERR:
            self._raise_cb_exc()
        if reason == _RUN_ERR:
            raise SimulationError(
                f"compiled cycle kernel invariant failure at cycle "
                f"{st.cycle} ({_INVARIANT_CAUSES})"
            )
        if reason == _RUN_WATCHDOG:
            rep = st.stalled_rep
            raise SimulationError(
                f"no progress for {st.grace} cycles at cycle {st.cycle} "
                f"with {st.in_flight[rep]} messages in flight "
                f"(replication {rep}, seed {self.seeds[rep]}) — "
                "routing deadlock?"
            )
        if reason == _RUN_GROW:
            st.grow()
        return reason

    def _stop_rep(self, rep: int) -> None:
        """Freeze one replication: no further traffic, samples or checks."""
        self.state.gen_next[rep] = math.inf
        self.state.active[rep] = 0

    def _refill_arr(self, rep: int, node: int) -> None:
        """Refill one node's pre-drawn arrival block, cursor reset."""
        st = self.state
        self._streams.select(rep * st.num_nodes + node)
        buf = self._sources[rep][node].draw_block(st.gen_block)
        st.arr_buf[rep, node, : len(buf)] = buf
        st.arr_len[rep, node] = len(buf)
        st.arr_pos[rep, node] = 0

    def _refill_dst(self, rep: int, node: int) -> None:
        """Refill one node's pre-drawn destination block, cursor reset."""
        st = self.state
        stream = (st.replications + rep) * st.num_nodes + node
        buf = self._spatial[rep].destinations_block(
            node, st.gen_block, self._streams.select(stream)
        )
        st.dst_buf[rep, node, : len(buf)] = buf
        st.dst_len[rep, node] = len(buf)
        st.dst_pos[rep, node] = 0

    def _cb_dispatch(self, kind: int, a: int, b: int) -> int:
        """The C kernel's service callback (ctypes re-acquires the GIL).

        kind 0/1 refill one node's arrival/destination block, kind 2
        fills route row (cur a, dst b) and returns its distance, kind 4
        refills the uniform buffer for ``need_total`` = a and re-bases
        the loop's gate (:meth:`_ensure_uniforms`).  Exceptions can't
        cross the C frame: the first is stashed for the driver to
        re-raise (:meth:`_raise_cb_exc`) and signalled to C as -1.
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
            self._ensure_uniforms(a)
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

    def _fill_route(self, cur: int, dst: int) -> int:
        """Resolve route row (cur, dst) — distance and ports — and
        return the distance (the kind-2 callback lands here)."""
        st = self.state
        ports = self.algorithm.ports(self.topology, cur, dst)
        dist = self.topology.distance(cur, dst)
        off = (cur * st.num_nodes + dst) * st.route_w
        row = st.route
        row[off + 1] = len(ports)
        row[off + 2 : off + 2 + len(ports)] = ports
        row[off] = dist
        return dist

    def _ensure_uniforms(self, need_total: int) -> None:
        """Refill the pre-drawn uniforms for this cycle's allocation.

        The kind-4 callback: the kernel calls it when its amortized gate
        fails and some row is actually short.  Worst case per
        replication: n-1 shuffle draws plus one draw per header = 2n-1.
        A short row is refilled wholesale (remaining variates are
        discarded), which keeps the stream deterministic.  When the need
        outgrows the buffer itself, it is widened and *every* row is
        refilled, so no row reads past its old capacity.  Finally the
        gate is re-based: every row has at least ``headroom`` variates
        left, and this cycle spends at most ``2 * need_total`` of them.
        The changed fields go into the live parameter block, from which
        the kernel re-reads them.
        """
        st = self.state
        worst = 2 * st.need_n
        short = (st.buf_cap - st.alloc_pos) < worst
        if short.any():
            wmax = int(worst.max())
            if wmax > st.buf_cap:
                st.buf_cap = 1 << (wmax - 1).bit_length()
                st.alloc_buf = np.empty((st.replications, st.buf_cap))
                refill = range(st.replications)
            else:
                refill = np.nonzero(short)[0].tolist()
            for rep in refill:
                st.alloc_buf[rep] = self._alloc_gen[rep].random(st.buf_cap)
                st.alloc_pos[rep] = 0
        st.ugate_headroom = st.buf_cap - int(st.alloc_pos.max())
        st.ugate_spend = 2 * need_total
        self._block.fill("alloc_buf", "buf_cap", "ugate_headroom", "ugate_spend")

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
        st = self.state
        cnt = int(st.mcount[rep])
        lat_mean = float(st.lat_sum[rep]) / cnt if cnt else math.nan
        net_mean = float(st.net_sum[rep]) / cnt if cnt else math.nan
        srcw_mean = float(st.srcw_sum[rep]) / cnt if cnt else math.nan
        # 95% CI half-width from batch means — the same estimator as
        # LatencyAccumulator.ci_halfwidth.
        bs = st.lat_bsum[rep]
        bc = st.lat_bcount[rep]
        lat_ci = t_halfwidth([
            float(bs[i]) / int(bc[i])
            for i in range(int(st.w_batches[rep]))
            if bc[i] > 0
        ])
        sum_v, sum_v2 = st.load_acc[rep, 1:3].tolist()
        return {
            "cycles_run": st.cycle,
            "transfers": int(st.transfers[rep]),
            "backlog": int(st.qlen[rep].sum()),
            "generated": int(st.generated[rep]),
            "measured_generated": int(st.measured_generated[rep]),
            "incomplete": int(st.measured_in_flight[rep]),
            "completed": int(st.completed[rep]),
            "injected_in_window": int(st.injected[rep]),
            "lat_mean": lat_mean,
            "lat_ci": lat_ci,
            "lat_count": cnt,
            "net_mean": net_mean,
            "srcw_mean": srcw_mean,
            # V̄ = E[v²]/E[v] (Dally's eq. 19), as ChannelLoadSampler.
            "multiplexing": sum_v2 / sum_v if sum_v else 1.0,
            "hb_req": st.hb_req[rep].copy(),
            "hb_blk": st.hb_blk[rep].copy(),
            "hb_wait": st.hb_wait[rep].copy(),
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
        total_capacity = self.state.num_channels * max(snap["cycles_run"], 1)
        hb = HopBlockingStats(self.state.hb_max)
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
