"""Trace-diff invariance: per-cycle state digests across ways of driving
the cycle loop.

Result equality is a weak oracle — two drives could diverge mid-run in
state the results never read.  These tests compare SHA-256 digests of
the *complete* mutable state (:mod:`repro.simulation.trace`), so any
divergence is caught at the first cycle it appears, not at the end of
the run.  The object engine stays the oracle for generation.
"""

import pytest

from repro.routing import EnhancedNbc
from repro.simulation import ArraySimulator, SimulationConfig, WormholeSimulator
from repro.simulation.ckernel import load_kernel
from repro.simulation.trace import run_digests, state_digest

needs_kernel = pytest.mark.skipif(
    load_kernel() is None, reason="no C compiler available"
)


def small_config(**overrides):
    base = dict(
        message_length=16,
        generation_rate=0.004,
        total_vcs=5,
        warmup_cycles=300,
        measure_cycles=1_500,
        drain_cycles=2_500,
        seed=7,
    )
    base.update(overrides)
    return SimulationConfig(**base)


@needs_kernel
class TestDriveInvarianceDigests:
    def test_run_matches_per_cycle_steps_s3(self, star3):
        """A ``run()`` that crosses cycle K inside one kernel call ends in
        the same full state as one that first took K one-cycle
        ``step()`` calls (K below every horizon, where ``step()``'s lack
        of stop conditions cannot matter)."""
        cfg = small_config(seed=5, generation_rate=0.01)
        seeds = [5, 6, 7]
        whole = ArraySimulator(star3, EnhancedNbc(), cfg, seeds=seeds)
        results = [r.as_dict() for r in whole.run()]
        for k in (1, 75, 600):
            stepped = ArraySimulator(star3, EnhancedNbc(), cfg, seeds=seeds)
            for _ in range(k):
                stepped.step()
            assert [r.as_dict() for r in stepped.run()] == results
            assert state_digest(stepped) == state_digest(whole), f"K={k}"

    def test_probes_and_profiling_are_invisible(self, star3):
        """Probing and phase profiling on: same state, cycle by cycle."""
        cfg = small_config(seed=5, generation_rate=0.01)
        seeds = [5, 6]
        plain = ArraySimulator(star3, EnhancedNbc(), cfg, seeds=seeds)
        observed = ArraySimulator(
            star3, EnhancedNbc(), cfg, seeds=seeds, profile=True, probe_interval=7
        )
        for cycle, (a, b) in enumerate(
            zip(run_digests(plain, 500), run_digests(observed, 500))
        ):
            assert a == b, f"state diverged at cycle {cycle}"
        assert observed.probe_series()["cycles"]
        assert observed.phase_profile()["route"] > 0

    def test_pool_growth_mid_run_matches_pre_grown_pool(self, star4):
        """Near saturation the message pool grows mid-run (the kernel
        returns, Python grows the pool and re-enters at the same
        generation event); a pool grown up front must give the same
        results.  Slot ids differ between the two, so results — not
        digests — are compared."""
        cfg = small_config(
            generation_rate=0.03,
            warmup_cycles=200,
            measure_cycles=800,
            drain_cycles=400,
            injection_slots=1,
        )
        seeds = (1, 2, 3)
        growing = ArraySimulator(star4, EnhancedNbc(), cfg, seeds=seeds)
        cap0 = growing.state.capacity
        grown = growing.run()
        growths = (growing.state.capacity // cap0).bit_length() - 1
        assert growths >= 1
        assert growing.phase_profile()["returns"] == (
            len({r.cycles_run for r in grown}) + growths
        )
        pre = ArraySimulator(star4, EnhancedNbc(), cfg, seeds=seeds)
        for _ in range(growths):
            pre.state.grow()
        assert pre.state.capacity == growing.state.capacity
        results = pre.run()
        assert pre.state.capacity == growing.state.capacity
        assert [r.as_dict() for r in results] == [r.as_dict() for r in grown]
        assert pre.phase_profile()["returns"] == len({r.cycles_run for r in results})

    def test_digest_sensitive_to_state(self, star3):
        """Sanity: the digest actually changes as the simulation moves."""
        cfg = small_config(seed=5, generation_rate=0.01)
        sim = ArraySimulator(star3, EnhancedNbc(), cfg)
        digests = run_digests(sim, 300)
        assert len(set(digests)) > 100


def _new_messages(sim: ArraySimulator, cycle: int) -> list[tuple]:
    """Messages generated at ``cycle`` as (node, t_gen, dst), in the
    generation order (t, node): live pool slots whose instant falls in
    the cycle's window (None of them can complete within it)."""
    st = sim.state
    free = set(st.free_stack[0, : int(st.free_n[0])].tolist())
    lo = cycle - 1 if cycle else -1.0
    out = []
    for slot in range(st.capacity):
        t = float(st.msg_t_gen[0, slot])
        if slot not in free and lo < t <= cycle:
            out.append((int(st.msg_src[0, slot]), t, int(st.p_dst[0, slot])))
    return sorted(out, key=lambda e: (e[1], e[0]))


@needs_kernel
class TestObjectVsArrayGeneration:
    def test_generation_event_stream_identical(self, star4):
        """Object and array backends generate the same (node, t, dst)
        event stream per seed on an RNG-free destination pattern.

        ``shift`` destinations consume no generator draws, so the
        documented dest-stream divergence (array draws destinations on a
        dedicated ``dest`` stream) cannot bite; arrival instants come
        from the same ``traffic`` stream in both engines, duplicate
        first-arrival quirk included.  The array side is read off the
        message pool after each ``step()``.
        """
        cfg = small_config(seed=13, workload="shift(offset=5)")
        obj = WormholeSimulator(star4, EnhancedNbc(), cfg)
        arr = ArraySimulator(star4, EnhancedNbc(), cfg)
        obj_events: list[tuple] = []
        arr_events: list[tuple] = []
        obj._gen_hook = lambda node, t, dst: obj_events.append((node, t, dst))
        for cycle in range(800):
            obj.step()
            arr.step()
            arr_events.extend(_new_messages(arr, cycle))
        assert len(obj_events) > 20
        assert arr_events == obj_events
