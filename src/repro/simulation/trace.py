"""Trace-diff invariance harness: per-cycle digests of array-backend state.

The array backend's cycle loop promises the same bits however it is
driven: one :meth:`~repro.simulation.kernels.ArraySimulator.run` call or
cycle-by-cycle :meth:`~repro.simulation.kernels.ArraySimulator.step`
calls, probes and profiling on or off, the message pool grown mid-run
or up front.  Result equality alone is a weak oracle: two drives could
diverge mid-run and reconverge, or diverge only in state the results
never read.  :func:`state_digest` closes that gap by hashing the
complete mutable state of an ``ArraySimulator`` (VC words, message pool,
pending/ejection/free lists, generation cursors, metric and
channel-load accumulators) into one SHA-256, and :func:`run_digests`
collects the digest after every cycle, so an invariance test can
pinpoint the exact first cycle where two drives disagree.

Only deterministically-ordered state is hashed: the pending list is read
up to its live length (the compaction leftovers beyond ``need_n`` are
scratch), ejection columns up to the live count, and each free stack up
to its depth.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.simulation.kernels import ArraySimulator

__all__ = ["state_digest", "run_digests"]

#: SimState arrays hashed in full (dense, no scratch regions).
_STATE_FIELDS = (
    "vc_bd",
    "vc_avail",
    "vc_owner",
    "vc_upstream",
    "vc_downstream",
    "ch_rr",
    "ch_busy",
    "transfers",
    "active_injections",
    "msg_t_gen",
    "msg_t_inject",
    "msg_measured",
    "msg_src",
    "msg_ejected",
    "msg_vcs_held",
    "p_dst",
    "p_header",
    "p_dist",
    "p_floor",
    "p_hops",
    "p_first_attempt",
    "p_head_vc",
)

#: Simulator-side arrays hashed in full, generation state (pre-drawn
#: blocks, cursors, per-node next arrivals, source-queue links,
#: activation bitmap) included.
_SIM_FIELDS = (
    "_ej_pos",
    "_alloc_pos",
    "_gen_node_t",
    "_gen_next",
    "_arr_buf",
    "_arr_pos",
    "_arr_len",
    "_dst_buf",
    "_dst_pos",
    "_dst_len",
    "_qnext",
    "_qhead",
    "_qtail",
    "_qlen",
    "_act",
    "_generated",
    "_measured_generated",
    "_in_flight",
    "_measured_in_flight",
    "_completed",
    "_injected",
    "alloc_attempts",
    "alloc_failures",
    "_lat_sum",
    "_net_sum",
    "_srcw_sum",
    "_mcount",
    "_lat_bsum",
    "_lat_bcount",
    "_hb_req",
    "_hb_blk",
    "_hb_wait",
    "_load_acc",
)


def state_digest(sim: ArraySimulator) -> str:
    """SHA-256 over the simulator's complete deterministic state."""
    st = sim.state
    h = hashlib.sha256()
    for name in _STATE_FIELDS:
        h.update(np.ascontiguousarray(getattr(st, name)).tobytes())
    for name in _SIM_FIELDS:
        h.update(np.ascontiguousarray(getattr(sim, name)).tobytes())
    for rep in range(sim._R):
        h.update(sim._need_slots[rep, : int(sim._need_n[rep])].tobytes())
        h.update(st.free_stack[rep, : int(st.free_n[rep])].tobytes())
    n = sim._ejecting_count
    for name in ("_ej_reps", "_ej_slots", "_ej_flats", "_ej_mflats"):
        h.update(getattr(sim, name)[:n].tobytes())
    h.update(
        repr(
            (
                sim.cycle,
                sim._busy_vcs,
                sim._need_total,
                sim._ejecting_count,
            )
        ).encode()
    )
    return h.hexdigest()


def run_digests(sim: ArraySimulator, cycles: int) -> list[str]:
    """Step ``cycles`` times, returning the post-cycle digest of each.

    The digest is taken after each *complete* cycle, the boundary at
    which every way of driving the loop promises bit-identical state.
    """
    out = []
    for _ in range(cycles):
        sim.step()
        out.append(state_digest(sim))
    return out
