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

The hashed set follows the kernel's declared interface
(:func:`~repro.simulation.ckernel.kernel_fields`), in declaration order:
every state array (kind ``"arr"``) and every run-state scalar of the
:class:`~repro.simulation.state.SimState`.  Scratch arrays are dead
between cycles, and the optional arrays are observation (profiling,
probes) or derived from V (the arbitration LUT), so neither is hashed —
a probed or profiled run digests like a plain one.  Arrays with a live
length are read up to it only: the pending list up to ``need_n`` (the
compaction leftovers beyond are scratch), each free stack up to its
depth, and the ejection columns up to ``ej_n``.
"""

from __future__ import annotations

import hashlib

from repro.simulation.ckernel import kernel_fields
from repro.simulation.kernels import ArraySimulator

__all__ = ["state_digest", "run_digests"]

#: Per-replication rows hashed up to a per-row count (field -> count).
_ROW_PREFIX = {"need_slots": "need_n", "free_stack": "free_n"}

#: Ejection columns, hashed up to the live column count ``ej_n``.
_EJ_COLUMNS = ("ej_reps", "ej_slots", "ej_flats", "ej_mflats")


def state_digest(sim: ArraySimulator) -> str:
    """SHA-256 over the simulator's complete deterministic state."""
    st = sim.state
    h = hashlib.sha256()
    run = []
    for field in kernel_fields():
        if field.kind == "run":
            run.append(getattr(st, field.name))
        if field.kind != "arr":
            continue
        arr = getattr(st, field.name)
        if field.name in _ROW_PREFIX:
            counts = getattr(st, _ROW_PREFIX[field.name])
            for rep in range(st.replications):
                h.update(arr[rep, : int(counts[rep])].tobytes())
        elif field.name in _EJ_COLUMNS:
            h.update(arr[: st.ej_n].tobytes())
        else:
            h.update(arr.tobytes())
    h.update(repr(tuple(run)).encode())
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
