"""Campaign engine: declarative, parallel, resumable parameter sweeps.

The paper's pitch is that the analytical model makes "large systems
infeasible to simulate" tractable; this package makes *large scenario
grids* tractable.  A campaign expands a declarative grid
(topology x routing x M x V x traffic x load x seed) into content-hashed
work units, executes them serially or on a pool of worker processes,
streams results to an append-only JSONL store so interrupted runs
resume instead of recompute, and shares expensive path-set statistics
between workers through an on-disk cache.

Layers
------
:mod:`repro.campaign.grid`
    ``GridSpec`` / ``WorkUnit`` — declarative grids, content-hash keys.
:mod:`repro.campaign.kinds`
    The executable unit kinds (``model``, ``sim``, ``saturation``, ...).
:mod:`repro.campaign.runner`
    ``run_campaign`` — serial or process-pool execution, streaming, resume.
:mod:`repro.campaign.store`
    ``ResultStore`` / ``ShardedResultStore`` — append-only JSONL
    persistence with atomic locked appends and offline compaction.
:mod:`repro.campaign.cache`
    Cross-process path-statistics disk cache.
"""

from repro.campaign.grid import GridSpec, WorkUnit, canonical_key
from repro.campaign.kinds import KINDS, available_kinds, register_kind
from repro.campaign.runner import CampaignResult, run_campaign, to_payload
from repro.campaign.store import ResultStore, ShardedResultStore, open_store

__all__ = [
    "GridSpec",
    "WorkUnit",
    "canonical_key",
    "KINDS",
    "available_kinds",
    "register_kind",
    "CampaignResult",
    "run_campaign",
    "to_payload",
    "ResultStore",
    "ShardedResultStore",
    "open_store",
]
