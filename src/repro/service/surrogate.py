"""Saturation-aware surrogate interpolation over cached result grids.

The campaign store holds latency points on rate ladders — model curves,
pooled simulation batches, bound envelopes — each keyed by its work
unit's content hash.  This module reorganises those records by *family*:
everything that describes one latency-vs-rate curve (topology, order,
workload, M, V, engine, seed, quality windows, ...) **except** the
offered rate.  Within a family the store is a sampled curve, and any
query rate inside the sampled region can be answered by interpolation
instead of a fresh solve or simulation — the ``surrogate`` provenance.

Saturation awareness: latency diverges at the saturation rate, so the
fit only trusts the region strictly below the first cached point that
reported saturation (or a non-finite latency).  Queries at or beyond
that frontier — or outside the sampled rate span — get no surrogate and
fall through to the service's cold path, which is always sound.

Error budget: a surrogate answer is only useful with a stated accuracy.
Each family's budget is estimated by leave-one-out cross-validation on
its own grid — predict every interior point from its neighbours, take
the worst relative error — then doubled and floored
(:data:`BUDGET_SAFETY`, :data:`BUDGET_FLOOR`) so held-out points land
inside the budget with margin.  ``tests/service/test_surrogate.py``
validates the contract against held-out *simulation* rows on an S4 rate
ladder; ``docs/service.md`` states it for clients.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Any, Iterable, Mapping

from repro.api.convert import row_from_unit
from repro.api.results import ResultRow
from repro.api.scenario import Scenario
from repro.campaign.grid import WorkUnit, canonical_key

__all__ = [
    "BUDGET_SAFETY",
    "BUDGET_FLOOR",
    "MIN_FIT_POINTS",
    "SurrogateFit",
    "SurrogateIndex",
    "family_of_record",
    "query_families",
]

#: Multiplier applied to the worst leave-one-out error when stating a
#: family's error budget (cross-validation estimates, it does not bound).
BUDGET_SAFETY = 2.0

#: Absolute floor of every stated error budget — even a perfectly linear
#: grid cannot promise better than simulation noise at the held-out rate.
BUDGET_FLOOR = 0.005

#: Fewest unsaturated grid points a family needs before it serves
#: surrogates: two to bracket a query, one more so leave-one-out
#: cross-validation has at least one interior point to score.
MIN_FIT_POINTS = 3

#: The parameter holding the offered rate, per family kind.
_RATE_PARAM = {
    "sim": "generation_rate",
    "model": "rate",
    "bound": "rate",
}


def _family_params(kind: str, params: Mapping[str, Any]) -> dict[str, Any]:
    """The family identity of a record: its params minus the rate axis.

    For ``sim`` records, ``replications`` is also stripped (it sizes
    the batch, it does not move the curve).  ``engine`` stays: every
    ``sim`` key names it (legacy rows are re-keyed on store load), so
    object and array rows never share a family.
    """
    out = dict(params)
    out.pop(_RATE_PARAM[kind], None)
    if kind == "sim":
        out.pop("replications", None)
    return out


def family_of_record(kind: str, params: Mapping[str, Any]) -> str | None:
    """Family fingerprint of a stored record, or None for other kinds."""
    if kind not in _RATE_PARAM:
        return None
    return canonical_key(f"family:{kind}", _family_params(kind, params))


def query_families(scenario: Scenario) -> dict[str, str]:
    """Family fingerprints a scenario's queries resolve against.

    Maps family namespace (``sim`` / ``model`` / ``bound``) to the
    fingerprint, derived from the same defaults-omitted spec dicts the
    campaign keys use — so service lookups and historical stores can
    never disagree about identity.
    """
    # The probe rate is stripped from the family identity; 0.001 is just
    # a value every scenario accepts (generation_rate must be < 1).
    families = {
        "sim": family_of_record("sim", scenario.sim_spec(0.001).to_params()),
        "model": family_of_record("model", scenario.model_spec().to_params()),
    }
    if scenario.topology == "star":
        families["bound"] = family_of_record("bound", scenario.bound_spec().to_params())
    return families


@dataclass(frozen=True)
class _Point:
    rate: float
    row: ResultRow


class SurrogateFit:
    """Piecewise-linear latency interpolator over one family's grid."""

    def __init__(self, family_kind: str, points: Iterable[_Point]):
        self.family_kind = family_kind
        by_rate: dict[float, _Point] = {}
        for p in sorted(points, key=lambda p: p.rate):
            held = by_rate.get(p.rate)
            # Duplicate rates: keep the better-sampled row (more pooled
            # replications), else the later record (the store's last-wins).
            if held is None or p.row.replications >= held.row.replications:
                by_rate[p.rate] = p
        ordered = [by_rate[r] for r in sorted(by_rate)]
        #: First rate at which the family reported saturation (or a
        #: non-finite latency) — the fit refuses everything at/above it.
        self.saturation_frontier = math.inf
        usable: list[_Point] = []
        for p in ordered:
            if p.row.saturated or not math.isfinite(p.row.latency):
                self.saturation_frontier = min(self.saturation_frontier, p.rate)
            elif p.rate < self.saturation_frontier:
                usable.append(p)
        # A saturated point discovered *below* already-accepted finite
        # points truncates them too (interpolating across it would cross
        # the divergence).
        usable = [p for p in usable if p.rate < self.saturation_frontier]
        self.points = usable
        self._rates = [p.rate for p in usable]
        self._latencies = [p.row.latency for p in usable]
        self.error_budget = self._loo_budget() if self.supported else math.inf

    @property
    def supported(self) -> bool:
        return len(self.points) >= MIN_FIT_POINTS

    @property
    def rate_span(self) -> tuple[float, float]:
        """Closed rate interval the fit can answer inside."""
        if not self._rates:
            return (math.nan, math.nan)
        return (self._rates[0], self._rates[-1])

    def _interp(self, rates: list[float], lats: list[float], rate: float) -> float:
        i = bisect.bisect_left(rates, rate)
        if i < len(rates) and rates[i] == rate:
            return lats[i]
        lo, hi = i - 1, i
        r0, r1 = rates[lo], rates[hi]
        t = (rate - r0) / (r1 - r0)
        return lats[lo] + t * (lats[hi] - lats[lo])

    def _loo_budget(self) -> float:
        """Stated budget: worst interior leave-one-out error, with margin."""
        worst = 0.0
        for i in range(1, len(self._rates) - 1):
            rates = self._rates[:i] + self._rates[i + 1 :]
            lats = self._latencies[:i] + self._latencies[i + 1 :]
            predicted = self._interp(rates, lats, self._rates[i])
            actual = self._latencies[i]
            worst = max(worst, abs(predicted - actual) / max(abs(actual), 1e-9))
        return BUDGET_SAFETY * worst + BUDGET_FLOOR

    def predict(self, rate: float) -> float | None:
        """Interpolated latency at ``rate``, or None outside the
        supported region (unsampled span or at/beyond saturation)."""
        if not self.supported:
            return None
        if rate >= self.saturation_frontier:
            return None
        if rate < self._rates[0] or rate > self._rates[-1]:
            return None
        return self._interp(self._rates, self._latencies, rate)


class SurrogateIndex:
    """Family-organised view of a result store's records.

    Built once per store generation (the engine rebuilds when the store
    signature changes); lookups afterwards are dictionary reads plus —
    for surrogates — a lazily constructed per-family fit, so both the
    warm and the surrogate path stay well under the service's 10 ms
    target.
    """

    def __init__(self, records: Mapping[str, Mapping[str, Any]]):
        #: (family fingerprint, rate) -> best exact row at that rate.
        self._exact: dict[tuple[str, float], ResultRow] = {}
        #: family fingerprint -> (family namespace, accumulated points).
        self._families: dict[str, tuple[str, list[_Point]]] = {}
        self._fits: dict[str, SurrogateFit] = {}
        self.records = 0
        for record in records.values():
            self._ingest(record)

    def _ingest(self, record: Mapping[str, Any]) -> None:
        kind = record.get("kind")
        params = record.get("params")
        if kind not in _RATE_PARAM or not isinstance(params, Mapping):
            return
        rate_value = params.get(_RATE_PARAM[kind])
        if kind == "sim" and rate_value is None:
            # Defaults-omitted sim params fall back to the config default.
            rate_value = 0.001
        if rate_value is None:
            return
        try:
            row = row_from_unit(WorkUnit(kind=kind, params=dict(params)), record["result"])
        except Exception:
            return  # foreign or malformed record: not this index's problem
        family = family_of_record(kind, params)
        rate = float(rate_value)
        point = _Point(rate=rate, row=row)
        held = self._exact.get((family, rate))
        if held is None or row.replications >= held.replications:
            self._exact[(family, rate)] = row
        self._families.setdefault(family, (kind, []))[1].append(point)
        self._fits.pop(family, None)
        self.records += 1

    def __len__(self) -> int:
        return self.records

    # -- lookups --------------------------------------------------------

    def exact(self, family: str, rate: float) -> ResultRow | None:
        """The stored row at exactly (family, rate), if one exists."""
        return self._exact.get((family, float(rate)))

    def fit(self, family: str) -> SurrogateFit | None:
        """The family's surrogate fit (cached), or None for an unknown
        family."""
        entry = self._families.get(family)
        if entry is None:
            return None
        fit = self._fits.get(family)
        if fit is None:
            fit = SurrogateFit(entry[0], entry[1])
            self._fits[family] = fit
        return fit

    def family_sizes(self) -> dict[str, int]:
        """Family fingerprint -> number of cached points (diagnostics)."""
        return {family: len(points) for family, (_, points) in self._families.items()}
