"""SERVICE — interactive-latency guarantee of the capacity service.

The service's pitch is capacity answers in milliseconds: a warm store
hit is a dictionary lookup and a surrogate answer one interpolation, so
both must stay far under the 10 ms/query ceiling ``docs/service.md``
states.  Each benchmark round answers a batch of queries through a
pre-seeded, index-pinned :class:`QueryEngine` (timing the serving path,
not store I/O) and the per-query mean is asserted against the ceiling.
Both benchmarks are guarded by the perf-trend gate.
"""

from __future__ import annotations

import pytest

from repro.api.scenario import Scenario
from repro.service.engine import QueryEngine
from repro.service.query import Query

#: Queries answered per benchmark round (keeps round means in a stable
#: tens-of-ms regime instead of gating on microsecond noise).
_BATCH = 200

#: The served-latency ceiling docs/service.md promises per query.
_CEILING_S = 0.010


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    """A QueryEngine over a seeded S5 model ladder, index pre-built."""
    store = tmp_path_factory.mktemp("bench-service") / "store"
    scenario = Scenario(order=5, message_length=32, total_vcs=6, quality="smoke")
    fractions = tuple(0.15 + 0.05 * i for i in range(14))
    rates = scenario.rate_ladder(fractions)
    scenario.sweep({"rate": rates}, store=str(store))
    engine = QueryEngine(store, refine=False, auto_refresh=False)
    engine.refresh()  # build the index outside the benchmark clock
    return engine, scenario, rates


def _assert_under_ceiling(benchmark, label: str) -> None:
    if benchmark.stats is None:
        # --benchmark-disable runs the round once, untimed: no mean to gate.
        return
    per_query = benchmark.stats["mean"] / _BATCH
    benchmark.extra_info["queries_per_round"] = _BATCH
    benchmark.extra_info[f"{label}_query_us"] = round(per_query * 1e6, 2)
    assert per_query < _CEILING_S, (
        f"{label} query mean {per_query * 1e3:.3f} ms breaches the "
        f"{_CEILING_S * 1e3:.0f} ms service ceiling"
    )


def test_bench_service_warm_query(benchmark, served):
    engine, scenario, rates = served
    queries = [
        Query(scenario=scenario, rate=rates[i % len(rates)], refine=False)
        for i in range(_BATCH)
    ]

    def answer_all():
        for query in queries:
            engine.answer(query)

    benchmark(answer_all)
    row = engine.answer(queries[0])
    assert row.meta["served"] == "warm"
    _assert_under_ceiling(benchmark, "warm")


def test_bench_service_surrogate_query(benchmark, served):
    engine, scenario, rates = served
    mids = [0.5 * (rates[i] + rates[i + 1]) for i in range(len(rates) - 1)]
    queries = [
        Query(scenario=scenario, rate=mids[i % len(mids)], refine=False)
        for i in range(_BATCH)
    ]

    def answer_all():
        for query in queries:
            engine.answer(query)

    benchmark(answer_all)
    row = engine.answer(queries[0])
    assert row.provenance == "surrogate"
    _assert_under_ceiling(benchmark, "surrogate")
