"""The capacity service's query type: one Scenario point plus options.

A query names a :class:`~repro.api.scenario.Scenario` and an offered
rate — the same coordinates every other execution path uses — plus the
service-side options: the acceptable surrogate error budget, whether a
cold answer should enqueue background refinement, and how many
simulation replications that refinement pools.  The wire form is plain
JSON (``scenario`` as the facade's defaults-omitted params dict), so
clients in any language can build one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

from repro.api.scenario import Scenario
from repro.utils.exceptions import ConfigurationError

__all__ = ["Query"]


@dataclass(frozen=True)
class Query:
    """One capacity question: latency of ``scenario`` at ``rate``.

    Attributes
    ----------
    scenario:
        The network-under-workload being asked about.
    rate:
        Offered load lambda_g (messages/cycle/node).
    max_error:
        Largest acceptable surrogate error budget (relative).  A
        surrogate whose stated budget exceeds this falls through to the
        cold path; ``None`` accepts any budget the surrogate states.
    refine:
        Whether a cold answer should enqueue a simulation work unit for
        background refinement (the refined row lands in the store and
        upgrades the next identical query to a warm hit).
    replications:
        Simulation replications the refinement unit pools (``> 1``
        gives a pooled row with an across-replication CI).
    """

    scenario: Scenario
    rate: float
    max_error: float | None = None
    refine: bool = True
    replications: int = 1

    def __post_init__(self) -> None:
        if not isinstance(self.scenario, Scenario):
            raise ConfigurationError(
                f"query scenario must be a Scenario, got {type(self.scenario).__name__}"
            )
        rate = float(self.rate)
        if not rate > 0.0:
            raise ConfigurationError(f"query rate must be > 0, got {self.rate!r}")
        object.__setattr__(self, "rate", rate)
        if self.max_error is not None and not float(self.max_error) > 0.0:
            raise ConfigurationError(
                f"max_error must be > 0 when given, got {self.max_error!r}"
            )
        if int(self.replications) < 1:
            raise ConfigurationError(
                f"replications must be >= 1, got {self.replications!r}"
            )

    # -- wire form ------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe wire form (scenario as its defaults-omitted params)."""
        out: dict[str, Any] = {"scenario": self.scenario.to_params(), "rate": self.rate}
        if self.max_error is not None:
            out["max_error"] = float(self.max_error)
        if not self.refine:
            out["refine"] = False
        if self.replications != 1:
            out["replications"] = int(self.replications)
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Query":
        """Rebuild from the wire form, rejecting unknown keys."""
        known = {"scenario", "rate", "max_error", "refine", "replications"}
        unknown = set(data) - known
        if unknown:
            raise ConfigurationError(f"unknown query fields: {sorted(unknown)}")
        if "scenario" not in data or "rate" not in data:
            raise ConfigurationError("a query needs 'scenario' and 'rate'")
        scenario = data["scenario"]
        if not isinstance(scenario, Scenario):
            if not isinstance(scenario, Mapping):
                raise ConfigurationError(
                    "query 'scenario' must be a params object"
                )
            scenario = Scenario.from_params(scenario)
        return cls(
            scenario=scenario,
            rate=data["rate"],
            max_error=data.get("max_error"),
            refine=bool(data.get("refine", True)),
            replications=int(data.get("replications", 1)),
        )
