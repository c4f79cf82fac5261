"""Uniform result schema shared by every Scenario dispatch path.

Before this module the repo's entry points returned an incompatible zoo:
``ModelResult`` (analytical points), ``SimulationResult`` (one run),
pooled replication dicts and ad-hoc study rows.  A
:class:`ResultRow` is the common denominator all of them project onto —
one operating point with a spec fingerprint, the workload, the offered
rate, a latency with confidence bounds, a saturation flag and a
``provenance`` tag (``model`` | ``sim`` | ``bound``) — and a
:class:`ResultSet` is a schema-versioned list of rows with
JSONL/CSV round-trips.

Schema version policy (see ``docs/api.md``): adding optional fields or
new ``meta`` keys keeps the version; renaming, removing or changing the
meaning of a field bumps :data:`SCHEMA_VERSION`.  ``from_jsonl`` accepts
documents at or below the current version and rejects newer ones.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Mapping

from repro.utils.exceptions import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.validation.compare import CurveComparison

__all__ = ["SCHEMA_VERSION", "PROVENANCES", "ResultRow", "ResultSet"]

#: Version of the ResultRow/ResultSet wire schema.
SCHEMA_VERSION = 1

#: Legal values of :attr:`ResultRow.provenance`.  ``bound`` rows come
#: from the network-calculus engine (:mod:`repro.bounds` — Farhi &
#: Gaujal 2010 / Mifdaoui & Ayed 2016 style worst-case envelopes);
#: ``surrogate`` rows are interpolated answers the capacity service
#: (:mod:`repro.service`) fits over cached grids, carrying an
#: ``error_budget`` in ``meta``.  Adding an enum value is additive under
#: the schema version policy (older documents never contain it).
PROVENANCES = ("model", "sim", "bound", "surrogate")

#: Marker line identifying a ResultSet JSONL document.
_HEADER_TYPE = "repro.resultset"

#: Row fields that hold floats which may be non-finite (serialised null).
_FLOAT_FIELDS = ("rate", "latency", "latency_lo", "latency_hi")


def _null_safe(value: Any) -> Any:
    """JSON-safe view: non-finite floats become null, containers recurse."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, Mapping):
        return {str(k): _null_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_null_safe(v) for v in value]
    return value


def _float_or_nan(value: Any) -> float:
    return math.nan if value is None else float(value)


@dataclass(frozen=True)
class ResultRow:
    """One operating point, whatever layer produced it.

    Attributes
    ----------
    provenance:
        ``model`` (analytical pipeline), ``sim`` (flit-level simulator)
        or ``bound`` (network-calculus worst-case envelope,
        :mod:`repro.bounds`).
    spec:
        Content-hash fingerprint of the producing work unit — the same
        sha256 the campaign store keys on, so a row can be traced back
        to (and deduplicated against) any campaign JSONL store.
    topology / order / algorithm / workload / message_length / total_vcs:
        The scenario coordinates of the point.  ``algorithm`` is None
        for model and bound rows (both abstract over adaptive routing).
    engine:
        ``model`` for analytical rows, ``bound`` for bound rows, else
        the simulation backend.
    rate:
        Offered load lambda_g (messages/cycle/node).  NaN for rows with
        no single operating rate (``scale_point`` projections).
    latency / latency_lo / latency_hi:
        Mean message latency and its 95% confidence bounds.  Model rows
        carry NaN bounds (the model is deterministic); simulation rows
        without a valid CI carry NaN bounds too.  Bound rows carry the
        mean-weighted worst-case delay bound (``inf`` when the bound
        engine diverged; serialised as null).
    saturated:
        True when the producing layer declared the point saturated.
    replications / seed:
        Simulation-side provenance (1 / None for model rows).
    meta:
        Everything else the producing layer reported (network latency,
        multiplexing, message counts, ...), JSON-safe.
    """

    provenance: str
    spec: str
    topology: str
    order: int
    workload: str
    message_length: int
    total_vcs: int
    engine: str
    rate: float
    latency: float
    latency_lo: float
    latency_hi: float
    saturated: bool
    algorithm: str | None = None
    replications: int = 1
    seed: int | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.provenance not in PROVENANCES:
            raise ConfigurationError(
                f"provenance must be one of {PROVENANCES}, got {self.provenance!r}"
            )

    @property
    def ci_halfwidth(self) -> float:
        """Half-width of the latency CI (NaN when no bounds)."""
        if math.isnan(self.latency_lo) or math.isnan(self.latency_hi):
            return math.nan
        return 0.5 * (self.latency_hi - self.latency_lo)

    def to_dict(self) -> dict:
        """JSON-safe flat dict (non-finite floats become null)."""
        out = {}
        for f in fields(self):
            out[f.name] = _null_safe(getattr(self, f.name))
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ResultRow":
        """Rebuild from :meth:`to_dict` output, rejecting unknown keys."""
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigurationError(f"unknown ResultRow fields: {sorted(unknown)}")
        kwargs = dict(data)
        for name in _FLOAT_FIELDS:
            if name in kwargs:
                kwargs[name] = _float_or_nan(kwargs[name])
        return cls(**kwargs)


class ResultSet:
    """An ordered, schema-versioned collection of :class:`ResultRow`.

    Supports concatenation (``a + b``), filtering (:meth:`where`), and
    JSONL/CSV export.  The JSONL form round-trips exactly, with one
    NaN caveat: the typed float fields (``rate``/``latency``/CI bounds)
    serialise non-finite values as null and parse them back to NaN,
    while ``meta`` is plain JSON — a non-finite float placed there
    serialises as null and *stays* None on load.
    """

    def __init__(self, rows: Iterable[ResultRow] = (), schema_version: int = SCHEMA_VERSION):
        self.rows: list[ResultRow] = list(rows)
        self.schema_version = schema_version

    # -- container protocol ---------------------------------------------

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[ResultRow]:
        return iter(self.rows)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return ResultSet(self.rows[index], self.schema_version)
        return self.rows[index]

    def __add__(self, other: "ResultSet") -> "ResultSet":
        if not isinstance(other, ResultSet):
            return NotImplemented
        return ResultSet(self.rows + other.rows, self.schema_version)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ResultSet) and self.rows == other.rows

    def __repr__(self) -> str:
        by_prov: dict[str, int] = {}
        for row in self.rows:
            by_prov[row.provenance] = by_prov.get(row.provenance, 0) + 1
        parts = ", ".join(f"{k}={v}" for k, v in sorted(by_prov.items()))
        return f"ResultSet({len(self.rows)} rows{': ' + parts if parts else ''})"

    # -- selection ------------------------------------------------------

    def where(self, predicate: Callable[[ResultRow], bool] | None = None, **equals) -> "ResultSet":
        """Rows matching a predicate and/or field equality constraints.

        ``rs.where(provenance="model", workload="uniform")`` keeps rows
        whose named fields equal the given values; an optional callable
        adds arbitrary conditions.
        """
        known = {f.name for f in fields(ResultRow)}
        unknown = set(equals) - known
        if unknown:
            raise ConfigurationError(f"unknown ResultRow fields: {sorted(unknown)}")

        def _match(row: ResultRow) -> bool:
            for name, want in equals.items():
                if getattr(row, name) != want:
                    return False
            return predicate(row) if predicate is not None else True

        return ResultSet([r for r in self.rows if _match(r)], self.schema_version)

    def latencies(self) -> list[float]:
        """The latency column."""
        return [r.latency for r in self.rows]

    # -- model-vs-sim pairing -------------------------------------------

    def comparisons(self) -> "dict[str, CurveComparison]":
        """Per-workload model-vs-sim accuracy over paired rows.

        Pairs every ``model`` row with *each* ``sim`` row sharing the
        same (topology, order, workload, message_length, total_vcs,
        rate) coordinates — several sim engines or replication batches
        at one operating point each contribute their own comparison
        point — and aggregates the relative errors per workload, the
        ResultSet counterpart of
        :func:`repro.validation.compare.compare_curves`.  Workloads with
        no complete pair are omitted.
        """
        # Imported lazily: the validation package's __init__ pulls in
        # validation.workloads, which itself builds on this module.
        from repro.validation.compare import OperatingPoint, compare_curves

        def coords(row: ResultRow) -> tuple:
            return (row.topology, row.order, row.workload,
                    row.message_length, row.total_vcs, row.rate)

        sims: dict[tuple, list[ResultRow]] = {}
        for row in self.rows:
            if row.provenance == "sim":
                sims.setdefault(coords(row), []).append(row)
        by_workload: dict[str, list[OperatingPoint]] = {}
        for row in self.rows:
            if row.provenance != "model":
                continue
            for sim in sims.get(coords(row), ()):
                by_workload.setdefault(row.workload, []).append(
                    OperatingPoint(
                        generation_rate=row.rate,
                        model_latency=row.latency,
                        sim_latency=sim.latency,
                        model_saturated=row.saturated,
                        sim_saturated=sim.saturated,
                    )
                )
        return {w: compare_curves(points) for w, points in by_workload.items()}

    # -- serialisation --------------------------------------------------

    def to_jsonl(self) -> str:
        """Serialise: one header line, then one JSON object per row."""
        header = {"type": _HEADER_TYPE, "schema_version": self.schema_version}
        lines = [json.dumps(header, sort_keys=True, separators=(",", ":"))]
        for row in self.rows:
            lines.append(
                json.dumps(row.to_dict(), sort_keys=True, separators=(",", ":"),
                           allow_nan=False)
            )
        return "\n".join(lines) + "\n"

    @classmethod
    def from_jsonl(cls, text: str) -> "ResultSet":
        """Parse a document produced by :meth:`to_jsonl`."""
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise ConfigurationError("empty ResultSet document")
        header = json.loads(lines[0])
        if not isinstance(header, Mapping) or header.get("type") != _HEADER_TYPE:
            raise ConfigurationError(
                f"not a ResultSet document (missing {_HEADER_TYPE!r} header)"
            )
        version = header.get("schema_version")
        if not isinstance(version, int) or version < 1:
            raise ConfigurationError(f"bad ResultSet schema_version: {version!r}")
        if version > SCHEMA_VERSION:
            raise ConfigurationError(
                f"ResultSet schema_version {version} is newer than this "
                f"library supports ({SCHEMA_VERSION})"
            )
        rows = [ResultRow.from_dict(json.loads(ln)) for ln in lines[1:]]
        return cls(rows, schema_version=version)

    def save(self, path: str | Path) -> Path:
        """Write the JSONL form to ``path`` and return it."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_jsonl())
        return path

    @classmethod
    def load(cls, path: str | Path) -> "ResultSet":
        """Read a ResultSet previously written by :meth:`save`."""
        return cls.from_jsonl(Path(path).read_text())

    def to_csv(self) -> str:
        """Flat CSV export (``meta`` as one JSON-encoded column)."""
        names = [f.name for f in fields(ResultRow)]
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(names)
        for row in self.rows:
            record = row.to_dict()
            writer.writerow(
                [
                    json.dumps(record[n], sort_keys=True, separators=(",", ":"))
                    if n == "meta"
                    else ("" if record[n] is None else record[n])
                    for n in names
                ]
            )
        return buf.getvalue()

    def with_meta(self, **extra) -> "ResultSet":
        """Copy with extra ``meta`` keys merged into every row."""
        return ResultSet(
            [replace(r, meta={**r.meta, **extra}) for r in self.rows],
            self.schema_version,
        )
