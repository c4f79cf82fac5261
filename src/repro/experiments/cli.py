"""Command-line entry point: ``starnet <command> [options]``.

Commands
--------
figure1      Reproduce a Figure-1 panel (model + optional simulation).
properties   Section-2 topology comparison table (star vs. hypercube).
scale        Large-n model-only study.
ablation     Run one of the named ablation studies.
distance     Average-distance table (Eq. 2 vs. exact enumeration).
campaign     Run a declarative parameter-grid campaign (parallel,
             resumable, cache-backed).
sim          Run one flit-level simulation with full workload control;
             --profile adds the per-phase kernel timing, --watch the
             cycle-resolution time-series probes (sparklines, sample
             table, warmup verdict), --json prints both as JSON lines.
validate     Model-vs-sim accuracy per workload (campaign-backed);
             --bounds adds the network-calculus cross-check, --preset
             runs the standing S5/S6 suites with stated tolerances, and
             a probed warmup-adequacy check warns when the configured
             warmup window ends before the measured transient.
serve        Capacity-planning query service over a campaign store
             (warm store hits, saturation-aware surrogates, instant
             cold fallback + background refinement); --trace-events
             records every query's span tree.
trace        Trace-file tooling: ``trace export`` rewrites span events
             as Chrome trace-event JSON for chrome://tracing.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from repro.api.presets import available_presets
from repro.api.scenario import Scenario, run_units
from repro.campaign.grid import GridSpec
from repro.campaign.kinds import available_kinds
from repro.campaign.runner import to_payload
from repro.experiments import ablations
from repro.experiments.figure1 import FIGURE1_PANELS, panel_record, render_panel, reproduce_panel
from repro.experiments.tables import render_table
from repro.simulation.config import DEFAULT_ENGINE
from repro.topology.properties import comparison_table
from repro.topology.star import StarGraph, star_average_distance_closed_form
from repro.utils.exceptions import ConfigurationError

__all__ = ["main", "build_parser"]

#: The scenario flags, declared once: flag -> (Scenario field or None,
#: argparse keywords).  A command takes the flags named in its defaults
#: table below.  Flags with a Scenario field fix the scenario (so they
#: conflict with ``validate --preset``); --rate/--load pick the
#: operating point and --replications the batch width.
_SCENARIO_FLAGS = {
    "--topology": ("topology", {"choices": ("star", "hypercube")}),
    "--order": ("order", {"type": int, "help": "star n / hypercube k"}),
    "--algorithm": ("algorithm", {"help": "routing-registry name"}),
    "--rate": (None, {"type": float, "help": "lambda_g, messages/cycle/node"}),
    "--load": (None, {"type": float, "metavar": "F", "help": "operating point "
                      "as a fraction of the model's saturation rate"}),
    "--message-length": ("message_length", {"type": int, "help": "M, flits"}),
    "--vcs": ("total_vcs", {"type": int, "help": "V, virtual channels per channel"}),
    "--workload": ("workload", {"help": "spatial[+temporal] workload string"}),
    "--seed": ("seed", {"type": int, "help": "master seed"}),
    "--engine": ("engine", {"choices": ("object", "array"), "help": "simulation backend"}),
    "--replications": (None, {"type": int, "metavar": "R", "help": "independent "
                              "replications, seeds seed..seed+R-1 (R > 1 pools them "
                              "with an across-replication CI; one vectorized batch "
                              "on the array engine)"}),
    "--quality": ("quality", {"choices": ("smoke", "quick", "full"),
                              "help": "simulation window preset"}),
    "--warmup": ("warmup_cycles", {"type": int, "help": "override the warmup window"}),
    "--measure": ("measure_cycles", {"type": int, "help": "override the measurement window"}),
    "--drain": ("drain_cycles", {"type": int, "help": "override the drain window"}),
}

#: Per-command scenario-flag defaults (dest -> value; None = unset).
#: validate's workloads default to a 3-workload suite.
_FIGURE1_DEFAULTS = dict(seed=0, quality="quick")
_SIM_DEFAULTS = dict(
    topology="star", order=5, algorithm="enhanced_nbc", rate=0.001, load=None,
    message_length=32, vcs=6, workload="uniform", seed=0, engine=DEFAULT_ENGINE,
    replications=1, quality="quick", warmup=None, measure=None, drain=None,
)
_VALIDATE_DEFAULTS = dict(
    order=4, message_length=16, vcs=5, workload=None, seed=0, engine=DEFAULT_ENGINE,
    replications=1, quality="quick", warmup=None, measure=None, drain=None,
)

#: Sample rows ``sim --watch`` prints (the series is thinned to fit).
_WATCH_ROWS = 16

_PHASES = ("generation", "activation", "route", "complete", "other")

#: Driver event counts of ``ArraySimulator.phase_profile`` (kernel
#: returns to Python for stops and pool growths, callbacks into Python).
_EVENTS = ("returns", "callbacks")


def _dest(flag: str) -> str:
    return flag[2:].replace("-", "_")


def _stride(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"probe stride must be >= 1, got {value}")
    return value


def _add_scenario_flags(parser, defaults, *, deferred=False, **overrides):
    """Add the scenario flags named in ``defaults`` to ``parser``.

    ``deferred`` parses every flag to None and leaves the defaults to
    :func:`_resolved`, so a caller can tell an explicitly passed flag
    from an omitted one.  ``overrides`` maps a dest to extra argparse
    keywords for this command.
    """
    group = parser.add_mutually_exclusive_group() if "load" in defaults else parser
    for flag, (_field, spec) in _SCENARIO_FLAGS.items():
        dest = _dest(flag)
        if dest not in defaults:
            continue
        kwargs = {**spec, **overrides.get(dest, {})}
        default = defaults[dest]
        if default is not None:
            kwargs["help"] = f"{kwargs.get('help', '')} (default {default})".lstrip()
        target = group if dest in ("rate", "load") else parser
        target.add_argument(flag, default=None if deferred else default, **kwargs)


def _resolved(args, defaults) -> dict:
    """The command's scenario-flag values, omitted ones at their defaults."""
    return {
        dest: default if getattr(args, dest) is None else getattr(args, dest)
        for dest, default in defaults.items()
    }


def _build_scenario(values) -> Scenario:
    """The one Scenario the resolved scenario-flag values describe."""
    return Scenario(
        **{
            field: values[_dest(flag)]
            for flag, (field, _spec) in _SCENARIO_FLAGS.items()
            if field is not None and _dest(flag) in values
        }
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="starnet",
        description="Star-graph wormhole latency model reproduction (IPDPS 2006)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fig = sub.add_parser("figure1", help="reproduce a Figure-1 panel")
    fig.add_argument("--panel", choices=sorted(FIGURE1_PANELS), default="a")
    _add_scenario_flags(fig, _FIGURE1_DEFAULTS)
    fig.add_argument("--no-sim", action="store_true", help="model curves only")
    fig.add_argument("--save", metavar="DIR", help="write a JSON record to DIR")
    fig.add_argument("--workers", type=int, default=1, help="process-pool width")

    sub.add_parser("properties", help="topology comparison table (section 2)")

    sc = sub.add_parser("scale", help="large-n model study")
    sc.add_argument("--max-n", type=int, default=9)
    sc.add_argument("--workers", type=int, default=1, help="process-pool width")
    sc.add_argument(
        "--out", metavar="FILE", help="also save the study as a ResultSet JSONL"
    )

    ab = sub.add_parser("ablation", help="run a named ablation")
    ab.add_argument(
        "name",
        choices=(
            "blocking",
            "routing",
            "vcsplit",
            "hypercube",
            "hypercube-model",
            "blocking-profile",
        ),
    )
    ab.add_argument("--workers", type=int, default=1, help="process-pool width")
    ab.add_argument(
        "--out",
        metavar="FILE",
        help="also save the study as a ResultSet JSONL (vcsplit only)",
    )

    dist = sub.add_parser("distance", help="average-distance table (Eq. 2)")
    dist.add_argument("--max-n", type=int, default=7)

    camp = sub.add_parser(
        "campaign",
        help="run a declarative parameter-grid campaign",
        description=(
            "Expand a parameter grid into content-hashed work units and run "
            "them through the campaign engine.  The grid comes from a "
            "TOML/JSON spec file (--spec) or from --kind/--axis/--set flags; "
            "with --out the results stream to a JSONL store that --resume "
            "reads back to skip completed units.  A sim grid that names no "
            "engine runs on the default (array) engine, and its keys say so."
        ),
    )
    camp.add_argument("--spec", metavar="FILE", help="TOML/JSON grid-spec file")
    camp.add_argument("--kind", choices=available_kinds(), help="work-unit kind")
    camp.add_argument(
        "--axis",
        action="append",
        default=[],
        metavar="NAME=VALUES",
        help="swept axis: comma list (a,b,c) or linspace (lo:hi:count); repeatable",
    )
    camp.add_argument(
        "--set",
        action="append",
        default=[],
        dest="pinned",
        metavar="NAME=VALUE",
        help="pinned parameter shared by every unit; repeatable",
    )
    camp.add_argument(
        "--seeds", type=int, help="replication: adds a seed axis 0..N-1"
    )
    camp.add_argument("--workers", type=int, default=1, help="process-pool width")
    camp.add_argument("--out", metavar="FILE", help="JSONL result store")
    camp.add_argument(
        "--resume",
        action="store_true",
        help="skip units already present in --out",
    )
    camp.add_argument(
        "--cache-dir", metavar="DIR", help="shared path-statistics disk cache"
    )
    camp.add_argument(
        "--no-table", action="store_true", help="print only the run summary"
    )
    camp.add_argument(
        "--events",
        metavar="FILE",
        help="append per-unit lifecycle events (queued/started/cached/"
        "finished plus periodic heartbeats) as JSONL to FILE",
    )

    tr = sub.add_parser(
        "trace",
        help="trace-file tooling (export span events for chrome://tracing)",
    )
    trsub = tr.add_subparsers(dest="trace_command", required=True)
    texp = trsub.add_parser(
        "export",
        help="rewrite span events as Chrome trace-event JSON",
        description=(
            "Read a span-carrying event JSONL file (e.g. from starnet "
            "serve --trace-events) and write Chrome trace-event JSON "
            "loadable in chrome://tracing or Perfetto."
        ),
    )
    texp.add_argument("events", metavar="FILE", help="event JSONL file")
    texp.add_argument(
        "--out",
        metavar="FILE",
        help="output path (default: FILE with a .trace.json suffix)",
    )
    texp.add_argument(
        "--trace-id", default=None, help="export a single trace's tree"
    )

    sim = sub.add_parser(
        "sim",
        help="run one flit-level simulation",
        description=(
            "Run a single wormhole simulation with full workload control.  "
            "The workload string follows the spatial[+temporal] grammar, e.g. "
            "'hotspot(fraction=0.2)+onoff(duty=0.25,burst=8)'.  --profile "
            "and --watch observe the array kernel (per-phase wall time, "
            "time-series probes) without changing any result."
        ),
    )
    _add_scenario_flags(
        sim,
        _SIM_DEFAULTS,
        engine={
            "help": "simulation backend: array (the compiled C loop; "
            "--profile/--watch need it) or object (the reference)"
        },
    )
    sim.add_argument("--hops", action="store_true", help="also print per-hop blocking")
    sim.add_argument(
        "--profile",
        action="store_true",
        help="also print where the array kernel's wall time goes, phase "
        "by phase, for the whole batch (observational: results stay "
        "bit-identical)",
    )
    sim.add_argument(
        "--watch",
        type=_stride,
        nargs="?",
        const=0,  # the default stride; an explicit K must be >= 1
        default=None,
        metavar="K",
        help="also probe the array kernel every K cycles (default stride: "
        "~256 samples) and print in-flight, throughput and backlog "
        "sparklines, a sample table and the MSER warmup verdict "
        "(observational: results stay bit-identical)",
    )
    sim.add_argument(
        "--json",
        action="store_true",
        help="print only JSON lines for --profile/--watch: one profile "
        "record, then one probe meta line and one line per sample",
    )

    val = sub.add_parser(
        "validate",
        help="model-vs-sim accuracy per workload",
        description=(
            "Sweep model and simulator over a shared rate ladder for each "
            "workload (a campaign grid with a workload axis) and report the "
            "per-workload accuracy in the mutually stable region."
        ),
    )
    # Deferred: --preset rejects explicitly passed scenario flags, which
    # would silently contradict the preset scenario.
    _add_scenario_flags(
        val,
        _VALIDATE_DEFAULTS,
        deferred=True,
        workload={
            "action": "append",
            "metavar": "SPEC",
            "help": "workload to validate (repeatable); default: a 3-workload suite",
        },
    )
    val.add_argument(
        "--fractions",
        default="0.2,0.4,0.6",
        help="load points as fractions of the binding saturation rate",
    )
    val.add_argument("--workers", type=int, default=1, help="process-pool width")
    val.add_argument(
        "--tolerance",
        type=float,
        help="fail (exit 1) when a workload's mean relative error exceeds this",
    )
    val.add_argument(
        "--hops",
        action="store_true",
        help="also print measured per-hop blocking next to the model's "
        "P_block(k) prediction",
    )
    val.add_argument(
        "--bounds",
        action="store_true",
        help="also compute network-calculus delay bounds and print the "
        "model vs sim vs bound table (a finite bound below the simulated "
        "mean is flagged and fails the run)",
    )
    val.add_argument(
        "--preset",
        choices=available_presets(),
        help="run a standing cross-check suite (S5/S6 scenarios with "
        "stated tolerances) instead of the flag-built scenario; a "
        "workload exceeding its stated tolerance fails the run",
    )
    val.add_argument(
        "--out",
        metavar="FILE",
        help="save every model/sim/bound row as a ResultSet JSONL",
    )
    val.add_argument(
        "--cache-dir", metavar="DIR", help="shared campaign disk cache"
    )
    val.add_argument(
        "--no-warmup-check",
        action="store_true",
        help="skip the probed warmup-adequacy check (one extra array-"
        "engine run at the top load fraction per scenario, warning when "
        "the warmup window ends before the measured transient)",
    )

    srv = sub.add_parser(
        "serve",
        help="serve capacity queries over a campaign result store",
        description=(
            "Start the capacity-planning HTTP/JSON service: queries answer "
            "from the store when warm, through a saturation-aware surrogate "
            "when the rate falls inside a cached ladder, and from an instant "
            "model/bound evaluation otherwise (cold answers enqueue a "
            "simulation unit for background refinement).  A --store path "
            "ending in .jsonl opens the flat single-file layout; anything "
            "else opens (or creates) a sharded concurrent-writer store."
        ),
    )
    srv.add_argument(
        "--store",
        required=True,
        metavar="PATH",
        help="campaign result store (flat .jsonl file or sharded directory)",
    )
    srv.add_argument("--host", default="127.0.0.1")
    srv.add_argument("--port", type=int, default=8351)
    srv.add_argument(
        "--cache-dir", metavar="DIR", help="shared campaign disk cache"
    )
    srv.add_argument(
        "--no-refine",
        action="store_true",
        help="answer cold queries without enqueueing background simulation",
    )
    srv.add_argument(
        "--trace-events",
        metavar="FILE",
        help="append span/lifecycle events as JSONL to FILE: every query "
        "emits a service.query span, refinements parent under the query "
        "that enqueued them ('starnet trace export' renders the file "
        "for chrome://tracing)",
    )
    return parser


def _record_table(rec) -> str:
    if not rec.rows:
        return "(no rows)"
    headers = list(rec.rows[0].keys())
    rows = [[row.get(h) for h in headers] for row in rec.rows]
    return render_table(headers, rows)


def _campaign_grid(args) -> GridSpec:
    if args.spec:
        grid = GridSpec.from_file(args.spec)
        if args.kind or args.axis or args.pinned or args.seeds is not None:
            raise ConfigurationError(
                "--spec cannot be combined with --kind/--axis/--set/--seeds"
            )
    elif not args.kind:
        raise ConfigurationError("campaign needs either --spec or --kind")
    else:
        grid = GridSpec.from_cli(args.kind, args.axis, args.pinned, args.seeds)
    names = {name for name, _ in grid.axes + grid.pinned}
    if grid.kind == "sim" and "engine" not in names:
        # Every sim key names its engine: a params dict without one
        # means a legacy object-engine row.
        grid = replace(grid, pinned=grid.pinned + (("engine", DEFAULT_ENGINE),))
    return grid


def _campaign_table(result) -> str:
    """Flatten params + payload of every unit into one aligned table."""
    flat_rows = []
    headers: list[str] = []
    for unit, res in zip(result.units, result.results):
        payload = to_payload(res)
        row = dict(unit.params)
        if isinstance(payload, dict):
            for k, v in payload.items():
                # Nested tables (e.g. pooled hop-blocking rows) don't
                # fit a flat text column; the JSONL store keeps them.
                if isinstance(v, (list, dict)):
                    continue
                row.setdefault(k, v)
        else:
            row["result"] = payload
        for key in row:
            if key not in headers:
                headers.append(key)
        flat_rows.append(row)
    table = [[row.get(h, "") for h in headers] for row in flat_rows]
    return render_table(headers, table)


def _run_campaign_command(args) -> int:
    try:
        if args.resume and not args.out:
            raise ConfigurationError("--resume requires --out (the store to resume from)")
        grid = _campaign_grid(args)
    except ConfigurationError as exc:
        print(f"starnet campaign: error: {exc}", file=sys.stderr)
        return 2
    units = grid.expand()
    result = run_units(
        units,
        workers=args.workers,
        store=args.out,
        resume=args.resume,
        cache_dir=args.cache_dir,
        events=args.events,
    )
    print(f"campaign[{grid.kind}]: {result.summary()}")
    if result.store_path is not None:
        print(f"store: {result.store_path}")
    if args.events:
        print(f"events: {args.events}")
    if not args.no_table:
        print()
        print(_campaign_table(result))
    return 0


def _run_trace_command(args) -> int:
    from pathlib import Path

    from repro.obs import export_chrome_trace, read_events, span_tree

    if args.trace_command == "export":
        events_path = Path(args.events)
        if not events_path.exists():
            print(
                f"starnet trace: error: no event file at {events_path}",
                file=sys.stderr,
            )
            return 2
        out = (
            Path(args.out)
            if args.out
            else events_path.with_name(events_path.stem + ".trace.json")
        )
        doc = export_chrome_trace(events_path, out, trace_id=args.trace_id)
        spans = [e for e in read_events(events_path) if e.get("type") == "span"]
        if args.trace_id is not None:
            spans = [s for s in spans if s.get("trace_id") == args.trace_id]
        traces = {s.get("trace_id") for s in spans}
        roots = len(span_tree(spans).get(None, []))
        print(
            f"trace export: {len(doc['traceEvents'])} spans, "
            f"{len(traces)} trace(s), {roots} root span(s) -> {out}"
        )
        return 0
    return 2


def _metric_row(result) -> dict:
    """A result's scalar metrics (the observation payloads print apart)."""
    row = result.as_dict()
    row.pop("phase_ns", None)
    row.pop("timeseries", None)
    return row


def _profile_table(prof: dict) -> str:
    total = prof.get("total", 0) or 1
    cycles = prof.get("cycles", 0)
    rows = []
    for phase, ns in [(p, int(prof.get(p, 0))) for p in _PHASES] + [("total", int(total))]:
        rows.append(
            [phase, ns, f"{100.0 * ns / total:.1f}%", round(ns / cycles, 1) if cycles else ""]
        )
    events = [
        [name, int(prof.get(name, 0)), round(1000 * prof.get(name, 0) / cycles, 2) if cycles else ""]
        for name in _EVENTS
    ]
    return (
        render_table(["phase", "ns", "share", "ns/cycle"], rows)
        + "\n\n"
        + render_table(["driver event", "count", "per 1k cycles"], events)
    )


def _watch_report(series: dict, adequacy: dict) -> str:
    from repro.obs import series_rows, sparkline

    lines = []
    for name in ("in_flight", "throughput", "backlog"):
        values = series.get(name, [])
        peak = max(values) if values else 0
        lines.append(f"  {name:<11} {sparkline(values)}  peak={round(peak, 4)}")
    rows = series_rows(
        series, every=max(1, len(series.get("cycles", [])) // _WATCH_ROWS)
    )
    headers = ["cycle", "in_flight", "throughput", "backlog", "max_busy_vcs"]
    lines += ["", render_table(headers, [[row[h] for h in headers] for row in rows]), ""]
    if adequacy["adequate"]:
        lines.append(
            f"warmup: ok (warmup_cycles={adequacy['warmup_cycles']}, "
            f"MSER truncation at cycle {adequacy['truncation_cycle']})"
        )
    else:
        lines.append(
            f"warmup: WARNING: warmup_cycles={adequacy['warmup_cycles']} ends "
            f"before the measured transient (MSER truncation at cycle "
            f"{adequacy['truncation_cycle']}, post-warmup effect "
            f"{adequacy['post_warmup_effect']} sd) — consider --warmup >= "
            f"{adequacy['truncation_cycle']}"
        )
    return "\n".join(lines)


def _probe_lines(ident: dict, series: dict, adequacy: dict):
    """``sim --watch --json``: one meta line, then one line per sample."""
    cycles = series.get("cycles", [])
    meta = {
        "type": "meta",
        **ident,
        "interval": series.get("interval"),
        "total_vcs": series.get("total_vcs", ident["total_vcs"]),
        "samples": len(cycles),
        "warmup_adequacy": adequacy,
    }
    yield json.dumps(meta, sort_keys=True)
    for i, cycle in enumerate(cycles):
        sample = {"type": "sample", "cycle": cycle}
        for name in ("in_flight", "completed", "throughput", "backlog", "occupancy"):
            sample[name] = series[name][i]
        yield json.dumps(sample, sort_keys=True)


def _run_sim_command(args) -> int:
    from repro.obs import default_probe_interval, warmup_adequacy
    from repro.simulation.backends import simulate_batch

    v = _resolved(args, _SIM_DEFAULTS)
    observed = args.profile or args.watch is not None
    try:
        if v["replications"] < 1:
            raise ConfigurationError("--replications must be >= 1")
        if args.json and not observed:
            raise ConfigurationError("--json needs --profile or --watch")
        if observed and v["engine"] != "array":
            raise ConfigurationError(
                "--profile/--watch observe the array kernel; drop --engine "
                f"{v['engine']}"
            )
        # One declarative description of the run — the Scenario facade
        # canonicalises the workload and builds the SimSpec.
        scenario = _build_scenario(v)
        rate = v["rate"]
        if v["load"] is not None:
            if not 0 < v["load"] < 1:
                raise ConfigurationError(f"--load must be in (0, 1), got {v['load']}")
            rate = round(v["load"] * scenario.saturation_rate(), 6)
        # Topology/algorithm names only resolve when the spec is built,
        # so run() failures are configuration errors too.
        topo, algo, config = scenario.sim_spec(rate).build()
        horizon = config.warmup_cycles + config.measure_cycles
        interval = args.watch
        if interval == 0:
            interval = default_probe_interval(horizon)
        results = simulate_batch(
            topo,
            algo,
            config,
            v["replications"],
            profile=args.profile,
            probe_interval=interval,
        )
    except ConfigurationError as exc:
        print(f"starnet sim: error: {exc}", file=sys.stderr)
        return 2
    R = v["replications"]
    result = results[0]
    # The run's identity, as the --json lines carry it.
    ident = {
        "topology": v["topology"],
        "order": v["order"],
        "algorithm": v["algorithm"],
        "workload": config.workload_spec().canonical,
        "rate": rate,
        "replications": R,
        "total_vcs": v["vcs"],
    }
    if not args.json:
        print(
            f"sim[{v['topology']} order={v['order']} {v['algorithm']}] "
            f"workload={ident['workload']} rate={rate} "
            f"M={v['message_length']} V={v['vcs']} seed={v['seed']} "
            f"engine={v['engine']}"
            + (f" replications={R}" if R > 1 else "")
        )
        _print_metrics(results, config.seed, args.hops)
    if args.profile:
        prof = result.phase_ns or {}
        if args.json:
            record = {
                "type": "profile",
                "command": "profile",
                **ident,
                "message_length": v["message_length"],
                "cycles": int(prof.get("cycles", 0)),
                "total_ns": int(prof.get("total", 0) or 1),
                "phases": {phase: int(prof.get(phase, 0)) for phase in _PHASES},
                **{name: int(prof.get(name, 0)) for name in _EVENTS},
            }
            print(json.dumps(record, sort_keys=True))
        else:
            print(f"\nprofile: whole batch of {R} replication(s), cycles={prof.get('cycles', 0)}")
            print(_profile_table(prof))
    if interval is not None:
        series = result.timeseries or {}
        adequacy = warmup_adequacy(series, config.warmup_cycles, measure_end=horizon)
        if args.json:
            for line in _probe_lines(ident, series, adequacy):
                print(line)
        else:
            print(
                f"\nprobes: interval={interval} samples="
                f"{len(series.get('cycles', []))} (summed over the batch)"
            )
            print(_watch_report(series, adequacy))
    return 0


def _print_metrics(results, seed: int, hops: bool) -> None:
    """The metric table of one run, or per-seed rows plus the pooled
    summary of a batch, then the per-hop blocking table with ``hops``."""
    from repro.simulation import summarize_batch

    result = results[0]
    if len(results) > 1:
        headers = ["seed"] + list(_metric_row(result))
        rows = [[seed + i, *_metric_row(res).values()] for i, res in enumerate(results)]
        print(render_table(headers, rows))
        print()
        pooled = summarize_batch(results)
        scalars = [(k, v) for k, v in pooled.items() if not isinstance(v, (list, dict))]
        print(render_table(["pooled metric", "value"], scalars))
        hop_rows = pooled.get("hop_blocking") or []
        title = f"pooled per-hop blocking ({len(results)} replications):"
    else:
        print(render_table(["metric", "value"], list(_metric_row(result).items())))
        hop_rows = result.hop_blocking.as_rows() if result.hop_blocking is not None else []
        title = None
    if hops and hop_rows:
        headers = list(hop_rows[0].keys())
        print()
        if title:
            print(title)
        print(render_table(headers, [[row[h] for h in headers] for row in hop_rows]))


def _bound_check_table(scenario, record, cache_dir) -> tuple[str, bool, "object"]:
    """The model/sim/bound cross-check of one validated workload.

    Returns the rendered three-provenance table, whether any *finite*
    bound fell below the simulated mean (a soundness violation — upper
    bounds may be loose or infinite, never low), and the bound rows.
    """
    import math

    bound_rows = scenario.replace(workload=record.workload).bound(
        record.rates, cache_dir=cache_dir
    )
    table = []
    violated = False
    for point, brow in zip(record.comparison.points, bound_rows):
        bound = brow.latency
        worst = brow.meta.get("delay_bound_worst")
        flag = ""
        if math.isfinite(bound) and bound < point.sim_latency:
            flag = "BOUND<SIM!"
            violated = True
        table.append(
            [
                point.generation_rate,
                round(point.model_latency, 3),
                round(point.sim_latency, 3),
                "inf" if not math.isfinite(bound) else round(bound, 1),
                "inf" if brow.saturated or worst is None else round(worst, 1),
                flag,
            ]
        )
    rendered = render_table(
        ["rate", "model", "sim", "bound", "bound_worst", "check"], table
    )
    return rendered, violated, bound_rows


def _warmup_adequacy_report(scenario, fractions) -> dict:
    """Probe one array-engine run at the top load fraction and judge
    the scenario's warmup window against the measured transient."""
    from repro.obs import adequacy_probe_interval, warmup_adequacy
    from repro.simulation.backends import simulate

    rate = round(max(fractions) * scenario.saturation_rate(), 6)
    spec = scenario.replace(engine="array").sim_spec(rate)
    topo, algo, config = spec.build()
    horizon = config.warmup_cycles + config.measure_cycles
    result = simulate(
        topo, algo, config, probe_interval=adequacy_probe_interval(horizon)
    )
    report = warmup_adequacy(
        result.timeseries, config.warmup_cycles, measure_end=horizon
    )
    report["rate"] = rate
    return report


def _run_validate_command(args) -> int:
    from repro.api.presets import preset_suite
    from repro.api.results import ResultSet
    from repro.validation.workloads import (
        DEFAULT_WORKLOADS,
        model_hop_profile,
        validate_workloads,
    )

    v = _resolved(args, _VALIDATE_DEFAULTS)
    try:
        if v["replications"] < 1:
            raise ConfigurationError("--replications must be >= 1")
        fractions = tuple(float(tok) for tok in args.fractions.split(","))
        if args.preset:
            # A standing cross-check suite: each preset is one scenario +
            # workload with a *stated* tolerance (overridable by
            # --tolerance); exceeding it fails the run.  Flags that set
            # a Scenario field would silently contradict the preset, so
            # they are rejected.
            conflicting = [
                flag
                for flag, (field, _spec) in _SCENARIO_FLAGS.items()
                if field is not None
                and _dest(flag) in _VALIDATE_DEFAULTS
                and getattr(args, _dest(flag)) is not None
            ]
            if conflicting:
                raise ConfigurationError(
                    f"--preset fixes the scenario; drop {', '.join(conflicting)}"
                )
            suites = [
                (
                    p.scenario,
                    (p.workload,),
                    p.tolerance if args.tolerance is None else args.tolerance,
                )
                for p in preset_suite(args.preset)
            ]
        else:
            # The shared validation knobs travel as one Scenario facade;
            # the workloads become its campaign axis.
            workloads = v.pop("workload")
            suites = [
                (
                    _build_scenario(v),
                    tuple(workloads) if workloads else DEFAULT_WORKLOADS,
                    args.tolerance,
                )
            ]
        results = []
        for scenario, workloads, tolerance in suites:
            for record in validate_workloads(
                workloads,
                scenario=scenario,
                load_fractions=fractions,
                workers=args.workers,
                tolerance=tolerance,
                replications=v["replications"],
                hops=args.hops,
                cache_dir=args.cache_dir,
            ):
                results.append((scenario, record))
    except (ConfigurationError, ValueError) as exc:
        print(f"starnet validate: error: {exc}", file=sys.stderr)
        return 2
    failed = False
    all_rows = ResultSet()
    for scenario, record in results:
        print(record.summary())
        for p in record.comparison.points:
            print(
                f"  rate={p.generation_rate:<10g} model={p.model_latency:<10.3f} "
                f"sim={p.sim_latency:<10.3f} err="
                + ("n/a" if p.relative_error != p.relative_error else f"{100 * p.relative_error:.1f}%")
            )
        if record.rows is not None:
            all_rows = all_rows + record.rows
        if args.bounds:
            try:
                rendered, violated, bound_rows = _bound_check_table(
                    scenario, record, args.cache_dir
                )
            except ConfigurationError as exc:
                print(f"starnet validate: error: {exc}", file=sys.stderr)
                return 2
            print("  model vs sim vs bound:")
            print(rendered)
            all_rows = all_rows + bound_rows
            if violated:
                failed = True
        if args.hops and record.hop_profiles:
            for rate, rows in record.hop_profiles:
                if not rows:
                    continue
                model_profile = model_hop_profile(
                    record.workload,
                    rate,
                    order=scenario.order,
                    message_length=scenario.message_length,
                    total_vcs=scenario.total_vcs,
                )
                headers = list(rows[0].keys()) + [
                    "model_p_block",
                    "model_blocking_delay",
                ]
                table = []
                for row in rows:
                    pred = model_profile.get(row["hop"], {})
                    table.append(
                        [*row.values(), pred.get("p_block", ""), pred.get("blocking_delay", "")]
                    )
                print(f"  per-hop blocking at rate={rate:g}:")
                print(render_table(headers, table))
        if record.passed is False:
            failed = True
    if not args.no_warmup_check:
        # One probed run per distinct scenario at the top load fraction:
        # warn (without failing) when the configured warmup window ends
        # before the MSER-detected transient.  Silent when adequate.
        seen: set[str] = set()
        for scenario, _record in results:
            fp = scenario.fingerprint()
            if fp in seen:
                continue
            seen.add(fp)
            try:
                report = _warmup_adequacy_report(scenario, fractions)
            except ConfigurationError:
                continue
            if not report["adequate"]:
                print(
                    f"warmup check: WARNING: warmup_cycles="
                    f"{report['warmup_cycles']} ends before the measured "
                    f"transient at rate={report['rate']:g} (MSER truncation "
                    f"at cycle {report['truncation_cycle']}, post-warmup "
                    f"effect {report['post_warmup_effect']} sd) — consider "
                    f"warmup >= {report['truncation_cycle']}"
                )
    if args.out:
        path = all_rows.save(args.out)
        print(f"rows: {path}")
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "figure1":
        series = reproduce_panel(
            args.panel,
            include_sim=not args.no_sim,
            quality=args.quality,
            seed=args.seed,
            workers=args.workers,
        )
        print(render_panel(series))
        if args.save:
            path = panel_record(series).save(args.save)
            print(f"\nsaved: {path}")
    elif args.command == "properties":
        rows = comparison_table()
        print(
            render_table(
                ["name", "nodes", "degree", "diameter", "avg distance"],
                [
                    [r.name, r.nodes, r.degree, r.diameter, r.average_distance]
                    for r in rows
                ],
            )
        )
    elif args.command == "scale":
        from repro.experiments.scale import scale_study_with_rows

        rec, rows = scale_study_with_rows(
            n_values=tuple(range(4, args.max_n + 1)), workers=args.workers
        )
        print(_record_table(rec))
        if args.out:
            path = rows.save(args.out)
            print(f"rows: {path}")
    elif args.command == "ablation":
        if args.out and args.name != "vcsplit":
            print(
                "starnet ablation: error: --out is only supported for the "
                "vcsplit ablation (campaign-kind rows)",
                file=sys.stderr,
            )
            return 2
        if args.name == "vcsplit" and args.out:
            # One campaign run feeds both the printed table and the rows.
            rec, rows = ablations.vc_split_study_with_rows(workers=args.workers)
            print(_record_table(rec))
            path = rows.save(args.out)
            print(f"rows: {path}")
            return 0
        runner = {
            "blocking": ablations.blocking_variant_study,
            "routing": ablations.routing_comparison,
            "vcsplit": ablations.vc_split_study,
            "hypercube": ablations.star_vs_hypercube,
            "hypercube-model": ablations.star_vs_hypercube_model,
            "blocking-profile": ablations.blocking_profile_study,
        }[args.name]
        print(_record_table(runner(workers=args.workers)))
    elif args.command == "distance":
        rows = []
        for n in range(3, args.max_n + 1):
            closed = star_average_distance_closed_form(n)
            exact = StarGraph(n).exact_average_distance() if n <= 7 else float("nan")
            rows.append([f"S{n}", closed, exact, abs(closed - exact)])
        print(render_table(["network", "Eq. (2)", "enumeration", "|diff|"], rows))
    elif args.command == "campaign":
        return _run_campaign_command(args)
    elif args.command == "serve":
        from repro.service.server import run_server

        try:
            run_server(
                args.store,
                host=args.host,
                port=args.port,
                cache_dir=args.cache_dir,
                refine=not args.no_refine,
                trace_events=args.trace_events,
            )
        except ConfigurationError as exc:
            print(f"starnet serve: error: {exc}", file=sys.stderr)
            return 2
        return 0
    elif args.command == "sim":
        return _run_sim_command(args)
    elif args.command == "trace":
        return _run_trace_command(args)
    elif args.command == "validate":
        return _run_validate_command(args)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
