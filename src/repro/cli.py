"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``regions``
    List the region catalog of a provider, with coordinates.
``calibrate``
    Realize a topology over named regions and print its calibrated
    latency/bandwidth matrices (the paper's LT and BT).
``map``
    Profile an application, map it with one algorithm, and print the
    assignment and its cost.
``compare``
    The full experiment: profile, map with all four algorithms, simulate,
    and print the improvement table.
``robustness``
    Evaluate every mapper against the standard fault suite (outage,
    brownout, latency spike, flapping link, capacity loss).  Each
    (fault, mapper) cell runs on the sweep fabric, so it gets a real
    per-cell deadline, bounded retries, and resume from its shard.
``trace-report``
    Render a JSON trace captured with ``--trace`` as a span tree.
``metrics``
    Aggregate a trace into metrics (per-stage wall time, per-link
    bytes/stalls, memo hit ratios) and print them in Prometheus text
    format or JSON.
``trace-diff``
    Compare two traces per span name (count, total/self time, stable
    attrs) and report whether their structure is identical.
``trace-export``
    Convert a trace to the Chrome trace-event format, loadable in
    ``chrome://tracing`` or Perfetto.
``bench-check``
    Re-run the quick kernel benches and grade them against the
    checked-in ``BENCH_perf.json`` baseline (warn past +25%, fail past
    2x).  End-to-end timing is graded by ``perfbench``.
``sweep``
    Run a scenario grid through the process-isolated sweep fabric:
    supervised worker processes, per-task deadlines, crash isolation,
    quarantine, resume from atomic result shards, and deterministic
    chaos injection (see :mod:`repro.exp.fabric`).
``obs``
    Query the persistent telemetry store: ``obs query`` filters run
    records and prints exact latency percentiles, and ``obs show
    TRACE_ID`` renders a stored trace document.

Bad arguments (an unknown region or mapper, ``--nodes 0``, a ratio
outside [0, 1]: anything that raises :class:`~repro.InputError`) print
``error: <message>`` on stderr and exit 2; any other exception is a bug
and ends in a traceback.

``map``, ``compare``, and ``robustness`` accept ``--trace out.json``:
the whole command runs under a span recorder and the trace forest is
written as JSON on exit (see :mod:`repro.obs`).  The same commands plus
``sweep`` and ``serve`` accept ``--store DIR`` (or ``$REPRO_STORE``) to
append run records and trace documents to the telemetry store.

Examples
--------
::

    python -m repro regions --provider ec2
    python -m repro calibrate --regions us-east-1 eu-west-1 --nodes 4
    python -m repro map --app LU --mapper geo-distributed
    python -m repro compare --app K-means --constraint-ratio 0.4
    python -m repro robustness --app LU --processes 32 --sites 4 \
        --sweep-dir robustness/ --resume
    python -m repro map --app LU --trace trace.json
    python -m repro trace-report trace.json --max-depth 3
    python -m repro metrics trace.json --format prom
    python -m repro trace-diff before.json after.json
    python -m repro trace-export trace.json --chrome -o trace.chrome.json
    python -m repro bench-check --quick
    python -m repro sweep --sweep-dir sweep/ --grid demo --tasks 64 \
        --workers 4 --chaos "seed=7,kill=0.15,hang=0.05" --resume
    python -m repro obs query --store ~/.repro --kind serve --op map
    python -m repro obs show 4bf92f3577b34da6a3ce929d0e0e4736
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING, Sequence

# All three are stdlib-only.  Each command imports the rest of what it
# runs, so building the parser, `repro obs` and `repro sweep` load no numpy.
from ._validation import InputError
from .apps import PAPER_APPS
from .exp.report import format_table

if TYPE_CHECKING:
    from .cloud import CloudTopology

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Geo-distributed process mapping (SC'17 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_regions = sub.add_parser("regions", help="list the region catalog")
    p_regions.add_argument("--provider", default="ec2", choices=["ec2", "azure"])

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--regions",
        nargs="+",
        default=None,
        help="region keys for the deployment (default: the paper's four)",
    )
    common.add_argument("--provider", default="ec2", choices=["ec2", "azure"])
    common.add_argument(
        "--instance",
        default=None,
        help="instance type (default: m4.xlarge for ec2, standard-d2 for azure)",
    )
    common.add_argument("--nodes", type=int, default=16, help="nodes per site")
    common.add_argument("--seed", type=int, default=0)

    p_cal = sub.add_parser(
        "calibrate", parents=[common], help="print the calibrated LT/BT matrices"
    )

    traceable = argparse.ArgumentParser(add_help=False)
    traceable.add_argument(
        "--trace",
        default=None,
        metavar="OUT.json",
        help="record an observability trace of the run and write it as JSON",
    )

    storeable = argparse.ArgumentParser(add_help=False)
    storeable.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help="append a run record (and its trace) to this telemetry store "
        "($REPRO_STORE also enables it; query with `repro obs`)",
    )

    app_common = argparse.ArgumentParser(
        add_help=False, parents=[common, traceable, storeable]
    )
    app_common.add_argument(
        "--app", default="LU", choices=list(PAPER_APPS), help="workload to map"
    )
    app_common.add_argument(
        "--constraint-ratio",
        type=float,
        default=0.2,
        help="fraction of processes pinned by data-movement constraints",
    )
    app_common.add_argument(
        "--multilevel",
        action="store_true",
        help="use the multilevel coarsen->map->uncoarsen pipeline "
        "(map: instead of --mapper; compare: as an extra column) — "
        "the scalable choice for large N",
    )
    app_common.add_argument(
        "--remote",
        default=None,
        metavar="SOCKET",
        help="send the solve to a placement daemon on this unix socket "
        "(start one with `repro serve`) instead of solving in-process",
    )

    p_map = sub.add_parser("map", parents=[app_common], help="map with one algorithm")
    p_map.add_argument(
        "--mapper",
        default="geo-distributed",
        help="mapper registry name, e.g. greedy, geo-distributed, multilevel "
        "(an unknown name lists them all)",
    )

    sub.add_parser(
        "compare", parents=[app_common], help="compare all four algorithms"
    )

    p_rob = sub.add_parser(
        "robustness",
        parents=[traceable, storeable],
        help="evaluate mappers against the standard fault suite",
    )
    p_rob.add_argument("--app", default="LU", choices=list(PAPER_APPS))
    p_rob.add_argument(
        "--processes", type=int, default=32, help="number of processes (N)"
    )
    p_rob.add_argument(
        "--sites", type=int, default=4, help="number of sites (M)"
    )
    p_rob.add_argument(
        "--slack",
        type=float,
        default=2.0,
        help="capacity headroom: nodes per site = slack * N / M",
    )
    p_rob.add_argument("--constraint-ratio", type=float, default=0.2)
    p_rob.add_argument("--seed", type=int, default=0)
    p_rob.add_argument(
        "--faults",
        nargs="+",
        default=None,
        help="subset of fault-suite names to run (default: all)",
    )
    p_rob.add_argument(
        "--mpipp", action="store_true", help="also evaluate the MPIPP baseline"
    )
    p_rob.add_argument(
        "--sweep-dir",
        default=None,
        help="keep the cells' specs and shards here (default: a temp dir)",
    )
    p_rob.add_argument(
        "--resume",
        action="store_true",
        help="adopt cells already finished in --sweep-dir",
    )
    p_rob.add_argument(
        "--limit",
        type=int,
        default=None,
        help="run only the first K cells (for smoke tests)",
    )
    p_rob.add_argument(
        "--timeout-s",
        type=float,
        default=None,
        help="per-cell timeout in seconds (default: none)",
    )
    p_rob.add_argument(
        "--retries", type=int, default=1, help="retries per failed cell"
    )

    p_report = sub.add_parser(
        "trace-report", help="render a --trace JSON file as a span tree"
    )
    p_report.add_argument("trace_file", help="trace JSON written by --trace")
    p_report.add_argument(
        "--max-depth",
        type=int,
        default=None,
        help="prune the rendered tree below this depth (default: no limit)",
    )
    p_report.add_argument(
        "--max-children",
        type=int,
        default=40,
        help="elide the middle of fan-outs wider than this (default: 40)",
    )

    p_metrics = sub.add_parser(
        "metrics", help="aggregate a --trace JSON file into metrics"
    )
    p_metrics.add_argument("trace_file", help="trace JSON written by --trace")
    p_metrics.add_argument(
        "--format",
        dest="fmt",
        default="prom",
        choices=["prom", "json"],
        help="output format (default: Prometheus text exposition)",
    )

    p_diff = sub.add_parser(
        "trace-diff", help="compare two traces per span name"
    )
    p_diff.add_argument("trace_a", help="baseline trace JSON")
    p_diff.add_argument("trace_b", help="candidate trace JSON")

    p_export = sub.add_parser(
        "trace-export", help="convert a trace to another format"
    )
    p_export.add_argument("trace_file", help="trace JSON written by --trace")
    p_export.add_argument(
        "--chrome",
        action="store_true",
        help="emit the Chrome trace-event format (chrome://tracing, Perfetto)",
    )
    p_export.add_argument(
        "-o",
        "--out",
        default=None,
        help="output path (default: <trace_file stem>.chrome.json)",
    )

    p_bench = sub.add_parser(
        "bench-check",
        help="re-run the quick benches and grade against BENCH_perf.json",
    )
    p_bench.add_argument(
        "--quick",
        action="store_true",
        help="run the benches' --quick sizes (currently the only mode; "
        "spelled out so CI invocations read unambiguously)",
    )
    p_bench.add_argument(
        "--baseline",
        default=None,
        help="baseline records file (default: the repo's BENCH_perf.json)",
    )
    p_bench.add_argument(
        "--current",
        default=None,
        help="grade this records file instead of re-running the benches",
    )
    p_bench.add_argument(
        "--benchmarks-dir",
        default=None,
        help="directory holding the bench scripts (default: auto-detected)",
    )
    p_bench.add_argument(
        "--warn-pct",
        type=float,
        default=25.0,
        help="warn (non-blocking) past this relative slowdown (default: 25)",
    )
    p_bench.add_argument(
        "--fail-factor",
        type=float,
        default=2.0,
        help="hard-fail past this current/baseline ratio (default: 2.0)",
    )

    p_sweep = sub.add_parser(
        "sweep",
        parents=[storeable],
        help="run a sweep through the process-isolated fabric",
        description=(
            "Files-in/files-out sweep under worker-process supervision: "
            "per-task deadlines, crash isolation, retry/backoff, "
            "quarantine, heartbeat liveness, and atomic result shards. "
            "A sweep directory without a manifest is initialized from "
            "--grid first; an existing one is simply (re)run. "
            "The run is traced only with --store (or $REPRO_STORE): then "
            "the sweep directory's trace.json holds its span tree, "
            "otherwise no spans are recorded and no trace.json is left."
        ),
    )
    p_sweep.add_argument(
        "--sweep-dir", required=True, help="the sweep directory (created on demand)"
    )
    p_sweep.add_argument(
        "--grid",
        default=None,
        choices=["demo", "fig7", "robustness"],
        help="spec generator used to initialize an empty sweep dir",
    )
    p_sweep.add_argument(
        "--tasks", type=int, default=64, help="demo grid: number of tasks"
    )
    p_sweep.add_argument("--app", default="LU", choices=list(PAPER_APPS))
    p_sweep.add_argument(
        "--scales",
        type=int,
        nargs="+",
        default=[64, 128, 256],
        help="fig7 grid: process counts",
    )
    p_sweep.add_argument(
        "--processes", type=int, default=32, help="robustness grid: process count"
    )
    p_sweep.add_argument("--sites", type=int, default=4)
    p_sweep.add_argument("--slack", type=float, default=2.0)
    p_sweep.add_argument(
        "--mappers",
        nargs="+",
        default=["greedy", "geo-distributed"],
        help="mapper registry names for fig7/robustness grids",
    )
    p_sweep.add_argument("--seed", type=int, default=0)
    p_sweep.add_argument(
        "--workers", type=int, default=2, help="worker processes (default: 2)"
    )
    p_sweep.add_argument(
        "--timeout-s",
        type=float,
        default=None,
        help="per-task wall-clock budget; a task past it gets its worker killed",
    )
    p_sweep.add_argument(
        "--retries", type=int, default=2, help="retries per failed task"
    )
    p_sweep.add_argument(
        "--quarantine-after",
        type=int,
        default=3,
        help="consecutive worker deaths before a task is quarantined",
    )
    p_sweep.add_argument(
        "--heartbeat-timeout-s",
        type=float,
        default=10.0,
        help="kill a worker whose heartbeat stalls this long",
    )
    p_sweep.add_argument(
        "--chaos",
        default=None,
        metavar="SPEC",
        help=(
            "deterministic fault injection, e.g. "
            "'seed=7,kill=0.15,kill-mid-write=0.05,hang=0.05,delay=0.1'"
        ),
    )
    p_sweep.add_argument(
        "--resume",
        action="store_true",
        help="adopt finished shards; re-run failed/missing ones",
    )
    p_sweep.add_argument(
        "--limit",
        type=int,
        default=None,
        help="run only the first K manifest keys (smoke tests)",
    )
    p_sweep.add_argument(
        "--merge-only",
        action="store_true",
        help="skip execution; just merge existing shards",
    )
    p_sweep.add_argument(
        "--verify-against",
        default=None,
        metavar="DIR",
        help="another sweep dir whose merged payload this one must match",
    )

    p_serve = sub.add_parser(
        "serve",
        parents=[storeable],
        help="run the long-lived placement daemon (mapping-as-a-service)",
    )
    p_serve.add_argument(
        "--socket",
        default="placement.sock",
        help="unix socket path to listen on (default: ./placement.sock)",
    )
    p_serve.add_argument(
        "--http-port",
        type=int,
        default=None,
        metavar="PORT",
        help="also serve HTTP on 127.0.0.1:PORT (/health, /metrics, /v1/<op>)",
    )
    p_serve.add_argument(
        "--pool-workers", type=int, default=2, help="solver process pool size"
    )
    p_serve.add_argument(
        "--queue-limit",
        type=int,
        default=64,
        help="pending-request bound before 429 backpressure",
    )
    # Accepted and ignored: perfbench's serve-mix workload still passes
    # --batch-max 4 to the daemon it launches.
    p_serve.add_argument("--batch-max", type=int, help=argparse.SUPPRESS)
    p_serve.add_argument(
        "--cache-size", type=int, default=256, help="result cache entries (0 disables)"
    )
    p_serve.add_argument(
        "--degrade-at",
        type=int,
        default=None,
        metavar="PENDING",
        help="pending depth at which geo-distributed and multilevel requests get Greedy",
    )

    p_obs = sub.add_parser(
        "obs",
        help="query the persistent telemetry store",
        description=(
            "Inspect the append-only telemetry store that --store / "
            "$REPRO_STORE runs write to: filter run records, compute "
            "latency percentiles, grade bench history, and render "
            "stored trace documents."
        ),
    )
    obs_sub = p_obs.add_subparsers(dest="obs_command", required=True)
    obs_common = argparse.ArgumentParser(add_help=False)
    obs_common.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help="telemetry store directory (default: $REPRO_STORE, else ~/.repro)",
    )
    p_oq = obs_sub.add_parser(
        "query",
        parents=[obs_common],
        help="filter run records and print latency percentiles",
    )
    p_oq.add_argument(
        "--kind", default=None, choices=["bench", "serve", "sweep", "run"]
    )
    p_oq.add_argument("--bench", default=None, help="match the record's bench name")
    p_oq.add_argument("--op", default=None, help="match the record's serve op")
    p_oq.add_argument("--trace-id", default=None, help="match one trace id")
    p_oq.add_argument(
        "--since", type=float, default=None, help="minimum unix ts (inclusive)"
    )
    p_oq.add_argument(
        "--until", type=float, default=None, help="maximum unix ts (inclusive)"
    )
    p_oq.add_argument(
        "--limit", type=int, default=None, help="keep only the latest N matches"
    )
    p_oq.add_argument(
        "--percentiles",
        type=float,
        nargs="+",
        default=[0.5, 0.9, 0.99],
        help="quantiles reported over the rows' latency samples",
    )
    p_oq.add_argument(
        "--json",
        action="store_true",
        help="also print each matching record as a JSON line",
    )
    p_os = obs_sub.add_parser(
        "show",
        parents=[obs_common],
        help="render a stored trace document by trace id",
    )
    p_os.add_argument("trace_id", help="32-hex trace id (see query --json)")
    p_os.add_argument(
        "--max-depth",
        type=int,
        default=None,
        help="prune the rendered tree below this depth (default: no limit)",
    )
    return parser


def _topology(args) -> CloudTopology:
    from .cloud import CloudTopology
    from .cloud.regions import PAPER_EC2_REGIONS

    instance = args.instance or ("m4.xlarge" if args.provider == "ec2" else "standard-d2")
    return CloudTopology.from_regions(
        args.regions or list(PAPER_EC2_REGIONS),
        args.nodes,
        provider=args.provider,
        instance_type=instance,
        seed=args.seed,
    )


def _error_exit(exc: Exception) -> int:
    """Print ``error: <exc>`` on stderr; returns exit code 2."""
    print(f"error: {exc}", file=sys.stderr)
    return 2


def _run(handler, args) -> int:
    """``handler(args)``; bad input (an :class:`InputError`) exits 2 with ``error:``."""
    try:
        return handler(args)
    except InputError as exc:
        return _error_exit(exc)


def _check_grid(
    *,
    sites: int | None = None,
    limit: int | None = None,
    processes: int | None = None,
    slack: float | None = None,
    constraint_ratio: float | None = None,
    scales: Sequence[int] = (),
    mappers: Sequence[str] = (),
) -> None:
    """Raise :class:`InputError` unless every cell of a sweep grid can run.

    Otherwise the sweep would fork its workers and fail each cell.  A
    ``--limit`` must keep at least one cell, the paper's regions must
    host ``sites`` sites, each scale must be a positive multiple of
    ``sites``, and every mapper must be registered.
    """
    if limit is not None and limit < 1:
        raise InputError(f"limit must be >= 1, got {limit}")
    if sites is None:
        return
    from .cloud.regions import PAPER_EC2_REGIONS
    from .core.mapping import available_mappers

    if not 1 <= sites <= len(PAPER_EC2_REGIONS):
        raise InputError(
            f"sites must be in 1..{len(PAPER_EC2_REGIONS)}, got {sites}"
        )
    if processes is not None and processes < 1:
        raise InputError(f"processes must be >= 1, got {processes}")
    if slack is not None and not slack >= 1.0:
        raise InputError(f"slack must be >= 1, got {slack}")
    if constraint_ratio is not None and not 0.0 <= constraint_ratio <= 1.0:
        raise InputError(
            f"constraint_ratio must be in [0, 1], got {constraint_ratio}"
        )
    for n in scales:
        if n < 1 or n % sites:
            raise InputError(
                f"scales must be positive multiples of sites ({sites}), got {n}"
            )
    unknown = sorted(set(mappers) - set(available_mappers()))
    if unknown:
        raise InputError(f"unknown mappers {unknown}; available: {available_mappers()}")


def _pose(args):
    """(topology, application, problem) named by the command line."""
    from .apps import make_paper_app
    from .exp.runner import build_problem

    topo = _topology(args)
    app = make_paper_app(args.app, topo.total_nodes)
    problem = build_problem(
        app, topo, constraint_ratio=args.constraint_ratio, seed=args.seed
    )
    return topo, app, problem


def _cmd_regions(args) -> int:
    from .cloud import list_regions

    rows = [
        [r.key, r.name, f"{r.location.latitude:.2f}", f"{r.location.longitude:.2f}"]
        for r in list_regions(args.provider)
    ]
    print(format_table(["key", "name", "lat", "lon"], rows,
                       title=f"{args.provider} regions"))
    return 0


def _cmd_calibrate(args) -> int:
    import numpy as np

    topo = _topology(args)
    keys = [s.region.key for s in topo.sites]
    lat_rows = [[keys[i]] + list(np.round(topo.latency_s[i] * 1e3, 3)) for i in range(topo.num_sites)]
    bw_rows = [[keys[i]] + list(np.round(topo.bandwidth_mbs[i], 1)) for i in range(topo.num_sites)]
    print(format_table(["from \\ to"] + keys, lat_rows, title="LT: latency (ms)"))
    print()
    print(format_table(["from \\ to"] + keys, bw_rows, title="BT: bandwidth (MB/s)"))
    return 0


def _remote_map(args, problem, mapper_name: str) -> int:
    from .serve.client import PlacementClient, RemoteError

    try:
        with PlacementClient(args.remote) as client:
            reply = client.map(problem, mapper=mapper_name, seed=args.seed)
    except (OSError, RemoteError) as exc:
        print(f"error: placement daemon at {args.remote}: {exc}", file=sys.stderr)
        return 1
    result = reply["result"]
    flags = ", ".join(
        name for name in ("cache_hit", "coalesced", "degraded") if reply.get(name)
    )
    print(
        f"{args.app} mapped remotely by {reply['mapper']}: "
        f"cost={result['cost']:.3f}, overhead={result['elapsed_s'] * 1e3:.1f} ms"
        + (f" [{flags}]" if flags else "")
    )
    print(f"assignment: {result['assignment']}")
    return 0


def _cmd_map(args) -> int:
    from .core import get_mapper

    mapper_name = "multilevel" if args.multilevel else args.mapper
    mapper = get_mapper(mapper_name)
    topo, app, problem = _pose(args)
    if args.remote:
        return _remote_map(args, problem, mapper_name)
    mapping = mapper.map(problem, seed=args.seed)
    print(
        f"{args.app} ({app.num_ranks} processes) mapped by {mapping.mapper}: "
        f"cost={mapping.cost:.3f}, overhead={mapping.elapsed_s * 1e3:.1f} ms"
    )
    loads = mapping.site_loads(problem.num_sites)
    rows = [
        [s.region.key, int(loads[s.index]), int(s.capacity)] for s in topo.sites
    ]
    print(format_table(["site", "processes", "capacity"], rows))
    print(f"assignment: {mapping.assignment.tolist()}")
    return 0


def _remote_compare(args, problem, names: list[str]) -> int:
    from .serve.client import PlacementClient, RemoteError

    try:
        with PlacementClient(args.remote) as client:
            reply = client.compare(problem, names, seed=args.seed)
    except (OSError, RemoteError) as exc:
        print(f"error: placement daemon at {args.remote}: {exc}", file=sys.stderr)
        return 1
    rows = [
        [name, wire["cost"], wire["elapsed_s"] * 1e3]
        for name, wire in reply["result"]["mappings"].items()
    ]
    print(
        format_table(
            ["mapper", "comm cost", "overhead ms"],
            rows,
            title=f"{args.app} via daemon at {args.remote}"
            + (" [cache hit]" if reply.get("cache_hit") else ""),
        )
    )
    return 0


def _cmd_compare(args) -> int:
    from .core import get_mapper
    from .exp.improvement import improvement_pct
    from .exp.runner import run_comparison
    from .exp.scenarios import default_mappers

    topo, app, problem = _pose(args)
    if args.remote:
        names = ["baseline", "greedy", "geo-distributed"]
        if args.multilevel:
            names.append("multilevel")
        return _remote_compare(args, problem, names)
    mappers = default_mappers()
    if args.multilevel:
        mappers["Multilevel"] = get_mapper("multilevel")
    results = run_comparison(app, problem, mappers, seed=args.seed)
    base = results["Baseline"]
    rows = [
        [
            name,
            r.mapping.cost,
            r.total_time_s,
            improvement_pct(base.total_time_s, r.total_time_s),
            r.mapping.elapsed_s * 1e3,
        ]
        for name, r in results.items()
    ]
    print(
        format_table(
            ["mapper", "comm cost", "sim time (s)", "improvement %", "overhead ms"],
            rows,
            title=f"{args.app} on {topo.num_sites} sites x {args.nodes} nodes",
        )
    )
    return 0


def _cmd_robustness(args) -> int:
    import tempfile

    from .exp.fabric import FabricConfig, FabricError, robustness_specs
    from .exp.robustness import RobustnessCell, robustness_table
    from .faults import standard_fault_suite

    if args.resume and not args.sweep_dir:
        raise InputError("--resume requires --sweep-dir")
    _check_grid(
        sites=args.sites,
        limit=args.limit,
        processes=args.processes,
        slack=args.slack,
        constraint_ratio=args.constraint_ratio,
    )
    suite = standard_fault_suite(args.sites)
    faults = args.faults or list(suite)
    unknown = sorted(set(faults) - set(suite))
    if unknown:
        raise InputError(f"unknown faults {unknown}; available: {sorted(suite)}")
    mappers = ["baseline", "greedy"]
    if args.mpipp:
        mappers.append("mpipp")
    mappers.append("geo-distributed")
    specs = robustness_specs(
        app=args.app,
        processes=args.processes,
        sites=args.sites,
        slack=args.slack,
        constraint_ratio=args.constraint_ratio,
        faults=faults,
        mappers=mappers,
        seed=args.seed,
    )
    config = FabricConfig(timeout_s=args.timeout_s, max_retries=args.retries)
    with tempfile.TemporaryDirectory(prefix="repro-robustness-") as tmp:
        try:
            report, merged = _run_sweep(
                args.sweep_dir or tmp,
                specs,
                config,
                resume=args.resume,
                limit=args.limit,
            )
        except FabricError as exc:
            return _error_exit(exc)
    rows = [row for row in merged.rows if row["key"] in report.statuses]
    cells = [RobustnessCell(**row["result"]) for row in rows if row["status"] == "ok"]
    if cells:
        print(robustness_table(cells))
    failures = [row for row in rows if row["status"] != "ok"]
    for row in failures:
        print(f"FAILED {row['key']}: {row['error']}")
    print(
        f"robustness: {report.total} cells, {report.adopted} adopted, "
        f"{len(failures)} failed"
    )
    return 1 if failures else 0


def _cmd_trace_report(args) -> int:
    from .obs import render_trace

    spans = _load_trace_or_none(args.trace_file)
    if spans is None:
        return 2
    print(
        render_trace(
            spans, max_depth=args.max_depth, max_children=args.max_children
        )
    )
    return 0


def _load_trace_or_none(path: str):
    """Load a trace, printing the error and returning None on failure."""
    from .obs import TraceSchemaError, load_trace

    try:
        return load_trace(path)
    except (OSError, TraceSchemaError) as exc:
        kind = "invalid trace" if isinstance(exc, TraceSchemaError) else "error"
        print(f"{kind}: {path}: {exc}", file=sys.stderr)
        return None


def _cmd_metrics(args) -> int:
    from .obs import aggregate_trace

    spans = _load_trace_or_none(args.trace_file)
    if spans is None:
        return 2
    snapshot = aggregate_trace(spans)
    if args.fmt == "json":
        print(snapshot.to_json())
    else:
        print(snapshot.render_prom(), end="")
    return 0


def _cmd_trace_diff(args) -> int:
    from .obs import diff_traces

    a = _load_trace_or_none(args.trace_a)
    b = _load_trace_or_none(args.trace_b)
    if a is None or b is None:
        return 2
    diff = diff_traces(a, b)
    rows = [
        [
            d.name,
            d.count_a,
            d.count_b,
            f"{d.total_a:.6f}",
            f"{d.total_b:.6f}",
            f"{d.total_delta:+.6f}",
        ]
        for d in sorted(diff.deltas.values(), key=lambda d: d.name)
    ]
    print(
        format_table(
            ["span", "count A", "count B", "total A (s)", "total B (s)", "delta (s)"],
            rows,
            title=f"{args.trace_a} vs {args.trace_b}",
        )
    )
    for name in diff.only_in_a:
        print(f"only in A: {name}")
    for name in diff.only_in_b:
        print(f"only in B: {name}")
    for d in diff.deltas.values():
        for attr, (va, vb) in d.attr_changes.items():
            print(f"attr changed on {d.name}: {attr}: {va!r} -> {vb!r}")
    print(
        "structure: identical"
        if diff.same_structure
        else "structure: differs (span names/nesting/order)"
    )
    return 0


def _cmd_trace_export(args) -> int:
    from pathlib import Path

    from .obs import write_chrome_trace

    if not args.chrome:
        raise InputError("pick an output format (currently: --chrome)")
    spans = _load_trace_or_none(args.trace_file)
    if spans is None:
        return 2
    stem = Path(args.trace_file)
    out = Path(args.out) if args.out else stem.with_suffix(".chrome.json")
    write_chrome_trace(out, spans)
    n_events = sum(1 + len(s.events) for root in spans for s in root.iter())
    print(f"chrome trace written to {out} ({n_events} events)")
    return 0


def _cmd_bench_check(args) -> int:
    import tempfile
    from pathlib import Path

    from .obs.benchgate import (
        compare_bench_records,
        find_benchmarks_dir,
        load_bench_records,
        run_quick_benches,
    )

    try:
        bench_dir = (
            Path(args.benchmarks_dir)
            if args.benchmarks_dir
            else find_benchmarks_dir()
        )
    except FileNotFoundError as exc:
        return _error_exit(exc)
    baseline_path = (
        Path(args.baseline) if args.baseline else bench_dir.parent / "BENCH_perf.json"
    )
    try:
        baseline = load_bench_records(baseline_path)
    except (OSError, ValueError) as exc:
        print(f"error: baseline {baseline_path}: {exc}", file=sys.stderr)
        return 2
    try:
        if args.current:
            current = load_bench_records(args.current)
        else:
            with tempfile.TemporaryDirectory(prefix="bench-check-") as tmp:
                current = run_quick_benches(
                    bench_dir, Path(tmp) / "bench_current.json"
                )
    except (OSError, ValueError, RuntimeError) as exc:
        return _error_exit(exc)
    report = compare_bench_records(
        baseline,
        current,
        warn_ratio=1.0 + args.warn_pct / 100.0,
        fail_ratio=args.fail_factor,
    )
    print(report.render())
    for d in report.warnings:
        print(f"WARN {d.bench} (n={d.n}): {d.ratio:.2f}x baseline", file=sys.stderr)
    for d in report.failures:
        print(f"FAIL {d.bench} (n={d.n}): {d.ratio:.2f}x baseline", file=sys.stderr)
    return 0 if report.ok else 1


def _obs_store(args):
    """The TelemetryStore named by --store / $REPRO_STORE / ~/.repro."""
    from .obs import TelemetryStore, default_store_dir, resolve_store_dir

    root = resolve_store_dir(args.store)
    return TelemetryStore(root if root is not None else default_store_dir())


def _cmd_obs_query(args) -> int:
    import json

    store = _obs_store(args)
    result = store.query(
        kind=args.kind,
        bench=args.bench,
        op=args.op,
        trace_id=args.trace_id,
        since=args.since,
        until=args.until,
        limit=args.limit,
    )
    if args.json:
        for row in result.rows:
            print(json.dumps(row, sort_keys=True))
    print(
        f"{len(result.rows)} records matched in {store.root} "
        f"({result.scanned} scanned, {result.corrupt_lines} corrupt lines)"
    )
    samples = result.samples()
    if samples:
        pcts = result.percentiles(args.percentiles)
        joined = ", ".join(f"{k}={v * 1e3:.3f} ms" for k, v in pcts.items())
        print(f"latency over {len(samples)} samples: {joined}")
    return 0 if result.rows else 1


def _cmd_obs_show(args) -> int:
    from .obs import render_trace, span_from_dict, validate_trace

    store = _obs_store(args)
    doc = store.load_trace_doc(args.trace_id)
    validate_trace(doc)
    spans = [span_from_dict(s) for s in doc.get("spans", [])]
    print(f"trace {args.trace_id} (version {doc.get('version')})")
    print(render_trace(spans, max_depth=args.max_depth))
    return 0


def _cmd_obs(args) -> int:
    handler = {
        "query": _cmd_obs_query,
        "show": _cmd_obs_show,
    }[args.obs_command]
    return handler(args)


def _run_sweep(sweep_dir, specs, config, *, resume, limit, merge_only=False):
    """Create or load a sweep dir's manifest, run it, and merge its shards.

    A sweep dir without a manifest is initialized from ``specs``.  One
    that has a manifest must hold exactly ``specs`` when they are given:
    a dir built from other arguments would otherwise be resumed as if it
    were this sweep.  The first differing key is named in a
    :class:`~repro.exp.fabric.FabricError`.  Returns ``(report,
    merged)``; ``report`` is ``None`` with ``merge_only``.
    """
    from itertools import zip_longest

    from .exp.fabric import (
        FabricError,
        SweepFabric,
        SweepLayout,
        load_manifest,
        merge_shards,
        write_sweep,
    )

    if SweepLayout(sweep_dir).manifest_path.exists():
        held = load_manifest(sweep_dir)
        if specs is not None and held != list(specs):
            differing = next(
                a or b for a, b in zip_longest(held, specs) if a != b
            ).key
            raise FabricError(
                f"{sweep_dir} holds a sweep built from other arguments: "
                f"spec {differing!r} differs; use a fresh sweep dir"
            )
    elif specs is None:
        raise FabricError(
            "sweep dir has no manifest; pass --grid to initialize it "
            "(demo | fig7 | robustness)"
        )
    else:
        write_sweep(sweep_dir, specs)
        held = list(specs)
        print(f"initialized sweep: {len(held)} specs")
    report = None
    if not merge_only:
        keys = [spec.key for spec in held]
        selected = keys[:limit] if limit is not None else None
        report = SweepFabric(sweep_dir, config=config).run(
            resume=resume, keys=selected
        )
        print(report.summary())
    merged = merge_shards(
        sweep_dir, strict=limit is None and not merge_only, write=limit is None
    )
    return report, merged


def _cmd_sweep(args) -> int:
    from .exp.fabric import (
        ChaosConfig,
        FabricConfig,
        FabricError,
        SweepLayout,
        demo_specs,
        diff_results,
        fig7_specs,
        merge_shards,
        read_json,
        results_equivalent,
        robustness_specs,
    )
    from .obs import validate_trace

    try:
        _check_grid(limit=args.limit)
        specs = None
        if args.grid == "demo":
            specs = demo_specs(args.tasks, seed=args.seed)
        elif args.grid == "fig7":
            _check_grid(sites=args.sites, scales=args.scales, mappers=args.mappers)
            specs = fig7_specs(
                app=args.app,
                scales=args.scales,
                mappers=args.mappers,
                seeds=(args.seed,),
                sites=args.sites,
            )
        elif args.grid == "robustness":
            _check_grid(
                sites=args.sites,
                processes=args.processes,
                slack=args.slack,
                mappers=args.mappers,
            )
            specs = robustness_specs(
                app=args.app,
                processes=args.processes,
                sites=args.sites,
                slack=args.slack,
                mappers=args.mappers,
                seed=args.seed,
            )
        chaos = ChaosConfig.parse(args.chaos) if args.chaos else None
        config = FabricConfig(
            workers=args.workers,
            timeout_s=args.timeout_s,
            max_retries=args.retries,
            quarantine_after=args.quarantine_after,
            heartbeat_timeout_s=args.heartbeat_timeout_s,
            chaos=chaos,
        )
        report, merged = _run_sweep(
            args.sweep_dir,
            specs,
            config,
            resume=args.resume,
            limit=args.limit,
            merge_only=args.merge_only,
        )
        if report is not None:
            print(f"ok={report.count('ok')}")
        print(merged.summary())
    except FabricError as exc:
        return _error_exit(exc)

    # A run leaves trace.json only when it was traced (--store), so the
    # file, if any, is this run's; --merge-only ran nothing.
    trace = root = None
    if report is not None:
        trace = read_json(SweepLayout(args.sweep_dir).trace_path)
        try:
            (root,) = validate_trace(trace)
        except ValueError:  # absent, unreadable, or not one sweep span
            trace = root = None
    if root is not None:
        tasks = sum(c.name == "fabric.task" for c in root.children)
        print(
            f"trace: {tasks} task span(s), "
            f"{root.attrs.get('dropped_traces', 0)} dropped"
        )

    _record_sweep(args, report, trace)

    code = 0
    bad = [r for r in merged.rows if r["status"] != "ok"]
    # With --limit, keys past the limit are legitimately missing.
    incomplete = (
        (merged.missing or merged.corrupt) if args.limit is None else merged.corrupt
    )
    if bad or incomplete:
        code = 1
    if args.verify_against:
        other = merge_shards(args.verify_against, strict=True, write=False)
        if results_equivalent(merged.rows, other.rows):
            print("verified: payload-identical")
        else:
            print("verify FAILED: payloads differ", file=sys.stderr)
            for line in diff_results(merged.rows, other.rows)[:10]:
                print(f"  {line}", file=sys.stderr)
            code = 1
    return code


def _record_sweep(args, report, trace) -> None:
    """Append the sweep's run record (and its trace) to the store."""
    from .obs import StoreError, TelemetryStore, resolve_store_dir

    store_dir = resolve_store_dir(getattr(args, "store", None))
    if store_dir is None or report is None:
        return
    trace_id = trace.get("trace_id") if trace is not None else None
    record = {
        "kind": "sweep",
        "bench": "sweep",
        "sweep_dir": str(args.sweep_dir),
        "tasks": report.total,
        "ok": report.count("ok"),
        "failed": report.count("failed"),
        "timeout": report.count("timeout"),
        "quarantined": report.count("quarantined"),
        "retries": report.retries,
        "worker_restarts": report.worker_restarts,
        "seconds": float(report.elapsed_s),
        "git_rev": _git_rev(),
    }
    if isinstance(trace_id, str):
        record["trace_id"] = trace_id
    try:
        store = TelemetryStore(store_dir)
        store.append(record)
        if isinstance(trace_id, str):
            store.save_trace(trace)
    except (OSError, StoreError):
        pass  # telemetry must never fail the sweep


def _git_rev() -> str | None:
    """The repo's short HEAD revision, or None outside a checkout."""
    import subprocess

    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    rev = proc.stdout.strip()
    return rev if proc.returncode == 0 and rev else None


def _cmd_serve(args) -> int:
    import os

    from .obs import resolve_store_dir
    from .serve.daemon import run as run_daemon
    from .serve.engine import EngineConfig

    store_dir = resolve_store_dir(args.store)
    # Checked before the daemon binds its unix socket: a port bind()
    # rejects would otherwise fail after the socket file exists.
    if args.http_port is not None and not 0 <= args.http_port <= 65535:
        raise InputError(f"http port must be in 0..65535, got {args.http_port}")
    socket_dir = os.path.dirname(args.socket) or "."
    if not os.path.isdir(socket_dir):
        raise InputError(f"socket directory {socket_dir} does not exist")
    config = EngineConfig(
        pool_workers=args.pool_workers,
        queue_limit=args.queue_limit,
        cache_size=args.cache_size,
        degrade_at=args.degrade_at,
        store_dir=str(store_dir) if store_dir is not None else None,
    )
    try:
        run_daemon(args.socket, http_port=args.http_port, config=config)
    except OSError as exc:
        return _error_exit(exc)
    return 0


_COMMANDS = {
    "regions": _cmd_regions,
    "calibrate": _cmd_calibrate,
    "map": _cmd_map,
    "compare": _cmd_compare,
    "robustness": _cmd_robustness,
    "trace-report": _cmd_trace_report,
    "metrics": _cmd_metrics,
    "trace-diff": _cmd_trace_diff,
    "trace-export": _cmd_trace_export,
    "bench-check": _cmd_bench_check,
    "sweep": _cmd_sweep,
    "serve": _cmd_serve,
    "obs": _cmd_obs,
}

#: Commands whose whole run should itself land in the telemetry store
#: as a ``run`` record (`obs` reads the store; recording it would churn).
_STORED_COMMANDS = frozenset(
    {"map", "compare", "robustness", "sweep", "serve"}
)


def _append_run_record(store_dir, args, rec, code: int, elapsed: float) -> None:
    """Best-effort ``run`` record + trace document for one CLI invocation."""
    from .obs import StoreError, TelemetryStore, trace_to_dict

    params = {
        k: v
        for k, v in sorted(vars(args).items())
        if k not in ("command", "store")
        and isinstance(v, (str, int, float, bool, type(None)))
    }
    record = {
        "kind": "run",
        "command": args.command,
        "status": int(code),
        "seconds": float(elapsed),
        "trace_id": rec.trace_id,
        "git_rev": _git_rev(),
        "params": params,
    }
    try:
        store = TelemetryStore(store_dir)
        store.append(record)
        # A command may have stored a richer document under this id
        # already (a sweep's trace); never clobber it.
        if rec.roots and not store.trace_path(rec.trace_id).exists():
            store.save_trace(
                trace_to_dict(
                    rec.roots, trace_id=rec.trace_id, anchor=rec.anchor
                )
            )
    except (OSError, StoreError):
        pass  # telemetry must never fail the run it describes


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    handler = _COMMANDS[args.command]
    trace_path = getattr(args, "trace", None)
    store_dir = None
    if args.command in _STORED_COMMANDS:
        from .obs import resolve_store_dir

        store_dir = resolve_store_dir(getattr(args, "store", None))
    if not trace_path and store_dir is None:
        return _run(handler, args)
    import time

    from .obs import recording, write_trace

    start = time.perf_counter()
    with recording() as rec:
        code = _run(handler, args)
    elapsed = time.perf_counter() - start
    if trace_path:
        write_trace(
            trace_path, rec.roots, trace_id=rec.trace_id, anchor=rec.anchor
        )
        print(f"trace written to {trace_path}", file=sys.stderr)
    if store_dir is not None:
        _append_run_record(store_dir, args, rec, code, elapsed)
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
