"""paper-apps: the paper's pipeline on its five applications.

Set-up builds ``scale_scenario`` for LU, BT, SP, K-means and DNN on the
paper's four EC2 regions (constraint ratio 0.2), which profiles each
application into CG/AG.  One operation is ``GeoDistributedMapper.map``
followed by a full-mode ``simulate_mapping`` of that mapping, in a
closed single-threaded loop over whole rounds of the five apps.  After
the loop, cold ``python -m repro map --app LU`` subprocesses run one
after another.  Geodist, ``total_cost``, the simulator and profiling do
the work; multilevel, serve and fabric do none.
"""

from __future__ import annotations

import time
from contextlib import ExitStack

from .common import (
    Report,
    Stat,
    cpu_seconds,
    cpu_stat,
    geomean,
    mapping_error,
    median,
    peak_rss_mb,
    run_python,
    tail_stat,
    timed,
    timed_cpu,
    timing_stat,
)

APPS = ("LU", "BT", "SP", "K-means", "DNN")
#: Ranks per application: 128 per region.  1024 would double every
#: operation and triple set-up, which the run budget cannot hold.
RANKS = 512
SETUP_REPEATS = 3
CLI_RUNS = 3
#: Share of the measuring window spent in the map+simulate loop; the
#: rest covers the cold CLI runs.
LOOP_SHARE = 0.75
#: Time to import the CLI in a fresh interpreter (the ``cli.import_s`` layer).
_IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import repro.cli; "
    "print(time.perf_counter() - t)"
)


def _build(seed: int) -> list:
    from repro.exp.scenarios import scale_scenario

    return [scale_scenario(app, RANKS, seed=seed) for app in APPS]


def _loop(rep: Report, scenarios: list, seed: int, seconds: float) -> dict:
    """Whole rounds of map + simulate until ``seconds`` have passed."""
    from repro.core import GeoDistributedMapper
    from repro.exp.runner import simulate_mapping

    mapper = GeoDistributedMapper(kappa=4)
    out: dict[str, list] = {"map": [], "sim": [], "op": [], "map_cpu": [], "op_cpu": []}
    first: dict[str, tuple] = {}
    start = time.perf_counter()
    while not out["op"] or time.perf_counter() - start < seconds:
        for sc in scenarios:
            c0, t0 = cpu_seconds(), time.perf_counter()
            mapping = mapper.map(sc.problem, seed=seed)
            c1, t1 = cpu_seconds(), time.perf_counter()
            result = simulate_mapping(sc.app, sc.problem, mapping.assignment)
            c2, t2 = cpu_seconds(), time.perf_counter()
            out["map"].append(t1 - t0)
            out["sim"].append(t2 - t1)
            out["op"].append(t2 - t0)
            out["map_cpu"].append(c1 - c0)
            out["op_cpu"].append(c2 - c0)
            rep.op(*_check(sc, mapping, result, first))
    return {
        **out,
        "cost": [first[app][1] for app in APPS],
        "makespan": [first[app][2] for app in APPS],
    }


def _check(sc, mapping, result, first) -> tuple[bool, str]:
    """Feasible, costed as the core costs it, and the same every round."""
    name = sc.app.name
    error = mapping_error(sc.problem, mapping.assignment, mapping.cost)
    if error:
        return False, f"{name}: {error}"
    seen = (mapping.assignment.tobytes(), mapping.cost, result.makespan_s)
    if first.setdefault(name, seen) != seen:
        return False, f"{name}: mapping or makespan changed between rounds"
    return True, ""


def _cli_map(rep: Report, seed: int) -> list[float]:
    """Cold ``repro map --app LU`` runs, each checked against an in-process map."""
    from repro.core import GeoDistributedMapper
    from repro.exp.scenarios import paper_ec2_scenario

    argv = ["-m", "repro", "map", "--app", "LU", "--seed", str(seed)]
    times = []
    outputs = set()
    for _ in range(CLI_RUNS):
        elapsed, out = timed(lambda: run_python(argv))
        times.append(elapsed)
        last = out.strip().splitlines()[-1]
        rep.op(last.startswith("assignment: "), "repro map printed no assignment")
        outputs.add(last)
    problem = paper_ec2_scenario("LU", seed=seed).problem
    want = GeoDistributedMapper().map(problem, seed=seed).assignment.tolist()
    if outputs != {f"assignment: {want}"}:
        rep.fail("repro map --app LU disagrees with an in-process map")
    return times


def run(seed: int, seconds: float, trace: bool) -> Report:
    rep = Report("paper-apps")
    setups: list[float] = []
    setup_walls: list[float] = []
    fingerprints = set()
    for _ in range(SETUP_REPEATS):
        cpu, wall, scenarios = timed_cpu(lambda: _build(seed))
        setups.append(cpu)
        setup_walls.append(wall)
        fingerprints.add(tuple(sc.problem.fingerprint() for sc in scenarios))
    if len(fingerprints) != 1:
        rep.fail("set-up built different problems from one seed")

    window = seconds / 2 if trace else seconds * LOOP_SHARE
    loop = _loop(rep, scenarios, seed, window)
    cli = _cli_map(rep, seed)

    rep.e2e["setup_s"] = cpu_stat(setups, setup_walls, "profiling the five apps")
    # The five apps' operations differ by up to 3x, so the median of all
    # of them is the middle app's time, whichever app that is for this
    # seed.  The geomean of every app's own median weighs them alike.
    per_app = [median(loop["op_cpu"][k :: len(APPS)]) for k in range(len(APPS))]
    rep.e2e["op_p50_s"] = Stat(
        geomean(per_app), "s", len(loop["op_cpu"]), None,
        f"CPU time of map + simulate, geomean of per-app p50; wall p50 {median(loop['op']):.4g} s",
    )
    rep.e2e["map_p50_s"] = timing_stat(loop["map"])
    rep.e2e["map_tail_s"] = tail_stat(loop["map"])
    rep.e2e["sim_p50_s"] = timing_stat(loop["sim"])
    rep.e2e["sim_makespan_s"] = Stat(geomean(loop["makespan"]), "sim_s", len(APPS))
    rep.e2e["cli_map_s"] = timing_stat(cli, "python -m repro map --app LU")
    rep.e2e["mapping_cost"] = Stat(geomean(loop["cost"]), "alpha-beta_s", len(APPS))
    if trace:
        _traced(rep, seed, window, median(loop["map_cpu"]))
    rep.e2e["peak_rss_mb"] = Stat(peak_rss_mb(), "MB")
    return rep


def _traced(rep: Report, seed: int, seconds: float, untraced_map_cpu: float) -> None:
    import repro.apps.base as apps_base
    import repro.simmpi.network as network
    from repro.obs import recording

    from .layers import core_layers, core_wrappers
    from .tracing import SpanTotals, counted, save_trace, spanned

    metas: list[dict] = []
    transfers = [0]
    with ExitStack() as stack:
        rec = stack.enter_context(recording())
        core_wrappers(stack, metas)
        stack.enter_context(
            spanned(apps_base.Application, "communication_matrices", "bench.profile")
        )
        stack.enter_context(counted(network.SimNetwork, "transfer", transfers))
        t0 = time.perf_counter()
        scenarios = _build(seed)
        loop = _loop(rep, scenarios, seed, seconds)
        wall = time.perf_counter() - t0
    spans = SpanTotals(rec.roots)
    ops = len(loop["op"])
    layers = core_layers(spans, metas, ops)
    # Profiling runs the simulator too; count only the mapped runs.
    sims = [
        child
        for span in spans.find("simulate.full")
        for child in span.children
        if child.name == "simulate.run"
    ]
    run_s = sum(s.duration_s for s in sims)
    messages = sum(s.attrs["total_messages"] for s in sims)
    imports = [
        float(run_python(["-c", _IMPORT_PROBE]).strip()) for _ in range(CLI_RUNS)
    ]
    layers.update(
        {
            "apps.profile_s": spans.total("bench.profile") / len(APPS),
            "cli.import_s": median(imports),
            "simmpi.run_s": run_s / len(sims),
            "simmpi.messages": messages / len(sims),
            "simmpi.msgs_per_s": messages / run_s,
            "simmpi.transfer_calls": transfers[0] / len(sims),
            "simmpi.comm_wait_s": sum(s.attrs["comm_wait_s"] for s in sims) / len(sims),
            "obs.trace_overhead_frac": median(loop["map_cpu"]) / untraced_map_cpu - 1.0,
        }
    )
    rep.layers = layers
    accounted = {
        "profiling (apps)": spans.total("bench.profile"),
        "grouping": spans.total("bench.group_sites"),
        "geodist fill": layers["geodist.solve_s"] * ops,
        "cost (total_cost)": spans.total("bench.total_cost"),
        "feasibility + validate": spans.total("feasibility") + spans.total("validate"),
        "simulator": run_s,
    }
    rep.stages = [*accounted.items(), ("other", wall - sum(accounted.values()))]
    rep.stage_total_s = wall
    rep.stage_total_name = "set-up + map/simulate loop"
    rep.trace_path = save_trace("paper-apps", seed, rec.roots)
