"""PlacementEngine behavior: caching, coalescing, backpressure, degradation.

These tests drive the engine directly (no sockets) inside ``asyncio.run``
so every serving policy is asserted at the layer that implements it.
Solves run on a real one- or two-worker process pool; the ``sleep_s``
test knob (mirroring the fabric demo task's) holds solves in flight so
concurrency scenarios are deterministic instead of racing real solver
latency, which is single-digit milliseconds at these sizes.
"""

from __future__ import annotations

import asyncio
import json

import numpy as np
import pytest

from repro._validation import InputError
from repro.core import UNPLACED, get_mapper, repair_mapping
from repro.exp.fabric import register_task
from repro.serve.engine import EngineConfig, PlacementEngine
from repro.serve.solver import solve_one
from repro.serve.protocol import encode_problem
from tests.conftest import make_problem
from tests.serve.blocks import block
from tests.serve.test_daemon import _assert_all_dead


@pytest.fixture(scope="module")
def problem(topo2):
    return make_problem(8, topo2, seed=3, constraint_ratio=0.25)


@pytest.fixture(scope="module")
def problem_b(topo2):
    return make_problem(8, topo2, seed=4)


@pytest.fixture(scope="module")
def problem_c(topo2):
    return make_problem(8, topo2, seed=5)


def map_request(problem, *, rid=1, mapper="greedy", seed=0, sleep_s=0.0):
    req = {
        "op": "map",
        "id": rid,
        "problem": encode_problem(problem),
        "mapper": mapper,
        "seed": seed,
    }
    if sleep_s:
        req["sleep_s"] = sleep_s
    return req


def run_with_engine(config, scenario):
    """asyncio.run a scenario(engine) coroutine with start/stop bracketing."""

    async def main():
        engine = PlacementEngine(config)
        await engine.start()
        try:
            return await scenario(engine)
        finally:
            await engine.stop()

    return asyncio.run(main())


def test_map_is_bit_identical_to_direct_mapper(problem):
    async def scenario(engine):
        return await engine.handle(map_request(problem))

    response = run_with_engine(EngineConfig(pool_workers=1), scenario)
    assert response["ok"]
    direct = get_mapper("greedy").map(problem, seed=0)
    # Through a JSON round trip (what the wire does), still bit-identical.
    wire = json.loads(json.dumps(response))
    assert wire["result"]["cost"] == direct.cost
    assert wire["result"]["assignment"] == direct.assignment.tolist()
    assert wire["mapper"] == "greedy"
    assert wire["fingerprint"] == problem.fingerprint()
    assert not wire["cache_hit"] and not wire["coalesced"] and not wire["degraded"]


def test_repeat_request_hits_cache(problem):
    async def scenario(engine):
        first = await engine.handle(map_request(problem, rid=1))
        second = await engine.handle(map_request(problem, rid=2))
        return first, second, engine.cache.stats()

    first, second, stats = run_with_engine(EngineConfig(pool_workers=1), scenario)
    assert not first["cache_hit"] and second["cache_hit"]
    assert second["result"] == first["result"]
    assert stats["hits"] == 1 and stats["entries"] == 1


def test_different_seed_misses_cache(problem):
    async def scenario(engine):
        await engine.handle(map_request(problem, rid=1, seed=0))
        return await engine.handle(map_request(problem, rid=2, seed=1))

    response = run_with_engine(EngineConfig(pool_workers=1), scenario)
    assert not response["cache_hit"]


def test_identical_concurrent_requests_coalesce(problem):
    async def scenario(engine):
        t1 = asyncio.create_task(
            engine.handle(map_request(problem, rid=1, sleep_s=0.3))
        )
        await asyncio.sleep(0.1)  # let t1 occupy the queue slot
        t2 = asyncio.create_task(
            engine.handle(map_request(problem, rid=2, sleep_s=0.3))
        )
        r1, r2 = await asyncio.gather(t1, t2)
        coalesced_total = engine.metrics.counter("serve_coalesced_total").value(
            op="map"
        )
        return r1, r2, coalesced_total, engine.cache.stats()

    r1, r2, coalesced_total, stats = run_with_engine(
        EngineConfig(pool_workers=1), scenario
    )
    assert r1["ok"] and r2["ok"]
    assert sorted([r1["coalesced"], r2["coalesced"]]) == [False, True]
    assert r1["result"] == r2["result"]
    assert coalesced_total == 1
    # One solve for two requests: exactly one entry was ever stored.
    assert stats["entries"] == 1


def test_queue_saturation_rejects_with_429(problem, problem_b, problem_c):
    async def scenario(engine):
        blocker = asyncio.create_task(
            engine.handle(map_request(problem, rid=1, sleep_s=0.4))
        )
        await asyncio.sleep(0.1)
        rejected = await engine.handle(map_request(problem_b, rid=2))
        ok_after = await blocker
        calm = await engine.handle(map_request(problem_c, rid=3))
        rejected_total = engine.metrics.counter("serve_rejected_total").value(
            op="map"
        )
        return rejected, ok_after, calm, rejected_total

    rejected, ok_after, calm, rejected_total = run_with_engine(
        EngineConfig(pool_workers=1, queue_limit=1), scenario
    )
    assert not rejected["ok"]
    assert rejected["code"] == 429
    assert rejected["retry_after_s"] > 0
    assert ok_after["ok"]
    assert calm["ok"]  # queue drained; service recovered
    assert rejected_total == 1


def test_degradation_ladder_under_load(problem, problem_b, problem_c):
    async def scenario(engine):
        blocker = asyncio.create_task(
            engine.handle(
                map_request(problem, rid=1, mapper="geo-distributed", sleep_s=0.5)
            )
        )
        await asyncio.sleep(0.1)  # pending=1 >= degrade_at
        multilevel = asyncio.create_task(
            engine.handle(map_request(problem_b, rid=2, mapper="multilevel"))
        )
        geodist = asyncio.create_task(
            engine.handle(map_request(problem_c, rid=3, mapper="geo-distributed"))
        )
        r1, r2, r3 = await asyncio.gather(blocker, multilevel, geodist)
        # Calm again: the degraded answer must NOT satisfy a full-quality ask.
        calm = await engine.handle(
            map_request(problem_c, rid=4, mapper="geo-distributed")
        )
        degraded = engine.metrics.counter("serve_degraded_total")
        counts = [
            degraded.value(requested=name, effective="greedy")
            for name in ("multilevel", "geo-distributed")
        ]
        return r1, r2, r3, calm, counts

    r1, r2, r3, calm, counts = run_with_engine(
        EngineConfig(pool_workers=1, queue_limit=16, degrade_at=1), scenario
    )
    assert not r1["degraded"] and r1["mapper"] == "geo-distributed"
    # Past degrade_at, both geo-distributed and multilevel get Greedy.
    assert r2["degraded"] and r2["mapper"] == "greedy"
    assert r3["degraded"] and r3["mapper"] == "greedy"
    assert counts == [1, 1]
    assert not calm["cache_hit"]  # greedy result cached under greedy, not geodist
    assert not calm["degraded"] and calm["mapper"] == "geo-distributed"


def test_degraded_mapper_never_upgrades_greedy_requests(problem):
    async def scenario(engine):
        return await engine.handle(map_request(problem, mapper="greedy"))

    response = run_with_engine(EngineConfig(pool_workers=1, degrade_at=0), scenario)
    # degrade_at=0 degrades every degradable request -- but greedy is
    # already what they degrade to, so the request is untouched.
    assert response["ok"]
    assert response["mapper"] == "greedy" and not response["degraded"]


def test_repair_matches_direct_repair(problem):
    partial = get_mapper("greedy").map(problem, seed=0).assignment.copy()
    partial[3] = UNPLACED
    partial[7] = UNPLACED

    async def scenario(engine):
        first = await engine.handle(
            {
                "op": "repair",
                "id": 1,
                "problem": encode_problem(problem),
                "partial": partial.tolist(),
            }
        )
        second = await engine.handle(
            {
                "op": "repair",
                "id": 2,
                "problem": encode_problem(problem),
                "partial": partial.tolist(),
            }
        )
        return first, second

    first, second = run_with_engine(EngineConfig(pool_workers=1), scenario)
    assert first["ok"]
    direct = repair_mapping(problem, np.asarray(partial))
    assert first["result"]["mapping"]["cost"] == direct.mapping.cost
    assert first["result"]["mapping"]["assignment"] == direct.mapping.assignment.tolist()
    assert sorted(first["result"]["displaced"]) == sorted(direct.displaced.tolist())
    assert second["cache_hit"]


def test_compare_runs_all_mappers(problem):
    async def scenario(engine):
        return await engine.handle(
            {
                "op": "compare",
                "id": 1,
                "problem": encode_problem(problem),
                "mappers": ["greedy", "multilevel"],
                "seed": 0,
            }
        )

    response = run_with_engine(EngineConfig(pool_workers=1), scenario)
    assert response["ok"]
    mappings = response["result"]["mappings"]
    assert set(mappings) == {"greedy", "multilevel"}
    for name, wire in mappings.items():
        assert wire["mapper"] == name
        assert np.isfinite(wire["cost"])


def test_unknown_op_is_400(problem):
    async def scenario(engine):
        return await engine.handle({"op": "solve", "id": 1})

    response = run_with_engine(EngineConfig(pool_workers=1), scenario)
    assert not response["ok"] and response["code"] == 400


def test_malformed_problem_is_400():
    async def scenario(engine):
        return await engine.handle({"op": "map", "id": 1, "problem": {"CG": None}})

    response = run_with_engine(EngineConfig(pool_workers=1), scenario)
    assert not response["ok"] and response["code"] == 400


def test_malformed_csr_is_400_and_the_engine_keeps_solving(problem):
    n = problem.CG.shape[0]
    bad = []
    for rid, index in enumerate((-1, 99)):
        request = map_request(problem, rid=rid)
        csr = {"format": "csr", "shape": n, "indptr": block([0] + [1] * n, "<i8"),
               "indices": block([index], "<i8"), "data": block([1.0])}
        request["problem"].update(CG=csr, AG=csr)
        bad.append(request)

    async def scenario(engine):
        replies = [await engine.handle(request) for request in bad]
        return replies, await engine.handle(map_request(problem, rid=2))

    rejected, solved = run_with_engine(EngineConfig(pool_workers=1), scenario)
    for reply in rejected:
        assert not reply["ok"] and reply["code"] == 400, reply
        assert "CG is not a valid sparse matrix" in reply["error"]
    assert solved["ok"], solved
    assert solved["result"]["cost"] == get_mapper("greedy").map(problem, seed=0).cost


@pytest.mark.parametrize(
    "mapper, kwargs, field",
    [
        ("multilevel", {"min_shrink": 2}, "min_shrink"),
        ("multilevel", {"min_shrink": "x"}, "min_shrink"),
        ("simulated-annealing", {"initial_acceptance": 1.5}, "initial_acceptance"),
        ("simulated-annealing", {"initial_acceptance": "x"}, "initial_acceptance"),
        ("simulated-annealing", {"final_temperature_ratio": 0}, "final_temperature_ratio"),
        ("simulated-annealing", {"final_temperature_ratio": [1]}, "final_temperature_ratio"),
    ],
)
def test_bad_mapper_kwarg_value_is_400_and_the_engine_keeps_solving(
    problem, mapper, kwargs, field
):
    request = {**map_request(problem, mapper=mapper), "mapper_kwargs": kwargs}

    async def scenario(engine):
        return await engine.handle(request), await engine.handle(
            map_request(problem, rid=2)
        )

    rejected, solved = run_with_engine(EngineConfig(pool_workers=1), scenario)
    assert not rejected["ok"] and rejected["code"] == 400, rejected
    assert rejected["error"].startswith(field), rejected
    assert solved["ok"], solved
    assert solved["result"]["cost"] == get_mapper("greedy").map(problem, seed=0).cost


@pytest.mark.parametrize(
    "kw", [{"cache_size": -1}, {"degrade_at": -1}, {"span_keep": -1}]
)
def test_engine_config_rejects_what_it_cannot_serve(kw):
    with pytest.raises(InputError, match=f"{next(iter(kw))} must be >= 0"):
        EngineConfig(**kw)
    # Zero stays valid: no cache, degrade from the first pending solve,
    # keep no traces.
    EngineConfig(**{next(iter(kw)): 0})


def test_v1_list_problem_is_400_naming_the_field_and_the_block_format(problem):
    v1 = {
        "version": 1,
        "CG": {"format": "dense", "rows": problem.dense_CG().tolist()},
        "AG": {"format": "dense", "rows": problem.dense_AG().tolist()},
        "LT": problem.LT.tolist(),
        "BT": problem.BT.tolist(),
        "capacities": problem.capacities.tolist(),
    }

    async def scenario(engine):
        request = {"op": "map", "id": 1, "problem": v1, "mapper": "greedy"}
        return await engine.handle(json.loads(json.dumps(request)))

    response = run_with_engine(EngineConfig(pool_workers=1), scenario)
    assert not response["ok"] and response["code"] == 400, response
    assert response["error"].startswith("CG.rows must be a binary block")
    assert '"dtype"' in response["error"] and '"b64"' in response["error"]


@pytest.mark.parametrize("sleep_s", [float("inf"), float("nan"), -1.0])
def test_bad_sleep_s_is_400(problem, sleep_s):
    async def scenario(engine):
        request = map_request(problem)
        request["sleep_s"] = sleep_s
        # Through the wire's JSON decoder, which accepts Infinity/NaN.
        return await engine.handle(json.loads(json.dumps(request)))

    response = run_with_engine(EngineConfig(pool_workers=1), scenario)
    assert not response["ok"] and response["code"] == 400
    assert "sleep_s" in response["error"]


@pytest.mark.parametrize(
    "op, field, value",
    [
        ("map", "seed", "abc"),
        ("map", "seed", float("inf")),
        ("map", "mapper_kwargs", "abc"),
        ("repair", "refine_rounds", "x"),
        ("repair", "partial", ["a"]),
        ("compare", "seed", [1]),
    ],
)
def test_bad_wire_field_is_400_naming_it(problem, op, field, value):
    request = {
        "op": op,
        "id": 1,
        "problem": encode_problem(problem),
        "partial": [0] * problem.num_processes,
        "mappers": ["greedy"],
        field: value,
    }

    async def scenario(engine):
        return await engine.handle(request)

    response = run_with_engine(EngineConfig(pool_workers=1), scenario)
    assert not response["ok"] and response["code"] == 400, response
    assert response["error"].startswith(f"{field} is malformed: ")


@register_task("serve-test-key-bug")
def _key_bug_task(params):
    return {}["internal_bug"]


@register_task("serve-test-reshape-bug")
def _reshape_bug_task(params):
    return np.zeros(3).reshape(2, 2)


@pytest.mark.parametrize(
    "kind, exc_type",
    [("serve-test-key-bug", "KeyError"), ("serve-test-reshape-bug", "ValueError")],
)
def test_a_solver_bug_answers_500_naming_its_type(kind, exc_type):
    """A builtin KeyError/ValueError inside a solve is a program fault, not bad input."""
    row = solve_one({"kind": kind, "params": {}})
    assert not row["ok"] and row["code"] == 500, row
    assert row["error"].startswith(f"{exc_type}: ")


def test_unknown_task_kind_is_400_without_repr_quotes():
    row = solve_one({"kind": "nope", "params": {}})
    assert not row["ok"] and row["code"] == 400
    assert row["error"].startswith("unknown task kind 'nope'; available: [")


def test_stop_fails_running_and_queued_requests_with_503(problem, problem_b):
    async def main():
        engine = PlacementEngine(EngineConfig(pool_workers=1))
        await engine.start()
        pids = list(engine._pool._processes)
        running = asyncio.create_task(
            engine.handle(map_request(problem, rid=1, sleep_s=0.5))
        )
        await asyncio.sleep(0.1)  # the one worker is now inside the solve
        queued = asyncio.create_task(
            engine.handle(map_request(problem_b, rid=2, sleep_s=0.5))
        )
        follower = asyncio.create_task(
            engine.handle(map_request(problem, rid=3, sleep_s=0.5))
        )
        await asyncio.sleep(0.05)
        await engine.stop()
        responses = await asyncio.gather(running, queued, follower)
        coalesced = engine.metrics.counter("serve_coalesced_total").value(op="map")
        return responses, coalesced, engine.pending, pids

    responses, coalesced, pending, pids = asyncio.run(main())
    assert [r["code"] for r in responses] == [503, 503, 503]
    assert all(not r["ok"] for r in responses)
    assert coalesced == 1  # the follower joined the running leader
    assert pending == 0
    assert pids
    _assert_all_dead(pids)


def test_unknown_mapper_is_400(problem):
    async def scenario(engine):
        return await engine.handle(map_request(problem, mapper="no-such-mapper"))

    response = run_with_engine(EngineConfig(pool_workers=1), scenario)
    assert not response["ok"] and response["code"] == 400
    assert "no-such-mapper" in response["error"]


def test_health_and_metrics_ops(problem):
    async def scenario(engine):
        await engine.handle(map_request(problem))
        health = await engine.handle({"op": "health", "id": 2})
        metrics = await engine.handle({"op": "metrics", "id": 3})
        return health, metrics

    health, metrics = run_with_engine(EngineConfig(pool_workers=1), scenario)
    assert health["ok"] and health["result"]["status"] == "ok"
    assert health["result"]["cache"]["entries"] == 1
    prom = metrics["result"]["prometheus"]
    assert "serve_requests_total" in prom
    assert 'op="map"' in prom


def test_request_spans_carry_serving_attrs(problem):
    async def scenario(engine):
        await engine.handle(map_request(problem, rid=1))
        await engine.handle(map_request(problem, rid=2))
        return [
            (root.name, dict(root.attrs)) for root in engine.recorder.roots
        ]

    spans = run_with_engine(EngineConfig(pool_workers=1), scenario)
    assert [name for name, _ in spans] == ["serve.request", "serve.request"]
    assert spans[0][1]["cache_hit"] is False
    assert spans[1][1]["cache_hit"] is True
    assert spans[0][1]["op"] == "map"


def test_span_forest_stays_bounded(problem):
    async def scenario(engine):
        for rid in range(12):
            await engine.handle({"op": "health", "id": rid})
        return len(engine.recorder.roots)

    kept = run_with_engine(
        EngineConfig(pool_workers=1, span_keep=5), scenario
    )
    assert kept == 5


def _outcome(response):
    """What a response says about the problem, without its id or trace id."""
    if response["ok"]:
        result = response["result"]
        return True, response["fingerprint"], (result["assignment"], result["cost"])
    return False, response["code"], response["error"]


def _memo_counts(engine):
    counter = engine.metrics.counter
    return (
        counter("serve_problem_memo_hits_total").value(),
        counter("serve_problem_memo_misses_total").value(),
    )


def test_same_problem_bytes_decode_once(problem):
    """A repeat of the same problem field is a memo hit and solves as a
    fresh decode would, bit for bit."""

    async def scenario(engine):
        first = await engine.handle(map_request(problem, rid=1, seed=0))
        # A wire round trip builds new objects with the same bytes.
        again = json.loads(json.dumps(map_request(problem, rid=2, seed=1)))
        second = await engine.handle(again)
        decoded = [engine._problem(json.loads(json.dumps(map_request(problem))))
                   for _ in range(2)]
        health = await engine.handle({"op": "health", "id": 3})
        metrics = await engine.handle({"op": "metrics", "id": 4})
        return first, second, decoded, _memo_counts(engine), health, metrics

    first, second, decoded, counts, health, metrics = run_with_engine(
        EngineConfig(pool_workers=1), scenario
    )
    for response, seed in ((first, 0), (second, 1)):
        direct = get_mapper("greedy").map(problem, seed=seed)
        assert response["result"]["cost"] == direct.cost
        assert response["result"]["assignment"] == direct.assignment.tolist()
    assert not second["cache_hit"]
    assert decoded[0] is decoded[1]
    assert decoded[0].fingerprint() == problem.fingerprint()
    assert counts == (3, 1)
    memo = health["result"]["problem_memo"]
    assert memo["entries"] == 1 and memo["hits"] == 3
    prom = metrics["result"]["prometheus"]
    assert "serve_problem_memo_hits_total 3" in prom
    assert "serve_problem_memo_misses_total 1" in prom


def _variants(problem):
    """Copies of the problem field, each with LT one b64 character, dtype or shape off."""

    def edit(change):
        wire = json.loads(json.dumps(encode_problem(problem)))
        change(wire["LT"])
        return wire

    def first_char(char):
        return lambda block: block.update(b64=char + block["b64"][1:])

    assert encode_problem(problem)["LT"]["b64"][0] != "B"
    return {
        "b64-char": edit(first_char("B")),
        "b64-invalid-char": edit(first_char("!")),
        "dtype": edit(lambda block: block.update(dtype="<i4")),
        "shape-rank": edit(lambda block: block.update(shape=[2, 2, 1])),
        "shape-not-square": edit(lambda block: block.update(shape=[1, 4])),
    }


def test_changed_bytes_miss_the_memo_and_answer_as_a_fresh_engine(problem):
    variants = _variants(problem)

    async def scenario(warm):
        fresh = PlacementEngine(EngineConfig(pool_workers=1))
        await fresh.start()
        try:
            await warm.handle(map_request(problem))
            out = {}
            for name, wire in variants.items():
                request = {"op": "map", "id": 1, "problem": wire, "mapper": "greedy"}
                before = _memo_counts(warm)
                got = await warm.handle(json.loads(json.dumps(request)))
                assert _memo_counts(warm) == (before[0], before[1] + 1), name
                want = await fresh.handle(json.loads(json.dumps(request)))
                out[name] = (_outcome(got), _outcome(want))
            return out
        finally:
            await fresh.stop()

    outcomes = run_with_engine(EngineConfig(pool_workers=1), scenario)
    for name, (got, want) in outcomes.items():
        assert got == want, name
    ok, fingerprint, _ = outcomes["b64-char"][0]
    assert ok and fingerprint != problem.fingerprint()
    errors = {
        "b64-invalid-char": "LT.b64 is malformed",
        "dtype": "LT holds 32 bytes; shape [2, 2] of <i4 needs 16",
        "shape-rank": "LT.shape must be a list of 2 non-negative ints",
        "shape-not-square": "LT must be a square 2-D matrix",
    }
    for name, message in errors.items():
        ok, code, error = outcomes[name][0]
        assert not ok and code == 400 and error.startswith(message), outcomes[name]


def test_repair_and_compare_through_the_object_hop_match_in_process(problem, problem_b):
    partial = get_mapper("greedy").map(problem_b, seed=0).assignment.copy()
    partial[[1, 5]] = UNPLACED

    async def scenario(engine):
        compare = await engine.handle(
            {"op": "compare", "id": 1, "problem": encode_problem(problem),
             "mappers": ["greedy", "geo-distributed", "multilevel"], "seed": 2}
        )
        repair = await engine.handle(
            {"op": "repair", "id": 2, "problem": encode_problem(problem_b),
             "partial": partial.tolist(), "extra_moves": 1}
        )
        return json.loads(json.dumps(compare)), json.loads(json.dumps(repair))

    compare, repair = run_with_engine(EngineConfig(pool_workers=1), scenario)
    assert compare["ok"] and repair["ok"], (compare, repair)
    for name, wire in compare["result"]["mappings"].items():
        direct = get_mapper(name).map(problem, seed=2)
        assert wire["cost"] == direct.cost, name
        assert wire["assignment"] == direct.assignment.tolist(), name
    direct = repair_mapping(problem_b, partial, extra_moves=1)
    assert repair["result"]["mapping"]["cost"] == direct.mapping.cost
    assert repair["result"]["mapping"]["assignment"] == direct.mapping.assignment.tolist()
    assert repair["result"]["displaced"] == direct.displaced.tolist()
    assert repair["result"]["migrated"] == direct.migrated.tolist()


def test_serve_tasks_take_a_problem_not_a_wire_dict(problem):
    row = solve_one({"kind": "serve-map",
                     "params": {"problem": encode_problem(problem), "mapper": "greedy"}})
    assert not row["ok"] and row["code"] == 400
    assert row["error"] == "problem must be a MappingProblem, got dict"
