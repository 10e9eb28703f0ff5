"""Golden digests pinning the simulator's results to the last bit.

Each digest was computed from the simulator before its event loop and
network lookups were tightened, so any change that alters a makespan
bit, a per-rank clock, a message/byte/barrier total, a per-link stat, a
profiled matrix or a deadlock post-mortem fails here.  The 512-rank
profile and op-stream digests were computed while every paper app still
built a fresh op per yield and was profiled by simulating it, so they
pin the drain and the replayed op tuples to the old streams.  Regenerate (only
for an intended semantic change) with::

    PYTHONPATH=src python -m tests.simmpi.test_sim_golden
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core import GeoDistributedMapper
from repro.exp.scenarios import scale_scenario
from repro.faults import FaultSchedule, FaultyNetwork
from repro.faults.events import LinkDegradation, SiteOutage
from repro.simmpi import SimNetwork, Simulator, UniformNetwork
from repro.simmpi.engine import DeadlockError, RankContext
from repro.simmpi.ops import Barrier, Compute, Recv, Send, unroll

RANKS = 64
#: The rank count the paper-apps benchmark profiles and simulates at.
PAPER_RANKS = 512
APPS = ("LU", "BT", "SP", "K-means", "DNN")

GOLDEN = {
    "LU": "46dddd1d7119c51a7776fffdac24f926ab0b20418b66f857858d54210ee15179",
    "BT": "27d802c124335c4de20452764bfe25950c53ba761263b1da3762242b6632bf89",
    "SP": "a895791236bfac20f647e1b21c7cc4c93e7a5ea445efd1eefe3a1a20be8e92b8",
    "K-means": "7662d32f94912217aff058992783a969904645fc83108363e6398473d4738bd4",
    "DNN": "d938a61490258df12f7306035d0a3f6f9e3de60c4be2d5070ccf9f4e9cd55d6c",
    "profile-LU": "1ad05a00d1d23447386947fde92271f59f007c03037b57ee5e01acfa1e41e13b",
    "profile-512-LU": "78fd688641b134ba0221c300f67852f1dced9177088bab85cb4e8e76f1dd1d90",
    "ops-512-LU": "6106e1e3e7e71b08787df6e2f3acfd808e52cd2d8ec41e54c86080a13378ea01",
    "profile-512-BT": "9944e8e2c23fb75fad533b2f2544c875b25f4eb0ba0a176b3aadf6b4926a1718",
    "ops-512-BT": "6fdff2f79bf360478c54628d43023ecf9ee20e74cbef1d9b8c2fe094cc8a289b",
    "profile-512-SP": "ea4915fd31900497f5e8e0cf9b3d5d7af8230c25651655dac4620a9ba38fe621",
    "ops-512-SP": "dafb8947a917fd5ff811d8ea5d33e3788f0e1ebe25326e8c5ab9d752cb492f16",
    "profile-512-K-means": "e05890e95659fd5ade06b2fbe46233ab83f54264151b40cf6be8dcfdd3ddb9b6",
    "ops-512-K-means": "68763a8b9dc6a4cb61a0f442da71aa772fee90561fdcf474924fbf984c0ead24",
    "profile-512-DNN": "c47a5d4eb124f460f4c8d173001260057491e356b5b3c39e56cbfbfddd6faddb",
    "ops-512-DNN": "b160056db59a24b5cb6da5a986477048b1112b9d0095b36a8f019cd1b0d3d80e",
    "faulty-LU": "8358cb46b82ee69b570a0c9f4314a6737e4bc4d5852cbfaa082b87d432307b15",
    "barrier": "97818beac01e4dcc13755816c7879ebeb186364ecc5270166efccdebe4bb0baa",
    "deadlock": "d1590f16095a4e5f3599fc3890e443bde1fa06442824e1508d644b34e70b35e5",
}

_scenarios: dict[str, object] = {}


def _scenario(app: str):
    if app not in _scenarios:
        _scenarios[app] = scale_scenario(app, RANKS, seed=0)
    return _scenarios[app]


def _paper_app(app: str):
    key = f"paper-{app}"
    if key not in _scenarios:
        _scenarios[key] = scale_scenario(app, PAPER_RANKS, seed=0).app
    return _scenarios[key]


def _mapping(sc) -> np.ndarray:
    return GeoDistributedMapper(kappa=4).map(sc.problem, seed=0).assignment


def _result_digest(result, links: list[dict]) -> str:
    h = hashlib.sha256()
    h.update(float(result.makespan_s).hex().encode())
    h.update(result.rank_times_s.tobytes())
    h.update(float(result.comm_wait_s).hex().encode())
    h.update(f"{result.total_messages},{result.total_bytes},{result.barriers}".encode())
    h.update(json.dumps(links, sort_keys=True).encode())
    return h.hexdigest()


def _matrix_bytes(mat) -> bytes:
    dense = mat.toarray() if sp.issparse(mat) else np.asarray(mat)
    return np.ascontiguousarray(dense, dtype=np.float64).tobytes()


def app_digest(app: str) -> str:
    """Full-mode run under the geodist mapping, link stats on."""
    sc = _scenario(app)
    net = SimNetwork(sc.problem, _mapping(sc), collect_stats=True)
    result = Simulator(RANKS, sc.app.program, net).run()
    return _result_digest(result, net.link_stats())


def profile_digest() -> str:
    """A profiling run on the UniformNetwork: the CG/AG it records."""
    cg, ag, _ = _scenario("LU").app.profile()
    return hashlib.sha256(_matrix_bytes(cg) + _matrix_bytes(ag)).hexdigest()


def paper_profile_digest(app: str) -> str:
    """Dense CG+AG of a paper app as ``scale_scenario`` profiles it at 512 ranks."""
    cg, ag = _paper_app(app).communication_matrices()
    return hashlib.sha256(_matrix_bytes(cg) + _matrix_bytes(ag)).hexdigest()


def op_stream_digest(app: str) -> str:
    """``repr`` of every op ranks 0, 1, N/2 and N-1 of a paper app run.

    Loops declared as ``Repeat`` are unrolled first, so the digest pins
    the primitive stream a program means, however it is folded.
    """
    app_ = _paper_app(app)
    n = app_.num_ranks
    h = hashlib.sha256()
    for rank in (0, 1, n // 2, n - 1):
        h.update(f"rank {rank}\n".encode())
        for op in unroll(app_.program(RankContext(rank=rank, size=n))):
            h.update(f"{op!r}\n".encode())
    return h.hexdigest()


def faulty_digest() -> str:
    """LU on a FaultyNetwork with a transient outage and a degraded link."""
    sc = _scenario("LU")
    schedule = FaultSchedule(
        events=(
            SiteOutage(site=1, start_s=0.05, duration_s=0.2),
            LinkDegradation(
                src=0, dst=2, start_s=0.0, duration_s=1.0,
                bandwidth_factor=0.25, latency_factor=3.0,
            ),
        )
    )
    net = FaultyNetwork(sc.problem, _mapping(sc), schedule)
    result = Simulator(RANKS, sc.app.program, net).run()
    return _result_digest(result, net.link_stats())


def _phased(ctx):
    """Ring exchanges separated by ideal barriers.

    Each barrier can only release after the last transfer of its phase
    has executed, so this pins the hand-off between transfer execution
    and barrier release.
    """
    n, r = ctx.size, ctx.rank
    for phase in range(3):
        yield Compute(seconds=1e-3 * ((7 * r + phase) % 5))
        yield Send(dst=(r + 1) % n, nbytes=10_000 * (r + 1), tag=phase)
        yield Recv(src=(r - 1) % n, tag=phase)
        yield Barrier()


def barrier_digest() -> str:
    sc = _scenario("LU")
    net = SimNetwork(sc.problem, _mapping(sc), collect_stats=True)
    result = Simulator(RANKS, _phased, net).run()
    assert result.barriers == 3
    return _result_digest(result, net.link_stats())


def _mismatched(ctx):
    """Ranks stuck in a barrier or on a receive nobody answers."""
    n, r = ctx.size, ctx.rank
    yield Compute(seconds=1e-3 * (r + 1))
    yield Send(dst=(r + 1) % n, nbytes=1000 * (r + 1), tag=1)
    if r == 0:
        yield Send(dst=n - 1, nbytes=777, tag=2)
    yield Recv(src=(r - 1) % n, tag=1)
    if r % 3 == 0:
        yield Barrier()
    else:
        yield Recv(src=(r - 1) % n, tag=1 if r != n - 1 else 5)


def deadlock_digest() -> str:
    with pytest.raises(DeadlockError) as info:
        Simulator(7, _mismatched, UniformNetwork()).run()
    err = info.value
    states = repr(sorted(err.rank_states.items()))
    return hashlib.sha256((str(err) + states).encode()).hexdigest()


def compute_all() -> dict[str, str]:
    out = {app: app_digest(app) for app in APPS}
    out["profile-LU"] = profile_digest()
    for app in APPS:
        out[f"profile-{PAPER_RANKS}-{app}"] = paper_profile_digest(app)
        out[f"ops-{PAPER_RANKS}-{app}"] = op_stream_digest(app)
    out["faulty-LU"] = faulty_digest()
    out["barrier"] = barrier_digest()
    out["deadlock"] = deadlock_digest()
    return out


@pytest.mark.parametrize("app", APPS)
def test_app_simulation_is_bit_identical(app):
    assert app_digest(app) == GOLDEN[app]


def test_profiling_run_is_bit_identical():
    assert profile_digest() == GOLDEN["profile-LU"]


@pytest.mark.parametrize("app", APPS)
def test_paper_scale_profile_is_bit_identical(app):
    assert paper_profile_digest(app) == GOLDEN[f"profile-{PAPER_RANKS}-{app}"]


@pytest.mark.parametrize("app", APPS)
def test_paper_scale_op_stream_is_unchanged(app):
    assert op_stream_digest(app) == GOLDEN[f"ops-{PAPER_RANKS}-{app}"]


def test_faulty_network_run_is_bit_identical():
    assert faulty_digest() == GOLDEN["faulty-LU"]


def test_barrier_phases_are_bit_identical():
    assert barrier_digest() == GOLDEN["barrier"]


def test_deadlock_post_mortem_is_unchanged():
    assert deadlock_digest() == GOLDEN["deadlock"]


if __name__ == "__main__":
    print(json.dumps(compute_all(), indent=4))
