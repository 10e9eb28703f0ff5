"""Unit tests for the simulator's network timing model."""

import numpy as np
import pytest

from repro.core import MappingProblem
from repro.simmpi import SimNetwork, UniformNetwork


def problem():
    lt = np.array([[1e-4, 0.1], [0.2, 1e-4]])
    bt = np.array([[1e8, 1e6], [2e6, 1e8]])
    cg = np.ones((4, 4))
    np.fill_diagonal(cg, 0)
    return MappingProblem(CG=cg, AG=cg.copy(), LT=lt, BT=bt, capacities=[2, 2])


def test_alpha_beta_timing():
    p = problem()
    net = SimNetwork(p, np.array([0, 0, 1, 1]))
    # 0 -> 2 crosses 0 -> 1: 0.1 + 1e6/1e6 = 1.1 at ready 0
    assert net.transfer(0, 2, 1_000_000, 0.0) == pytest.approx(1.1)
    # 2 -> 0 crosses 1 -> 0: 0.2 + 1e6/2e6 = 0.7
    net.reset()
    assert net.transfer(2, 0, 1_000_000, 0.0) == pytest.approx(0.7)


def test_intra_site_never_contends():
    p = problem()
    net = SimNetwork(p, np.array([0, 0, 1, 1]))
    a = net.transfer(0, 1, 100_000_000, 0.0)
    b = net.transfer(1, 0, 100_000_000, 0.0)
    assert a == pytest.approx(b)  # same formula, no queueing


def test_cross_site_fifo_serialization():
    p = problem()
    net = SimNetwork(p, np.array([0, 0, 1, 1]))
    first = net.transfer(0, 2, 1_000_000, 0.0)   # busy 1.0, done 1.1
    second = net.transfer(1, 3, 1_000_000, 0.0)  # queued behind: starts at 1.0
    assert first == pytest.approx(1.1)
    assert second == pytest.approx(2.1)
    # Opposite direction uses a different link: no queueing.
    assert net.transfer(2, 0, 1_000_000, 0.0) == pytest.approx(0.7)


def test_contention_disabled():
    p = problem()
    net = SimNetwork(p, np.array([0, 0, 1, 1]), contention=False)
    assert net.transfer(0, 2, 1_000_000, 0.0) == pytest.approx(1.1)
    assert net.transfer(1, 3, 1_000_000, 0.0) == pytest.approx(1.1)


def test_reset_clears_link_state():
    p = problem()
    net = SimNetwork(p, np.array([0, 0, 1, 1]))
    net.transfer(0, 2, 1_000_000, 0.0)
    net.reset()
    assert net.transfer(1, 3, 1_000_000, 0.0) == pytest.approx(1.1)


def test_invalid_assignment_rejected():
    p = problem()
    with pytest.raises(Exception):
        SimNetwork(p, np.array([0, 0, 9, 1]))


def test_uniform_network_constant_time():
    net = UniformNetwork(transfer_time=0.5)
    assert net.transfer(0, 1, 10, 2.0) == pytest.approx(2.5)
    assert net.transfer(3, 4, 10**9, 2.0) == pytest.approx(2.5)
    with pytest.raises(ValueError):
        UniformNetwork(transfer_time=0.0)


@pytest.mark.parametrize("cls", ["SimNetwork", "FaultyNetwork"])
def test_network_owns_its_assignment(cls):
    """Mutating the caller's array after construction changes nothing."""
    from repro.faults import FaultSchedule, FaultyNetwork

    p = problem()
    P = np.array([0, 0, 1, 1], dtype=np.int64)
    make = {
        "SimNetwork": lambda a: SimNetwork(p, a),
        "FaultyNetwork": lambda a: FaultyNetwork(p, a, FaultSchedule()),
    }[cls]
    net = make(P)
    P[2] = 0  # would turn 0 -> 2 into an intra-site transfer
    assert net.transfer(0, 2, 1_000_000, 0.0) == 0.1 + 1.0
    assert net.assignment.tolist() == [0, 0, 1, 1]
    assert not net.assignment.flags.writeable
    with pytest.raises(ValueError):
        net.assignment[0] = 1


def test_transfer_returns_python_floats():
    """Clocks stay Python floats, never numpy scalars."""
    net = SimNetwork(problem(), np.array([0, 0, 1, 1]))
    assert type(net.transfer(0, 2, 1_000_000, 0.0)) is float
    assert type(net.transfer(0, 1, 1_000, 0.0)) is float
