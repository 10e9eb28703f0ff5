"""Unit tests for constraint-vector generation and helpers."""

import numpy as np
import pytest

from repro.core import UNCONSTRAINED, random_constraints
from repro.core.constraints import constrained_sites_available


def test_ratio_zero_means_no_pins():
    c = random_constraints(10, np.array([5, 5]), 0.0, seed=0)
    assert np.all(c == UNCONSTRAINED)


def test_ratio_one_pins_everything():
    c = random_constraints(10, np.array([5, 5]), 1.0, seed=0)
    assert np.all(c != UNCONSTRAINED)
    counts = np.bincount(c, minlength=2)
    assert np.all(counts <= [5, 5])


@pytest.mark.parametrize("ratio", [0.1, 0.2, 0.5, 0.8])
def test_ratio_respected(ratio):
    n = 40
    c = random_constraints(n, np.array([20, 20]), ratio, seed=1)
    assert np.count_nonzero(c != UNCONSTRAINED) == round(ratio * n)


def test_pins_never_overfill_sites():
    caps = np.array([2, 3, 5])
    for seed in range(20):
        c = random_constraints(10, caps, 1.0, seed=seed)
        counts = np.bincount(c[c != UNCONSTRAINED], minlength=3)
        assert np.all(counts <= caps)


def test_deterministic_under_seed():
    a = random_constraints(30, np.array([20, 20]), 0.4, seed=42)
    b = random_constraints(30, np.array([20, 20]), 0.4, seed=42)
    np.testing.assert_array_equal(a, b)


def test_invalid_inputs_rejected():
    with pytest.raises(ValueError):
        random_constraints(10, np.array([5, 5]), 1.5)
    with pytest.raises(ValueError):
        random_constraints(0, np.array([5, 5]), 0.5)
    with pytest.raises(ValueError):
        random_constraints(20, np.array([5, 5]), 0.5)  # capacity too small
    with pytest.raises(ValueError):
        random_constraints(4, np.array([-1, 5]), 0.5)


def test_constrained_sites_available_debits_pins():
    caps = np.array([4, 4])
    cons = np.array([0, 0, UNCONSTRAINED, 1])
    remaining = constrained_sites_available(cons, caps)
    np.testing.assert_array_equal(remaining, [2, 3])


def test_constrained_sites_available_detects_overfill():
    with pytest.raises(ValueError, match="overfill"):
        constrained_sites_available(np.array([0, 0, 0]), np.array([2, 2]))
