"""Unit tests for the canonical experiment scenarios."""

import numpy as np
import pytest

from repro.exp import (
    OVERHEAD_SCALES,
    PAPER_CONSTRAINT_RATIO,
    SIMULATION_SCALES,
    default_mappers,
    paper_ec2_scenario,
    scale_scenario,
)


def test_paper_scenario_matches_section_51():
    scn = paper_ec2_scenario("LU")
    assert scn.app.num_ranks == 64
    assert scn.topology.num_sites == 4
    assert scn.topology.total_nodes == 64
    assert scn.topology.instance_type.name == "m4.xlarge"
    # round(0.2 * 64) = 13 pinned processes.
    assert scn.problem.num_constrained == 13
    assert scn.problem.constraint_ratio == pytest.approx(
        PAPER_CONSTRAINT_RATIO, abs=0.01
    )


def test_paper_scenario_app_kwargs_forwarded():
    scn = paper_ec2_scenario("LU", iterations=3)
    assert scn.app.iterations == 3


def test_scale_scenario_divides_machines():
    scn = scale_scenario("LU", 128, seed=0)
    assert scn.app.num_ranks == 128
    np.testing.assert_array_equal(scn.topology.capacities, [32, 32, 32, 32])
    with pytest.raises(ValueError, match="divide evenly"):
        scale_scenario("LU", 130)
    with pytest.raises(ValueError, match="regions available"):
        scale_scenario("LU", 64, num_sites=8)


def test_scale_scenario_uses_short_iterations():
    scn = scale_scenario("LU", 64)
    assert scn.app.iterations == 10  # the scale-sweep default


def test_constants_match_paper():
    assert OVERHEAD_SCALES == ((1, 32), (2, 64), (4, 64), (4, 128), (4, 256))
    assert SIMULATION_SCALES[0] == 64 and SIMULATION_SCALES[-1] == 8192
    assert PAPER_CONSTRAINT_RATIO == 0.2


def test_default_mappers_keys():
    m = default_mappers()
    assert list(m) == ["Baseline", "Greedy", "MPIPP", "Geo-distributed"]
    m2 = default_mappers(include_mpipp=False)
    assert "MPIPP" not in m2


def test_scale_scenario_reuses_a_passed_app():
    from repro.exp.scenarios import scale_app

    app = scale_app("LU", 64)
    a = scale_scenario(app, 64, seed=0)
    b = scale_scenario(app, 64, seed=1)
    assert a.app is app and b.app is app
    assert a.problem.CG is b.problem.CG  # one profile, frozen, shared
    assert a.problem.fingerprint() == scale_scenario("LU", 64, seed=0).problem.fingerprint()
    with pytest.raises(ValueError, match="64 ranks, scenario needs 128"):
        scale_scenario(app, 128)
    with pytest.raises(TypeError, match="need an app name"):
        scale_scenario(app, 64, iterations=3)
