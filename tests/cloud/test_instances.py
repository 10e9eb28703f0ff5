"""Unit tests for the instance-type catalog (Table 1 anchors)."""

import pytest

from repro._validation import InputError
from repro.cloud import PAPER_INSTANCE_TYPE, get_instance_type


def test_table1_intra_region_anchors():
    """The measured Table 1 values must be stored verbatim."""
    expected = {
        "m1.small": (15.0, 22.0),
        "m1.medium": (80.0, 78.0),
        "m1.large": (84.0, 82.0),
        "m1.xlarge": (102.0, 103.0),
        "c3.8xlarge": (148.0, 204.0),
    }
    for name, (us_east, singapore) in expected.items():
        it = get_instance_type(name)
        assert it.intra_bw_us_east == us_east
        assert it.intra_bw_singapore == singapore


def test_table1_cross_region_factors():
    """Cross-region bandwidth anchors normalize to c3.8xlarge's 6.6 MB/s."""
    expected_cross = {
        "m1.small": 5.4,
        "m1.medium": 6.3,
        "m1.large": 6.3,
        "m1.xlarge": 6.4,
        "c3.8xlarge": 6.6,
    }
    for name, cross in expected_cross.items():
        it = get_instance_type(name)
        assert it.cross_bw_factor * 6.6 == pytest.approx(cross)


def test_paper_instance_type_exists():
    it = get_instance_type(PAPER_INSTANCE_TYPE)
    assert it.name == "m4.xlarge"
    assert it.provider == "ec2"


def test_intra_bw_mean():
    it = get_instance_type("m1.small")
    assert it.intra_bw_mean == pytest.approx((15 + 22) / 2)


def test_unknown_type_rejected():
    with pytest.raises(InputError, match="unknown instance type"):
        get_instance_type("z9.mega")


def test_azure_type_present():
    it = get_instance_type("standard-d2")
    assert it.provider == "azure"
    assert it.intra_bw_us_east == 62.0  # Table 3 intra East US
