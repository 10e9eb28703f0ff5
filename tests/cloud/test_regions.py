"""Unit tests for the region catalogs."""

import pytest

from repro._validation import InputError
from repro.cloud import (
    AZURE_REGIONS,
    EC2_REGIONS,
    PAPER_EC2_REGIONS,
    get_region,
    list_regions,
)


def test_ec2_catalog_has_the_papers_11_regions():
    assert len(EC2_REGIONS) == 11
    for key in PAPER_EC2_REGIONS:
        assert key in EC2_REGIONS


def test_paper_regions_are_the_four_from_section_5():
    assert set(PAPER_EC2_REGIONS) == {
        "us-east-1",
        "us-west-1",
        "ap-southeast-1",
        "eu-west-1",
    }


def test_azure_catalog_has_table3_regions():
    for key in ("east-us", "west-europe", "japan-east"):
        assert key in AZURE_REGIONS


def test_get_region_and_errors():
    r = get_region("us-east-1")
    assert r.provider == "ec2"
    assert "Virginia" in r.name
    with pytest.raises(InputError, match="unknown ec2 region"):
        get_region("mars-north-1")
    with pytest.raises(InputError, match="unknown provider"):
        get_region("us-east-1", provider="gce")


def test_list_regions():
    assert len(list_regions("ec2")) == 11
    assert len(list_regions("azure")) == len(AZURE_REGIONS)
    with pytest.raises(InputError):
        list_regions("gce")


def test_region_distances_are_sane():
    use = get_region("us-east-1")
    usw = get_region("us-west-1")
    sgp = get_region("ap-southeast-1")
    # Cross-US ~3800-4000 km; US East <-> Singapore ~15000-16000 km.
    assert 3500 < use.distance_km(usw) < 4300
    assert 14500 < use.distance_km(sgp) < 16500
    # Observation 2 precondition: Singapore is much farther than US West.
    assert use.distance_km(sgp) > 3 * use.distance_km(usw)
