"""Catalogs of public-cloud regions with physical coordinates.

The paper (Fig. 1) uses the 11 Amazon EC2 regions available as of Nov 2015
and validates its observations on Windows Azure (Table 3).  Coordinates are
the approximate locations of the data-center metro areas; the mapping
algorithm only consumes relative distances, so metro-level accuracy is
sufficient.
"""

from __future__ import annotations

from dataclasses import dataclass

from .._validation import InputError
from .geo import GeoCoordinate

__all__ = [
    "Region",
    "EC2_REGIONS",
    "AZURE_REGIONS",
    "get_region",
    "list_regions",
    "PAPER_EC2_REGIONS",
]


@dataclass(frozen=True, slots=True)
class Region:
    """A cloud provider region (the paper's "site").

    Attributes
    ----------
    key:
        Provider-scoped identifier, e.g. ``"us-east-1"``.
    name:
        Human-readable name, e.g. ``"US East (N. Virginia)"``.
    provider:
        ``"ec2"`` or ``"azure"``.
    location:
        Approximate data-center coordinates.
    """

    key: str
    name: str
    provider: str
    location: GeoCoordinate

    def distance_km(self, other: "Region") -> float:
        """Great-circle distance between the two regions' locations."""
        return self.location.distance_km(other.location)


def _ec2(key: str, name: str, lat: float, lon: float) -> Region:
    return Region(key, name, "ec2", GeoCoordinate(lat, lon))


def _azure(key: str, name: str, lat: float, lon: float) -> Region:
    return Region(key, name, "azure", GeoCoordinate(lat, lon))


#: The 11 EC2 regions of Nov 2015 (paper Fig. 1), keyed by region code.
EC2_REGIONS: dict[str, Region] = {
    r.key: r
    for r in [
        _ec2("us-east-1", "US East (N. Virginia)", 38.95, -77.45),
        _ec2("us-west-1", "US West (N. California)", 37.35, -121.96),
        _ec2("us-west-2", "US West (Oregon)", 45.84, -119.70),
        _ec2("us-gov-west-1", "AWS GovCloud (US)", 44.05, -120.50),
        _ec2("eu-west-1", "EU (Ireland)", 53.35, -6.26),
        _ec2("eu-central-1", "EU (Frankfurt)", 50.11, 8.68),
        _ec2("ap-southeast-1", "Asia Pacific (Singapore)", 1.35, 103.82),
        _ec2("ap-southeast-2", "Asia Pacific (Sydney)", -33.87, 151.21),
        _ec2("ap-northeast-1", "Asia Pacific (Tokyo)", 35.68, 139.69),
        _ec2("cn-north-1", "China (Beijing)", 39.90, 116.41),
        _ec2("sa-east-1", "South America (Sao Paulo)", -23.55, -46.63),
    ]
}

#: Windows Azure regions referenced by Table 3, plus a few more for
#: larger simulated deployments.
AZURE_REGIONS: dict[str, Region] = {
    r.key: r
    for r in [
        _azure("east-us", "East US (Virginia)", 37.37, -79.82),
        _azure("west-us", "West US (California)", 37.78, -122.42),
        _azure("north-europe", "North Europe (Ireland)", 53.35, -6.26),
        _azure("west-europe", "West Europe (Netherlands)", 52.37, 4.90),
        _azure("japan-east", "Japan East (Tokyo)", 35.68, 139.69),
        _azure("japan-west", "Japan West (Osaka)", 34.69, 135.50),
        _azure("southeast-asia", "Southeast Asia (Singapore)", 1.35, 103.82),
        _azure("brazil-south", "Brazil South (Sao Paulo)", -23.55, -46.63),
        _azure("australia-east", "Australia East (Sydney)", -33.87, 151.21),
    ]
}

#: The four EC2 regions the paper deploys on (Section 5.1).
PAPER_EC2_REGIONS: tuple[str, ...] = (
    "us-east-1",
    "us-west-1",
    "ap-southeast-1",
    "eu-west-1",
)

_CATALOGS: dict[str, dict[str, Region]] = {"ec2": EC2_REGIONS, "azure": AZURE_REGIONS}


def get_region(key: str, provider: str = "ec2") -> Region:
    """Look up a region by key within a provider catalog.

    Raises
    ------
    InputError
        If the provider or region key is unknown; the message lists the
        valid keys to ease debugging.
    """
    catalog = _catalog(provider)
    if key not in catalog:
        raise InputError(f"unknown {provider} region {key!r}; choose from {sorted(catalog)}")
    return catalog[key]


def list_regions(provider: str = "ec2") -> list[Region]:
    """All regions of a provider, in catalog order."""
    return list(_catalog(provider).values())


def _catalog(provider: str) -> dict[str, Region]:
    if provider not in _CATALOGS:
        raise InputError(f"unknown provider {provider!r}; choose from {sorted(_CATALOGS)}")
    return _CATALOGS[provider]
