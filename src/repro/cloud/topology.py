"""Realized geo-distributed cloud topologies.

A :class:`CloudTopology` is the concrete "machine side" of the mapping
problem: M sites with physical coordinates, per-site node counts (the
paper's capacity vector I), and the asymmetric M x M latency/bandwidth
matrices LT and BT produced by the network model plus directional jitter.

Units are canonical SI throughout: LT in **seconds**, BT in **bytes/s**.
The paper's table units (ms, MB/s) are applied only at display time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .._validation import as_rng, check_positive_int
from .geo import pairwise_distances_km
from .instances import InstanceType
from .netmodel import NetworkModel
from .regions import PAPER_EC2_REGIONS, Region, get_region

__all__ = ["Site", "CloudTopology", "paper_topology"]

#: Bytes per MB used to convert the model's MB/s into bytes/s.
_MB = 1e6


@dataclass(frozen=True, slots=True)
class Site:
    """One data-center site in a topology.

    Attributes
    ----------
    index:
        Position of the site in the topology's matrices.
    region:
        The cloud region this site lives in.
    capacity:
        Number of physical nodes available at the site (one process per
        node, as in the paper's EC2 setup).
    """

    index: int
    region: Region
    capacity: int

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValueError(f"index must be >= 0, got {self.index}")
        if self.capacity <= 0:
            raise ValueError(f"capacity must be positive, got {self.capacity}")


@dataclass(frozen=True)
class CloudTopology:
    """An immutable realized topology.

    Attributes
    ----------
    sites:
        The M sites, in matrix order.
    latency_s:
        (M, M) asymmetric matrix; ``latency_s[k, l]`` is the one-byte
        latency from site k to site l in seconds (the paper's LT).
    bandwidth_Bps:
        (M, M) asymmetric matrix of bandwidths in bytes/s (the paper's BT).
    instance_type:
        Instance type all nodes share (the paper assumes a homogeneous
        fleet).
    """

    sites: tuple[Site, ...]
    latency_s: np.ndarray
    bandwidth_Bps: np.ndarray
    instance_type: InstanceType

    def __post_init__(self) -> None:
        m = len(self.sites)
        if m == 0:
            raise ValueError("topology needs at least one site")
        for name, mat in (("latency_s", self.latency_s), ("bandwidth_Bps", self.bandwidth_Bps)):
            arr = np.asarray(mat, dtype=np.float64)
            if arr.shape != (m, m):
                raise ValueError(f"{name} must be {m}x{m}, got {arr.shape}")
            if np.any(arr <= 0) or not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} entries must be positive and finite")
            object.__setattr__(self, name, arr)
        indices = [s.index for s in self.sites]
        if indices != list(range(m)):
            raise ValueError(f"site indices must be 0..{m - 1} in order, got {indices}")
        # Freeze the matrices so an immutable topology stays immutable.
        self.latency_s.setflags(write=False)
        self.bandwidth_Bps.setflags(write=False)

    # ------------------------------------------------------------ properties

    @property
    def num_sites(self) -> int:
        """M, the number of sites."""
        return len(self.sites)

    @property
    def capacities(self) -> np.ndarray:
        """The paper's vector I: nodes per site, shape (M,)."""
        return np.array([s.capacity for s in self.sites], dtype=np.int64)

    @property
    def total_nodes(self) -> int:
        """Total node count across all sites."""
        return int(self.capacities.sum())

    @property
    def coordinates(self) -> np.ndarray:
        """The paper's PC matrix: (M, 2) of [lat, lon] per site."""
        return np.array(
            [[s.region.location.latitude, s.region.location.longitude] for s in self.sites],
            dtype=np.float64,
        )

    @property
    def bandwidth_mbs(self) -> np.ndarray:
        """BT in the paper's display unit, MB/s."""
        return self.bandwidth_Bps / _MB

    def site_distances_km(self) -> np.ndarray:
        """(M, M) great-circle distances between sites."""
        return pairwise_distances_km(self.coordinates)

    # ---------------------------------------------------------- constructors

    @classmethod
    def from_regions(
        cls,
        region_keys: Sequence[str],
        nodes_per_site: int | Sequence[int],
        *,
        provider: str = "ec2",
        instance_type: str | InstanceType = "m4.xlarge",
        jitter: float = 0.02,
        seed: int | np.random.Generator | None = 0,
        model: NetworkModel | None = None,
    ) -> "CloudTopology":
        """Realize a topology over named provider regions.

        Parameters
        ----------
        region_keys:
            Region keys; repeats are allowed (two sites in one region, e.g.
            two availability zones) and get intra-region links between them.
        nodes_per_site:
            Either one capacity shared by all sites or a per-site sequence.
        jitter:
            Relative std-dev of the directional log-normal noise applied to
            each directed link, making LT/BT asymmetric as the paper
            observes.  The paper reports <5% variation; default 2%.
        seed:
            Seed for the jitter; identical seeds give identical topologies.
        model:
            Optional pre-built :class:`NetworkModel`; by default one is
            created from ``provider``/``instance_type``.
        """
        if len(region_keys) == 0:
            raise ValueError("region_keys must not be empty")
        if not 0.0 <= jitter < 1.0:
            raise ValueError(f"jitter must be in [0, 1), got {jitter}")
        if model is None:
            model = NetworkModel(provider=provider, instance_type=instance_type)
        regions = [get_region(k, provider=model.provider) for k in region_keys]
        m = len(regions)

        if isinstance(nodes_per_site, (int, np.integer)):
            check_positive_int(int(nodes_per_site), "nodes_per_site")
            caps = [int(nodes_per_site)] * m
        else:
            caps = [check_positive_int(int(c), "nodes_per_site[i]") for c in nodes_per_site]
            if len(caps) != m:
                raise ValueError(
                    f"nodes_per_site has {len(caps)} entries for {m} sites"
                )

        lat = np.empty((m, m), dtype=np.float64)
        bw = np.empty((m, m), dtype=np.float64)
        for k, ra in enumerate(regions):
            for l, rb in enumerate(regions):
                l_s, b_mbs = model.link(ra, rb)
                lat[k, l] = l_s
                bw[k, l] = b_mbs * _MB

        if jitter > 0.0:
            rng = as_rng(seed)
            # Log-normal keeps values positive; independent draws per
            # direction make the matrices asymmetric.
            lat *= rng.lognormal(mean=0.0, sigma=jitter, size=(m, m))
            bw *= rng.lognormal(mean=0.0, sigma=jitter, size=(m, m))

        sites = tuple(Site(i, r, c) for i, (r, c) in enumerate(zip(regions, caps)))
        return cls(sites=sites, latency_s=lat, bandwidth_Bps=bw, instance_type=model.instance_type)


def paper_topology(
    nodes_per_site: int = 16,
    *,
    seed: int | np.random.Generator | None = 0,
    jitter: float = 0.02,
) -> CloudTopology:
    """The paper's EC2 deployment: 4 regions x 16 m4.xlarge instances.

    Section 5.1: US East, US West, Singapore and Ireland, one process per
    instance, 64 processes total.
    """
    return CloudTopology.from_regions(
        PAPER_EC2_REGIONS,
        nodes_per_site,
        provider="ec2",
        instance_type="m4.xlarge",
        jitter=jitter,
        seed=seed,
    )
