"""LogGP communication model (the alternative the paper declined).

Section 3.1: "While more sophisticated models such as LogP [17] and
LogGP [2] exist, they involve more parameters and thus have higher
calibration cost."  This module builds the road not taken so the
trade-off can be measured instead of asserted:

* :class:`LogGPParams` — per-link (L, o, g, G) parameters;
* :func:`loggp_transfer_time` — message time under LogGP,
  ``L + 2o + (n - 1) * G`` (the standard long-message form; ``g``
  bounds message injection rate and matters for pipelined streams);
* :class:`LogGPModel` — an (M, M) parameter field with a cost function
  mirroring Formula (2)-(3) and a converter from alpha-beta matrices;
* :func:`calibrate_loggp` — fits all four parameters per site pair from
  simulated pingpong sweeps over several message sizes, which is exactly
  why its calibration cost exceeds alpha-beta's two probes.

The ablation bench compares mapping quality and calibration cost under
both models; on the paper's network they rank mappings identically
(LogGP's extra parameters refine *absolute* time, not the relative
ordering), vindicating the paper's lightweight choice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._validation import check_positive_int
from ..core.problem import MappingProblem
from .cost import aggregate_site_traffic

__all__ = [
    "LogGPParams",
    "loggp_transfer_time",
    "LogGPModel",
    "calibrate_loggp",
    "LOGGP_PROBE_SIZES",
]

#: Message sizes probed per site pair when fitting LogGP (vs 2 for α-β).
LOGGP_PROBE_SIZES = (1, 1024, 64 * 1024, 1024 * 1024, 8 * 1024 * 1024)


@dataclass(frozen=True, slots=True)
class LogGPParams:
    """One link's LogGP parameters, all in seconds (G per byte).

    Attributes
    ----------
    L:
        Wire latency.
    o:
        Per-message CPU overhead (charged on both ends).
    g:
        Gap between consecutive message injections (rate bound).
    G:
        Gap per byte — the inverse bandwidth for long messages.
    """

    L: float
    o: float
    g: float
    G: float

    def __post_init__(self) -> None:
        for name in ("L", "o", "g", "G"):
            v = getattr(self, name)
            if v < 0 or not np.isfinite(v):
                raise ValueError(f"{name} must be finite and >= 0, got {v}")


def loggp_transfer_time(params: LogGPParams, nbytes: int) -> float:
    """Time for one ``nbytes`` message under LogGP: ``L + 2o + (n-1)G``."""
    if nbytes <= 0:
        raise ValueError(f"nbytes must be positive, got {nbytes}")
    return params.L + 2.0 * params.o + (nbytes - 1) * params.G


class LogGPModel:
    """An (M, M) field of LogGP parameters with a mapping cost function.

    The cost mirrors the paper's Formula (2): for each directed process
    pair, ``AG`` messages each pay ``L + 2o`` and the total volume pays
    ``G`` per byte (the ``(n-1)`` correction aggregates to
    ``(CG - AG) * G``; message-rate effects of ``g`` do not appear in an
    additive pairwise objective).
    """

    def __init__(self, L: np.ndarray, o: np.ndarray, g: np.ndarray, G: np.ndarray):
        mats = {}
        shape = np.asarray(L).shape
        for name, mat in (("L", L), ("o", o), ("g", g), ("G", G)):
            arr = np.asarray(mat, dtype=np.float64)
            if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape != shape:
                raise ValueError(f"{name} must be square and congruent, got {arr.shape}")
            if np.any(arr < 0) or not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} entries must be finite and >= 0")
            mats[name] = arr
        self.L, self.o, self.g, self.G = mats["L"], mats["o"], mats["g"], mats["G"]

    @property
    def num_sites(self) -> int:
        return self.L.shape[0]

    @classmethod
    def from_alpha_beta(
        cls,
        LT: np.ndarray,
        BT: np.ndarray,
        *,
        overhead_fraction: float = 0.2,
    ) -> "LogGPModel":
        """Derive LogGP parameters consistent with an alpha-beta pair.

        Splits alpha into wire latency and per-end overhead
        (``alpha = L + 2o`` with ``o = overhead_fraction * alpha / 2``)
        and sets ``G = 1 / BT``; ``g`` defaults to the per-message time
        floor ``2o``.
        """
        LT = np.asarray(LT, dtype=np.float64)
        BT = np.asarray(BT, dtype=np.float64)
        if not 0.0 <= overhead_fraction < 1.0:
            raise ValueError(
                f"overhead_fraction must be in [0, 1), got {overhead_fraction}"
            )
        o = LT * (overhead_fraction / 2.0)
        L = LT - 2.0 * o
        G = 1.0 / BT
        g = 2.0 * o
        return cls(L=L, o=o, g=g, G=G)

    def total_cost(self, problem: MappingProblem, P: np.ndarray) -> float:
        """Additive LogGP mapping cost (the Formula-2 analogue)."""
        vol, cnt = aggregate_site_traffic(problem, P)
        per_message = self.L + 2.0 * self.o
        return float(np.sum(cnt * per_message) + np.sum((vol - cnt) * self.G))


def calibrate_loggp(
    calibrator,
    *,
    samples: int = 3,
    probe_sizes: tuple[int, ...] = LOGGP_PROBE_SIZES,
) -> tuple[LogGPModel, int]:
    """Fit a LogGP field from pingpong sweeps; returns (model, probes).

    Parameters
    ----------
    calibrator:
        A :class:`repro.cloud.calibration.PingpongCalibrator` (anything
        with ``measure_elapsed_s(src, dst, nbytes)`` and a topology).
    samples:
        Repetitions per (pair, size) point.
    probe_sizes:
        Message sizes swept per pair; the count of these (times
        ``samples``) versus alpha-beta's two probes *is* the extra
        calibration cost the paper avoids.

    The fit: least squares of ``t(n) = (L + 2o) + (n - 1) G`` over the
    sweep gives the intercept (split into L and o at the conventional
    80/20 wire/CPU ratio) and slope G; ``g`` is set to the observed
    per-message floor.  Returns the total probe count actually issued so
    benches can report the overhead ratio.
    """
    check_positive_int(samples, "samples")
    if len(probe_sizes) < 2:
        raise ValueError("need at least two probe sizes to fit LogGP")
    topo = calibrator.topology
    m = topo.num_sites
    L = np.empty((m, m))
    o = np.empty((m, m))
    g = np.empty((m, m))
    G = np.empty((m, m))
    probes = 0
    sizes = np.asarray(probe_sizes, dtype=np.float64)
    design = np.stack([np.ones_like(sizes), sizes - 1.0], axis=1)
    for a in range(m):
        for b in range(m):
            times = np.empty(len(probe_sizes))
            for k, nbytes in enumerate(probe_sizes):
                acc = 0.0
                for _ in range(samples):
                    acc += calibrator.measure_elapsed_s(a, b, int(nbytes))
                    probes += 1
                times[k] = acc / samples
            coef, *_ = np.linalg.lstsq(design, times, rcond=None)
            intercept = max(float(coef[0]), 0.0)
            slope = max(float(coef[1]), 0.0)
            o[a, b] = 0.1 * intercept  # 80/20 wire/CPU split of L + 2o
            L[a, b] = intercept - 2 * o[a, b]
            g[a, b] = 2 * o[a, b]
            G[a, b] = slope
    return LogGPModel(L=L, o=o, g=g, G=G), probes
