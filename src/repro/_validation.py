"""Shared argument-validation helpers and the one "bad input" type.

Every public entry point in :mod:`repro` validates its inputs eagerly and
raises :class:`InputError` (a ``ValueError`` and a ``TypeError``) or a
subclass, with a message naming the offending argument.  That type alone
tells the serve daemon and the CLI that the caller is at fault (400, or
``error:`` and exit 2); any other exception is a program fault.
Centralizing the checks keeps the error messages uniform and the call
sites one-liners.  ``repro-lint`` (rule RPR003) enforces that entry
points actually route through these helpers.
"""

from __future__ import annotations

import numbers
from typing import TYPE_CHECKING, Any, Callable, Sequence

# numpy loads in the checks: the fabric and the CLI import InputError without it.
if TYPE_CHECKING:
    import numpy as np
    import numpy.typing as npt

__all__ = [
    "InputError",
    "coerce",
    "check_positive_int",
    "check_nonnegative_int",
    "check_fraction",
    "check_square_matrix",
    "check_matrix_pair",
    "check_vector",
    "check_probability_vector",
    "as_rng",
    "freeze_matrix",
]


class InputError(ValueError, TypeError):
    """The caller's input is invalid; the message names what and why."""


def coerce(name: str, cast: Callable[[Any], Any], value: Any) -> Any:
    """``cast(value)``, or an :class:`InputError` naming ``name`` if it does not convert."""
    try:
        return cast(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"{name} is malformed: {exc}") from None


def check_positive_int(value: int | np.integer[Any], name: str) -> int:
    """Return ``value`` if it is a positive integer, else raise.

    Accepts numpy integer scalars as well as Python ints; rejects bools.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InputError(f"{name} must be an int, got {type(value).__name__}")
    if value <= 0:
        raise InputError(f"{name} must be positive, got {value}")
    return int(value)


def check_nonnegative_int(value: int | np.integer[Any], name: str) -> int:
    """Return ``value`` if it is a non-negative integer, else raise."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InputError(f"{name} must be an int, got {type(value).__name__}")
    if value < 0:
        raise InputError(f"{name} must be >= 0, got {value}")
    return int(value)


def check_fraction(value: float, name: str) -> float:
    """Return ``value`` as float if it lies in [0, 1], else raise."""
    value = coerce(name, float, value)
    if not 0.0 <= value <= 1.0:
        raise InputError(f"{name} must be in [0, 1], got {value}")
    return value


def check_square_matrix(
    matrix: npt.ArrayLike,
    name: str,
    *,
    size: int | None = None,
    nonnegative: bool = True,
) -> npt.NDArray[np.float64]:
    """Validate a 2-D square float matrix and return it as ``float64``.

    Parameters
    ----------
    matrix:
        Array-like to validate.
    name:
        Argument name used in error messages.
    size:
        If given, the required number of rows/columns.
    nonnegative:
        If True (default), all entries must be >= 0.
    """
    import numpy as np
    arr = coerce(name, lambda m: np.asarray(m, dtype=np.float64), matrix)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise InputError(f"{name} must be a square 2-D matrix, got shape {arr.shape}")
    if size is not None and arr.shape[0] != size:
        raise InputError(f"{name} must be {size}x{size}, got {arr.shape[0]}x{arr.shape[1]}")
    if not np.all(np.isfinite(arr)):
        raise InputError(f"{name} contains non-finite entries")
    if nonnegative and np.any(arr < 0):
        raise InputError(f"{name} contains negative entries")
    return arr


def check_matrix_pair(
    a: npt.ArrayLike, b: npt.ArrayLike, name_a: str, name_b: str
) -> None:
    """Require that two matrices share the same shape."""
    import numpy as np
    if np.asarray(a).shape != np.asarray(b).shape:
        raise InputError(
            f"{name_a} and {name_b} must have the same shape, "
            f"got {np.asarray(a).shape} vs {np.asarray(b).shape}"
        )


def check_vector(
    vec: Sequence[int] | Sequence[float] | npt.NDArray[Any],
    name: str,
    *,
    size: int | None = None,
    dtype: npt.DTypeLike = "int64",
) -> npt.NDArray[Any]:
    """Validate a 1-D vector and return it with the requested dtype.

    Casting to an integer dtype is *checked*: float input with fractional
    parts (e.g. capacities ``[2.7, 3.9]``) raises instead of silently
    truncating to ``[2, 3]``, and boolean (almost always a mask passed
    by mistake) and other non-numeric arrays are rejected outright.
    """
    import numpy as np
    raw = coerce(name, np.asarray, vec)
    if raw.ndim != 1:
        raise InputError(f"{name} must be 1-D, got shape {raw.shape}")
    if size is not None and raw.shape[0] != size:
        raise InputError(f"{name} must have length {size}, got {raw.shape[0]}")
    if raw.dtype.kind not in "iuf":
        raise InputError(f"{name} must be numeric, got dtype {raw.dtype}")
    target = np.dtype(dtype)
    if target.kind in "iu" and raw.dtype.kind not in "iu":
        as_float = np.asarray(raw, dtype=np.float64)
        if not np.all(np.isfinite(as_float)):
            raise InputError(f"{name} contains non-finite entries")
        if np.any(as_float != np.trunc(as_float)):
            bad = np.flatnonzero(as_float != np.trunc(as_float))
            raise InputError(
                f"{name} must contain integral values; found non-integral "
                f"entries at indices {bad[:10].tolist()} "
                f"(e.g. {name}[{bad[0]}] = {as_float[bad[0]]})"
            )
    return np.asarray(raw, dtype=target)


def check_probability_vector(
    vec: Sequence[float] | npt.NDArray[Any],
    name: str,
    *,
    size: int | None = None,
    normalize: bool = False,
) -> npt.NDArray[np.float64]:
    """Validate a 1-D probability vector (finite, >= 0, summing to 1).

    With ``normalize=True`` any non-negative vector with a positive sum is
    accepted and rescaled to sum to 1 — the convenient form for weight
    arguments (e.g. the Monte Carlo sampler's site weights).  Without it,
    the sum must already be 1 within a small tolerance.
    """
    import numpy as np
    arr = coerce(name, lambda v: np.asarray(v, dtype=np.float64), vec)
    if arr.ndim != 1:
        raise InputError(f"{name} must be 1-D, got shape {arr.shape}")
    if size is not None and arr.shape[0] != size:
        raise InputError(f"{name} must have length {size}, got {arr.shape[0]}")
    if arr.size == 0:
        raise InputError(f"{name} must not be empty")
    if not np.all(np.isfinite(arr)):
        raise InputError(f"{name} contains non-finite entries")
    if np.any(arr < 0):
        raise InputError(f"{name} contains negative entries")
    total = float(arr.sum())
    if normalize:
        if total <= 0.0:
            raise InputError(f"{name} must have a positive sum to normalize, got {total}")
        return arr / total
    if not np.isclose(total, 1.0, rtol=0.0, atol=1e-9):
        raise InputError(f"{name} must sum to 1, got {total}")
    return arr


def as_rng(seed: int | np.random.Generator | None) -> np.random.Generator:
    """Coerce a seed or Generator into a :class:`numpy.random.Generator`."""
    import numpy as np
    if isinstance(seed, np.random.Generator):
        return seed
    return coerce("seed", np.random.default_rng, seed)


def freeze_matrix(mat: Any) -> None:
    """Make a dense matrix read-only, or a sparse one's component arrays.

    A scipy sparse matrix has no writeable flag itself, but its
    ``data``, ``indices`` and ``indptr`` do.
    """
    import numpy as np
    arrays = (mat,) if isinstance(mat, np.ndarray) else (mat.data, mat.indices, mat.indptr)
    for arr in arrays:
        arr.setflags(write=False)
