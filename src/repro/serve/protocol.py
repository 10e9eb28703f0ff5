"""Wire format of the placement daemon: line-JSON, like the fabric.

One request or response is one JSON object on one line — the same
framing the sweep fabric's workers speak over stdin/stdout, reused here
over a unix socket (and, re-wrapped in a minimal HTTP envelope, over
localhost TCP).  Everything on the wire is plain JSON; numpy arrays are
encoded explicitly so a client needs nothing beyond the stdlib.

Requests
--------
``{"op": "map", "id": 1, "problem": {...}, "mapper": "geo-distributed",
"seed": 0}`` — solve one placement.  ``repair`` adds ``"partial"`` (the
paper's P with :data:`~repro.core.repair.UNPLACED` holes); ``compare``
takes ``"mappers"`` (a list of registry names).  ``health``,
``metrics``, and ``shutdown`` take no payload; ``trace`` takes
``"trace_id"`` and returns the stored trace document of a past request.
Any request may carry a ``"traceparent"`` field
(``00-<trace_id>-<span_id>-01``, see :mod:`repro.obs.tracectx`) naming
the caller's span — the daemon then records its request span as a child
of it under the caller's trace id.

Responses
---------
``{"id": 1, "ok": true, "result": {...}, "cache_hit": false,
"coalesced": false, "degraded": false, "mapper": "geo-distributed",
"fingerprint": "..."}`` on success; ``{"id": 1, "ok": false, "code":
429, "error": "...", "retry_after_s": 0.5}`` on rejection.  ``code``
follows HTTP semantics (400 bad request, 429 overloaded, 500 solver
failure) so the unix-socket and HTTP transports report identically.
Every response additionally carries ``"trace_id"`` — the 32-hex id of
the request's trace, retrievable afterwards via the ``trace`` op or
``GET /v1/trace/<trace_id>``.

Problem encoding
----------------
:func:`encode_problem` / :func:`decode_problem` round-trip a
:class:`~repro.core.problem.MappingProblem`.  Dense comm matrices
travel as nested lists, sparse ones as CSR triplets — and for the
daemon's *internal* hop onto its process pool, ``arrays=True`` keeps
numpy arrays in the dict (pickle ships them binary, far cheaper than
JSON) while the schema stays identical.
"""

from __future__ import annotations

import json
from typing import Any, Mapping as MappingT

import numpy as np
import scipy.sparse as sp

from .._validation import InputError, coerce
from ..core import MappingProblem
from ..core.mapping import Mapping

__all__ = [
    "PROTOCOL_VERSION",
    "OPS",
    "ProtocolError",
    "encode_problem",
    "decode_problem",
    "decode_request",
    "encode_mapping",
    "jsonify_meta",
    "error_response",
]

#: Bumped when the wire schema changes incompatibly.
PROTOCOL_VERSION = 1

#: Every operation the daemon understands.
OPS = ("map", "repair", "compare", "health", "metrics", "trace", "shutdown")


class ProtocolError(InputError):
    """A request or payload that does not follow the wire schema."""


def decode_request(text: str | bytes) -> dict[str, Any]:
    """One request object from a JSON line or HTTP body."""
    try:
        request = json.loads(text)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"bad JSON: {exc}") from None
    if not isinstance(request, dict):
        raise ProtocolError("request must be a JSON object")
    return request


def _array(name: str, value: Any, dtype: Any = None) -> Any:
    if value is None:
        return None
    return coerce(name, lambda v: np.asarray(v, dtype=dtype), value)


def _matrix_to_wire(mat: "np.ndarray | sp.csr_matrix", *, arrays: bool) -> dict[str, Any]:
    if sp.issparse(mat):
        csr = mat.tocsr()
        return {
            "format": "csr",
            "shape": int(csr.shape[0]),
            "indptr": csr.indptr if arrays else csr.indptr.tolist(),
            "indices": csr.indices if arrays else csr.indices.tolist(),
            "data": csr.data if arrays else csr.data.tolist(),
        }
    return {"format": "dense", "rows": mat if arrays else mat.tolist()}


def _matrix_from_wire(obj: MappingT[str, Any], name: str) -> "np.ndarray | sp.csr_matrix":
    if not isinstance(obj, MappingT):
        raise ProtocolError(f"{name} must be an object, got {type(obj).__name__}")
    fmt = obj.get("format")
    if fmt == "dense":
        return _array(f"{name}.rows", obj.get("rows"), np.float64)
    if fmt == "csr":
        n = coerce(f"{name}.shape", int, obj.get("shape"))
        triplet = (
            _array(f"{name}.data", obj.get("data"), np.float64),
            _array(f"{name}.indices", obj.get("indices"), np.int64),
            _array(f"{name}.indptr", obj.get("indptr"), np.int64),
        )
        return coerce(name, lambda t: sp.csr_matrix(t, shape=(n, n)), triplet)
    raise ProtocolError(f"{name} has unknown matrix format {fmt!r}")


def encode_problem(problem: MappingProblem, *, arrays: bool = False) -> dict[str, Any]:
    """The wire dict for ``problem``.

    ``arrays=True`` keeps numpy arrays in place (for the pickle hop onto
    the daemon's process pool); the default produces pure JSON types.
    """

    def vec(a: np.ndarray | None) -> Any:
        if a is None:
            return None
        return a if arrays else a.tolist()

    return {
        "version": PROTOCOL_VERSION,
        "CG": _matrix_to_wire(problem.CG, arrays=arrays),
        "AG": _matrix_to_wire(problem.AG, arrays=arrays),
        "LT": vec(problem.LT),
        "BT": vec(problem.BT),
        "capacities": vec(problem.capacities),
        "constraints": vec(problem.constraints),
        "coordinates": vec(problem.coordinates),
    }


def decode_problem(obj: MappingT[str, Any]) -> MappingProblem:
    """Build (and fully validate) a :class:`MappingProblem` from the wire.

    A field that does not convert, or that the problem's own
    ``__post_init__`` rejects, raises an :class:`InputError` naming it,
    which the daemon answers with 400.
    """
    if not isinstance(obj, MappingT):
        raise ProtocolError(f"problem must be an object, got {type(obj).__name__}")
    version = obj.get("version", PROTOCOL_VERSION)
    if version != PROTOCOL_VERSION:
        raise ProtocolError(f"unsupported problem version {version!r}")
    for field in ("CG", "AG", "LT", "BT", "capacities"):
        if obj.get(field) is None:
            raise ProtocolError(f"problem is missing {field!r}")
    return MappingProblem(
        CG=_matrix_from_wire(obj["CG"], "CG"),
        AG=_matrix_from_wire(obj["AG"], "AG"),
        LT=_array("LT", obj["LT"], np.float64),
        BT=_array("BT", obj["BT"], np.float64),
        capacities=_array("capacities", obj["capacities"]),
        constraints=_array("constraints", obj.get("constraints"), np.int64),
        coordinates=_array("coordinates", obj.get("coordinates"), np.float64),
    )


def jsonify_meta(meta: MappingT[str, Any]) -> dict[str, Any]:
    """Solver meta as pure JSON types (tuples/numpy scalars normalized)."""

    def conv(value: Any) -> Any:
        if isinstance(value, (np.integer,)):
            return int(value)
        if isinstance(value, (np.floating,)):
            return float(value)
        if isinstance(value, np.ndarray):
            return value.tolist()
        if isinstance(value, (list, tuple)):
            return [conv(v) for v in value]
        if isinstance(value, MappingT):
            return {str(k): conv(v) for k, v in value.items()}
        if isinstance(value, (str, int, float, bool)) or value is None:
            return value
        return str(value)

    return {str(k): conv(v) for k, v in meta.items()}


def encode_mapping(mapping: Mapping) -> dict[str, Any]:
    """A solved :class:`~repro.core.mapping.Mapping` as the wire result.

    ``cost`` survives the JSON round trip bit-exactly (``json`` emits
    the shortest repr that parses back to the same float), which is what
    lets the daemon promise responses bit-identical to a direct
    ``Mapper.map`` call.
    """
    return {
        "assignment": mapping.assignment.tolist(),
        "cost": float(mapping.cost),
        "mapper": mapping.mapper,
        "elapsed_s": float(mapping.elapsed_s),
        "meta": jsonify_meta(mapping.meta),
    }


def error_response(
    request_id: Any,
    code: int,
    message: str,
    *,
    retry_after_s: float | None = None,
) -> dict[str, Any]:
    """The standard failure envelope (shared by both transports)."""
    resp: dict[str, Any] = {"id": request_id, "ok": False, "code": code, "error": message}
    if retry_after_s is not None:
        resp["retry_after_s"] = round(float(retry_after_s), 3)
    return resp
