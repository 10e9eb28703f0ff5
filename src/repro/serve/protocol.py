"""Wire format of the placement daemon: line-JSON, like the fabric.

One request or response is one JSON object on one line — the same
framing the sweep fabric's workers speak over stdin/stdout, reused here
over a unix socket (and, re-wrapped in a minimal HTTP envelope, over
localhost TCP).  Everything on the wire is plain JSON; numpy arrays travel
as base64 blocks inside it, so a client needs nothing beyond the stdlib.

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
:class:`~repro.core.problem.MappingProblem`.  Every numeric array in
it travels as a typed binary block (protocol v2)::

    {"dtype": "<f8", "shape": [2, 2], "b64": "<base64 of the bytes>"}

``dtype`` is one of :data:`BLOCK_DTYPES` (little-endian float64, int64
or int32), ``shape`` a list of non-negative ints, and ``b64`` the
standard base64 of the array's C-order little-endian bytes, so the
decoded array is byte-for-byte the encoded one.  Dense comm matrices
are ``{"format": "dense", "rows": <block>}``, sparse ones ``{"format":
"csr", "shape": n, "indptr": <block>, "indices": <block>, "data":
<block>}`` (index blocks must be integers); ``LT``, ``BT``,
``capacities``, ``constraints`` and ``coordinates`` are blocks (the
last two may be ``null``).  A client needs only the stdlib to build
one::

    {"dtype": "<f8", "shape": [len(xs)],
     "b64": base64.b64encode(struct.pack("<%dd" % len(xs), *xs)).decode()}

Protocol v1 sent arrays as JSON lists; a list where a block belongs is
refused with 400, naming the field and the block format.  The decoder
takes blocks only.  The wire dict is decoded once per daemon: the
engine memoizes the validated problem under :func:`problem_digest` of
the raw field, and its hop onto the process pool pickles that
:class:`MappingProblem` (which re-freezes on unpickling), so the pool
decodes nothing.
"""

from __future__ import annotations

import base64
import hashlib
import json
import math
import reprlib
import struct
from typing import Any, Mapping as MappingT

import numpy as np
import scipy.sparse as sp

from .._validation import InputError, coerce
from ..core import MappingProblem
from ..core.mapping import Mapping

__all__ = [
    "PROTOCOL_VERSION",
    "BLOCK_DTYPES",
    "OPS",
    "ProtocolError",
    "encode_problem",
    "decode_problem",
    "problem_digest",
    "decode_request",
    "encode_mapping",
    "jsonify_meta",
    "error_response",
]

#: Bumped when the wire schema changes incompatibly.
PROTOCOL_VERSION = 2

#: The dtypes a wire block may carry: little-endian float64, int64, int32.
BLOCK_DTYPES = ("<f8", "<i8", "<i4")

_BLOCK_FORMAT = '{"dtype": "<f8"|"<i8"|"<i4", "shape": [...], "b64": "..."}'

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


def _to_wire(a: np.ndarray | None) -> Any:
    """``a`` as a wire block (``None`` stays ``None``)."""
    if a is None:
        return None
    if a.dtype.kind == "f":
        dtype = "<f8"
    else:
        dtype = "<i4" if a.dtype.itemsize == 4 else "<i8"
    raw = np.ascontiguousarray(a, dtype=dtype).tobytes()
    return {"dtype": dtype, "shape": list(a.shape), "b64": base64.b64encode(raw).decode("ascii")}


def _array(name: str, value: Any, ndim: int, *, integer: bool = False) -> Any:
    """One array field from its wire block (``None`` stays ``None``).

    The block is outside input, so every part is checked before anything
    is allocated from it; the result owns its (writable) memory.
    """
    if value is None:
        return None
    if not isinstance(value, MappingT):
        v1 = " (JSON lists are protocol v1)" if isinstance(value, list) else ""
        raise ProtocolError(
            f"{name} must be a binary block {_BLOCK_FORMAT}, got {type(value).__name__}{v1}"
        )
    dtypes = BLOCK_DTYPES[1:] if integer else BLOCK_DTYPES
    dtype = value.get("dtype")
    if not isinstance(dtype, str) or dtype not in dtypes:
        raise ProtocolError(f"{name}.dtype must be one of {dtypes}, got {reprlib.repr(dtype)}")
    shape = value.get("shape")
    if not (
        isinstance(shape, list)
        and len(shape) == ndim
        and all(type(d) is int and d >= 0 for d in shape)
    ):
        raise ProtocolError(
            f"{name}.shape must be a list of {ndim} non-negative ints, got {reprlib.repr(shape)}"
        )
    raw = coerce(f"{name}.b64", lambda s: base64.b64decode(s, validate=True), value.get("b64"))
    dt = np.dtype(dtype)
    need = math.prod(shape) * dt.itemsize
    if len(raw) != need:
        raise ProtocolError(f"{name} holds {len(raw)} bytes; shape {shape} of {dtype} needs {need}")
    # frombuffer's view is read-only (and foreign-endian on a big-endian
    # host); astype copies it into a native array that owns its memory.
    native = dt.newbyteorder("=")
    return coerce(name, lambda b: np.frombuffer(b, dt).reshape(shape).astype(native), raw)


def _matrix_to_wire(mat: "np.ndarray | sp.csr_matrix") -> dict[str, Any]:
    if sp.issparse(mat):
        csr = mat.tocsr()
        return {
            "format": "csr",
            "shape": int(csr.shape[0]),
            "indptr": _to_wire(csr.indptr),
            "indices": _to_wire(csr.indices),
            "data": _to_wire(csr.data),
        }
    return {"format": "dense", "rows": _to_wire(mat)}


def _matrix_from_wire(obj: MappingT[str, Any], name: str) -> "np.ndarray | sp.csr_matrix":
    if not isinstance(obj, MappingT):
        raise ProtocolError(f"{name} must be an object, got {type(obj).__name__}")
    fmt = obj.get("format")
    if fmt == "dense":
        return _array(f"{name}.rows", obj.get("rows"), 2)
    if fmt == "csr":
        n = obj.get("shape")
        if type(n) is not int or n < 0:
            raise ProtocolError(f"{name}.shape must be a non-negative int, got {reprlib.repr(n)}")
        triplet = (
            _array(f"{name}.data", obj.get("data"), 1),
            _array(f"{name}.indices", obj.get("indices"), 1, integer=True),
            _array(f"{name}.indptr", obj.get("indptr"), 1, integer=True),
        )
        return coerce(name, lambda t: sp.csr_matrix(t, shape=(n, n)), triplet)
    raise ProtocolError(f"{name} has unknown matrix format {fmt!r}")


def encode_problem(problem: MappingProblem) -> dict[str, Any]:
    """The wire dict for ``problem``: pure JSON types, every array a binary block."""
    return {
        "version": PROTOCOL_VERSION,
        "CG": _matrix_to_wire(problem.CG),
        "AG": _matrix_to_wire(problem.AG),
        "LT": _to_wire(problem.LT),
        "BT": _to_wire(problem.BT),
        "capacities": _to_wire(problem.capacities),
        "constraints": _to_wire(problem.constraints),
        "coordinates": _to_wire(problem.coordinates),
    }


def decode_problem(obj: MappingT[str, Any]) -> MappingProblem:
    """Build (and fully validate) a :class:`MappingProblem` from the wire.

    Arrays must be binary blocks.  A field that does not convert, or
    that the problem's own ``__post_init__`` rejects, raises an
    :class:`InputError` naming it, which the daemon answers with 400.
    The arrays are decoded before the version is checked, so a v1
    payload is told which field to re-encode and how.
    """
    if not isinstance(obj, MappingT):
        raise ProtocolError(f"problem must be an object, got {type(obj).__name__}")
    for field in ("CG", "AG", "LT", "BT", "capacities"):
        if obj.get(field) is None:
            raise ProtocolError(f"problem is missing {field!r}")
    fields = dict(
        CG=_matrix_from_wire(obj["CG"], "CG"),
        AG=_matrix_from_wire(obj["AG"], "AG"),
        LT=_array("LT", obj["LT"], 2),
        BT=_array("BT", obj["BT"], 2),
        capacities=_array("capacities", obj["capacities"], 1),
        constraints=_array("constraints", obj.get("constraints"), 1),
        coordinates=_array("coordinates", obj.get("coordinates"), 2),
    )
    version = obj.get("version", PROTOCOL_VERSION)
    if version != PROTOCOL_VERSION:
        raise ProtocolError(f"unsupported problem version {version!r}")
    return MappingProblem(**fields)


def problem_digest(obj: Any) -> bytes | None:
    """SHA-256 of a parsed ``problem`` field; ``None`` if it holds a non-JSON value.

    The walk feeds every dict key, type tag, length and scalar to the
    hash, each container before its items (strings as UTF-8 bytes,
    floats as their IEEE bits), so two fields share a digest only if
    they hold the same JSON values in the same key order, and then they
    decode to the same problem.  Cheaper than ``json.dumps`` of the
    field: the base64 strings are hashed as they are.
    """
    h = hashlib.sha256(b"repro.serve.problem.v2")
    stack = [obj]
    while stack:
        value = stack.pop()
        if isinstance(value, str):
            raw = value.encode("utf-8", "surrogatepass")
            h.update(b"s%d:" % len(raw))
            h.update(raw)
        elif isinstance(value, dict):
            h.update(b"d%d:" % len(value))
            for key, item in value.items():
                stack += (item, key)
        elif isinstance(value, list):
            h.update(b"l%d:" % len(value))
            stack += value
        elif isinstance(value, bool) or value is None:
            h.update(b"%r" % value)
        elif isinstance(value, int):
            h.update(b"i%d:" % value)
        elif isinstance(value, float):
            h.update(b"f" + struct.pack("<d", value))
        else:
            return None
    return h.digest()


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
