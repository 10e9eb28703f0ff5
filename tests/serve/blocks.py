"""Wire blocks built the way a client without numpy builds them."""

from __future__ import annotations

import base64
import struct

_STRUCT_CODES = {"<f8": "d", "<i8": "q", "<i4": "i"}


def block(values, dtype: str = "<f8", shape=None) -> dict:
    """A protocol-v2 array block of ``values``, packed with ``struct``.

    A list of rows becomes a 2-D block; ``shape`` overrides the shape
    the block declares (to build inconsistent blocks on purpose).
    """
    values = list(values)
    dims = [len(values)]
    if values and isinstance(values[0], (list, tuple)):
        dims = [len(values), len(values[0])]
        values = [x for row in values for x in row]
    raw = struct.pack("<%d%s" % (len(values), _STRUCT_CODES[dtype]), *values)
    return {
        "dtype": dtype,
        "shape": dims if shape is None else shape,
        "b64": base64.b64encode(raw).decode("ascii"),
    }
