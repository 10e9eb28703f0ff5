"""The per-file import table: what each dotted name resolves to."""

import ast

import pytest

from repro.analysis.context import FileContext


def resolve(source, expr, relpath="src/repro/core/example.py"):
    ctx = FileContext(relpath=relpath, tree=ast.parse(source))
    return ctx.resolve(ast.parse(expr, mode="eval").body)


@pytest.mark.parametrize(
    "source, expr, expected",
    [
        # plain import
        ("import numpy", "numpy.random.seed", ("numpy", "random", "seed")),
        # aliased import
        ("import numpy as np", "np.random.seed", ("numpy", "random", "seed")),
        # ``import a.b`` binds ``a``
        ("import os.path", "os.path.join", ("os", "path", "join")),
        ("import os.path", "path.join", None),
        # ``import a.b as c``
        ("import numpy.random as npr", "npr.seed", ("numpy", "random", "seed")),
        # ``from a import b as c``
        ("from time import time as wall", "wall", ("time", "time")),
        ("from numpy import random as npr", "npr.seed", ("numpy", "random", "seed")),
        # imports inside a function body count too
        ("def f():\n    import subprocess as sp\n", "sp.run", ("subprocess", "run")),
        # relative imports climb from the module's package (repro.core)
        ("from .cost import total_cost", "total_cost", ("repro", "core", "cost", "total_cost")),
        ("from . import cost", "cost.total_cost", ("repro", "core", "cost", "total_cost")),
        ("from ..obs import Span as S", "S", ("repro", "obs", "Span")),
        ("from ..obs.spans import Span", "Span", ("repro", "obs", "spans", "Span")),
        # climbing past the top package binds nothing, as in Python:
        # three dots from repro.core would be above ``repro``
        ("from ...obs import Span", "Span", None),
        ("from ....obs import Span", "Span", None),
        # unimported heads and non-chains do not resolve
        ("import numpy as np", "rng.random", None),
        ("import numpy as np", "np.random.default_rng(0).random", None),
    ],
)
def test_resolve_table(source, expr, expected):
    assert resolve(source, expr) == expected

