"""Simulated workloads: the paper's five evaluation applications (LU, BT,
SP, K-means, DNN) plus synthetic patterns for tests and ablations.

The application classes load on first use: :data:`PAPER_APPS` (the
CLI's ``--app`` choices) costs no numpy or scipy import.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".base": ("Application", "grid_shape"),
    ".dnn": ("DNNApp",),
    ".kmeans": ("KMeansApp",),
    ".npb": ("LU_EW_BYTES", "LU_NS_BYTES", "BTApp", "LUApp", "SPApp"),
    ".synthetic": ("RandomSparseApp", "RingApp", "StencilApp", "UniformApp"),
    ".paper": ("make_paper_app",),
})
__all__ += ["PAPER_APPS"]

# The same names as imports, for type checkers and repro-lint's call graph.
# ruff reads neither the lazy table nor the __all__ it builds, so it
# would call these imports unused.
# ruff: noqa: F401
if TYPE_CHECKING:
    from .base import Application, grid_shape
    from .dnn import DNNApp
    from .kmeans import KMeansApp
    from .npb import LU_EW_BYTES, LU_NS_BYTES, BTApp, LUApp, SPApp
    from .paper import make_paper_app
    from .synthetic import RandomSparseApp, RingApp, StencilApp, UniformApp

#: The paper's five evaluation applications, by the names
#: :func:`make_paper_app` takes.
PAPER_APPS = ("BT", "SP", "LU", "K-means", "DNN")
