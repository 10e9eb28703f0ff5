"""The paper's five evaluation applications, built by name."""

from __future__ import annotations

from typing import Any

from .._validation import InputError
from . import PAPER_APPS
from .base import Application
from .dnn import DNNApp
from .kmeans import KMeansApp
from .npb import BTApp, LUApp, SPApp

__all__ = ["make_paper_app"]

_FACTORIES = dict(zip(PAPER_APPS, (BTApp, SPApp, LUApp, KMeansApp, DNNApp)))


def make_paper_app(name: str, num_ranks: int = 64, **kwargs: Any) -> Application:
    """Instantiate one of the paper's five applications by name."""
    if name not in _FACTORIES:
        raise InputError(f"unknown paper app {name!r}; choose from {sorted(_FACTORIES)}")
    return _FACTORIES[name](num_ranks, **kwargs)
