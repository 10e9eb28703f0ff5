"""The paper's five evaluation applications, built by name."""

from __future__ import annotations

from typing import Any

from . import PAPER_APPS
from .base import Application
from .dnn import DNNApp
from .kmeans import KMeansApp
from .npb import BTApp, LUApp, SPApp

__all__ = ["make_paper_app"]

_FACTORIES = dict(zip(PAPER_APPS, (BTApp, SPApp, LUApp, KMeansApp, DNNApp)))


def make_paper_app(name: str, num_ranks: int = 64, **kwargs: Any) -> Application:
    """Instantiate one of the paper's five applications by name."""
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise KeyError(
            f"unknown paper app {name!r}; choose from {sorted(_FACTORIES)}"
        ) from None
    return factory(num_ranks, **kwargs)
