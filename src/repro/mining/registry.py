"""String-keyed registry of feature selectors.

Mirrors the search strategy registry in :mod:`repro.search.registry`: every
:class:`~repro.mining.base.FeatureSelector` subclass registers under its
``name`` attribute, and :func:`make_selector` builds one from a name plus
keyword parameters — which is exactly the ``(selector, selector_params)``
pair a serialized :class:`repro.engine.EngineConfig` stores.
"""

from __future__ import annotations

from typing import Dict, List

from ..core.errors import EngineConfigError, UnknownComponentError
from .base import FeatureSelector
from .exhaustive import ExhaustiveFeatureSelector
from .gindex import GIndexFeatureSelector
from .gspan import GSpanFeatureSelector
from .paths import PathFeatureSelector

__all__ = [
    "register_selector",
    "make_selector",
    "available_selectors",
]

_SELECTORS: Dict[str, type] = {}


def register_selector(cls: type) -> type:
    """Register a feature selector class under its ``name`` attribute."""
    _SELECTORS[cls.name] = cls
    return cls


def available_selectors() -> List[str]:
    """Return the names of all registered feature selectors."""
    return sorted(_SELECTORS)


def make_selector(name: str, **params) -> FeatureSelector:
    """Instantiate a registered feature selector by name.

    ``params`` are forwarded to the selector constructor (e.g.
    ``max_edges`` / ``min_support`` for ``"exhaustive"``).
    """
    if name not in _SELECTORS:
        raise UnknownComponentError("feature selector", name, _SELECTORS)
    try:
        return _SELECTORS[name](**params)
    except TypeError as exc:
        raise EngineConfigError(
            f"invalid parameters for selector {name!r}: {exc}"
        ) from exc


register_selector(PathFeatureSelector)
register_selector(ExhaustiveFeatureSelector)
register_selector(GSpanFeatureSelector)
register_selector(GIndexFeatureSelector)
