"""String-keyed registry of search strategies.

Every :class:`~repro.search.strategy.SearchStrategy` subclass registers
under its ``name`` attribute and is instantiable through
:func:`make_strategy` with the uniform ``(database, measure, index=None)``
shape.  This is what lets
:class:`repro.engine.Engine` pick its strategy from a declarative config,
and lets callers swap PIS for a baseline with a single string.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..core.database import GraphDatabase
from ..core.distance import DistanceMeasure
from ..core.errors import EngineConfigError, UnknownComponentError
from ..index.fragment_index import FragmentIndex
from .baselines import ExactTopoPruneSearch, NaiveSearch, TopoPruneSearch
from .pis import PISearch
from .strategy import SearchStrategy

__all__ = [
    "register_strategy",
    "make_strategy",
    "available_strategies",
    "strategy_class",
]

_STRATEGIES: Dict[str, type] = {}


def register_strategy(cls: type) -> type:
    """Register a strategy class under its ``name`` attribute."""
    _STRATEGIES[cls.name] = cls
    return cls


def strategy_class(name: str) -> type:
    """Return the registered strategy class for ``name`` (without building it).

    Lets callers inspect a strategy class — e.g. :class:`repro.engine.Engine`
    asks whether a strategy plans (has ``execute_plan``) before building it.
    """
    if name not in _STRATEGIES:
        raise UnknownComponentError("search strategy", name, _STRATEGIES)
    return _STRATEGIES[name]


def available_strategies() -> List[str]:
    """Return the names of all registered search strategies."""
    return sorted(_STRATEGIES)


def make_strategy(
    name: str,
    database: GraphDatabase,
    measure: Optional[DistanceMeasure] = None,
    index: Optional[FragmentIndex] = None,
    **params,
) -> SearchStrategy:
    """Instantiate a registered search strategy by name.

    ``params`` are forwarded to the strategy constructor (e.g. ``epsilon``
    or ``partition_method`` for ``"pis"``).  Strategies whose
    ``requires_index`` flag is set reject a missing ``index`` with a clear
    configuration error instead of failing deep inside the constructor.
    """
    if name not in _STRATEGIES:
        raise UnknownComponentError("search strategy", name, _STRATEGIES)
    cls = _STRATEGIES[name]
    if cls.requires_index and index is None:
        raise EngineConfigError(
            f"strategy {name!r} requires a built fragment index"
        )
    try:
        return cls(database, measure=measure, index=index, **params)
    except TypeError as exc:
        raise EngineConfigError(
            f"invalid parameters for strategy {name!r}: {exc}"
        ) from exc


register_strategy(NaiveSearch)
register_strategy(TopoPruneSearch)
register_strategy(ExactTopoPruneSearch)
register_strategy(PISearch)
