"""String registries behind the :class:`~repro.api.session.StressTest` facade.

Two registries live here:

* **engines** — maps names like ``"secure"`` to factories producing
  :class:`~repro.api.engines.Engine` backends;
* **programs** — maps names like ``"eisenberg-noe"`` to the vertex-program
  factory *and* the matching graph builder (each model reads a different
  slice of the :class:`~repro.finance.network.FinancialNetwork`).

Both support aliases and are open for extension: third-party backends
register themselves with :func:`register_engine` and immediately become
addressable from ``StressTest(...).engine("my-backend")`` and from batch
scenarios. Engine factories take constructor options through
:func:`get_engine` (``get_engine("async", tasks=8, transport="wan")``,
``get_engine("secure-async", backend="bitsliced")``), which is how
session and scenario engine options reach the backend; an option a
factory does not take (``get_engine("async", shards=4)``) is a
:class:`ConfigurationError` naming it. Lookup errors always list what
*is* registered, so a typo is a one-glance fix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.graph import DistributedGraph
from repro.core.program import VertexProgram
from repro.exceptions import ConfigurationError
from repro.finance.network import FinancialNetwork
from repro.mpc.fixedpoint import FixedPointFormat

__all__ = [
    "ProgramEntry",
    "register_engine",
    "get_engine",
    "available_engines",
    "register_program",
    "get_program",
    "available_programs",
]


# ------------------------------------------------------------------ engines --

#: name -> factory; aliases resolve to the canonical name first.
_ENGINE_FACTORIES: Dict[str, Callable[[], "Engine"]] = {}
_ENGINE_ALIASES: Dict[str, str] = {}


def register_engine(
    name: str,
    factory: Callable[[], "Engine"],
    aliases: Tuple[str, ...] = (),
    replace: bool = False,
) -> None:
    """Make an engine backend addressable by name (and aliases).

    All names are validated before anything is written, so a refused
    registration leaves the registry untouched; ``replace=True`` also
    evicts stale alias entries for the names being (re)registered.
    """
    if not replace:
        for candidate in (name, *aliases):
            if candidate in _ENGINE_FACTORIES or candidate in _ENGINE_ALIASES:
                raise ConfigurationError(
                    f"engine name {candidate!r} is already registered"
                )
    for candidate in (name, *aliases):
        _ENGINE_ALIASES.pop(candidate, None)
    _ENGINE_FACTORIES[name] = factory
    for alias in aliases:
        _ENGINE_ALIASES[alias] = name


def get_engine(name: str, **options) -> "Engine":
    """Instantiate the backend registered under ``name`` (or an alias).

    ``options`` are forwarded to the factory — e.g.
    ``get_engine("async", tasks=8)``. A factory that does not accept
    the given options raises a :class:`ConfigurationError` naming them.
    """
    # A directly-registered name always wins over an alias of the same
    # spelling (relevant after replace=True re-registrations).
    canonical = name if name in _ENGINE_FACTORIES else _ENGINE_ALIASES.get(name, name)
    try:
        factory = _ENGINE_FACTORIES[canonical]
    except KeyError:
        raise ConfigurationError(
            f"unknown engine {name!r}; registered engines: "
            + ", ".join(available_engines())
        ) from None
    try:
        return factory(**options)
    except TypeError as exc:
        if not options:
            raise  # a factory bug, not an option mismatch — don't mislabel it
        raise ConfigurationError(
            f"engine {name!r} rejected options {sorted(options)}: {exc}"
        ) from exc


def available_engines() -> List[str]:
    """Canonical names of all registered engine backends."""
    return sorted(_ENGINE_FACTORIES)


# ----------------------------------------------------------------- programs --


@dataclass(frozen=True)
class ProgramEntry:
    """How the facade materializes one vertex program.

    ``factory`` builds the program for a fixed-point format (so program
    and config formats always agree); ``graph_builder`` derives the
    :class:`DistributedGraph` the program runs over from a financial
    network and an optional degree bound.
    """

    name: str
    factory: Callable[[FixedPointFormat], VertexProgram]
    graph_builder: Callable[[FinancialNetwork, Optional[int]], DistributedGraph]
    description: str = ""
    aliases: Tuple[str, ...] = field(default=())


_PROGRAMS: Dict[str, ProgramEntry] = {}
_PROGRAM_ALIASES: Dict[str, str] = {}


def register_program(entry: ProgramEntry, replace: bool = False) -> None:
    """Make a vertex program addressable by name (and aliases).

    Same guarantees as :func:`register_engine`: validate-then-write, and
    ``replace=True`` evicts stale aliases for the names being registered.
    """
    if not replace:
        for candidate in (entry.name, *entry.aliases):
            if candidate in _PROGRAMS or candidate in _PROGRAM_ALIASES:
                raise ConfigurationError(
                    f"program name {candidate!r} is already registered"
                )
    for candidate in (entry.name, *entry.aliases):
        _PROGRAM_ALIASES.pop(candidate, None)
    _PROGRAMS[entry.name] = entry
    for alias in entry.aliases:
        _PROGRAM_ALIASES[alias] = entry.name


def get_program(name: str) -> ProgramEntry:
    """Look up the program entry registered under ``name`` (or an alias)."""
    canonical = name if name in _PROGRAMS else _PROGRAM_ALIASES.get(name, name)
    try:
        return _PROGRAMS[canonical]
    except KeyError:
        raise ConfigurationError(
            f"unknown program {name!r}; registered programs: "
            + ", ".join(available_programs())
        ) from None


def available_programs() -> List[str]:
    """Canonical names of all registered vertex programs."""
    return sorted(_PROGRAMS)


def _register_builtin_programs() -> None:
    from repro.finance.eisenberg_noe import EisenbergNoeProgram
    from repro.finance.elliott_golub_jackson import ElliottGolubJacksonProgram

    register_program(
        ProgramEntry(
            name="eisenberg-noe",
            factory=lambda fmt: EisenbergNoeProgram(fmt),
            graph_builder=lambda net, bound: net.to_en_graph(bound),
            description="Eisenberg-Noe clearing: total dollar shortfall (Fig. 2a)",
            aliases=("en", "eisenberg_noe"),
        )
    )
    register_program(
        ProgramEntry(
            name="elliott-golub-jackson",
            factory=lambda fmt: ElliottGolubJacksonProgram(fmt),
            graph_builder=lambda net, bound: net.to_egj_graph(bound),
            description="Elliott-Golub-Jackson equity contagion (Fig. 2b)",
            aliases=("egj", "elliott_golub_jackson"),
        )
    )


_register_builtin_programs()
