"""Built-in example networks.

Two canonical semi-symmetric layouts:

* ``triangle``: three players, three bilateral battles around the cycle plus
  one battle among all three.  Sizes {2, 3} with two size-2 battles and one
  size-3 battle per player.
* ``simplex``: four players on a tetrahedron, four bilateral edge battles
  (the 4-cycle, so each player sits in exactly two), the four triangular
  faces, and one battle among all four.  Sizes {2, 3, 4} with per-player
  counts (2, 3, 1).
"""

from __future__ import annotations

from .errors import UnknownExample
from .functions import PowerCost, PowerProduction, ProductionFunction
from .network import Battle, ConflictNetwork

__all__ = ["generate_triangle", "generate_simplex", "generate_example", "EXAMPLE_NAMES"]

EXAMPLE_NAMES = ("triangle", "simplex")

_DEFAULT_PRODUCTION = PowerProduction(A=1.0, r=1.0)
_COST = PowerCost(1.0, 2.0)


def generate_triangle(
    v2: float = 5.0,
    v3: float = 72.0,
    production: ProductionFunction | None = None,
) -> ConflictNetwork:
    """Three players, battles a=(1,2), b=(2,3), c=(3,1), d=(1,2,3).

    Every battle uses ``production`` (``f(x) = x`` by default) and the cost
    is ``X**2 / 2``.
    """
    pf = production if production is not None else _DEFAULT_PRODUCTION
    battles = [
        Battle("a", (1, 2), v2, pf),
        Battle("b", (2, 3), v2, pf),
        Battle("c", (3, 1), v2, pf),
        Battle("d", (1, 2, 3), v3, pf),
    ]
    return ConflictNetwork(players=(1, 2, 3), battles=tuple(battles), cost=_COST)


def generate_simplex(
    v2: float = 5.0,
    v3: float = 72.0,
    v4: float = 100.0,
    production: ProductionFunction | None = None,
) -> ConflictNetwork:
    """Four players, nine battles: 4 edges, 4 faces, 1 all-player battle.

    Production and cost default as in :func:`generate_triangle`.
    """
    pf = production if production is not None else _DEFAULT_PRODUCTION
    battles = [
        Battle("a1", (1, 2), v2, pf),
        Battle("a2", (2, 3), v2, pf),
        Battle("a3", (3, 4), v2, pf),
        Battle("a4", (4, 1), v2, pf),
        Battle("b1", (2, 3, 4), v3, pf),
        Battle("b2", (1, 3, 4), v3, pf),
        Battle("b3", (1, 2, 4), v3, pf),
        Battle("b4", (1, 2, 3), v3, pf),
        Battle("g", (1, 2, 3, 4), v4, pf),
    ]
    return ConflictNetwork(players=(1, 2, 3, 4), battles=tuple(battles), cost=_COST)


def generate_example(name: str, **overrides) -> ConflictNetwork:
    """Build a built-in example network by name with keyword overrides.

    Raises:
        UnknownExample: the name is not one of :data:`EXAMPLE_NAMES`.
    """
    if name == "triangle":
        return generate_triangle(**overrides)
    if name == "simplex":
        return generate_simplex(**overrides)
    raise UnknownExample(f"unknown example {name!r}; known: {', '.join(EXAMPLE_NAMES)}")
