"""Shared fixtures: benchmark productions and random structure factories."""

import numpy as np
import pytest

from conflictnet import (
    CaraProduction,
    PiecewisePowerAffineProduction,
    PowerCost,
    PowerProduction,
    RatioProduction,
    SemiSymmetricStructure,
    check_semi_symmetry,
    generate_triangle,
)
from conflictnet import general_solver

# The four production functions exercised throughout the suite: a saturating
# ratio (convex h), a square-root power (linear h), a bounded exponential
# (convex h), and the concave piecewise benchmark 2*sqrt(x) glued to x+1.
BENCHMARK_PRODUCTIONS = {
    "ratio": RatioProduction(c=1.0),
    "power": PowerProduction(A=2.0, r=0.5),
    "cara": CaraProduction(alpha=1.0),
    "piecewise": PiecewisePowerAffineProduction(A=2.0, r=0.5, s=1.0),
}


@pytest.fixture(params=sorted(BENCHMARK_PRODUCTIONS))
def benchmark_production(request):
    return BENCHMARK_PRODUCTIONS[request.param]


def triangle_structure(production):
    """Semi-symmetric summary of the benchmark triangle for one production."""
    return check_semi_symmetry(generate_triangle(production=production))


@pytest.fixture
def triangle_structures():
    return {
        name: triangle_structure(pf) for name, pf in BENCHMARK_PRODUCTIONS.items()
    }


def _log_uniform(rng, lo, hi):
    return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))


RANDOM_PRODUCTION_FACTORIES = {
    "ratio": lambda rng: RatioProduction(c=_log_uniform(rng, 0.2, 5.0)),
    "cara": lambda rng: CaraProduction(alpha=float(rng.uniform(0.2, 2.0))),
    "power": lambda rng: PowerProduction(
        A=_log_uniform(rng, 0.2, 5.0), r=float(rng.uniform(0.05, 1.0))
    ),
    "piecewise": lambda rng: PiecewisePowerAffineProduction(
        A=_log_uniform(rng, 0.5, 3.0),
        r=float(rng.uniform(0.3, 0.95)),
        s=_log_uniform(rng, 0.2, 2.0),
    ),
}


def random_structure(rng, family, quadratic_cost=False):
    """Random semi-symmetric structure with one shared production function."""
    n_sizes = int(rng.integers(1, 4))
    sizes = tuple(sorted(rng.choice([2, 3, 4, 5, 6], size=n_sizes, replace=False)))
    sizes = tuple(int(k) for k in sizes)
    production = RANDOM_PRODUCTION_FACTORIES[family](rng)
    if quadratic_cost:
        cost = PowerCost(1.0, 2.0)
    else:
        cost = PowerCost(
            kappa=_log_uniform(rng, 0.5, 2.0), p=float(rng.uniform(1.2, 3.0))
        )
    return SemiSymmetricStructure(
        sizes=sizes,
        degrees={k: int(rng.integers(1, 4)) for k in sizes},
        prizes={k: _log_uniform(rng, 0.1, 100.0) for k in sizes},
        productions={k: production for k in sizes},
        cost=cost,
    )


@pytest.fixture
def floor_calls(monkeypatch):
    """The networks the iterative solvers compute the degenerate floor for
    during the test, one entry per computation."""
    calls = []
    floor = general_solver._degenerate_floor

    def counting(network):
        calls.append(network)
        return floor(network)

    monkeypatch.setattr(general_solver, "_degenerate_floor", counting)
    return calls
