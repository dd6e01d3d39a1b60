"""Benchmark triangle: how the shape of the contest technology decides
whether effort discrimination raises or lowers total effort.

Three players fight over three bilateral prizes worth 5 and one joint prize
worth 72, paying a quadratic cost on total effort.  We solve the Nash
equilibrium twice per production function: once with per-battle effort
choices (discriminatory, DE) and once with a single effort level per player
(uniform, UE).
"""

from conflictnet import (
    CaraProduction,
    PiecewisePowerAffineProduction,
    PowerProduction,
    RatioProduction,
    check_semi_symmetry,
    compare_regimes,
    generate_triangle,
)

PRODUCTIONS = [
    ("x/(x+1)", RatioProduction(c=1.0)),
    ("2*sqrt(x)", PowerProduction(A=2.0, r=0.5)),
    ("1-exp(-x)", CaraProduction(alpha=1.0)),
    ("2*sqrt(x) glued to x+1", PiecewisePowerAffineProduction(A=2.0, r=0.5, s=1.0)),
]

print(f"{'production':<24}{'h curvature':<14}{'UE total':>10}  rel  {'DE total':>10}  prefer")
for label, production in PRODUCTIONS:
    structure = check_semi_symmetry(generate_triangle(production=production))
    result = compare_regimes(structure)
    relation = {"<": ">", ">": "<", "=": "="}[result.ordering]  # UE side on the left
    print(
        f"{label:<24}{result.verdict:<14}"
        f"{result.ue.total:>10.6g}   {relation}  {result.de.total:>10.6g}  "
        f"{result.recommendation}"
    )

print()
print("Convex h (ratio, exponential families): restricting players to uniform")
print("effort raises total effort, so an effort-maximizing designer forbids")
print("discrimination.  Concave h (the piecewise function): the opposite.")
print("Power functions sit exactly on the boundary: the regimes coincide.")
