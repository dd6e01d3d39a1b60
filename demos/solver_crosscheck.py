"""Three independent routes to the same equilibrium.

A two-player battle with prize 1, linear production, and quadratic cost has
the closed-form equilibrium (1/2, 1/2).  We recover it with the structured
semi-symmetric solver, simultaneous best-response iteration, and an exhaustive
grid search, then repeat the cross-check on the four-player simplex where no
closed form is available.
"""

import numpy as np

from conflictnet import (
    Battle,
    ConflictNetwork,
    IterationConfig,
    PowerCost,
    PowerProduction,
    RatioProduction,
    brute_force_nash,
    check_semi_symmetry,
    generate_simplex,
    solve_de,
    solve_nash_iterative,
)

single = ConflictNetwork(
    players=(1, 2),
    battles=(Battle("t", (1, 2), 1.0, PowerProduction(1.0, 1.0)),),
    cost=PowerCost(1.0, 2.0),
)

structured = solve_de(check_semi_symmetry(single))
iterated = solve_nash_iterative(single)
gridded = brute_force_nash(single, np.linspace(0.0, 1.0, 101))[0]

print("single battle, closed form x = 1/2:")
print(f"  structured solver : {structured.efforts[2]:.10f}")
print(f"  best-response iter: {iterated.profile.effort(1, 't'):.10f} "
      f"({iterated.iterations} iterations, gain {iterated.deviation_gain:.1e})")
print(f"  grid oracle       : {gridded.effort(1, 't'):.2f} (step 0.01)")

print()
print("simplex with saturating production x/(x+2):")
network = generate_simplex(production=RatioProduction(2.0))
de = solve_de(check_semi_symmetry(network))
print(f"  structured per-size efforts: "
      + ", ".join(f"size {k}: {x:.6f}" for k, x in sorted(de.efforts.items())))
print(f"  structured per-player total: {de.total:.8f}")

for seed in (0, 1, 2):
    run = solve_nash_iterative(
        network, IterationConfig(initial="random", seed=seed, tolerance=1e-9)
    )
    totals = {p: run.profile.total(p) for p in network.players}
    spread = max(totals.values()) - min(totals.values())
    print(
        f"  iteration from seed {seed}: totals within {spread:.1e} of each other, "
        f"worst vs structured {max(abs(t - de.total) for t in totals.values()):.1e}"
    )
