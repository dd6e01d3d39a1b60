"""Seeded workloads: input generators, the timed call into the library, and
the certificate that checks each call's output.

Op ``i`` of a workload draws its inputs from ``default_rng([seed, i])``, so
it does not depend on how many ops ran before it.  Input classes rotate with
``i`` (example and family, network size, CLI command) so that every run sees
the same mix whatever its seed.  The library receives only the generated
inputs and is called through module attributes, so the traced run's wrappers
see the calls.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import conflictnet
import conflictnet.cli
import conflictnet.general_solver
import conflictnet.sweep
from conflictnet.analysis import NEUTRALITY_TOL

from certify import (
    ROUNDED_TOL,
    Family,
    GameSpec,
    kkt_problems,
    structured_problems,
)

FAMILIES = ("power", "ratio", "cara", "piecewise")
# The concave benchmark production 2 sqrt(x) glued to x + 1 at x = 1, which
# the CLI also knows as ``piecewise-f3``.
PIECEWISE_F3 = Family("piecewise", (2.0, 0.5, 1.0))

# Battle layouts of the built-in examples, restated so certificates do not
# read them back from the library: id and participants of every battle.
LAYOUTS = {
    "triangle": (("a", (1, 2)), ("b", (2, 3)), ("c", (3, 1)), ("d", (1, 2, 3))),
    "simplex": (
        ("a1", (1, 2)), ("a2", (2, 3)), ("a3", (3, 4)), ("a4", (4, 1)),
        ("b1", (2, 3, 4)), ("b2", (1, 3, 4)), ("b3", (1, 2, 4)), ("b4", (1, 2, 3)),
        ("g", (1, 2, 3, 4)),
    ),
}
DEGREES = {"triangle": {2: 2, 3: 1}, "simplex": {2: 2, 3: 3, 4: 1}}
UNIT_COST = (1.0, 2.0)


@dataclass
class Op:
    """One closed-loop request.

    ``run(scratch)`` is the timed call; ``check(result, scratch)`` returns
    ``(unit, problem)`` pairs.  A call counts as ``units`` ops (a sweep call
    writes several rows).
    """

    index: int
    units: int
    props: dict
    run: Callable[[Path], object]
    check: Callable[[object, Path], list[tuple[int, str]]]
    result_props: Callable[[object], dict] = field(default=lambda result: {})


def rng_for(seed: int, index: int) -> np.random.Generator:
    # The mask maps negative seeds to distinct non-negative entropy.
    return np.random.default_rng([seed & (2**64 - 1), index])


def log_uniform(rng, lo: float, hi: float) -> float:
    return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))


def draw_family(rng, name: str, slope: tuple[float, float] = (0.5, 2.0)) -> Family:
    """Family parameters, rounded so that CLI flags carry them exactly.

    ``slope`` bounds f'(0) of the two families where it is finite: 1/c for
    ratio, alpha for cara.
    """
    if name == "power":
        return Family("power", (1.0, round(float(rng.uniform(0.3, 0.9)), 4)))
    if name == "ratio":
        return Family("ratio", (round(1.0 / log_uniform(rng, *slope), 4),))
    if name == "cara":
        return Family("cara", (round(log_uniform(rng, *slope), 4),))
    return PIECEWISE_F3


def library_production(fam: Family) -> conflictnet.ProductionFunction:
    cls = {
        "power": conflictnet.PowerProduction,
        "ratio": conflictnet.RatioProduction,
        "cara": conflictnet.CaraProduction,
        "piecewise": conflictnet.PiecewisePowerAffineProduction,
    }[fam.name]
    return cls(*fam.params)


def family_flag(fam: Family) -> str:
    if fam == PIECEWISE_F3:
        return "piecewise-f3"
    return f"{fam.name}:" + ",".join(repr(p) for p in fam.params)


# Parameter names and library family name of each family, as network JSON
# and reports spell them.
PARAM_NAMES = {"power": ("A", "r"), "ratio": ("c",), "cara": ("alpha",),
               "piecewise": ("A", "r", "s")}
SPEC_NAMES = {"power": "power", "ratio": "ratio", "cara": "cara",
              "piecewise": "piecewise_power_affine"}


def family_spec(fam: Family) -> dict:
    return {"family": SPEC_NAMES[fam.name],
            "params": dict(zip(PARAM_NAMES[fam.name], fam.params))}


def spec_family(spec: dict) -> Family:
    """Inverse of :func:`family_spec`, for productions read from a report."""
    name = next(k for k, v in SPEC_NAMES.items() if v == spec["family"])
    return Family(name, tuple(float(spec["params"][p]) for p in PARAM_NAMES[name]))


def draw_prizes(rng, example: str) -> dict[int, float]:
    return {k: round(log_uniform(rng, 1.0, 100.0), 3) for k in DEGREES[example]}


def _one_unit(problems: list[str]) -> list[tuple[int, str]]:
    return [(0, p) for p in problems]


# ---------------------------------------------------------------------------
# prize-sweep
# ---------------------------------------------------------------------------

SWEEP_STEPS = (5, 4)  # v2 x v3 grid: 20 rows per sweep call


def sweep_op(seed: int, index: int) -> Op:
    """One ``run_sweep`` call over a v2 x v3 prize grid.

    Example and family rotate through all eight combinations.  Each axis
    starts at 10^U(-2, 1) and spans 1 to 3 decades, so small prizes push the
    bracket expansion far below its starting point.
    """
    rng = rng_for(seed, index)
    example = ("triangle", "simplex")[(index // 4) % 2]
    fam = draw_family(rng, FAMILIES[index % 4])
    base_prizes = draw_prizes(rng, example)
    axes = []
    for size, steps in zip((2, 3), SWEEP_STEPS):
        lo = 10 ** float(rng.uniform(-2.0, 1.0))
        hi = lo * 10 ** float(rng.uniform(1.0, 3.0))
        axes.append(conflictnet.SweepAxis(f"v{size}", lo, hi, steps))
    network = conflictnet.generate_example(
        example, production=library_production(fam),
        **{f"v{k}": v for k, v in base_prizes.items()},
    )
    spec = conflictnet.SweepSpec(
        base=conflictnet.check_semi_symmetry(network), axes=tuple(axes)
    )
    grid = [(float(a), float(b)) for a in axes[0].values() for b in axes[1].values()]

    def run(scratch: Path) -> int:
        return conflictnet.sweep.run_sweep(spec, scratch / "sweep.csv")

    def check(written, scratch: Path) -> list[tuple[int, str]]:
        with open(scratch / "sweep.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        problems = []
        if written != len(grid):
            problems.append((len(grid) - 1, f"run_sweep reported {written} rows"))
        for unit, point in enumerate(grid):
            if unit >= len(rows):
                problems.append((unit, f"row missing for prizes {point}"))
                continue
            row = rows[unit]
            got = (float(row["v2"]), float(row["v3"]))
            if got != point:
                problems.append((unit, f"row prizes {got} != grid point {point}"))
                continue
            prizes = {**base_prizes, 2: point[0], 3: point[1]}
            for msg in structured_problems(
                DEGREES[example], prizes, {k: fam for k in prizes}, UNIT_COST,
                float(row["X_de"]), float(row["X_ue"]), neutrality_tol=NEUTRALITY_TOL,
            ):
                problems.append((unit, f"prizes {prizes}: {msg}"))
        return problems

    props = {
        "example": example, "family": fam.name, "params": list(fam.params),
        "v2": [axes[0].minimum, axes[0].maximum], "v3": [axes[1].minimum, axes[1].maximum],
        "rows": len(grid),
    }
    return Op(index, len(grid), props, run, check)


# ---------------------------------------------------------------------------
# iterative-random
# ---------------------------------------------------------------------------

ITERATIVE_SIZES = ((5, 12), (8, 20), (10, 30))  # players x battles, in rotation
# The piecewise family is left out here; see random_game.
GAME_FAMILIES = ("power", "ratio", "cara")
GAME_SLOPE = (4.0, 16.0)  # f'(0) range of ratio and cara battles


def random_game(rng, n_players: int, n_battles: int) -> GameSpec:
    """A network that is not semi-symmetric.

    Battle sizes are 2 to 4, each battle draws its own family, and prizes are
    log-uniform, so some size class always holds two distinct prizes.  The
    input ranges keep ops solvable, because a benchmark op must not fail:

    * power exponents stay at or below 0.9; closer to 1 the inner bracket
      search can exhaust its 200 halvings on small targets and raise
      ``BracketFailure``;
    * ratio and cara have f'(0) in [4, 16] and prizes lie in [10, 100]; with
      f'(0) near 1 and prizes from 1, damped best response cycled until its
      iteration cap on about 1.5% of networks, mostly where a prize near 1
      leaves some battle with near-zero efforts; with f'(0) in [4, 16] this
      still happened on about 1 network in 2,000;
    * no piecewise battles: with prizes in [10, 100], efforts settle near its
      kink at 1, and damped best response cycled on 2 of 1,268 networks.
    """
    players = tuple(range(1, n_players + 1))
    members = []
    for _ in range(n_battles):
        k = int(rng.integers(2, 5))
        members.append([int(p) for p in rng.choice(players, size=k, replace=False)])
    # Seat every idle player in place of a participant who attends elsewhere.
    for p in players:
        if any(p in m for m in members):
            continue
        while True:
            j = int(rng.integers(n_battles))
            slot = int(rng.integers(len(members[j])))
            q = members[j][slot]
            if sum(q in m for m in members) > 1:
                members[j][slot] = p
                break
    battles = tuple(
        (f"b{j}", tuple(m), round(log_uniform(rng, 10.0, 100.0), 4),
         draw_family(rng, GAME_FAMILIES[int(rng.integers(len(GAME_FAMILIES)))],
                     slope=GAME_SLOPE))
        for j, m in enumerate(members)
    )
    return GameSpec(players, battles, (1.0, float(rng.choice([2.0, 3.0]))))


def library_network(game: GameSpec) -> conflictnet.ConflictNetwork:
    return conflictnet.ConflictNetwork(
        players=game.players,
        battles=tuple(
            conflictnet.Battle(bid, m, prize, library_production(fam))
            for bid, m, prize, fam in game.battles
        ),
        cost=conflictnet.PowerCost(*game.cost),
    )


# Converging networks here need at most a few hundred iterations; the cap
# keeps a network that does not converge from outlasting the run (the
# library's default of 10,000 takes about two minutes).  It then fails.
ITERATION_CAP = 1000


def iterative_op(seed: int, index: int) -> Op:
    """One random network solved under both regimes, as ``--regime both``."""
    n_players, n_battles = ITERATIVE_SIZES[index % len(ITERATIVE_SIZES)]
    game = random_game(rng_for(seed, index), n_players, n_battles)
    network = library_network(game)
    cfg = conflictnet.IterationConfig(max_iterations=ITERATION_CAP)

    def run(scratch: Path):
        solver = conflictnet.general_solver
        return (solver.solve_nash_iterative(network, cfg),
                solver.solve_nash_ue_iterative(network, cfg))

    def check(outcomes, scratch: Path) -> list[tuple[int, str]]:
        problems = []
        for regime, outcome in zip(("de", "ue"), outcomes):
            if not outcome.converged:
                problems.append(f"{regime}: not converged after {outcome.iterations} iterations")
            for msg in kkt_problems(game, outcome.profile.efforts, uniform=regime == "ue"):
                problems.append(f"{regime}: {msg}")
        return _one_unit(problems)

    families = [fam.name for _, _, _, fam in game.battles]
    props = {
        "players": n_players, "battles": n_battles,
        "slots": sum(len(m) for _, m, _, _ in game.battles),
        "families": {name: families.count(name) for name in FAMILIES},
        "cost_p": game.cost[1],
    }

    def result_props(outcomes) -> dict:
        return {"iterations": [o.iterations for o in outcomes]}

    return Op(index, 1, props, run, check, result_props)


# ---------------------------------------------------------------------------
# cli-oneshot
# ---------------------------------------------------------------------------

# The triangle with f = x/(x+1) and the default prizes 5 and 72.
REFERENCE_ARGV = ["--example", "triangle", "--f", "ratio:1"]
REFERENCE_TOTALS = {"de": "2.68415", "ue": "3.03304"}


@dataclass(frozen=True)
class InputFile:
    """A network JSON written during set-up, with what it contains."""

    path: Path
    example: str
    family: Family
    prizes: dict[int, float]


def network_doc(example: str, fam: Family, prizes: dict[int, float]) -> dict:
    return {
        "players": sorted({p for _, m in LAYOUTS[example] for p in m}),
        "cost": {"family": "power", "params": {"kappa": 1.0, "p": 2.0}},
        "battles": [
            {"id": bid, "participants": list(m), "prize": prizes[len(m)],
             "production": family_spec(fam)}
            for bid, m in LAYOUTS[example]
        ],
    }


def write_inputs(seed: int, directory: Path) -> list[InputFile]:
    """One network file per example and family, with seeded prizes."""
    rng = rng_for(seed, 2**40)  # a stream apart from every op's
    files = []
    for example in LAYOUTS:
        for name in FAMILIES:
            fam = draw_family(rng, name)
            prizes = draw_prizes(rng, example)
            path = directory / f"{example}-{name}.json"
            path.write_text(json.dumps(network_doc(example, fam, prizes)), encoding="utf-8")
            files.append(InputFile(path, example, fam, prizes))
    return files


def _report(scratch: Path) -> str:
    return (scratch / "report").read_text(encoding="utf-8")


def _structured(example, fam, prizes, x_de, x_ue, tol=None, ordering=True):
    kwargs = {} if tol is None else {"tol": tol}
    return structured_problems(
        DEGREES[example], prizes, {k: fam for k in prizes}, UNIT_COST, x_de, x_ue,
        neutrality_tol=NEUTRALITY_TOL if ordering else None, **kwargs,
    )


def _network_args(rng, template_input: bool, example: str, fam: Family, inputs, family_index):
    """Either ``--input FILE`` or ``--example NAME --f FLAG --v PRIZES``."""
    if template_input:
        source = next(f for f in inputs if f.example == example
                      and f.family.name == FAMILIES[family_index])
        return ["--input", str(source.path)], source.family, source.prizes
    prizes = draw_prizes(rng, example)
    argv = ["--example", example, "--f", family_flag(fam),
            "--v", ",".join(repr(prizes[k]) for k in sorted(prizes))]
    return argv, fam, prizes


def cli_op(seed: int, index: int, inputs: list[InputFile]) -> Op:
    """One in-process ``conflictnet.cli.main(argv)`` call writing ``--output``.

    Twelve command templates rotate with the op index and the family rotates
    once per round, so every template meets every family.
    """
    rng = rng_for(seed, index)
    template = index % len(CLI_TEMPLATES)
    family_index = (index // len(CLI_TEMPLATES) + template) % len(FAMILIES)
    fam = draw_family(rng, FAMILIES[family_index])
    command, example, use_input, kind = CLI_TEMPLATES[template]
    problems_of: Callable[[Path], list[str]]

    if kind == "reference":
        argv = list(REFERENCE_ARGV)
        fam, prizes = Family("ratio", (1.0,)), {2: 5.0, 3: 72.0}
    elif kind == "tullock":
        r2, r3 = (round(float(rng.uniform(0.3, 1.0)), 4) for _ in range(2))
        argv = ["--example", example, "--tullock", f"r2={r2!r},r3={r3!r}"]
        prizes = {2: 5.0, 3: 72.0}
    elif kind == "iterative":
        prizes = draw_prizes(rng, example)
        argv = ["--example", example, "--f", family_flag(fam), "--method", "iterative",
                "--v", ",".join(repr(prizes[k]) for k in sorted(prizes))]
    else:
        argv, fam, prizes = _network_args(rng, use_input, example, fam, inputs, family_index)

    if kind in ("reference", "solve"):
        def problems_of(scratch):
            report = json.loads(_report(scratch))
            x_de, x_ue = report["de"]["total"], report["ue"]["total"]
            problems = _structured(example, fam, prizes, x_de, x_ue)
            if kind == "reference":
                got = {"de": f"{x_de:.6g}", "ue": f"{x_ue:.6g}"}
                if got != REFERENCE_TOTALS:
                    problems.append(f"reference totals {got} != {REFERENCE_TOTALS}")
            return problems
    elif kind == "iterative":
        def problems_of(scratch):
            report = json.loads(_report(scratch))
            game = GameSpec(
                tuple(sorted({p for _, m in LAYOUTS[example] for p in m})),
                tuple((bid, m, prizes[len(m)], fam) for bid, m in LAYOUTS[example]),
                UNIT_COST,
            )
            problems = []
            for regime in ("de", "ue"):
                part = report[regime]
                if part["converged"] is not True:
                    problems.append(f"{regime}: not converged")
                efforts = {(int(p), bid): x for p, row in part["efforts"].items()
                           for bid, x in row.items()}
                problems += [f"{regime}: {m}" for m in
                             kkt_problems(game, efforts, uniform=regime == "ue")]
            return problems
    elif kind in ("json", "tullock"):
        def problems_of(scratch):
            report = json.loads(_report(scratch))
            structure = report["structure"]
            got_prizes = {int(k): v for k, v in structure["prizes"].items()}
            families = {
                int(k): spec_family(spec) for k, spec in structure["productions"].items()
            }
            problems = structured_problems(
                {int(k): d for k, d in structure["degrees"].items()}, got_prizes,
                families, UNIT_COST, report["X_de"], report["X_ue"],
                neutrality_tol=NEUTRALITY_TOL,
            )
            if got_prizes != prizes:
                problems.append(f"report prizes {got_prizes} != input {prizes}")
            if kind == "tullock" and (report["ordering"], report["consistent"]) != ("=", True):
                problems.append(f"power sizes but ordering {report['ordering']!r}, "
                                f"consistent {report['consistent']!r}")
            return problems
    elif kind in ("md", "csv"):
        def problems_of(scratch):
            text = _report(scratch)
            if kind == "md":
                cells = [c.strip() for c in text.splitlines()[2].strip("|").split("|")]
                x_ue, x_de = float(cells[2]), float(cells[4])
            else:
                # The f label is written unquoted and holds commas for
                # multi-parameter families, so the row is read from the right.
                header, row = text.splitlines()
                names = header.split(",")
                cells = dict(zip(names, row.rsplit(",", len(names) - 1)))
                x_ue, x_de = float(cells["X_ue"]), float(cells["X_de"])
            return _structured(example, fam, prizes, x_de, x_ue, tol=ROUNDED_TOL,
                               ordering=False)
    elif kind == "neutrality":
        grid_seed = int(rng.integers(2**31))
        argv += ["--grid", f"random:20:seed={grid_seed}"]

        def problems_of(scratch):
            report = json.loads(_report(scratch))
            problems = []
            if report["neutral"] != (fam.h_shape == "linear"):
                problems.append(f"neutral={report['neutral']} for {fam.name}")
            if report["neutral"] != (report["max_gap"] <= NEUTRALITY_TOL):
                problems.append(f"neutral={report['neutral']} but max_gap {report['max_gap']}")
            worst = report["worst"]
            worst_prizes = {int(k): v for k, v in worst["prizes"].items()}
            problems += _structured(example, fam, worst_prizes, worst["X_de"], worst["X_ue"])
            return problems
    else:  # validate
        def problems_of(scratch):
            report = json.loads(_report(scratch))
            expected = {"valid": True, "errors": [], "semi_symmetric": True,
                        "degrees": {str(k): d for k, d in DEGREES[example].items()}}
            got = {key: report.get(key) for key in expected}
            return [] if got == expected else [f"validate report {got} != {expected}"]

    argv = [command] + argv
    if kind in ("json", "md", "csv", "tullock"):
        argv += ["--format", "json" if kind == "tullock" else kind]

    def run(scratch: Path) -> int:
        return conflictnet.cli.main(argv + ["--output", str(scratch / "report")])

    def check(code, scratch: Path) -> list[tuple[int, str]]:
        if code != 0:
            return [(0, f"exit code {code}")]
        try:
            return _one_unit(problems_of(scratch))
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            return [(0, f"report unreadable: {exc!r}")]

    props = {"argv": argv, "template": template, "example": example,
             "family": fam.name, "input": use_input}
    return Op(index, 1, props, run, check)


# command, example, network given as --input, certificate kind
CLI_TEMPLATES = (
    ("solve", "triangle", False, "reference"),
    ("solve", "simplex", False, "solve"),
    ("solve", "triangle", True, "solve"),
    ("compare", "triangle", False, "json"),
    ("compare", "simplex", True, "md"),
    ("compare", "simplex", False, "csv"),
    ("neutrality", "triangle", False, "neutrality"),
    ("neutrality", "simplex", True, "neutrality"),
    ("validate", "simplex", True, "validate"),
    ("compare", "triangle", False, "tullock"),
    ("solve", "triangle", False, "iterative"),
    ("compare", "triangle", True, "json"),
)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

class Workload:
    """A named op stream plus the size of the traced run's fixed block."""

    def __init__(self, name: str, seed: int, workdir: Path):
        self.name = name
        self.seed = seed
        self.workdir = workdir
        self.inputs: list[InputFile] = []

    def setup(self) -> None:
        if self.name == "cli-oneshot":
            directory = self.workdir / "inputs"
            directory.mkdir()
            self.inputs = write_inputs(self.seed, directory)

    def op(self, index: int) -> Op:
        if self.name == "prize-sweep":
            return sweep_op(self.seed, index)
        if self.name == "iterative-random":
            return iterative_op(self.seed, index)
        return cli_op(self.seed, index, self.inputs)

    @property
    def trace_block(self) -> int:
        """Calls in the traced run: a rotation of examples and families, of
        network sizes, or two rounds of the CLI templates."""
        return {"prize-sweep": 8, "iterative-random": 3, "cli-oneshot": 24}[self.name]


WORKLOADS = ("prize-sweep", "iterative-random", "cli-oneshot")
