"""Command-line front end.

Subcommands: ``solve``, ``compare``, ``neutrality``, ``sweep``, ``validate``,
``examples``.  Networks come from a JSON file (``--input``) or a built-in
example (``--example``), optionally overridden by ``--f`` (common production
function), ``--tullock`` (per-size power exponents), and ``--v`` (per-size
prizes in ascending size order).  One reader, ``_network``, takes these
values from the flags and from a sweep spec's keys alike; an empty value or
two sources for one thing is an input error.  Reports are JSON with sorted
keys and full float precision; markdown and CSV renderings round to 6
significant figures.

A call does its fixed work once.  ``main`` parses the arguments after the
command word with that command's own parser, so a parse error prints the
command's usage (``conflictnet solve: error: ...``); the top-level parser
runs only when the first argument is not a command.  Each built-in example
is built once per process and shared, as networks are frozen; a call's
overrides go into one copy.

Exit codes: 0 success, 1 input error (including an output path that cannot
be written), 2 solver failure (bracket failure, NaN evaluation,
non-convergence, or an arithmetic error such as an overflow inside a solve).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from .analysis import ComparisonReport, compare_regimes, neutrality_check
from .equilibrium import DEResult, UEResult, solve_de, solve_ue
from .errors import BracketFailure, ConflictNetError, NoConvergence, NonFiniteEvaluation
from .functions import (
    _PRODUCTION_FAMILIES,
    PowerProduction,
    ProductionFunction,
    production_from_spec,
)
from .general_solver import IterationConfig, SolveOutcome, solve_nash_iterative, solve_nash_ue_iterative
from .generators import EXAMPLE_NAMES, generate_example
from .io import (
    SchemaViolation,
    dumps_sorted,
    load_network,
    network_to_dict,
    reject_nonfinite_constant,
)
from .network import (
    Battle,
    ConflictNetwork,
    NotSemiSymmetric,
    SemiSymmetricStructure,
    check_semi_symmetry,
)
from .sweep import DEFAULT_MAX_GRID, SweepAxis, SweepSpec, run_sweep

__all__ = ["main", "parse_production_flag"]

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NOCONVERGE = 2

# Solver failures on valid input; every other error main catches is an input
# error.  Input parsing turns its own overflows into input errors, so an
# ArithmeticError that reaches main comes from a solve.
_SOLVER_FAILURES = (BracketFailure, NonFiniteEvaluation, NoConvergence, ArithmeticError)

# Points of a random neutrality grid drawn by one call of the generator.
_GRID_CHUNK = 1024

# Shorthand for the concave piecewise benchmark production (power branch
# 2*sqrt(x) glued to x+1 at the breakpoint 1).
_NAMED_PRODUCTIONS = {"piecewise-f3": "piecewise:2,0.5,1"}
_FAMILY_ALIASES = {"piecewise": "piecewise_power_affine"}


# Networks are frozen, so one build of each example serves every call of a
# process; ``_network`` applies a call's overrides in a copy.
_example = functools.cache(generate_example)


class InputError(Exception):
    """User input problem; rendered to stderr with exit code 1."""


def parse_production_flag(text: str) -> ProductionFunction:
    """Parse ``family:params`` flags such as ``power:2,0.5`` or ``ratio:1``.

    Parameters are positional, in the order of the family's constructor:
    ``power:A,r``, ``ratio:c``, ``cara:alpha`` and ``piecewise:A,r,s``.
    """
    text = _NAMED_PRODUCTIONS.get(text, text)
    family, _, raw = text.partition(":")
    family = _FAMILY_ALIASES.get(family, family)
    if family not in _PRODUCTION_FAMILIES:
        known = [*_PRODUCTION_FAMILIES, *_FAMILY_ALIASES, *_NAMED_PRODUCTIONS]
        raise InputError(f"unknown production family {family!r} ({', '.join(known)})")
    names = [f.name for f in fields(_PRODUCTION_FAMILIES[family])]
    values = raw.split(",") if raw else []
    if len(values) != len(names):
        raise InputError(
            f"bad production spec {text!r}: {family} takes parameters "
            f"{','.join(names)}, got {len(values)} values"
        )
    try:
        return production_from_spec({"family": family, "params": dict(zip(names, values))})
    except ValueError as exc:
        raise InputError(f"bad production spec {text!r}: {exc}") from None


def _parse_tullock_flag(text: str) -> dict[int, ProductionFunction]:
    productions = {}
    for piece in text.split(","):
        name, _, value = piece.partition("=")
        if not (name.startswith("r") and name[1:].isdigit() and value):
            raise InputError(f"bad --tullock entry {piece!r}; expected like r2=0.5")
        size = int(name[1:])
        if size in productions:
            raise InputError(f"bad --tullock entry {piece!r}: size {size} is already set")
        try:
            productions[size] = PowerProduction(A=1.0, r=float(value))
        except ValueError as exc:
            raise InputError(f"bad --tullock entry {piece!r}: {exc}") from None
    return productions


def _parse_prizes_flag(text: str) -> list[float]:
    try:
        return [float(p) for p in text.split(",")]
    except ValueError:
        raise InputError(f"bad prize list {text!r}") from None


def _network(
    path: str | None,
    example: str | None,
    f: str | None,
    tullock: str | None,
    prizes: list[float] | None,
) -> ConflictNetwork:
    """The network at ``path`` or ``example``, its productions set by ``f``
    or ``tullock`` and its per-size prizes by ``prizes``, ascending by size.

    ``None`` means not given.  Every given value is used, so an empty one,
    or a pair of which one would be dropped, is an input error.
    """
    for flag, value in (("--input", path), ("--f", f), ("--tullock", tullock)):
        if value == "":
            raise InputError(f"{flag} is empty")
    if path is not None and example is not None:
        raise InputError("--input and --example both name the network; give one")
    if f is not None and tullock is not None:
        raise InputError("--f and --tullock both set the production functions; give one")
    if path is not None:
        try:
            network = load_network(path)
        except (OSError, json.JSONDecodeError) as exc:
            raise InputError(f"cannot read network {path}: {exc}") from None
    elif example is not None:
        network = _example(example)
    else:
        raise InputError("need --input PATH or --example NAME")

    if f is None and tullock is None and prizes is None:
        return network
    sizes = sorted({b.size for b in network.battles})
    if prizes is not None and len(prizes) != len(sizes):
        raise InputError(f"prizes {prizes} do not match battle sizes {sizes}")
    prize_by_size = dict(zip(sizes, prizes or ()))
    production = None if f is None else parse_production_flag(f)
    per_size = None if tullock is None else _parse_tullock_flag(tullock)
    if per_size is not None and sorted(per_size) != sizes:
        raise InputError(
            f"--tullock sets sizes {sorted(per_size)} but the network has battle sizes {sizes}"
        )
    battles = []
    for b in network.battles:
        pf = per_size[b.size] if per_size is not None else production or b.production
        battles.append(Battle(b.id, b.participants, prize_by_size.get(b.size, b.prize), pf))
    return ConflictNetwork(network.players, tuple(battles), network.cost)


def _flag_network(args) -> ConflictNetwork:
    prizes = None if args.prizes is None else _parse_prizes_flag(args.prizes)
    return _network(args.input, args.example, args.production, args.tullock, prizes)


def _write_report(text: str, output: str | None) -> None:
    if output is not None:
        Path(output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Report rendering
# ---------------------------------------------------------------------------

def _result_dict(result: DEResult | UEResult) -> dict:
    """Every field of a structured solve's result; a per-size map is keyed
    by the size's text, in size order."""
    report = {}
    for field in fields(result):
        value = getattr(result, field.name)
        report[field.name] = (
            {str(k): v for k, v in sorted(value.items())} if isinstance(value, dict) else value
        )
    return report


def _outcome_dict(outcome: SolveOutcome, network: ConflictNetwork) -> dict:
    return {
        "converged": outcome.converged,
        "iterations": outcome.iterations,
        "deviation_gain": outcome.deviation_gain,
        "degenerate_battles": list(outcome.degenerate_battles),
        "totals": {str(p): outcome.profile.total(p) for p in network.players},
        "efforts": {
            str(p): {
                b.id: outcome.profile.effort(p, b.id) for b in network.battles_of(p)
            }
            for p in network.players
        },
    }


def _production_label(structure: SemiSymmetricStructure) -> str:
    """The table's ``f`` column: the shared production, or ``per-size``."""
    common = structure.common_production()
    if common is None:
        return "per-size"
    spec = common.to_spec()
    params = ",".join(f"{v:.6g}" for v in spec["params"].values())
    return f"{spec['family']}({params})"


def _ue_side_relation(ordering: str) -> str:
    # The table puts the UE total left of the DE total, so the stored
    # DE-versus-UE ordering flips.
    return {"<": ">", ">": "<", "=": "="}[ordering]


def _compare_markdown(report: ComparisonReport) -> str:
    lines = [
        "| f | h curvature | UE total | | DE total |",
        "|---|---|---|---|---|",
        f"| {_production_label(report.structure)} | {report.verdict} "
        f"| {report.ue.total:.6g} | {_ue_side_relation(report.ordering)} "
        f"| {report.de.total:.6g} |",
    ]
    return "\n".join(lines) + "\n"


def _compare_csv(report: ComparisonReport) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["f", "curvature", "X_ue", "ordering", "X_de", "payoff_ue",
                     "payoff_de", "consistent", "recommendation"])
    writer.writerow(
        [
            _production_label(report.structure),
            report.verdict,
            f"{report.ue.total:.6g}",
            report.ordering,
            f"{report.de.total:.6g}",
            f"{report.ue.payoff:.6g}",
            f"{report.de.payoff:.6g}",
            str(report.theorem_consistent),
            str(report.recommendation),
        ]
    )
    return out.getvalue()


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_solve(args) -> int:
    network = _flag_network(args)
    regimes = ("de", "ue") if args.regime == "both" else (args.regime,)

    structure = None
    if args.method != "iterative":
        try:
            structure = check_semi_symmetry(network)
        except NotSemiSymmetric:
            if args.method == "semisymmetric":
                raise
    method = "iterative" if structure is None else "semisymmetric"

    report: dict = {"method": method, "regime": args.regime}
    exit_code = EXIT_OK
    if method == "semisymmetric":
        if "de" in regimes:
            report["de"] = _result_dict(solve_de(structure))
        if "ue" in regimes:
            report["ue"] = _result_dict(solve_ue(structure))
    else:
        iter_cfg = IterationConfig(
            initial="random" if args.seed is not None else "symmetric", seed=args.seed
        )
        if "de" in regimes:
            outcome = solve_nash_iterative(network, iter_cfg)
            report["de"] = _outcome_dict(outcome, network)
            if not outcome.converged:
                exit_code = EXIT_NOCONVERGE
        if "ue" in regimes:
            outcome = solve_nash_ue_iterative(network, iter_cfg)
            report["ue"] = _outcome_dict(outcome, network)
            if not outcome.converged:
                exit_code = EXIT_NOCONVERGE

    _write_report(dumps_sorted(report), args.output)
    return exit_code


def _cmd_compare(args) -> int:
    structure = check_semi_symmetry(_flag_network(args))
    report = compare_regimes(structure)
    if args.format == "md":
        text = _compare_markdown(report)
    elif args.format == "csv":
        text = _compare_csv(report)
    else:
        text = dumps_sorted(report.to_dict())
    _write_report(text, args.output)
    return EXIT_OK


def _parse_grid_flag(text: str, sizes: tuple[int, ...]):
    """The prize vectors of ``--grid``, each in ascending size order.

    ``explicit:`` points are read now; ``neutrality_check`` checks their
    sizes.  ``random:N[:seed=S]`` is checked now and drawn ``_GRID_CHUNK``
    points at a time as it is consumed, log-uniform on [0.1, 100] per size.
    """
    kind, _, rest = text.partition(":")
    if kind == "explicit":
        return [_parse_prizes_flag(chunk) for chunk in rest.split(";") if chunk]
    if kind == "random":
        count_text, _, seed_text = rest.partition(":")
        label, _, seed_value = seed_text.partition("=")
        try:
            count = int(count_text)
            seed = int(seed_value if label == "seed" else "") if seed_text else None
            rng = np.random.default_rng(seed)  # ValueError for a negative seed
        except ValueError:
            raise InputError(f"bad random grid {text!r}; use random:N[:seed=S]") from None
        if count < 1:
            raise InputError("random grid needs a positive count")
        if count > DEFAULT_MAX_GRID:
            raise InputError(f"random grid has {count} points, cap is {DEFAULT_MAX_GRID}")
        lo, hi = np.log(0.1), np.log(100.0)
        chunks = ((min(_GRID_CHUNK, count - i), len(sizes)) for i in range(0, count, _GRID_CHUNK))
        return (point for shape in chunks for point in np.exp(rng.uniform(lo, hi, shape)).tolist())
    raise InputError(f"unknown grid spec {text!r}; use explicit:... or random:N[:seed=S]")


def _cmd_neutrality(args) -> int:
    structure = check_semi_symmetry(_flag_network(args))
    grid = _parse_grid_flag(args.grid, structure.sizes)
    report = neutrality_check(structure, grid)
    _write_report(dumps_sorted(report.to_dict()), args.output)
    return EXIT_OK


_SWEEP_FIELD_TYPES = {
    "network": str, "example": str, "f": str, "tullock": str, "output": str,
    "v": list, "axes": list,
}


_AXIS_KEYS = ("param", "min", "max", "steps")


def _sweep_axis(axis) -> SweepAxis:
    if not isinstance(axis, dict) or set(axis) != set(_AXIS_KEYS):
        raise ValueError(f"expected an object with keys {list(_AXIS_KEYS)}, got {axis!r}")
    return SweepAxis(*(axis[key] for key in _AXIS_KEYS))


def _cmd_sweep(args) -> int:
    try:
        doc = json.loads(
            Path(args.spec).read_text(encoding="utf-8"),
            parse_constant=reject_nonfinite_constant,
        )
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read sweep spec {args.spec}: {exc}") from None
    if not isinstance(doc, dict):
        raise InputError("sweep spec must be a JSON object")
    unknown = [key for key in doc if key not in _SWEEP_FIELD_TYPES]
    if unknown:
        raise InputError(
            f"sweep spec got unknown fields {unknown}; known: {sorted(_SWEEP_FIELD_TYPES)}"
        )
    for key, kind in _SWEEP_FIELD_TYPES.items():
        value = doc.get(key)
        if key in doc and (isinstance(value, bool) or not isinstance(value, kind)):
            raise InputError(f"sweep spec field {key!r} must be {kind.__name__}, got {value!r}")

    prizes = doc.get("v")
    for i, value in enumerate(prizes or ()):
        # Past the float range, float() of a JSON integer raises OverflowError.
        number = isinstance(value, (int, float)) and not isinstance(value, bool)
        if not (number and abs(value) <= sys.float_info.max):
            raise InputError(f"sweep spec 'v' entry #{i} must be a finite number, got {value!r}")
    base = check_semi_symmetry(_network(
        doc.get("network"), doc.get("example"), doc.get("f"), doc.get("tullock"),
        None if prizes is None else [float(value) for value in prizes],
    ))

    axes = []
    for i, axis in enumerate(doc.get("axes", [])):
        try:
            axes.append(_sweep_axis(axis))
        except ValueError as exc:
            raise InputError(f"bad sweep axis #{i}: {exc}") from None

    output = doc.get("output") if args.output is None else args.output
    if not output:
        raise InputError("sweep needs an output path (spec 'output' or --output)")
    spec = SweepSpec(base=base, axes=tuple(axes))
    written = run_sweep(spec, output)
    print(f"{written} rows written to {output} ({spec.grid_size} grid points)")
    return EXIT_OK


def _cmd_validate(args) -> int:
    if args.input is not None and args.path is not None:
        raise InputError("validate got PATH and --input; give one")
    path = args.path if args.input is None else args.input
    if not path:
        raise InputError("validate needs a network JSON path")
    report: dict = {"valid": True, "errors": []}
    try:
        network = load_network(path)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read network {path}: {exc}") from None
    except SchemaViolation as exc:
        report["valid"] = False
        report["errors"].append(str(exc))
        _write_report(dumps_sorted(report), args.output)
        return EXIT_INPUT

    try:
        structure = check_semi_symmetry(network)
    except NotSemiSymmetric as exc:
        report["semi_symmetric"] = False
        report["violations"] = list(exc.violations)
    else:
        report["semi_symmetric"] = True
        report["sizes"] = list(structure.sizes)
        report["degrees"] = {str(k): structure.degrees[k] for k in structure.sizes}
    _write_report(dumps_sorted(report), args.output)
    return EXIT_OK


def _cmd_examples(args) -> int:
    if not args.name:
        _write_report("\n".join(EXAMPLE_NAMES) + "\n", args.output)
        return EXIT_OK
    _write_report(dumps_sorted(network_to_dict(_example(args.name))), args.output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_network_flags(sub) -> None:
    sub.add_argument("--input", help="network JSON path")
    sub.add_argument("--example", choices=EXAMPLE_NAMES, help="built-in example")
    sub.add_argument(
        "--f", dest="production",
        help="common production function, e.g. power:2,0.5 ratio:1 cara:1 piecewise-f3",
    )
    sub.add_argument(
        "--tullock",
        help="per-size power exponents, e.g. r2=1,r3=0.5 (A fixed at 1)",
    )
    sub.add_argument(
        "--v", dest="prizes", help="per-size prizes in ascending size order, e.g. 5,72"
    )
    sub.add_argument("--output", help="write the report here instead of stdout")


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and each command's subparser by name, built on
    first use and then reused: parsing leaves them unchanged and returns a
    fresh namespace on every call."""
    parser = argparse.ArgumentParser(
        prog="conflictnet",
        description="Equilibria of multi-battle conflict networks under "
        "discriminatory and uniform effort regimes.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    solve = subs.add_parser("solve", help="solve one network")
    _add_network_flags(solve)
    solve.add_argument("--regime", choices=("de", "ue", "both"), default="both")
    solve.add_argument(
        "--method", choices=("auto", "semisymmetric", "iterative"), default="auto"
    )
    solve.add_argument(
        "--seed", type=int,
        help="start iterative solves from a random profile drawn with this seed",
    )

    compare = subs.add_parser("compare", help="compare the two regimes")
    _add_network_flags(compare)
    compare.add_argument("--format", choices=("json", "md", "csv"), default="json")

    neutrality = subs.add_parser("neutrality", help="test regime neutrality on a prize grid")
    _add_network_flags(neutrality)
    neutrality.add_argument(
        "--grid", required=True,
        help="prize grid: explicit:5,72[;10,20] or random:100[:seed=7]",
    )

    sweep = subs.add_parser("sweep", help="run a parameter sweep to CSV")
    sweep.add_argument("spec", help="sweep spec JSON path")
    sweep.add_argument("--output", help="CSV output path (overrides the spec)")

    validate = subs.add_parser("validate", help="validate a network JSON file")
    validate.add_argument("path", nargs="?", help="network JSON path")
    validate.add_argument("--input", help="network JSON path")
    validate.add_argument("--output", help="write the report here instead of stdout")

    examples = subs.add_parser("examples", help="list or emit built-in examples")
    examples.add_argument("--name", choices=EXAMPLE_NAMES, help="emit this example's JSON")
    examples.add_argument("--output", help="write the network here instead of stdout")

    return parser, subs.choices


def build_parser() -> argparse.ArgumentParser:
    """The top-level CLI parser, which reaches each command through its subparser."""
    return _parsers()[0]


_COMMANDS = {
    "solve": _cmd_solve,
    "compare": _cmd_compare,
    "neutrality": _cmd_neutrality,
    "sweep": _cmd_sweep,
    "validate": _cmd_validate,
    "examples": _cmd_examples,
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, commands = _parsers()
    command = argv[0] if argv else None
    try:
        if command in commands:
            args = commands[command].parse_args(argv[1:])
        else:
            args = parser.parse_args(argv)
            command = args.command
    except SystemExit as exc:
        return EXIT_OK if exc.code == 0 else EXIT_INPUT
    try:
        return _COMMANDS[command](args)
    except (InputError, ConflictNetError, ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOCONVERGE if isinstance(exc, _SOLVER_FAILURES) else EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
