"""CLI subcommands, exit codes, report formats, and the sweep harness."""

import csv
import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import conflictnet.analysis
import conflictnet.cli
import conflictnet.sweep
from conflictnet import (
    BracketFailure,
    ConflictNetwork,
    NoConvergence,
    NonFiniteEvaluation,
    PowerCost,
    PowerProduction,
    SchemaViolation,
    check_semi_symmetry,
    dump_network,
    generate_simplex,
    generate_triangle,
    network_from_dict,
    network_to_dict,
)
from conflictnet.cli import main
from conflictnet.io import dumps_sorted
from conflictnet.sweep import SweepAxis, SweepSpec, run_sweep


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def test_solve_triangle_ratio_both_regimes(capsys):
    report = run_json(
        capsys, "solve", "--example", "triangle", "--f", "ratio:1", "--regime", "both"
    )
    assert report["method"] == "semisymmetric"
    assert report["ue"]["total"] == pytest.approx(3.03304, rel=1e-4)
    assert report["de"]["total"] == pytest.approx(2.68415, rel=1e-4)


def test_solve_simplex_linear_tullock_regimes_coincide(capsys):
    report = run_json(
        capsys,
        "solve", "--example", "simplex",
        "--tullock", "r2=1,r3=1,r4=1",
        "--v", "5,5,72",
    )
    de, ue = report["de"]["total"], report["ue"]["total"]
    assert de == pytest.approx(ue, rel=1e-8)
    assert de == pytest.approx(math.sqrt(5 / 4 * 2 + 5 * 2 / 9 * 3 + 72 * 3 / 16), rel=1e-8)


def test_solve_tullock_triangle_at_prizes_near_the_float_floor(capsys):
    report = run_json(
        capsys, "solve", "--example", "triangle", "--f", "power:1,1", "--v", "1e-300,1e-300"
    )
    de, ue = report["de"]["total"], report["ue"]["total"]
    assert de == pytest.approx(ue, rel=1e-9, abs=0.0)
    assert de == pytest.approx(8.49837e-151, rel=1e-5, abs=0.0)


def _reject_constant(token):
    raise AssertionError(f"non-finite JSON number {token}")


@pytest.mark.parametrize("family", ["ratio:1", "power:1,1", "cara:1", "piecewise:2,0.5,1"])
def test_solve_with_underflowing_size2_target_reports_the_corner(capsys, family):
    # The size-2 target is 1e-300 / (4 C'(mu)) at the root mu.
    code, out, err = run_cli(
        capsys, "solve", "--example", "triangle", "--f", family, "--v", "1e-300,1e300"
    )
    assert code == 0, err
    de = json.loads(out, parse_constant=_reject_constant)["de"]
    assert de["efforts"]["3"] > 0
    assert de["efforts"]["2"] >= 0
    if not family.startswith("cara"):
        # Here mu is 1e99 or more, so the target underflows to 0.  Under
        # cara, h grows exponentially, mu stays near 683 and the target is
        # still a float.
        assert de["efforts"]["2"] == 0.0
        assert de["residuals"]["2"] == 0.0


@pytest.mark.parametrize("family", ["power:1,1", "piecewise:2,0.5,1"])
def test_compare_samples_curvature_away_from_a_corner_effort(capsys, family):
    code, out, err = run_cli(
        capsys, "compare", "--example", "triangle", "--f", family, "--v", "1e-300,1e300"
    )
    assert code == 0, err
    report = json.loads(out, parse_constant=_reject_constant)
    assert report["ordering"] == "=" and report["consistent"] is True


@pytest.mark.parametrize("prizes", ["1e300,3e300", "1e-300,1e300"])
def test_compare_ratio_past_the_overflow_of_its_derivatives(capsys, prizes):
    # Efforts near 1e100 put (x + c)^3 and (x + c)^4 beyond the float range.
    code, out, err = run_cli(
        capsys, "compare", "--example", "triangle", "--f", "ratio:1", "--v", prizes
    )
    assert code == 0, err
    report = json.loads(out, parse_constant=_reject_constant)
    assert report["verdict"] == "convex" and report["consistent"] is True


def test_solve_rejects_empty_battle_list(tmp_path, capsys):
    doc = network_to_dict(generate_triangle())
    doc["battles"] = []
    path = tmp_path / "net.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "solve", "--input", str(path))
    assert code == 1
    assert "/battles" in err


@pytest.mark.parametrize("failure", [BracketFailure, NonFiniteEvaluation, NoConvergence])
def test_solver_failures_exit_with_code_two(capsys, monkeypatch, failure):
    def fail(*args, **kwargs):
        raise failure("forced")

    monkeypatch.setattr(conflictnet.cli, "solve_de", fail)
    code, _, err = run_cli(capsys, "solve", "--example", "triangle", "--regime", "de")
    assert code == 2
    assert "forced" in err


def test_power_battle_with_a_subnormal_exponent_solves(tmp_path, capsys):
    # Battle d's f'(x) = A r x**(r - 1) at a subnormal effort overflowed in
    # x**(r - 1), and the OverflowError's errno text was the error message.
    doc = network_to_dict(generate_triangle(production=PowerProduction(A=1.0, r=1.0)))
    for battle in doc["battles"]:
        if battle["id"] == "d":
            battle["production"] = {"family": "power", "params": {"A": 1.0, "r": 1e-320}}
    path = tmp_path / "net.json"
    path.write_text(json.dumps(doc))
    for command in ("solve", "compare"):
        code, _, err = run_cli(capsys, command, "--input", str(path))
        assert code == 0, err
        # The piecewise family's slope is the same power at its kink.
        code, _, err = run_cli(
            capsys, command, "--example", "triangle", "--f", "piecewise:1,1e-320,1e-320")
        assert code == 0, err
    # The iterative engine meets its g_inv Newton cap instead: a named failure.
    code, _, err = run_cli(capsys, "solve", "--input", str(path), "--method", "iterative")
    assert code == 2
    assert "Newton steps" in err and "out of range" not in err


@pytest.mark.parametrize(
    "example,flag", [("triangle", "cara:1"), ("simplex", "ratio:1")]
)
def test_solve_iterative_method_agrees_with_auto(capsys, example, flag):
    auto = run_json(
        capsys, "solve", "--example", example, "--f", flag, "--regime", "de"
    )
    forced = run_json(
        capsys,
        "solve", "--example", example, "--f", flag,
        "--regime", "de", "--method", "iterative",
    )
    assert auto["method"] == "semisymmetric"
    assert forced["method"] == "iterative"
    assert forced["de"]["converged"] is True
    for total in forced["de"]["totals"].values():
        assert total == pytest.approx(auto["de"]["total"], rel=1e-6)


def test_solve_falls_back_to_iterative_for_asymmetric_networks(tmp_path, capsys):
    doc = network_to_dict(generate_triangle(production=None))
    doc["battles"][0]["prize"] = 6.0  # break the size-2 prize class
    path = tmp_path / "net.json"
    path.write_text(json.dumps(doc))
    report = run_json(capsys, "solve", "--input", str(path), "--regime", "de")
    assert report["method"] == "iterative"
    assert report["de"]["converged"] is True
    code, _, err = run_cli(
        capsys, "solve", "--input", str(path), "--method", "semisymmetric"
    )
    assert code == 1
    assert "not semi-symmetric" in err


def test_solve_reports_are_deterministic(capsys):
    args = ("solve", "--example", "triangle", "--f", "power:2,0.5")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_serialization_round_trip_solves_identically(tmp_path, capsys):
    network = generate_simplex(production=None)
    doc = network_to_dict(network)
    assert network_from_dict(json.loads(dumps_sorted(doc))) == network
    path = tmp_path / "simplex.json"
    path.write_text(dumps_sorted(doc))
    from_file = run_json(capsys, "solve", "--input", str(path))
    builtin = run_json(capsys, "solve", "--example", "simplex")
    assert from_file == builtin


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

def test_compare_markdown_power_row(capsys):
    code, out, _ = run_cli(
        capsys,
        "compare", "--example", "triangle", "--f", "power:2,0.5", "--format", "md",
    )
    assert code == 0
    row = out.strip().splitlines()[-1]
    assert "linear" in row
    assert row.count("3.04138") == 2
    assert " = " in row


def test_compare_markdown_piecewise_row(capsys):
    code, out, _ = run_cli(
        capsys,
        "compare", "--example", "triangle", "--f", "piecewise-f3", "--format", "md",
    )
    assert code == 0
    row = out.strip().splitlines()[-1]
    assert "concave" in row
    assert "3.05522" in row and "3.6833" in row
    assert " < " in row  # UE total on the left is the smaller one


def test_compare_cara_json(capsys):
    report = run_json(
        capsys, "compare", "--example", "triangle", "--f", "cara:1"
    )
    assert report["verdict"] == "convex"
    assert report["X_de"] <= report["X_ue"]
    assert report["consistent"] is True
    assert report["recommendation"] == "ue"


def test_compare_payoff_gap_is_relative_to_the_prizes_at_large_scale(capsys):
    # Payoffs are of the order of the prizes (1e24), the totals of 1e12; a
    # payoff gap over the total read one ulp of payoff as 1e-4.
    report = run_json(
        capsys, "compare", "--example", "simplex", "--f", "piecewise:2,0.5,1",
        "--v", "5e22,7.2e23,1e24",
    )
    assert report["consistent"] is True
    assert report["gaps"][1] <= 1e-12


def test_compare_csv_format(capsys):
    code, out, _ = run_cli(
        capsys,
        "compare", "--example", "triangle", "--f", "ratio:1", "--format", "csv",
    )
    assert code == 0
    header, row = out.strip().splitlines()
    assert header.startswith("f,curvature,X_ue")
    cells = row.split(",")
    assert cells[1] == "convex"
    assert cells[3] == "<"


@pytest.mark.parametrize("flag,label", [
    ("power:2,0.5", "power(2,0.5)"),
    ("piecewise-f3", "piecewise_power_affine(2,0.5,1)"),
])
def test_compare_csv_quotes_labels_with_commas(capsys, flag, label):
    code, out, _ = run_cli(
        capsys, "compare", "--example", "triangle", "--f", flag, "--format", "csv",
    )
    assert code == 0
    header, row = list(csv.reader(out.splitlines()))
    assert len(header) == len(row) == 9
    assert row[0] == label


# ---------------------------------------------------------------------------
# neutrality
# ---------------------------------------------------------------------------

def test_neutrality_power_random_grid(capsys):
    report = run_json(
        capsys,
        "neutrality", "--example", "triangle", "--f", "power:1,0.7",
        "--grid", "random:100:seed=7",
    )
    assert report["neutral"] is True
    assert report["max_gap"] <= 1e-6
    assert report["grid_size"] == 100


def test_neutrality_ratio_explicit_counterexample(capsys):
    report = run_json(
        capsys,
        "neutrality", "--example", "triangle", "--f", "ratio:1",
        "--grid", "explicit:5,72",
    )
    assert report["neutral"] is False
    assert report["max_gap"] == pytest.approx(0.115, abs=5e-3)
    assert report["worst"]["prizes"] == {"2": 5.0, "3": 72.0}


def test_neutrality_power_holds_at_small_prizes(capsys):
    report = run_json(
        capsys,
        "neutrality", "--example", "triangle", "--f", "power:1,0.5",
        "--grid", "explicit:1e-22,1e-22",
    )
    assert report["neutral"] is True
    assert report["max_gap"] <= 1e-9


def test_neutrality_empty_grid_is_an_input_error(capsys):
    code, _, err = run_cli(
        capsys,
        "neutrality", "--example", "triangle", "--f", "ratio:1",
        "--grid", "explicit:",
    )
    assert code == 1
    assert "empty" in err


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def write_spec(tmp_path, spec):
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(spec))
    return path


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_sweep_prize_axis_stays_neutral_for_power(tmp_path, capsys):
    out = tmp_path / "out.csv"
    spec = write_spec(
        tmp_path,
        {
            "example": "triangle",
            "f": "power:2,0.5",
            "axes": [{"param": "v3", "min": 10, "max": 100, "steps": 10}],
            "output": str(out),
        },
    )
    code, stdout, err = run_cli(capsys, "sweep", str(spec))
    assert code == 0, err
    rows = read_rows(out)
    assert len(rows) == 10
    assert [float(r["v3"]) for r in rows] == pytest.approx(list(range(10, 101, 10)))
    assert all(float(r["gap"]) <= 1e-6 for r in rows)


def test_sweep_exponent_axis_matches_closed_form(tmp_path, capsys):
    net_doc = {
        "players": [1, 2],
        "cost": {"family": "power", "params": {"kappa": 1, "p": 2}},
        "battles": [
            {
                "id": "t",
                "participants": [1, 2],
                "prize": 1.0,
                "production": {"family": "power", "params": {"A": 1, "r": 1}},
            }
        ],
    }
    net_path = tmp_path / "single.json"
    net_path.write_text(json.dumps(net_doc))
    out = tmp_path / "out.csv"
    spec = write_spec(
        tmp_path,
        {
            "network": str(net_path),
            "axes": [{"param": "r", "min": 0.1, "max": 1.0, "steps": 10}],
            "output": str(out),
        },
    )
    code, _, err = run_cli(capsys, "sweep", str(spec))
    assert code == 0, err
    for row in read_rows(out):
        r = float(row["r"])
        assert float(row["X_de"]) == pytest.approx(math.sqrt(r / 4.0), rel=1e-8)


def test_sweep_zero_axes_is_an_input_error(tmp_path, capsys):
    spec = write_spec(
        tmp_path, {"example": "triangle", "axes": [], "output": "x.csv"}
    )
    code, _, err = run_cli(capsys, "sweep", str(spec))
    assert code == 1
    assert "at least one axis" in err


def test_sweep_resumes_from_partial_output(tmp_path, capsys):
    out = tmp_path / "out.csv"
    spec = write_spec(
        tmp_path,
        {
            "example": "triangle",
            "f": "power:1,1",
            "axes": [{"param": "v2", "min": 1, "max": 5, "steps": 5}],
            "output": str(out),
        },
    )
    code, _, _ = run_cli(capsys, "sweep", str(spec))
    assert code == 0
    full = out.read_text().splitlines()
    assert len(full) == 6

    # Truncate to the first two data rows, rerun, and expect completion.
    out.write_text("\n".join(full[:3]) + "\n")
    code, stdout, _ = run_cli(capsys, "sweep", str(spec))
    assert code == 0
    assert "3 rows written" in stdout
    resumed = read_rows(out)
    assert [float(r["v2"]) for r in resumed] == pytest.approx([1, 2, 3, 4, 5])

    # A third run has nothing left to do.
    code, stdout, _ = run_cli(capsys, "sweep", str(spec))
    assert code == 0
    assert "0 rows written" in stdout


def _triangle_v3_sweep(tmp_path, f):
    return write_spec(
        tmp_path,
        {
            "example": "triangle",
            "f": f,
            "axes": [{"param": "v3", "min": 10, "max": 100, "steps": 3}],
            "output": str(tmp_path / "out.csv"),
        },
    )


def test_sweep_rerun_on_another_base_is_an_input_error(tmp_path, capsys):
    out = tmp_path / "out.csv"
    code, stdout, _ = run_cli(capsys, "sweep", str(_triangle_v3_sweep(tmp_path, "power:1,0.5")))
    assert code == 0 and "3 rows written" in stdout
    before = out.read_bytes()
    code, stdout, err = run_cli(capsys, "sweep", str(_triangle_v3_sweep(tmp_path, "ratio:1")))
    assert code == 1 and stdout == ""
    assert "written for another base" in err
    assert out.read_bytes() == before


@pytest.mark.parametrize(
    "text",
    [
        "v3,X_de,X_ue,payoff_de,payoff_ue,gap\nten,1.0,1.0,0.0,0.0,0.0\n",
        "v3,X_de,X_ue,payoff_de,payoff_ue,gap\n10.0,1.0\n",
        "v3,X_de,X_ue,payoff_de,payoff_ue,gap\nnan,1.0,1.0,0.0,0.0,0.0\n",
        "v3,X_de,X_ue,payoff_de,payoff_ue\n10.0,1.0,1.0,0.0,0.0\n",
    ],
    ids=["bad-axis-cell", "short-row", "nan-axis-cell", "no-gap-column"],
)
def test_sweep_rerun_on_an_unreadable_output_is_an_input_error(tmp_path, capsys, text):
    out = tmp_path / "out.csv"
    out.write_text(text)
    code, _, err = run_cli(capsys, "sweep", str(_triangle_v3_sweep(tmp_path, "power:1,0.5")))
    assert code == 1
    assert err.startswith("error: existing output") and "Traceback" not in err
    assert out.read_text() == text


def test_sweep_grid_cap(tmp_path, capsys):
    # The grid size is a product of step counts, so nothing is enumerated.
    spec = write_spec(
        tmp_path,
        {
            "example": "triangle",
            "axes": [
                {"param": "v2", "min": 1, "max": 5, "steps": 1001},
                {"param": "v3", "min": 1, "max": 5, "steps": 1000},
            ],
            "output": str(tmp_path / "out.csv"),
        },
    )
    code, _, err = run_cli(capsys, "sweep", str(spec))
    assert code == 1
    assert "1001000 points, cap is 1000000" in err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("bounds,steps,message", [
    pytest.param((1.0, math.inf), 3, "range must be finite", id="bounds0"),
    pytest.param((-math.inf, 1.0), 3, "range must be finite", id="bounds1"),
    pytest.param((math.nan, 1.0), 3, "range must be finite", id="bounds2"),
    # The library rejects what the CLI's field checks reject before it.
    pytest.param((True, 2.0), 3, r"range must be numbers, got \(True, 2.0\)", id="min-bool"),
    pytest.param((0.5, True), 3, r"range must be numbers, got \(0.5, True\)", id="max-bool"),
    pytest.param(("1", 2.0), 3, "range must be numbers", id="min-string"),
    pytest.param((1.0, 2.0), 2.5, "steps must be an int, got 2.5", id="steps-float"),
    pytest.param((1.0, 2.0), 2.0, "steps must be an int, got 2.0", id="steps-integral-float"),
    pytest.param((1.0, 2.0), True, "steps must be an int, got True", id="steps-bool"),
    pytest.param((1.0, 2.0), 0, "needs at least 1 step", id="steps-zero"),
])
def test_sweep_axis_rejects_non_finite_bounds(bounds, steps, message):
    with pytest.raises(ValueError, match=f"axis 'v2' {message}"):
        SweepAxis("v2", *bounds, steps)


def test_sweep_axis_parameter_must_be_a_string():
    with pytest.raises(ValueError, match="axis parameter must be a string, got 5"):
        SweepAxis(5, 1.0, 2.0, 3)


@pytest.mark.parametrize("bounds,steps", [
    ((2.0, 2.0), 1), ((1.0, 10.0), 1), ((1.0, 10.0), 2), ((0.1, 0.7), 5),
    ((1e-3, 7.3), 1000), ((-9.5, -0.25), 5), ((-3.0, 7.1), 1000), ((-1.0, 1.0), 2),
    ((1e-300, 1e300), 5), ((1e-300, 1e300), 1000), ((0.0, 5e-324), 3),
])
def test_sweep_axis_values_are_numpys_linspace(bounds, steps):
    values = SweepAxis("v2", *bounds, steps).values()
    assert all(type(v) is float for v in values)
    assert [v.hex() for v in values] == [
        v.hex() for v in np.linspace(*bounds, steps).tolist()]


def test_sweep_axis_overflowing_to_infinity_is_an_input_error(tmp_path, capsys):
    # 1e400 is valid JSON but parses to float('inf').
    path = tmp_path / "sweep.json"
    path.write_text(
        '{"example": "triangle", "output": "%s", '
        '"axes": [{"param": "v2", "min": 1, "max": 1e400, "steps": 3}]}'
        % (tmp_path / "out.csv")
    )
    code, _, err = run_cli(capsys, "sweep", str(path))
    assert code == 1
    assert err.startswith("error: bad sweep axis #0") and "'v2'" in err
    assert not (tmp_path / "out.csv").exists()


# ---------------------------------------------------------------------------
# validate / examples
# ---------------------------------------------------------------------------

def test_validate_accepts_builtin_example(tmp_path, capsys):
    path = tmp_path / "tri.json"
    code, _, _ = run_cli(capsys, "examples", "--name", "triangle", "--output", str(path))
    assert code == 0
    report = run_json(capsys, "validate", str(path))
    assert report["valid"] is True
    assert report["semi_symmetric"] is True
    assert report["degrees"] == {"2": 2, "3": 1}


def _triangle_with_production(tmp_path, production):
    doc = network_to_dict(generate_triangle())
    for battle in doc["battles"]:
        battle["production"] = production
    path = tmp_path / "net.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize("alpha", [8.0, 20.0])
def test_validate_accepts_cara_whose_f_prime_underflows_where_h_overflows(
    tmp_path, capsys, alpha
):
    # At x = 100, f' = alpha exp(-100 alpha) underflows to 0, but h = f / f'
    # has already overflowed there.
    path = _triangle_with_production(tmp_path, {"family": "cara", "params": {"alpha": alpha}})
    report = run_json(capsys, "validate", str(path))
    assert report["valid"] is True, report["errors"]


@pytest.mark.parametrize("production", [
    {"family": "cara", "params": {"alpha": 1e6}},
    {"family": "cara", "params": {"alpha": 1e300}},
    {"family": "power", "params": {"A": 1e308, "r": 0.5}},
], ids=["cara-alpha-1e6", "cara-alpha-1e300", "power-A-1e308"])
def test_validate_accepts_every_production_the_solvers_solve(tmp_path, capsys, production):
    # Each family's constructor rejects parameters outside its domain, so a
    # network that loads has admissible productions, whatever their scale.
    path = _triangle_with_production(tmp_path, production)
    report = run_json(capsys, "validate", str(path))
    assert (report["valid"], report["errors"], report["semi_symmetric"]) == (True, [], True)
    for command in ("solve", "compare"):
        run_json(capsys, command, "--input", str(path))


def test_validate_reports_schema_pointer(tmp_path, capsys):
    doc = network_to_dict(generate_triangle())
    doc["battles"][0]["prize"] = -1
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "validate", str(path))
    assert code == 1
    report = json.loads(out)
    assert report["valid"] is False
    assert any("/battles/0/prize" in e for e in report["errors"])


@pytest.mark.parametrize("constant", ["Infinity", "-Infinity", "NaN"])
def test_non_finite_json_numbers_are_input_errors(tmp_path, capsys, constant):
    # json.dumps writes float("Infinity") as the bare token Infinity.
    doc = network_to_dict(generate_triangle())
    doc["battles"][0]["prize"] = float(constant)
    path = tmp_path / "net.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "solve", "--input", str(path))
    assert code == 1
    assert "non-finite" in err
    code, out, _ = run_cli(capsys, "validate", str(path))
    assert code == 1
    assert json.loads(out)["valid"] is False

    spec = write_spec(
        tmp_path, {"example": "triangle", "v": [float(constant), 1], "output": "x.csv"}
    )
    code, _, err = run_cli(capsys, "sweep", str(spec))
    assert code == 1
    assert "non-finite" in err


def test_examples_lists_names(capsys):
    code, out, _ = run_cli(capsys, "examples")
    assert code == 0
    assert out.split() == ["triangle", "simplex"]


def test_examples_emits_loadable_network(capsys):
    code, out, _ = run_cli(capsys, "examples", "--name", "simplex")
    assert code == 0
    network = network_from_dict(json.loads(out))
    assert len(network.battles) == 9


def test_unknown_flags_are_input_errors(capsys):
    code, _, _ = run_cli(capsys, "solve", "--example", "triangle", "--bogus")
    assert code == 1


def test_missing_network_source_is_an_input_error(capsys):
    code, _, err = run_cli(capsys, "solve")
    assert code == 1
    assert "--input" in err or "--example" in err


def test_schema_violation_carries_pointer():
    with pytest.raises(SchemaViolation) as info:
        network_from_dict({"players": [1, 2], "cost": {}, "battles": []})
    assert info.value.pointer.startswith("/")


def test_bad_production_parameters_point_at_their_battle():
    doc = network_to_dict(generate_triangle())
    doc["battles"][1]["production"] = {"family": "power", "params": {"A": 1, "r": 1.5}}
    with pytest.raises(SchemaViolation) as info:
        network_from_dict(doc)
    assert info.value.pointer == "/battles/1/production"
    assert "(0, 1]" in str(info.value)


_DROP = object()


def _set(path, value):
    """Mutation of a triangle document: put ``value`` at ``path``, or delete it."""
    def mutate(doc):
        node = doc
        for part in path[:-1]:
            node = node[part]
        if value is _DROP:
            del node[path[-1]]
        else:
            node[path[-1]] = value
        return doc
    return mutate


@pytest.mark.parametrize("mutate,pointer", [
    (lambda doc: [doc], "/"),
    (_set(("players",), _DROP), "/"),
    (_set(("extra",), 1), "/"),
    (_set(("players",), "1,2,3"), "/players"),
    (_set(("players", 1), True), "/players/1"),
    (_set(("players", 0), 1.5), "/players/0"),
    (_set(("cost",), []), "/cost"),
    (_set(("cost", "params"), _DROP), "/cost"),
    (_set(("cost", "family"), 1), "/cost/family"),
    (_set(("cost", "params"), [1, 2]), "/cost/params"),
    (_set(("cost", "params", "kappa"), None), "/cost/params/kappa"),
    (_set(("battles",), {}), "/battles"),
    (_set(("battles", 2), "c"), "/battles/2"),
    (_set(("battles", 1, "extra"), 1), "/battles/1"),
    (_set(("battles", 0, "id"), 7), "/battles/0/id"),
    (_set(("battles", 0, "participants"), 1), "/battles/0/participants"),
    (_set(("battles", 0, "participants", 1), None), "/battles/0/participants/1"),
    (_set(("battles", 0, "prize"), "5"), "/battles/0/prize"),
    (_set(("battles", 0, "prize"), False), "/battles/0/prize"),
    (_set(("battles", 0, "prize"), 10**400), "/battles/0/prize"),
    (_set(("battles", 0, "prize"), 1e400), "/battles/0/prize"),
    (_set(("battles", 3, "production", "extra"), 1), "/battles/3/production"),
    (_set(("battles", 3, "production", "params", "A"), "inf"), "/battles/3/production/params/A"),
    (_set(("battles", 3, "production", "params", "r"), True), "/battles/3/production/params/r"),
], ids=[
    "doc-not-object", "doc-missing-key", "doc-extra-key", "players-not-list",
    "player-id-bool", "player-id-fraction", "cost-not-object", "cost-missing-key",
    "family-not-string", "params-not-object", "param-null", "battles-not-list",
    "battle-not-object", "battle-extra-key", "battle-id-not-string",
    "participants-not-list", "participant-id-null", "prize-string", "prize-bool",
    "prize-int-too-large", "prize-infinite", "production-extra-key", "param-string",
    "param-bool",
])
def test_shape_violations_carry_the_pointer_of_the_bad_part(mutate, pointer):
    doc = mutate(network_to_dict(generate_triangle()))
    with pytest.raises(SchemaViolation) as info:
        network_from_dict(doc)
    assert info.value.pointer == pointer


def test_integral_float_player_ids_still_load():
    doc = network_to_dict(generate_triangle())
    doc["players"] = [1.0, 2, 3]
    assert network_from_dict(doc).players == (1.0, 2, 3)


@pytest.mark.parametrize("ids", [[1, "1", 2], [1.0, "1.0", 2]], ids=["int", "float"])
def test_player_ids_with_the_same_text_are_input_errors(tmp_path, capsys, ids):
    # Reports key players by str(id); one player's efforts would replace
    # the other's.
    doc = {
        "players": ids,
        "cost": PowerCost().to_spec(),
        "battles": [
            {"id": bid, "participants": pair, "prize": 5.0,
             "production": {"family": "power", "params": {"A": 1.0, "r": 1.0}}}
            for bid, pair in (("a", ids[:2]), ("b", ids[1:]), ("c", [ids[2], ids[0]]))
        ],
    }
    path = tmp_path / "net.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "report.json"
    code, stdout, err = run_cli(
        capsys, "solve", "--input", str(path), "--method", "iterative", "--regime", "de",
        "--output", str(out),
    )
    assert code == 1
    assert stdout == "" and err.startswith("error: at /players/1:")
    assert not out.exists()
    code, stdout, _ = run_cli(capsys, "validate", str(path))
    assert code == 1
    report = json.loads(stdout)
    assert report["valid"] is False
    assert report["errors"][0].startswith("at /players/1:")


@pytest.mark.parametrize("value", ["null", "1e400"])
def test_validate_reports_bad_parameters_as_invalid(tmp_path, capsys, value):
    text = json.dumps(network_to_dict(generate_triangle())).replace(
        '"kappa": 1.0', f'"kappa": {value}'
    )
    path = tmp_path / "net.json"
    path.write_text(text)
    code, out, _ = run_cli(capsys, "validate", str(path))
    assert code == 1
    report = json.loads(out)
    assert report["valid"] is False
    assert "/cost" in report["errors"][0]


@pytest.mark.parametrize("argv", [
    ("solve", "--v", "inf,1"),
    ("solve", "--f", "ratio:inf"),
    ("solve", "--f", "power:inf,0.5"),
    ("neutrality", "--grid", "explicit:inf,1"),
], ids=lambda argv: " ".join(argv[1:]))
def test_non_finite_flags_are_input_errors(capsys, argv):
    command, *flags = argv
    code, _, err = run_cli(capsys, command, "--example", "triangle", *flags)
    assert code == 1
    assert err.startswith("error:")


@pytest.mark.parametrize("field,value", [
    ("parallelism", None), ("parallelism", "2"), ("v", 5), ("f", 5), ("axes", 5),
])
def test_sweep_spec_fields_of_the_wrong_type_are_input_errors(tmp_path, capsys, field, value):
    spec = {
        "example": "triangle",
        "axes": [{"param": "v2", "min": 1, "max": 5, "steps": 5}],
        "output": str(tmp_path / "out.csv"),
        field: value,
    }
    code, _, err = run_cli(capsys, "sweep", str(write_spec(tmp_path, spec)))
    assert code == 1
    assert err.startswith("error:") and repr(field) in err


def test_misspelled_sweep_spec_fields_are_input_errors(tmp_path, capsys):
    out = tmp_path / "out.csv"
    spec = {
        "example": "triangle",
        "f": "ratio:1",
        "tulock": "r2=0.5,r3=0.5",
        "axes": [{"param": "v2", "min": 1, "max": 5, "steps": 5}],
        "output": str(out),
    }
    code, _, err = run_cli(capsys, "sweep", str(write_spec(tmp_path, spec)))
    assert code == 1
    assert err.startswith("error:") and "'tulock'" in err
    assert not out.exists()


@pytest.mark.parametrize("command,flags", [
    ("compare", ()), ("neutrality", ("--grid", "random:3:seed=5")),
])
def test_seed_is_a_solve_flag_only(capsys, command, flags):
    code, _, err = run_cli(
        capsys, command, "--example", "triangle", "--f", "ratio:1", "--seed", "5", *flags
    )
    assert code == 1
    assert "--seed" in err
    report = run_json(
        capsys, "solve", "--example", "triangle", "--f", "ratio:1",
        "--method", "iterative", "--seed", "5",
    )
    assert report["de"]["converged"] is True


@pytest.mark.parametrize("command,flags", [
    ("solve", ("--tol", "1e-7")),
    ("compare", ("--f", "power:1,0.5", "--v", "3,40,90", "--tol", "1e-2")),
    ("neutrality", ("--f", "power:1,0.5", "--grid", "random:50:seed=3", "--tol", "1e-3")),
], ids=["solve", "compare", "neutrality"])
def test_no_subcommand_takes_tol(tmp_path, capsys, command, flags):
    # A loose tolerance once made compare and neutrality report the Tullock
    # neutrality theorem false; every structured solve stops at the root
    # finder's own tolerance.
    out = tmp_path / "report.json"
    code, stdout, err = run_cli(
        capsys, command, "--example", "simplex", *flags, "--output", str(out)
    )
    assert code == 1
    assert stdout == ""
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1 and "--tol" in errors[0]
    assert not out.exists()


_CONFLICTING_PRODUCTIONS = {
    "f-and-tullock": {"f": "ratio:1", "tullock": "r2=0.5,r3=0.5"},
    "tullock-size-missing-from-network": {"tullock": "r2=0.5,r3=0.5,r9=1"},
    "tullock-misses-a-network-size": {"tullock": "r2=0.5"},
    "tullock-size-twice": {"tullock": "r2=0.5,r2=0.7,r3=1"},
}


@pytest.mark.parametrize("flags", _CONFLICTING_PRODUCTIONS.values(),
                         ids=_CONFLICTING_PRODUCTIONS.keys())
def test_production_flags_that_would_be_dropped_are_input_errors(capsys, flags):
    argv = [arg for key, value in flags.items() for arg in (f"--{key}", value)]
    code, out, err = run_cli(capsys, "compare", "--example", "triangle", *argv)
    assert code == 1
    assert err.startswith("error:") and "--tullock" in err
    assert out == ""


@pytest.mark.parametrize("keys", _CONFLICTING_PRODUCTIONS.values(),
                         ids=_CONFLICTING_PRODUCTIONS.keys())
def test_sweep_spec_production_keys_that_would_be_dropped_are_input_errors(
    tmp_path, capsys, keys
):
    out = tmp_path / "out.csv"
    spec = {"example": "triangle", "axes": [_V2_AXIS], "output": str(out), **keys}
    code, _, err = run_cli(capsys, "sweep", str(write_spec(tmp_path, spec)))
    assert code == 1
    assert err.startswith("error:") and "--tullock" in err
    assert not out.exists()


def test_random_neutrality_grid_is_capped_before_it_is_built(capsys, monkeypatch):
    solved = []
    monkeypatch.setattr(
        conflictnet.cli, "neutrality_check", lambda *args, **kwargs: solved.append(args)
    )
    code, out, err = run_cli(
        capsys, "neutrality", "--example", "triangle", "--grid", "random:1000001"
    )
    assert code == 1
    assert err.startswith("error:") and "cap is 1000000" in err
    assert out == "" and solved == []


_V2_AXIS = {"param": "v2", "min": 1, "max": 5, "steps": 3}


@pytest.mark.parametrize("axes,index", [
    ([{**_V2_AXIS, "log": True}], 0),
    ([{**_V2_AXIS, "param": 3}], 0),
    ([{**_V2_AXIS, "steps": 2.7}], 0),
    ([{**_V2_AXIS, "steps": True}], 0),
    ([{**_V2_AXIS, "min": "1"}], 0),
    ([{**_V2_AXIS, "min": 0.5, "max": True}], 0),
    ([{**_V2_AXIS, "min": 10**400}], 0),
    ([_V2_AXIS, {"param": "v3", "min": 1, "max": 5}], 1),
    ([_V2_AXIS, "v3"], 1),
    ([{"param": "v3", "min": 10, "max": 20, "steps": 2}, _V2_AXIS,
      {"param": "v3", "min": 30, "max": 40, "steps": 2}], 2),
], ids=["unknown-key", "param-int", "steps-float", "steps-bool", "min-string", "max-bool",
        "min-past-float-range", "steps-missing", "axis-string", "param-twice"])
def test_bad_sweep_axes_are_input_errors_and_write_no_rows(tmp_path, capsys, axes, index):
    output = tmp_path / "out.csv"
    spec = {"example": "triangle", "axes": axes, "output": str(output)}
    code, _, err = run_cli(capsys, "sweep", str(write_spec(tmp_path, spec)))
    assert code == 1
    assert err.startswith(f"error: bad sweep axis #{index}: ")
    assert not output.exists()


@pytest.mark.parametrize("axis,message", [
    ({**_V2_AXIS, "param": "v9"}, "no size-9 battles"),
    ({**_V2_AXIS, "param": "bogus"}, "unknown sweep parameter 'bogus'"),
    ({"param": "r", "min": 0.5, "max": 1.5, "steps": 3}, "exponent r must lie in (0, 1]"),
    ({"param": "v3", "min": -1, "max": 5, "steps": 3}, "prize v_3 must be positive and finite"),
    ({"param": "cost_p", "min": 0.5, "max": 3, "steps": 3}, "exponent p must be >= 1"),
    ({"param": "cost_kappa", "min": 0, "max": 2, "steps": 3},
     "scale kappa must be positive and finite"),
], ids=["missing-size", "unknown-param", "last-value-invalid", "first-prize-invalid",
        "first-cost-exponent-invalid", "first-cost-scale-invalid"])
def test_sweep_parameters_the_base_rejects_write_no_file(tmp_path, capsys, axis, message):
    output = tmp_path / "out.csv"
    spec = {"example": "triangle", "axes": [_V2_AXIS, axis], "output": str(output)}
    code, _, err = run_cli(capsys, "sweep", str(write_spec(tmp_path, spec)))
    assert code == 1
    assert message in err
    assert not output.exists()


def test_sweep_builds_each_point_when_it_solves_it(tmp_path, monkeypatch):
    built = []
    point = conflictnet.sweep._Template.point

    def counting(self, values):
        built.append(values)
        return point(self, values)

    def stop(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(conflictnet.sweep._Template, "point", counting)
    monkeypatch.setattr(conflictnet.sweep, "_solve_totals", stop)
    axes = (SweepAxis("v2", 1.0, 5.0, 20), SweepAxis("v3", 1.0, 5.0, 20))
    spec = SweepSpec(base=check_semi_symmetry(generate_triangle()), axes=axes)
    with pytest.raises(KeyboardInterrupt):
        run_sweep(spec, tmp_path / "out.csv")
    # The grid's two ends are checked and the first row is built; a sweep
    # that built its 400 points up front would count them all.
    assert len(built) <= 3


@pytest.mark.parametrize("error", [OverflowError, ZeroDivisionError])
def test_arithmetic_error_in_an_iterative_solve_is_a_solver_failure(capsys, monkeypatch, error):
    def fail(*args):
        raise error("forced")

    monkeypatch.setattr(conflictnet.general_solver, "_battle_effort", fail)
    code, out, err = run_cli(
        capsys, "solve", "--example", "triangle", "--method", "iterative",
        "--f", "power:1,0.5",
    )
    assert code == 2
    assert out == ""
    assert err == "error: forced\n"


def _assert_iterative_matches_structured(capsys, network, *iterative_flags):
    iterative = run_json(capsys, *network, "--method", "iterative", *iterative_flags)
    structured = run_json(capsys, *network, "--method", "semisymmetric")
    for regime in ("de", "ue"):
        assert iterative[regime]["converged"] is True
        for total in iterative[regime]["totals"].values():
            assert total == pytest.approx(structured[regime]["total"], rel=1e-9, abs=0.0)
    return structured


@pytest.mark.parametrize("family", ["cara:1", "ratio:1", "power:1,1", "piecewise-f3"])
def test_iterative_solve_at_prizes_1e300_matches_the_structured_engine(capsys, family):
    # No battle effort forms (f + S)^2, or f' = alpha e^{-alpha x}, which
    # underflows to 0 at these prizes, and the target v S / lam divides
    # before it multiplies.
    network = ["solve", "--example", "triangle", "--v", "1e300,3e300", "--f", family]
    structured = _assert_iterative_matches_structured(capsys, network)
    if family == "cara:1":
        assert structured["de"]["total"] == pytest.approx(2046.2771976, rel=1e-10)
        assert structured["ue"]["total"] == pytest.approx(2046.6213621, rel=1e-10)


@pytest.mark.parametrize("family", ["cara:1", "ratio:1", "power:1,1", "piecewise-f3"])
def test_iterative_solve_at_prizes_1e_minus_22_matches_the_structured_engine(capsys, family):
    # Efforts near 1e-11 move by less than an absolute 1e-10 from the
    # first step; the stopping rule is relative to the largest effort.
    network = ["solve", "--example", "triangle", "--v", "1e-22,3e-22", "--f", family]
    structured = _assert_iterative_matches_structured(capsys, network)
    if family == "power:1,1":
        assert structured["de"]["total"] == pytest.approx(1.0801234497e-11, rel=1e-10, abs=0.0)


@pytest.mark.parametrize(
    "family", ["cara:1", "ratio:1", "power:1,1", "piecewise-f3", "ratio:1e-300"]
)
def test_iterative_solve_at_prizes_1e_minus_30_matches_the_structured_engine(capsys, family):
    # The first sweep leaves battles at the corner 0; the floor effort the
    # next sweep gives them scales with the prizes, so it does not dwarf
    # the equilibrium efforts near 1e-15.  Under ratio:1e-300 the efforts
    # are near 1e-110, where (x + c)^2 underflows to 0.
    network = ["solve", "--example", "triangle", "--v", "1e-30,3e-30", "--f", family]
    _assert_iterative_matches_structured(capsys, network)


@pytest.mark.parametrize("family", ["cara:1", "ratio:1", "power:1,1"])
def test_iterative_solve_at_prizes_1e_minus_30_from_a_random_start_uses_the_floor(
    capsys, floor_calls, family
):
    # The symmetric start is the triangle's equilibrium, so the test above
    # never meets a degenerate battle.  From this random start a sweep
    # leaves battles at the corner 0 and the next gives them the floor; the
    # other two families of that test leave none at the corner.
    network = ["solve", "--example", "triangle", "--v", "1e-30,3e-30", "--f", family]
    _assert_iterative_matches_structured(capsys, network, "--seed", "0")
    assert floor_calls


def cost_network_file(tmp_path, kappa, p, scale):
    """The triangle with prizes times ``scale`` and cost kappa X^p / p."""
    network = generate_triangle(v2=5.0 * scale, v3=72.0 * scale)
    network = ConflictNetwork(network.players, network.battles, PowerCost(kappa=kappa, p=p))
    path = tmp_path / "cost.json"
    dump_network(network, path)
    return str(path)


@pytest.mark.parametrize("command", ["solve", "compare"])
def test_cost_overflowing_only_in_its_power_solves(tmp_path, capsys, command):
    # Totals near 4e300 square past the float range, but kappa = 1e-300
    # scales the cost back: C = T / 2 = 9.25e300.
    path = cost_network_file(tmp_path, 1e-300, 2.0, 1e300)
    report = run_json(capsys, command, "--input", path, "--f", "power:1,1")
    payoff = report["de"]["payoff"] if command == "solve" else report["payoffs_de"]
    assert payoff == pytest.approx(2.9e301 - 1.85e301 / 2.0, rel=1e-12)


def test_marginal_cost_underflowing_in_the_de_search_solves(tmp_path, capsys):
    path = cost_network_file(tmp_path, 1e300, 3.0, 1e-300)
    report = run_json(capsys, "solve", "--input", path, "--f", "ratio:1")
    assert report["de"]["total"] == pytest.approx(report["ue"]["total"], rel=1e-9, abs=0.0)
    assert report["de"]["total"] == pytest.approx(2.6447862363e-200, rel=1e-9, abs=0.0)


@pytest.mark.parametrize("scale,prizes", [(1e-300, None), (1.0, "4e-323,1e-322")])
def test_compare_samples_curvature_at_efforts_near_the_float_range_ends(
    tmp_path, capsys, scale, prizes
):
    # With linear cost the efforts are v (k-1) / k^2: near 1e-300, where
    # lo * hi underflows, or subnormal, where lo / 2 does.
    path = cost_network_file(tmp_path, 1.0, 1.0, scale)
    extra = [] if prizes is None else ["--v", prizes]
    report = run_json(capsys, "compare", "--input", path, "--f", "ratio:1", *extra)
    assert report["verdict"] == "convex"
    assert report["consistent"] is True


def test_compare_past_the_float_range_is_a_solver_failure(tmp_path, capsys):
    # Linear cost 1e300 puts every effort near 1e-600.
    path = cost_network_file(tmp_path, 1e300, 1.0, 1e-300)
    code, out, err = run_cli(capsys, "compare", "--input", path, "--f", "ratio:1")
    assert code == 2
    assert out == ""
    assert "bracket" in err


def test_iterative_solve_does_not_stop_on_a_sweep_that_used_the_floor_effort(capsys):
    # The first sweep puts every effort in the size-3 battle at the corner 0,
    # so the second gives each the floor effort 1e-12 and moves the profile
    # by only 1e-12; stopping there left the battle at the floor, with
    # converged false.
    network = ["solve", "--example", "triangle", "--f", "cara:1.9454", "--v", "24.662,1.162"]
    _assert_iterative_matches_structured(capsys, network)


def test_iterative_solve_from_a_random_start_meets_the_floor_effort(capsys, floor_calls):
    # The symmetric start is the equilibrium, so the test above converges
    # in one sweep with no degenerate battle.  The random start of seed 2
    # (seeds 0 and 1 put no battle at the corner) meets the floor.  No
    # seed from 0 to 299 reaches a floor sweep that moves the profile by
    # less than the stop rule allows, so the library's test of that rule
    # starts every effort at 1 instead.
    network = ["solve", "--example", "triangle", "--f", "cara:1.9454", "--v", "24.662,1.162"]
    _assert_iterative_matches_structured(capsys, network, "--seed", "2")
    assert floor_calls


def _fresh_process_run(argv):
    src = Path(conflictnet.__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, "-m", "conflictnet.cli", *argv],
        env={**os.environ, "PYTHONPATH": str(src), "COLUMNS": "80"},
        capture_output=True, text=True,
    )
    return result.returncode, result.stdout, result.stderr


def test_one_parser_serves_every_call_of_a_process(tmp_path, capsys, monkeypatch):
    # main builds its parser once; no default or namespace of one call may
    # show in the next.  Help text wraps at COLUMNS, so both sides fix it.
    monkeypatch.setenv("COLUMNS", "80")
    network = tmp_path / "triangle.json"
    assert main(["examples", "--name", "triangle", "--output", str(network)]) == 0
    calls = [
        ["solve", "--example", "triangle", "--f", "cara:1", "--regime", "de"],
        ["compare", "--example", "simplex", "--f", "ratio:1", "--format", "md"],
        ["neutrality", "--example", "triangle", "--grid", "random:3:seed=5"],
        ["validate", str(network)],
        ["solve", "--example", "triangle", "--bogus"],
        ["--help"],
        # The defaults of the flags the calls above set.
        ["solve", "--example", "triangle", "--f", "cara:1"],
        ["compare", "--example", "simplex", "--f", "ratio:1"],
    ]
    sequence = calls + calls[::-1] + [["solve", "--help"], calls[0]]
    expected = {}
    for argv in sequence:
        key = tuple(argv)
        if key not in expected:
            expected[key] = _fresh_process_run(argv)
        assert run_cli(capsys, *argv) == expected[key], argv
    assert [expected[tuple(argv)][0] for argv in calls] == [0, 0, 0, 0, 1, 0, 0, 0]
    assert conflictnet.cli.build_parser() is conflictnet.cli.build_parser()


def test_cli_import_does_not_load_jsonschema():
    src = Path(conflictnet.__file__).resolve().parents[1]
    probe = "import sys, conflictnet.cli; print('jsonschema' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, check=True,
    )
    assert result.stdout.strip() == "False"


def test_cli_import_does_not_load_multiprocessing():
    src = Path(conflictnet.__file__).resolve().parents[1]
    probe = (
        "import sys, conflictnet.cli; "
        "print([m for m in ('concurrent.futures.process', 'multiprocessing') "
        "if m in sys.modules])"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, check=True,
    )
    assert result.stdout.strip() == "[]"


@pytest.mark.parametrize("flag", ["power:1", "ratio:1,2", "bogus:1", "cara:x", "cara:-1"])
def test_bad_production_flags_are_input_errors(capsys, flag):
    code, _, err = run_cli(capsys, "solve", "--example", "triangle", "--f", flag)
    assert code == 1
    assert flag.partition(":")[0] in err


def test_production_flag_aliases_name_the_registry_family(capsys):
    named = run_json(capsys, "solve", "--example", "triangle", "--f", "piecewise-f3")
    aliased = run_json(capsys, "solve", "--example", "triangle", "--f", "piecewise:2,0.5,1")
    assert named == aliased


# ---------------------------------------------------------------------------
# Input contract: every bad input is one error line, exit 1, no rows
# ---------------------------------------------------------------------------

# id: (argv, sweep spec keys or None).  In argv and in string spec values,
# {net} is a triangle network file, {out} an output path, {missing} a path
# in a missing directory and {dir} an existing directory.  None of the
# output paths may be created.
_BAD_INPUTS = {
    "solve-empty-f": (["solve", "--example", "triangle", "--f", ""], None),
    "solve-empty-v": (["solve", "--example", "triangle", "--v", ""], None),
    "solve-empty-tullock": (["solve", "--example", "triangle", "--tullock", ""], None),
    "solve-empty-input": (["solve", "--input", ""], None),
    "solve-empty-input-beside-example": (
        ["solve", "--input", "", "--example", "triangle"], None),
    "solve-input-and-example": (["solve", "--input", "{net}", "--example", "triangle"], None),
    "solve-f-and-tullock": (
        ["solve", "--example", "triangle", "--f", "ratio:1", "--tullock", "r2=1,r3=1"], None),
    "solve-non-finite-v": (["solve", "--example", "triangle", "--v", "inf,1"], None),
    "solve-unwritable-output": (
        ["solve", "--example", "triangle", "--output", "{missing}"], None),
    "compare-empty-f": (["compare", "--example", "triangle", "--f", ""], None),
    "compare-input-and-example": (
        ["compare", "--input", "{net}", "--example", "simplex"], None),
    "compare-non-finite-f": (["compare", "--example", "triangle", "--f", "ratio:inf"], None),
    "compare-unwritable-output": (
        ["compare", "--example", "triangle", "--output", "{missing}"], None),
    "neutrality-empty-tullock": (
        ["neutrality", "--example", "triangle", "--tullock", "", "--grid", "random:3"], None),
    "neutrality-input-and-example": (
        ["neutrality", "--input", "{net}", "--example", "triangle", "--grid", "random:3"],
        None),
    "neutrality-non-finite-point": (
        ["neutrality", "--example", "triangle", "--grid", "explicit:inf,1"], None),
    "neutrality-bad-seed": (
        ["neutrality", "--example", "triangle", "--grid", "random:3:seed=x"], None),
    "neutrality-unwritable-output": (
        ["neutrality", "--example", "triangle", "--grid", "random:3", "--output", "{missing}"],
        None),
    "validate-path-and-input": (["validate", "{net}", "--input", "{net}"], None),
    "validate-unwritable-output": (["validate", "{net}", "--output", "{missing}"], None),
    "examples-unwritable-output": (["examples", "--name", "triangle", "--output", "{missing}"],
                                   None),
    "sweep-v-strings": (["sweep", "{spec}"], {"v": ["5", "72"]}),
    "sweep-v-empty": (["sweep", "{spec}"], {"v": []}),
    "sweep-v-joined-entry": (["sweep", "{spec}"], {"v": ["5,6", "72"]}),
    "sweep-v-past-float-range": (["sweep", "{spec}"], {"v": [10**400, 72]}),
    "sweep-empty-f": (["sweep", "{spec}"], {"f": ""}),
    "sweep-empty-tullock": (["sweep", "{spec}"], {"tullock": ""}),
    "sweep-network-and-example": (["sweep", "{spec}"], {"network": "{net}"}),
    "sweep-output-is-a-directory": (["sweep", "{spec}"], {"output": "{dir}"}),
    "sweep-unwritable-output": (["sweep", "{spec}", "--output", "{missing}"], None),
}


@pytest.mark.parametrize("argv,keys", _BAD_INPUTS.values(), ids=_BAD_INPUTS.keys())
def test_bad_input_is_one_error_line_and_writes_nothing(tmp_path, capsys, argv, keys):
    net = tmp_path / "net.json"
    net.write_text(dumps_sorted(network_to_dict(generate_triangle())))
    names = {"net": net, "out": tmp_path / "out.csv", "missing": tmp_path / "missing" / "x",
             "dir": tmp_path / "dir", "spec": tmp_path / "sweep.json"}
    names["dir"].mkdir()
    spec = {"example": "triangle", "axes": [_V2_AXIS], "output": "{out}", **(keys or {})}
    write_spec(tmp_path, {k: v.format(**names) if isinstance(v, str) else v
                          for k, v in spec.items()})
    code, out, err = run_cli(capsys, *(arg.format(**names) for arg in argv))
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
    assert out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dir", "net.json", "sweep.json"]
    assert list(names["dir"].iterdir()) == []


def test_sweep_v_entries_are_checked_as_json_numbers_by_their_own_name(tmp_path, capsys):
    spec = {"example": "triangle", "axes": [_V2_AXIS], "output": str(tmp_path / "out.csv"),
            "v": [5, "5,6"]}
    code, _, err = run_cli(capsys, "sweep", str(write_spec(tmp_path, spec)))
    assert code == 1
    assert err == "error: sweep spec 'v' entry #1 must be a finite number, got '5,6'\n"


@pytest.mark.parametrize("grid", ["random:3:seed=x", "random:3:seed=-1"])
def test_bad_random_grid_seed_quotes_the_flag(capsys, grid):
    code, _, err = run_cli(capsys, "neutrality", "--example", "triangle", "--grid", grid)
    assert code == 1
    assert err == f"error: bad random grid {grid!r}; use random:N[:seed=S]\n"


def test_random_grid_is_drawn_as_it_is_consumed():
    # A first call imports numpy's random modules, so the measured one
    # allocates only what the grid itself holds.
    conflictnet.cli._parse_grid_flag("random:1:seed=1", (2, 3))
    tracemalloc.start()
    try:
        grid = conflictnet.cli._parse_grid_flag("random:1000000:seed=1", (2, 3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    # The draws keep their order: one point at a time, ascending sizes.
    rng = np.random.default_rng(1)
    lo, hi = np.log(0.1), np.log(100.0)
    for point in itertools.islice(grid, 50):
        assert point == [float(np.exp(rng.uniform(lo, hi))) for _ in (2, 3)]


@pytest.mark.parametrize("sizes", [(2,), (2, 3), (2, 3, 4)])
def test_random_grid_drawn_in_chunks_equals_one_draw_per_size(sizes):
    count = 2 * conflictnet.cli._GRID_CHUNK + 3
    grid = list(conflictnet.cli._parse_grid_flag(f"random:{count}:seed=4", sizes))
    rng = np.random.default_rng(4)
    lo, hi = np.log(0.1), np.log(100.0)
    reference = [
        [float(np.exp(rng.uniform(lo, hi))) for _ in sizes] for _ in range(count)
    ]
    assert grid == reference


def test_explicit_grid_points_of_the_wrong_size_are_input_errors(capsys):
    code, out, err = run_cli(
        capsys, "neutrality", "--example", "triangle", "--grid", "explicit:5,72;5"
    )
    assert code == 1 and out == ""
    assert err == "error: prize vector [5.0] does not match sizes (2, 3)\n"
