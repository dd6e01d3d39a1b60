"""The sweep's CSV output: rows are the bytes ``csv.writer`` writes, through
the file's write buffer; an exception keeps every completed row, a rerun
drops a line cut mid-write, and either way the finished file is
byte-identical to an uninterrupted run's."""

import csv
import io
import os

import pytest

import conflictnet.sweep
from conflictnet import RatioProduction, check_semi_symmetry, generate_triangle
from conflictnet.sweep import SweepAxis, SweepSpec, run_sweep


def triangle_spec(*axes, production=None):
    network = generate_triangle() if production is None else generate_triangle(
        production=production)
    return SweepSpec(base=check_semi_symmetry(network), axes=axes)


GRID = (SweepAxis("v2", 1.0, 30.0, 5), SweepAxis("v3", 2.0, 50.0, 4))


def test_rows_are_the_bytes_csv_writer_writes(tmp_path):
    out = tmp_path / "rows.csv"
    assert run_sweep(triangle_spec(*GRID), out) == 20
    with open(out, newline="") as fh:
        lines = list(csv.reader(fh))
    assert len(lines) == 21
    text = io.StringIO(newline="")
    csv.writer(text).writerows(lines)
    assert out.read_bytes() == text.getvalue().encode()


def test_resume_drops_a_row_cut_mid_write(tmp_path):
    spec = triangle_spec(SweepAxis("v2", 1.0, 3.0, 3))
    whole = tmp_path / "whole.csv"
    run_sweep(spec, whole)
    lines = whole.read_bytes().splitlines(keepends=True)
    assert lines[2].startswith(b"2.0,4.123105625617661,4.123105625617661,")
    # The second row is cut in its X_ue cell.
    part = tmp_path / "part.csv"
    part.write_bytes(b"".join(lines[:2]) + lines[2][: lines[2].rindex(b"4.123") + 5])
    assert run_sweep(spec, part) == 2
    assert part.read_bytes() == whole.read_bytes()


@pytest.mark.parametrize("kept", [0, 1, 10, 36, 37])
def test_resume_rewrites_a_header_cut_mid_write(tmp_path, kept):
    spec = triangle_spec(SweepAxis("v2", 1.0, 3.0, 3))
    whole = tmp_path / "whole.csv"
    run_sweep(spec, whole)
    header = whole.read_bytes().splitlines(keepends=True)[0]
    assert len(header) == 38  # ends with \r\n
    part = tmp_path / "part.csv"
    part.write_bytes(header[:kept])
    assert run_sweep(spec, part) == 3
    assert part.read_bytes() == whole.read_bytes()


@pytest.mark.parametrize("content,message", [
    (b"notes without a line break", "lacks a column"),
    (b"v2,X_de,X_ue\r\n1.0,4.0", "lacks a column"),
    (b"v2,X_de,X_ue,payoff_de,payoff_ue,gap\r1.0,4.0\r\n", "not a sweep's CSV"),
    (-40, "another base"),
    (-2, "another base"),
])
def test_a_refused_output_stays_untouched(tmp_path, content, message):
    spec = triangle_spec(SweepAxis("v2", 1.0, 3.0, 3))
    out = tmp_path / "out.csv"
    if isinstance(content, int):
        # The output of another base, cut in its second row, or its one row
        # with no final line break.
        other = SweepAxis("v2", 1.0, 3.0, 3 if content == -40 else 1)
        run_sweep(triangle_spec(other, production=RatioProduction(1.0)), out)
        content = out.read_bytes()[:content]
    out.write_bytes(content)
    with pytest.raises(ValueError, match=message):
        run_sweep(spec, out)
    assert out.read_bytes() == content


@pytest.mark.parametrize("exception", [RuntimeError, KeyboardInterrupt])
@pytest.mark.parametrize("k", [1, 2, 3, 4, 7, 20])
def test_an_interrupted_sweep_keeps_every_completed_row(tmp_path, monkeypatch, k, exception):
    spec = triangle_spec(*GRID)
    whole = tmp_path / "whole.csv"
    run_sweep(spec, whole)
    expected = whole.read_bytes().splitlines(keepends=True)

    solve = conflictnet.sweep._Template.solve
    calls = []

    def failing(self, values):
        calls.append(values)
        if len(calls) == k:
            raise exception("stopped at grid point k")
        return solve(self, values)

    monkeypatch.setattr(conflictnet.sweep._Template, "solve", failing)
    part = tmp_path / "part.csv"
    with pytest.raises(exception, match="grid point k"):
        run_sweep(spec, part)
    # The header and the k - 1 rows completed before point k.
    assert part.read_bytes() == b"".join(expected[:k])

    monkeypatch.setattr(conflictnet.sweep._Template, "solve", solve)
    assert run_sweep(spec, part) == 20 - (k - 1)
    assert part.read_bytes() == whole.read_bytes()


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")
def test_a_pipe_output_is_only_appended_to(tmp_path):
    spec = triangle_spec(SweepAxis("v2", 1.0, 3.0, 3))
    whole = tmp_path / "whole.csv"
    run_sweep(spec, whole)
    read_end, write_end = os.pipe()
    try:
        # The three rows fit the pipe's buffer, so no reader is needed.
        assert run_sweep(spec, f"/dev/fd/{write_end}") == 3
    finally:
        os.close(write_end)
    with os.fdopen(read_end, "rb") as fh:
        assert fh.read() == whole.read_bytes()
