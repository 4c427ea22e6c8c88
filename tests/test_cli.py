import contextlib
import io
import math
import os
import resource
import shlex
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pinned_runs
from nmrlogic import _format, _kernels, cli, gates, synthesis
from nmrlogic.observables import GridSpec, scenario_components

PI = math.pi
GOLDEN = pinned_runs.GOLDEN
STDERR_GOLDEN = "classify_frobnicate.err"  # the one golden of a stderr


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# angle / grid parsing --------------------------------------------------------


@pytest.mark.parametrize(
    "text,expected",
    [
        ("pi", PI),
        ("2pi", 2 * PI),
        ("3/2pi", 1.5 * PI),
        ("-1/2pi", -PI / 2),
        ("+1/4pi", PI / 4),
        ("0.5pi", 0.5 * PI),
        ("1/2 pi", PI / 2),
        ("0.25", 0.25),
        ("-2.5", -2.5),
        ("2", 2.0),
    ],
)
def test_parse_angle(text, expected):
    assert cli.parse_angle(text) == pytest.approx(expected, rel=1e-15)


@pytest.mark.parametrize("bad", ["", "pie", "1/0pi", "pi/", "x"])
def test_parse_angle_rejects(bad):
    with pytest.raises(ValueError):
        cli.parse_angle(bad)


def test_parse_grid():
    grid = cli.parse_grid("0:1/4pi:16")
    assert grid.start == 0.0
    assert grid.step == pytest.approx(PI / 4)
    assert grid.count == 16
    with pytest.raises(ValueError):
        cli.parse_grid("0:1")


# grid subcommand -------------------------------------------------------------


def test_grid_writes_csv(tmp_path, capsys):
    out = tmp_path / "grid.csv"
    code, _, _ = run(
        capsys, "grid", "--initial", "z", "--grid", "0:1/2pi:4", "--out", str(out)
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "phi,beta,Mx,My,Mxy"
    assert len(lines) == 17
    rows = {tuple(line.split(",")[:2]): line.split(",") for line in lines[1:]}
    maxima = rows[("1.57079632679", "1.57079632679")]
    assert float(maxima[2]) == pytest.approx(0.25, abs=1e-12)
    # transverse magnitude shares the value across rows with equal beta
    for phi_token in ("0", "3.14159265359"):
        row = rows[(phi_token, "1.57079632679")]
        assert float(row[4]) == pytest.approx(0.25, abs=1e-12)


def test_grid_output_byte_identical(tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    for out in (out1, out2):
        code, _, _ = run(
            capsys, "grid", "--initial", "x", "--grid", "0:1/4pi:9", "--out", str(out)
        )
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_grid_two_pulse_headers(tmp_path, capsys):
    out = tmp_path / "two.csv"
    code, _, _ = run(
        capsys,
        "grid",
        "--initial", "x",
        "--pulses", "2",
        "--inputs", "phi2,phi1",
        "--fix", "beta1=1/2pi",
        "--fix", "beta2=1/2pi",
        "--grid", "0:1/2pi:4",
        "--out", str(out),
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "phi2,phi1,Mx,My,Mxy"


def test_grid_stdout_default(capsys):
    code, out, _ = run(capsys, "grid", "--grid", "0:1/2pi:3")
    assert code == 0
    assert out.splitlines()[0] == "phi,beta,Mx,My,Mxy"


def test_grid_degenerate_grid_is_usage_error(capsys):
    code, _, err = run(capsys, "grid", "--grid", "0:1/2pi:1")
    assert code == 1
    assert "grid" in err


@pytest.mark.parametrize("command", ["synthesize T", "grid"])
def test_grid_that_repeats_values_is_usage_error(capsys, command):
    # 1 + k * 1e-17 is 1.0 in float64 for every k: three equal candidates
    code, out, err = run(capsys, *command.split(), "--grid", "1:1e-17:3")
    assert (code, out) == (1, "")
    assert err == "error: grid repeats values in float64: step 1e-17 is too small for start 1.0\n"


def test_grid_unwritable_path(capsys, tmp_path):
    target = tmp_path / "missing-dir" / "out.csv"
    code, _, err = run(capsys, "grid", "--grid", "0:1:4", "--out", str(target))
    assert code == 2
    assert err == f"error: cannot write {target}: No such file or directory\n"


def test_synthesize_unwritable_path(capsys, tmp_path):
    target = tmp_path / "missing-dir" / "out.csv"
    code, out, err = run(
        capsys, "synthesize", "XOR", "--grid", "0:1/4pi:16", "--out", str(target)
    )
    assert code == 2
    assert err == f"error: cannot write {target}: No such file or directory\n"
    assert out == ""


@pytest.mark.parametrize("source", ["flag", "config"])
def test_synthesize_empty_out_path_is_an_io_error(capsys, tmp_path, source):
    # an empty path is a path that cannot be opened, not "print to stdout"
    argv = ["synthesize", "XOR", "--grid", "0:1/4pi:16"]
    if source == "flag":
        argv += ["--out", ""]
    else:
        config = tmp_path / "run.cfg"
        config.write_text("out=\n")
        argv += ["--config", str(config)]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert "cannot write" in err
    assert out == ""


def test_grid_rejects_bad_inputs(capsys):
    code, _, err = run(capsys, "grid", "--pulses", "2", "--grid", "0:1:4")
    assert code == 1
    assert "--inputs" in err


# classify subcommand ---------------------------------------------------------


def test_classify_xor(capsys):
    code, out, err = run(capsys, "classify", "XOR")
    assert code == 0
    assert "class: 3" in out
    assert "A=0, B=0" in out
    assert "XNOR" in out
    assert err == ""


def test_classify_nand(capsys):
    code, out, err = run(capsys, "classify", "nand")
    assert code == 0
    assert "class: 2" in out
    assert "A=1, B=1" in out
    assert err == ""


def test_classify_numeric_id(capsys):
    code, out, _ = run(capsys, "classify", "5")
    assert code == 0
    assert "gate B" in out
    assert "class: 1" in out


def test_classify_unknown_token(capsys):
    code, _, err = run(capsys, "classify", "bogus")
    assert code == 1
    assert "valid tokens" in err
    assert "xnor" in err


def test_classify_unknown_token_message_matches_golden(capsys):
    code, out, err = run(capsys, "classify", "frobnicate")
    assert code == 1
    assert out == ""
    golden = (GOLDEN / STDERR_GOLDEN).read_bytes().decode()
    assert err == golden


# synthesize subcommand -------------------------------------------------------


def test_synthesize_xor_thermal(capsys):
    code, out, _ = run(
        capsys, "synthesize", "XOR", "--initial", "z", "--grid=-1/2pi:1/2pi:10"
    )
    assert code == 0
    assert "class 3" in out
    assert (
        "A=(1.57079632679, 4.71238898038) "
        "B=(-1.57079632679, 1.57079632679)" in out
    )


@pytest.mark.parametrize(
    "spaced,joined",
    [
        ("grid --lambda -1e-3 --grid -1/2pi:1/2pi:4", "grid --lambda=-1e-3 --grid=-1/2pi:1/2pi:4"),
        ("grid --lambda -0.001 --grid 0:1/2pi:4", "grid --lambda=-0.001 --grid 0:1/2pi:4"),
        ("synthesize XOR --lambda -.5 --grid -1/2pi:1/2pi:10",
         "synthesize XOR --lambda=-.5 --grid=-1/2pi:1/2pi:10"),
    ],
)
def test_negative_values_need_no_equals_sign(capsys, spaced, joined):
    # a word after a flag that starts with "-" and a digit is its value
    result = run(capsys, *spaced.split())
    assert result[0] == 0 and result[1] and result[2] == ""
    assert result == run(capsys, *joined.split())


def test_synthesize_constant_true_contains_reference_values(capsys):
    code, out, _ = run(capsys, "synthesize", "T", "--initial", "z")
    assert code == 0
    assert (
        "A=(1.57079632679, 7.85398163397) "
        "B=(1.57079632679, 7.85398163397)" in out
    )


def test_synthesize_xor_from_x_has_no_solution(capsys):
    code, out, _ = run(capsys, "synthesize", "XOR", "--initial", "x")
    assert code == 3
    assert "no XOR assignments" in out


def test_synthesize_writes_csv(tmp_path, capsys):
    out_path = tmp_path / "asg.csv"
    code, _, _ = run(
        capsys, "synthesize", "NAND", "--initial", "z",
        "--grid", "0:1/2pi:8", "--out", str(out_path),
    )
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "a0,a1,b0,b1,level0,level1"
    assert len(lines) > 1


def test_synthesize_two_pulse_scenario(capsys):
    code, out, _ = run(
        capsys,
        "synthesize", "AND",
        "--initial", "x",
        "--pulses", "2",
        "--inputs", "phi2,beta1",
        "--fix", "phi1=1/2pi",
        "--fix", "beta2=pi",
        "--grid", "0:1/4pi:16",
    )
    assert code == 0
    assert "AND assignment(s), class 2" in out


def test_synthesize_unknown_gate(capsys):
    code, _, err = run(capsys, "synthesize", "wat", "--initial", "z")
    assert code == 1
    assert "valid tokens" in err


def test_help_documents_gate_id_convention(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["classify", "--help"])
    assert excinfo.value.code == 0
    out = capsys.readouterr().out
    assert "most significant bit first" in out
    assert "XOR=6" in out


help_goldens = pytest.mark.skipif(
    sys.version_info[:2] != (3, 11),
    reason="argparse lays help out differently on each Python minor; the goldens are from 3.11",
)


def run_help(capsys, *argv):
    """The help screen `main` prints for `argv`, which must exit 0."""
    with pytest.raises(SystemExit) as excinfo:
        cli.main([*argv, "--help"])
    assert excinfo.value.code == 0
    return capsys.readouterr().out


# one parser per process ------------------------------------------------------


def fresh_env():
    """The environment of a new interpreter that imports this nmrlogic."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def run_fresh(*argv, limit=None):
    """Exit code, stdout and stderr of `argv` in a new interpreter, with
    its address space capped at `limit` bytes when one is given."""
    env = fresh_env()
    cap = None
    if limit is not None:
        # each BLAS thread reserves its own buffers, so the cap would
        # depend on the core count
        env["OPENBLAS_NUM_THREADS"] = "1"

        def cap():
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    proc = subprocess.run(
        [sys.executable, "-m", "nmrlogic.cli", *argv],
        capture_output=True,
        env=env,
        preexec_fn=cap,
        timeout=120,
    )
    return proc.returncode, proc.stdout.decode(), proc.stderr.decode()


def test_repeated_main_calls_do_not_affect_each_other(tmp_path, capsys):
    cli.build_parser.cache_clear()
    # calls with --fix, --config, a bad choice and --help on the shared parser
    code, out, _ = run(
        capsys, "grid", "--initial", "x", "--pulses", "2", "--inputs", "phi2,phi1",
        "--fix", "beta1=1/2pi", "--fix", "beta2=1/2pi", "--grid", "0:1/4pi:8",
    )
    assert (code, out.splitlines()[0]) == (0, "phi2,phi1,Mx,My,Mxy")
    config = tmp_path / "run.cfg"
    config.write_text("initial=x\nobservable=my\ngrid=0:1/2pi:4\n")
    code, out, _ = run(capsys, "synthesize", "XOR", "--config", str(config))
    assert (code, out) == (3, "no XOR assignments on grid 0:1.57079632679:4\n")
    code, out, err = run(capsys, "synthesize", "XOR", "--observable", "mz")
    assert (code, out) == (1, "")
    assert "invalid choice: 'mz'" in err
    assert "--observable" in run_help(capsys, "synthesize")
    # none of them may leak into later calls, which must match a fresh process
    for row in (PINNED["classify_xor"], PINNED["synthesize_xor_quarter_pi_16"]):
        code, out, err = run(capsys, *row.argv())
        assert (code, out, err) == run_fresh(*row.argv())
        assert pinned_runs.mismatches(row, code, out.encode(), err.encode(), None) == []
    no_fix = ("grid", "--pulses", "2", "--inputs", "phi2,phi1", "--grid", "0:1/4pi:8")
    result = run(capsys, *no_fix)
    assert result == run_fresh(*no_fix)
    # fails naming the parameters it needs fixed
    assert result[:2] == (1, "")
    assert "['beta1', 'beta2']" in result[2]
    assert cli.build_parser.cache_info().misses == 1


@help_goldens
def test_help_width_follows_columns_on_each_call(capsys, monkeypatch):
    golden = (GOLDEN / "help_synthesize.txt").read_text(encoding="utf-8")
    for columns, matches in (("80", True), ("120", False), ("80", True)):
        monkeypatch.setenv("COLUMNS", columns)
        assert (run_help(capsys, "synthesize") == golden) is matches


# verify subcommand -----------------------------------------------------------


def test_verify_passes(capsys):
    code, out, _ = run(capsys, "verify")
    assert code == 0
    assert "checks passed" in out
    assert "FAIL" not in out


def test_verify_fails_with_wrong_scale(capsys):
    code, out, _ = run(capsys, "verify", "--lambda", "0.5")
    assert code == 4
    assert "FAIL" in out


# one labelling per table -----------------------------------------------------


MIXED_FIX = "--initial x --pulses 2 --observable mx --inputs phi2,beta1 --fix phi1=1/2pi --fix beta2=pi"


@pytest.mark.parametrize(
    "command,code,labellings",
    [
        ("synthesize XOR --grid 0:1/4pi:16", 0, 1),
        (f'synthesize "NOT B" {pinned_runs.TWO_PULSE_X} --grid 0:1/2pi:16', 0, 1),
        (f"synthesize AND {pinned_runs.TWO_PULSE_X} --grid 0:1/2pi:48", 3, 1),
        (f"synthesize AND {MIXED_FIX} --grid 0:1/8pi:40", 0, 1),
        # the Bloch labels are refused at this tol, so the matrix table is labelled
        (f'synthesize "NOT B" {pinned_runs.TWO_PULSE_X} --grid 0:1/2pi:16 --tol 1e-17', 0, 2),
        ('synthesize "<" --grid 0:1/8pi:24 --tol 0.02', 0, 1),
        # the 16-gate count and the five class claims, a table each
        ("verify", 0, 6),
    ],
    ids=[
        "xor", "two-pulse-not-b", "two-pulse-empty-and", "mixed-fix-and", "tol-1e-17", "pairwise-lt",
        "verify",
    ],
)
def test_each_command_labels_each_table_once(capsys, monkeypatch, command, code, labellings):
    calls = []
    original = _kernels.level_labels

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(_kernels, "level_labels", counted)
    assert run(capsys, *shlex.split(command))[::2] == (code, "")
    assert len(calls) == labellings


# pinned runs -----------------------------------------------------------------


PINNED = {row.id: row for row in pinned_runs.ROWS}


@pytest.mark.parametrize(
    "row",
    [
        pytest.param(row, id=row.id, marks=[help_goldens] if "--help" in row.argv() else [])
        for row in pinned_runs.ROWS
    ],
)
def test_pinned_run(tmp_path, capsys, monkeypatch, row):
    # the rows run back to back in this one process, on the parser that
    # main builds once, so no run may leak into the next
    monkeypatch.setenv("COLUMNS", "80")
    out_path = tmp_path / "out"
    try:
        code = cli.main(row.argv(str(out_path)))
    except SystemExit as exc:  # --help
        code = exc.code
    captured = capsys.readouterr()
    written = out_path.read_bytes() if out_path.exists() else None
    found = pinned_runs.mismatches(row, code, captured.out.encode(), captured.err.encode(), written)
    assert found == []


def test_every_golden_file_is_pinned():
    # a golden file that no row names checks nothing: put its run in the table
    named = {pin for row in pinned_runs.ROWS for pin in (row.stdout, row.out)}
    orphans = [p.name for p in GOLDEN.iterdir() if p.name not in named | {STDERR_GOLDEN}]
    assert orphans == []


def test_b_orbit_is_counted_by_the_sort_route(tmp_path, capsys, monkeypatch):
    # B's orbit is counted by the sort on any table: one level with no
    # hits, and three levels over 16 columns with 13,312
    levels = []
    original = _kernels.level_pair_counts

    def counted(labels, slots):
        levels.append((int(labels.max()) + 1, labels.shape[1], tuple(slots)))
        return original(labels, slots)

    monkeypatch.setattr(_kernels, "level_pair_counts", counted)
    for row_id in ("synthesize_b_lambda_0_eighth_pi_16", "synthesize_not_b_x_two_pulse_half_pi_16_out"):
        row = PINNED[row_id]
        code, _, err = run(capsys, *row.argv(str(tmp_path / "out.csv")))
        assert (code, err) == (row.code, "")
    assert levels == [(1, 16, (2,)), (3, 16, (2,))]


def test_a_table_of_repeated_rows_is_counted_on_its_distinct_rows(capsys, monkeypatch):
    # the x-state mxy table on 64 angles a pi/8 apart has 5 distinct rows:
    # XOR's sort and AND's each count those, not the 64 rows
    tables = {"level_pair_counts": [], "_block_pair_counts": []}
    for name, seen in tables.items():
        original = getattr(_kernels, name)

        def counted(labels, *args, original=original, seen=seen):
            seen.append(labels)
            return original(labels, *args)

        monkeypatch.setattr(_kernels, name, counted)
    row = PINNED["synthesize_xor_x_mxy_eighth_pi_64"]
    code, _, err = run(capsys, *row.argv())
    assert (code, err) == (row.code, "")
    (labels,) = tables["level_pair_counts"]
    _kernels.level_pair_counts(labels, (4,))  # AND writes 200,704 rows through the CLI
    shapes = {name: [seen.shape for seen in tables[name]] for name in tables}
    assert shapes == {
        "level_pair_counts": [(64, 64), (64, 64)],
        "_block_pair_counts": [(5, 64), (5, 64)],
    }


def test_tol_0_02_takes_the_pairwise_route():
    # at tol 0.02 the thermal mx table of the synthesize_xor_eighth_pi_12_tol_0.02
    # rows has a level spanning more than tol, so the search compares float
    # gaps, not level labels
    candidates = cli.parse_grid("0:1/8pi:12").values()
    table = synthesis.scenario_table(
        synthesis.reference_single_pulse_scenario(), candidates, candidates
    )
    assert _kernels.level_labels(table, 0.02) is None


class _FailingOut(io.StringIO):
    """A CSV handle whose second block of rows cannot be written."""

    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, text):
        self.writes += 1
        if self.writes == 3:  # the header, one block, then this one
            raise OSError(28, "No space left on device")
        return super().write(text)


def test_out_of_memory_is_a_usage_error(capsys, monkeypatch):
    def candidate_table(*args):
        raise MemoryError

    monkeypatch.setattr(synthesis, "candidate_table", candidate_table)
    code, out, err = run(capsys, "synthesize", "T", "--grid", "0:1:60000")
    assert (code, out, err) == (1, "", "error: out of memory\n")


def test_search_too_large_for_memory_fails_before_the_count_line():
    # the hit count fits under the cap, but the (n, n, n) boolean row test
    # needs 954 MiB: it is allocated before the count line is printed.  A
    # child process takes the cap, so this one never asks for that array
    code, out, err = run_fresh("synthesize", "T", "--grid", "0:1/4pi:1000", limit=600 * 10**6)
    assert (code, out) == (1, "")
    assert err.startswith("error: Unable to allocate") and err.count("\n") == 1


def test_synthesize_csv_write_error_is_an_io_error(capsys, monkeypatch):
    monkeypatch.setattr(cli, "_ROW_BLOCK", 7)
    monkeypatch.setattr(cli, "_open_out", lambda path: _FailingOut())
    code, out, err = run(
        capsys, "synthesize", "XOR", "--grid", "0:1/4pi:16", "--out", "xor.csv"
    )
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    # the rows stream to both outputs, so stdout holds the count line and
    # the rows written before the error
    golden = (GOLDEN / "synthesize_xor_quarter_pi_16.txt").read_bytes().decode()
    assert out.startswith("1600 XOR assignment(s)")
    assert golden.startswith(out)


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="no /dev/full device")
@pytest.mark.parametrize(
    "argv",
    [
        ("grid", "--grid", "0:1/4pi:8"),
        ("synthesize", "XOR", "--grid", "0:1/4pi:16"),
    ],
    ids=["grid", "synthesize"],
)
def test_out_to_a_full_device_is_an_io_error(capsys, argv):
    code, _, err = run(capsys, *argv, "--out", "/dev/full")
    assert code == 2
    assert err.startswith("error: ")


@pytest.mark.parametrize(
    "argv,first",
    [
        (
            ("synthesize", "T", "--lambda", "0", "--grid", "0:1/8pi:16"),
            "65536 T assignment(s), class 0",
        ),
        (("grid", "--grid", "0:1/100pi:400"), "phi,beta,Mx,My,Mxy"),
    ],
    ids=["synthesize", "grid"],
)
def test_a_reader_that_closes_early_ends_the_run_quietly(argv, first):
    # each output runs to megabytes, far past a pipe's buffer, so a write
    # fails once the reader has closed its end after the first line
    proc = subprocess.Popen(
        [sys.executable, "-m", "nmrlogic.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=fresh_env(),
    )
    line = proc.stdout.readline().decode()
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert (proc.returncode, line, err.decode()) == (2, first + "\n", "")


# flags each subcommand does not read -----------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--initial", "x"),
        ("verify", "--pulses", "2"),
        ("verify", "--fix", "phi=1"),
        ("verify", "--out", "OUT"),
        ("verify", "--observable", "my"),
        ("verify", "--inputs", "phi,beta"),
        ("grid", "--observable", "mx"),
        ("grid", "--tol", "nan"),
        ("grid", "--tol", "1e-9", "--out", "OUT"),
        ("classify", "XOR", "--tol", "1"),
    ],
    ids=lambda argv: " ".join(argv),
)
def test_unread_flags_are_usage_errors(tmp_path, capsys, argv):
    out_path = tmp_path / "out.txt"
    code, out, err = run(capsys, *(str(out_path) if a == "OUT" else a for a in argv))
    assert code == 1
    assert out == ""
    assert "unrecognized arguments" in err
    assert not out_path.exists()


def test_entry_point_exits_with_main_code(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["nmrlogic", "classify", "XOR"])
    with pytest.raises(SystemExit) as excinfo:
        cli.entry_point()
    assert excinfo.value.code == 0
    assert capsys.readouterr().out.startswith("gate XOR (id 6)")


def test_grid_rejects_a_parameter_fixed_twice(tmp_path, capsys):
    out_path = tmp_path / "grid.csv"
    code, out, err = run(
        capsys, "grid", "--pulses", "2", "--inputs", "phi2,phi1",
        "--fix", "beta1=1", "--fix", "beta1=2", "--fix", "beta2=1",
        "--out", str(out_path),
    )
    assert (code, out) == (1, "")
    assert err == "error: parameter 'beta1' is fixed more than once\n"
    assert not out_path.exists()


@pytest.mark.parametrize("source", ["flag", "config"])
def test_fix_without_an_angle_is_usage_error(tmp_path, capsys, source):
    config = tmp_path / "run.cfg"
    config.write_text("fix=beta1\n")
    argv = ("--fix", "beta1") if source == "flag" else ("--config", str(config))
    code, out, err = run(capsys, "grid", *argv)
    assert (code, out) == (1, "")
    assert err == "error: --fix expects param=angle, got 'beta1'\n"


# config files ----------------------------------------------------------------


def test_config_file_supplies_defaults(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text(
        "# scenario\n"
        "initial=x\n"
        "pulses=2\n"
        "inputs=beta2,beta1\n"
        "fix=phi1=1/2pi\n"
        "fix=phi2=1/2pi\n"
        "grid=0:1/2pi:4\n"
    )
    out_path = tmp_path / "grid.csv"
    code, _, _ = run(
        capsys, "grid", "--config", str(config), "--out", str(out_path)
    )
    assert code == 0
    assert out_path.read_text().splitlines()[0] == "beta2,beta1,Mx,My,Mxy"


def test_config_rejects_a_parameter_fixed_twice(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("fix=beta1=1\nfix=beta1=2\nfix=beta2=1\n")
    code, out, err = run(
        capsys, "synthesize", "AND", "--pulses", "2", "--inputs", "phi2,phi1",
        "--config", str(config),
    )
    assert (code, out) == (1, "")
    assert err == "error: parameter 'beta1' is fixed more than once\n"


def test_config_flags_override_file(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("initial=x\ngrid=0:1/2pi:4\n")
    code, out, _ = run(capsys, "grid", "--config", str(config), "--initial", "z")
    # thermal state: mx at (pi/2, pi/2) must be the thermal 0.25, not the x-state value
    row = [line for line in out.splitlines() if line.startswith("1.57079632679,1.57079632679")]
    assert code == 0
    assert row and float(row[0].split(",")[2]) == pytest.approx(0.25, abs=1e-12)


@pytest.mark.parametrize(
    "argv,text,key",
    [
        (("grid",), "grdi=0:1/2pi:4\n", "grdi"),
        (("grid",), "initial=x\ntol=1e-9\n", "tol"),
        (("grid",), "observable=my\n", "observable"),
        (("verify",), "initial=x\n", "initial"),
        (("verify",), "out=v.txt\n", "out"),
        (("synthesize", "XOR"), "config=other.cfg\n", "config"),
    ],
    ids=[
        "grid-typo",
        "grid-tol",
        "grid-observable",
        "verify-initial",
        "verify-out",
        "synthesize-config",
    ],
)
def test_config_unknown_key_is_usage_error(tmp_path, capsys, argv, text, key):
    config = tmp_path / "run.cfg"
    config.write_text(text)
    code, out, err = run(capsys, *argv, "--config", str(config))
    assert code == 1
    assert out == ""
    assert f"unknown config key {key!r}" in err


@pytest.mark.parametrize(
    "argv,text,message",
    [
        (("grid",), "pulses=3\n", "config key 'pulses' (--pulses): invalid choice: 3"),
        (("grid",), "pulses=abc\n", "config key 'pulses' (--pulses): invalid int value: 'abc'"),
        (("grid",), "initial=q\n", "config key 'initial' (--initial): invalid choice: 'q'"),
        (
            ("synthesize", "XOR"),
            "observable=z\n",
            "config key 'observable' (--observable): invalid choice: 'z'",
        ),
        (("verify",), "tol=\n", "config key 'tol' (--tol): invalid float value: ''"),
        (("grid",), "lambda=abc\n", "config key 'lambda' (--lambda): invalid float value: 'abc'"),
        (("synthesize", "XOR"), "grid=\n", "grid must be start:step:count, got ''"),
        (
            ("synthesize", "XOR"),
            "grid=0:1:2.5\n",
            "grid count must be an integer, got '2.5'",
        ),
        (("verify",), "tol=1e-3\ntol=1e-9\n", "config key 'tol' is given more than once"),
    ],
    ids=[
        "pulses-choice",
        "pulses-type",
        "initial-choice",
        "observable-choice",
        "empty-tol",
        "lambda-type",
        "empty-grid",
        "grid-count",
        "repeated-key",
    ],
)
def test_config_values_get_the_flag_checks(tmp_path, capsys, argv, text, message):
    config = tmp_path / "run.cfg"
    config.write_text(text)
    code, out, err = run(capsys, *argv, "--config", str(config))
    assert code == 1
    assert out == ""
    assert message in err


@pytest.mark.parametrize(
    "argv,message",
    [
        (("verify", "--tol="), "argument --tol: invalid float value: ''"),
        (("synthesize", "XOR", "--tol=abc"), "argument --tol: invalid float value: 'abc'"),
        (("grid", "--lambda", "x"), "argument --lambda: invalid float value: 'x'"),
    ],
    ids=lambda value: " ".join(value) if isinstance(value, tuple) else None,
)
def test_bad_float_names_its_flag(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert message in err


def test_config_keys_follow_the_flags(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("lambda=0.5\ntol=1e-12\ngrid=0:1/2pi:8\n")
    code, out, _ = run(capsys, "verify", "--config", str(config))
    assert code == 4  # lambda reaches the checks: the scale is wrong
    assert out.splitlines()[0] == (
        "verification run: lambda=0.5, tol=1e-12, search grid 0:1.57079632679:8"
    )


def test_config_with_a_byte_order_mark_reads_as_without(tmp_path, capsys):
    # some Windows editors start a UTF-8 file with a byte-order mark
    text = "initial=x\ngrid=0:1/2pi:4\n"
    plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbfinitial=x")
    expected = run(capsys, "grid", "--config", str(plain))
    assert expected[0] == 0
    assert run(capsys, "grid", "--config", str(marked)) == expected


def test_config_that_is_not_utf8_names_its_path(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_bytes(b"grid=0:1/2pi:4\n\xff\n")
    code, out, err = run(capsys, "synthesize", "XOR", "--config", str(config))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: cannot read config {config}: ")
    assert "can't decode byte 0xff" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "kind,reason",
    [("missing", "No such file or directory"), ("directory", "Is a directory")],
    ids=["missing", "directory"],
)
def test_config_that_cannot_be_opened_is_an_io_error(tmp_path, capsys, kind, reason):
    config = tmp_path / "run.cfg"
    if kind == "directory":
        config.mkdir()
    code, out, err = run(capsys, "synthesize", "XOR", "--config", str(config))
    assert (code, out) == (2, "")
    # the path is named once, in the message, not again in the reason
    assert err == f"error: cannot read config {config}: {reason}\n"


def test_config_bad_line(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("initial x\n")
    code, _, err = run(capsys, "grid", "--config", str(config))
    assert code == 1
    assert "key=value" in err


def test_usage_error_exit_code(capsys):
    code, _, err = run(capsys, "grid", "--initial", "q")
    assert code == 1


def test_unknown_subcommand(capsys):
    code, _, _ = run(capsys, "frobnicate")
    assert code == 1


# golden output: the columnar writers against per-row reference formatters -------


def assert_same_text(actual, expected):
    """Equality that reports the first differing line, not a full diff of
    outputs that run to megabytes."""
    if actual != expected:
        pytest.fail(pinned_runs.first_difference(actual.encode(), expected.encode()))


THERMAL_FLAGS = ("--initial", "z")
THERMAL = synthesis.reference_single_pulse_scenario()
MIXED_FLAGS = (
    "--initial", "x", "--pulses", "2", "--inputs", "phi2,beta1",
    "--fix", "phi1=1/2pi", "--fix", "beta2=pi",
)
MIXED = synthesis.Scenario(
    "x", 2, "mx", ("phi2", "beta1"), fixed=(("phi1", PI / 2), ("beta2", PI))
)
SYNTH_CASES = [
    ("T", THERMAL_FLAGS, THERMAL, "0:1/4pi:16"),  # constant: one level, nan column
    ("F", MIXED_FLAGS, MIXED, "0:1/2pi:8"),
    ("XOR", THERMAL_FLAGS, THERMAL, "-1/2pi:1/2pi:10"),
    ("NAND", MIXED_FLAGS, MIXED, "0:1/4pi:16"),
    ("NOT B", THERMAL_FLAGS, THERMAL, "1/8pi:1/8pi:12"),
]


@pytest.mark.parametrize("block", [cli._ROW_BLOCK, 7])
@pytest.mark.parametrize("with_out", [False, True], ids=["stdout", "out"])
@pytest.mark.parametrize(
    "gate,flags,scenario,grid", SYNTH_CASES, ids=[c[0] for c in SYNTH_CASES]
)
def test_synthesize_bytes_match_reference(
    tmp_path, capsys, monkeypatch, gate, flags, scenario, grid, with_out, block
):
    monkeypatch.setattr(cli, "_ROW_BLOCK", block)
    out_path = tmp_path / "asg.csv"
    argv = ["synthesize", gate, *flags, f"--grid={grid}"]
    if with_out:
        argv += ["--out", str(out_path)]
    code, out, err = run(capsys, *argv)
    text, csv = _template_synthesize(
        *synthesis.candidate_table(scenario, cli.parse_grid(grid)),
        gates.parse_gate(gate),
        synthesis.DEFAULT_LEVEL_TOL,
    )
    assert (code, err) == (0, "")
    assert_same_text(out, text)
    assert out_path.exists() == with_out
    if with_out:
        assert_same_text(out_path.read_bytes().decode(), csv)


def test_synthesize_tolerance_flag_reaches_reference(tmp_path, capsys):
    out_path = tmp_path / "asg.csv"
    code, out, _ = run(
        capsys, "synthesize", "AND", *THERMAL_FLAGS, "--grid=0:1/4pi:16",
        "--tol", "0.01", "--out", str(out_path),
    )
    text, csv = _template_synthesize(
        *synthesis.candidate_table(THERMAL, cli.parse_grid("0:1/4pi:16")), gates.AND, 0.01
    )
    assert code == 0
    assert_same_text(out, text)
    assert_same_text(out_path.read_bytes().decode(), csv)


def _reference_grid(scenario, grid_a, grid_b):
    """Grid CSV formatted one numpy scalar at a time."""
    avals, bvals = grid_a.values(), grid_b.values()
    mesh_a, mesh_b = np.meshgrid(avals, bvals, indexing="ij")
    mx, my = scenario_components(
        scenario.initial, scenario.pulses, scenario.inputs, scenario.fixed,
        mesh_a, mesh_b, scenario.lambda_b,
    )
    mxy = np.hypot(mx, my)
    lines = [f"{scenario.inputs[0]},{scenario.inputs[1]},Mx,My,Mxy\n"]
    for i in range(grid_a.count):
        for j in range(grid_b.count):
            lines.append(
                f"{avals[i]:.12g},{bvals[j]:.12g},"
                f"{mx[i, j]:.12g},{my[i, j]:.12g},{mxy[i, j]:.12g}\n"
            )
    return "".join(lines)


def assert_formats_like_python(values):
    values = np.array(values, dtype=np.float64)
    slots = _format.format_12g(values)
    assert slots.dtype.itemsize == _format.SLOT
    got = [text.replace(b"\0", b"").decode() for text in slots.tolist()]
    assert got == [f"{x:.12g}" for x in values.tolist()]


@given(st.lists(st.integers(0, 2**64 - 1), max_size=64))
def test_format_12g_equals_the_f_string_on_any_bit_pattern(bits):
    assert_formats_like_python(np.array(bits, dtype=np.uint64).view(np.float64))


any_float = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)


@given(st.lists(any_float, max_size=64))
def test_format_12g_equals_the_f_string_on_any_float(values):
    assert_formats_like_python(values)


FORMAT_EDGES = [
    # exact ties at 12 digits (half to even), near ties and their neighbours
    123456789012.5, 100000000000.5, 100000000001.5, 2.5e11 + 0.5,
    1.000000000005, 2.500000000005, 0.1234567890125, 123456.7890125,
    np.nextafter(1.000000000005, 2), np.nextafter(1.000000000005, 0),
    # around the switch from fixed to scientific form at 1e-4
    9.999999999995e-5, 9.99999999999e-5, 1e-4, 1.00000000001e-4, 1e-5,
    np.nextafter(1e-4, 0), np.nextafter(1e-4, 1),
    # around the switch at 1e12, and the carry into it
    999999999999.5, 999999999999.4, 999999999999.0, 1e12, 1e11, 123456789012.0,
    np.nextafter(1e12, 0), np.nextafter(1e12, 2e12), 1.00000000001e12,
    # a point after each digit, and none after the twelfth
    *(1.23456789012 * 10**k for k in range(12)),
    # every count of kept digits, with a point and without one
    *(float("1.23456789012"[:k]) for k in range(3, 14)),
    *(float("123456789012"[:k]) for k in range(1, 13)),
    # the longest texts, 19 and 18 bytes with their sign
    1.23456789012e-100, 0.000123456789012,
    # three-digit exponents
    1e100, 1e-100, 9.99999999999e99, 9.999999999995e99, 1.5e-307,
    # the bounds of the vector path
    1e280, 1e-280, np.nextafter(1e280, np.inf), np.nextafter(1e-280, 0),
    5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
    0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf,
    1.0, -1.0, 0.5, 1200.0, 0.25, 1e16, -3.06161699787e-17, PI, -PI,
]


def test_format_12g_equals_the_f_string_on_edges():
    assert_formats_like_python(FORMAT_EDGES + [-x for x in FORMAT_EDGES])


@given(st.lists(any_float, min_size=1, max_size=64))
def test_packed_equals_the_f_string_bytes(values):
    values = np.array(values + [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324])
    got = _format.packed_12g(values)
    expected = np.array([f"{v:.12g}".encode("ascii") for v in values.tolist()])
    assert got.dtype == expected.dtype
    assert got.tolist() == expected.tolist()


def test_packed_formats_each_bit_pattern_and_keeps_the_shape():
    # repeats, both zeros (equal as floats, apart in their bits), nan,
    # both infinities and a subnormal, in a 2-D table
    values = np.array([
        [0.25, -0.0, 0.0, 0.25, -0.0],
        [math.nan, math.inf, -math.inf, 5e-324, 0.0],
        [0.0, -0.0, 0.25, math.nan, -math.inf],
    ])
    got = _format.packed_12g(values)
    assert got.shape == values.shape
    expected = [f"{v:.12g}".encode("ascii") for v in values.ravel().tolist()]
    assert got.ravel().tolist() == expected
    assert got.dtype.itemsize == max(map(len, expected))


def test_packed_peak_is_a_few_objects_per_value():
    rng = np.random.default_rng(7)
    values = rng.standard_normal(1 << 16) * 10.0 ** rng.integers(-300, 300, 1 << 16)
    tracemalloc.start()
    try:
        _format.packed_12g(values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # scattering the kept bytes through a uint8 matrix and an int64
    # cumsum took about 730 bytes per value, and dropping the NULs of
    # `format_12g` slots one value at a time about 190
    assert peak < 160 * len(values), peak / len(values)


# `.12g` strings of different widths: nan, infinities, -0 and subnormals too
field_text = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, -2.5e-310]),
    any_float,
).map(lambda v: f"{v:.12g}")
# ASCII with no "%" or NUL, as `_write_rows` requires of a template's literals
literal_text = st.one_of(
    st.sampled_from(["", ",", ",nan\n", "nan", " levels ", "->1\n"]),
    st.text(st.characters(min_codepoint=1, max_codepoint=127, exclude_characters="%")),
)


@given(
    data=st.data(),
    rows=st.sampled_from([0, 1, 6, 7, 8]),  # around a block of 7
    n_columns=st.integers(1, 6),
    n_outputs=st.integers(1, 3),
)
def test_write_rows_equals_the_template_rows(data, rows, n_columns, n_outputs):
    columns = []
    for _ in range(n_columns):
        if data.draw(st.booleans()):
            # `format_12g` slots, with NULs between their parts
            values = data.draw(st.lists(any_float, min_size=1, max_size=8))
            strings = [f"{v:.12g}" for v in values]
            slots = _format.format_12g(values)
        else:
            strings = data.draw(st.lists(field_text, min_size=1, max_size=8))
            slots = np.array(strings, dtype=np.bytes_)
        index = data.draw(
            st.lists(st.integers(0, len(strings) - 1), min_size=rows, max_size=rows)
        )
        columns.append((strings, slots, index))
    # each output has its own template over the same columns
    templates = [
        "%s".join(
            data.draw(
                st.lists(literal_text, min_size=n_columns + 1, max_size=n_columns + 1)
            )
        )
        for _ in range(n_outputs)
    ]
    table = list(zip(*([strings[k] for k in index] for strings, _, index in columns)))
    fields = [slots[np.array(index, dtype=np.int64)] for _, slots, index in columns]
    block = 7
    sinks = [io.StringIO() for _ in templates]
    cli._write_rows(
        list(zip(sinks, templates)),
        ([field[start : start + block] for field in fields] for start in range(0, rows, block)),
    )
    for sink, template in zip(sinks, templates):
        expected = "".join(template % row for row in table)
        assert sink.getvalue() == expected


class _Discard:
    def write(self, text):
        pass


def test_write_rows_memory_is_bounded_by_the_block():
    block = 1024
    rows = 50_000
    strings = _format.format_12g(np.linspace(-PI, PI, 97))
    n_columns = 6

    def blocks():
        for start in range(0, rows, block):
            cell = np.arange(start, min(start + block, rows))
            yield [strings[(cell * (k + 1)) % len(strings)] for k in range(n_columns)]

    template = "A=(%s, %s) B=(%s, %s) levels %s->0 %s->1\n"
    width = len(template) - 2 * n_columns + n_columns * strings.itemsize
    # a CSV row is narrower; both outputs' rows come from the same fields
    csv_template = "%s,%s,%s,%s,%s,%s\n"
    tracemalloc.start()
    try:
        cli._write_rows([(_Discard(), csv_template), (_Discard(), template)], blocks())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the whole output is rows * width bytes, about 50 blocks
    assert peak < 8 * block * width


X_EQUAL_FLIPS_FLAGS = (
    "--initial", "x", "--pulses", "2", "--inputs", "phi2,phi1",
    "--fix", "beta1=1/2pi", "--fix", "beta2=1/2pi",
)


@pytest.mark.parametrize("n", [100, 200, 400])
def test_grid_memory_is_bounded_by_the_block(monkeypatch, n):
    grid_block = row_block = 256
    monkeypatch.setattr(cli, "_ROW_BLOCK", row_block)
    monkeypatch.setattr(sys, "stdout", _Discard())
    argv = ["grid", *X_EQUAL_FLIPS_FLAGS, f"--grid=0:1/50pi:{n}"]
    tracemalloc.start()
    try:
        code = cli.main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    # A block propagates whole rows, at most max(grid_block, n) points at
    # a few hundred bytes each, and the writer holds a few blocks of rows
    # of five fields.  Nothing grows with n * n: the whole grid propagated
    # at once would peak near 39 MiB at n = 400.
    assert peak < 512 * (grid_block + n) + 4 * row_block * (5 * _format.SLOT + 5)


def test_synthesize_memory_is_bounded_by_the_blocks(monkeypatch):
    # lambda 0 makes every table value 0: all n^4 quadruples realize T

    def peak(n):
        argv = ["synthesize", "T", "--lambda", "0", "--grid", f"0:1/8pi:{n}",
                "--out", os.devnull]
        with open(os.devnull, "w") as sink:
            monkeypatch.setattr(sys, "stdout", sink)
            tracemalloc.start()
            try:
                code = cli.main(argv)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert code == 0
        return peak

    small, large = peak(24), peak(40)
    # the kernel's blocks of hits are written as they come; holding all
    # 2.56 million hits at n = 40 peaked at 156 MiB
    assert large < 16 << 20, large
    assert large < small + (2 << 20), (small, large)


# Cell values of the drawn tables.  -0.0 and 0.0, and 0.25 and 0.25 + 1e-12,
# share a level at the default tol but print apart; 0, 0.015 and 0.03 chain
# gaps within 0.02 over a span beyond it, so at --tol 0.02 the search takes
# the pairwise route.  TWIN maps the index of each value of those two
# pairs to its partner's.
CELL_VALUES = (-0.5, -0.0, 0.0, 0.015, 0.03, 0.25, 0.25 + 1e-12, 0.5)
TWIN = {1: 2, 2: 1, 5: 6, 6: 5}


def _template_synthesize(cand, table, tt, tol):
    """stdout and CSV text of `synthesize` on (`cand`, `table`), one
    `template % row` per hit of the kernel."""
    corners = synthesis.level_corners(tt)
    levels = " ".join(f"%s->{int(bit)}" for bit in corners)
    template = "A=(%s, %s) B=(%s, %s) levels " + levels + "\n"
    csv_template = "%s,%s,%s,%s," + ",".join("%s" if bit in corners else "nan" for bit in (False, True)) + "\n"
    hits = _kernels.find_gate_quadruples(table, tt.outputs, tol).tolist()
    text = [f"{len(hits)} {tt.name} assignment(s), class {gates.gate_class(tt).value}\n"]
    csv = ["a0,a1,b0,b1,level0,level1\n"]
    for i0, i1, j0, j1 in hits:
        row = [f"{cand[k]:.12g}" for k in (i0, i1, j0, j1)]
        row += [f"{table[(i0, i1)[a], (j0, j1)[b]]:.12g}" for a, b in corners.values()]
        text.append(template % tuple(row))
        csv.append(csv_template % tuple(row))
    return "".join(text), "".join(csv)


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    tt=st.sampled_from(gates.ALL_GATES),
    pairwise=st.booleans(),
    with_out=st.booleans(),
    budget=st.sampled_from([0, 3000, cli._REUSE_BYTES]),
    row_block=st.sampled_from([3, cli._ROW_BLOCK]),
    kernel_block=st.sampled_from([1, 200, 1 << 16]),
)
def test_reused_rows_equal_the_template_rows(
    data, tt, pairwise, with_out, budget, row_block, kernel_block
):
    # a table of a few drawn rows, each once or more, the rows shuffled
    n = data.draw(st.integers(3, 7), label="n")
    cells = st.lists(st.integers(0, len(CELL_VALUES) - 1), min_size=n, max_size=n)
    kinds = [data.draw(cells, label="row") for _ in range(data.draw(st.integers(1, 3)))]
    if len(kinds) > 1 and data.draw(st.booleans(), label="twin"):
        # row 1 has row 0's labels, but -0.0 where row 0 has 0.0, and so on;
        # classing rows i1 by labels alone for a gate that prints a level
        # from row i1 writes the twin's level text in its place, and fails
        kinds[1] = data.draw(st.lists(st.sampled_from(sorted(TWIN)), min_size=n, max_size=n))
        kinds[0] = [TWIN[k] for k in kinds[1]]
    if pairwise:
        for kind in kinds:
            kind[:3] = [2, 3, 4]
    more = st.lists(st.integers(0, len(kinds) - 1), min_size=n - len(kinds), max_size=n - len(kinds))
    order = data.draw(st.permutations([*range(len(kinds)), *data.draw(more)]), label="order")
    table = np.array([[CELL_VALUES[k] for k in kinds[kind]] for kind in order])
    cand = np.linspace(-1.0, 2.0, n)
    tol = 0.02 if pairwise else synthesis.DEFAULT_LEVEL_TOL
    assert (_kernels.level_labels(table, tol) is None) == pairwise
    text, csv = _template_synthesize(cand, table, tt, tol)
    argv = ["synthesize", tt.name, "--tol", repr(tol)]
    with contextlib.ExitStack() as stack:
        stack.enter_context(mock.patch.object(synthesis, "candidate_table", lambda *args: (cand, table)))
        stack.enter_context(mock.patch.object(cli, "_REUSE_BYTES", budget))
        stack.enter_context(mock.patch.object(cli, "_ROW_BLOCK", row_block))
        stack.enter_context(mock.patch.object(_kernels, "_BLOCK_QUADRUPLES", kernel_block))
        out_path = Path(stack.enter_context(tempfile.TemporaryDirectory())) / "out.csv"
        stdout = stack.enter_context(contextlib.redirect_stdout(io.StringIO()))
        code = cli.main(argv + (["--out", str(out_path)] if with_out else []))
        written = out_path.read_text() if out_path.exists() else None
    if text.startswith("0 "):  # no hit: one line, which names the default grid
        assert (code, written) == (3, None)
        assert stdout.getvalue().startswith(f"no {tt.name} assignments on grid ")
        return
    assert code == 0
    assert_same_text(stdout.getvalue(), text)
    assert written == (csv if with_out else None)


@pytest.fixture
def rendered(monkeypatch):
    """The number of rows of each `_row_block` call, in every output."""
    counts = []
    original = cli._row_block

    def counted(literals, fields):
        counts.append(len(fields[0]))
        return original(literals, fields)

    monkeypatch.setattr(cli, "_row_block", counted)
    return counts


def test_recurring_lines_are_rendered_once_per_class_pair(tmp_path, capsys, rendered):
    # the thermal table on pi/8 steps repeats its rows with period 2 pi:
    # of the 54,756 lines of each output, 1,872 are rendered, the lines
    # after the prefix once for each class pair
    row = PINNED["synthesize_xnor_eighth_pi_48_out"]
    code, out, err = run(capsys, *row.argv(str(tmp_path / "out.csv")))
    assert (code, err) == (0, "")
    assert out.count("\n") == 54757
    assert sum(rendered) == 2 * 1872


# A two-pulse table whose round-off zeros print other digits in each 2 pi
# period: its 40 rows fall into 32 classes of labels and printed levels,
# but into 5 classes of labels alone.
ROUND_OFF_ZEROS = (
    "--initial x --pulses 2 --observable mx --inputs phi2,beta1 "
    "--fix phi1=1/2pi --fix beta2=pi --grid=12/8pi:1/8pi:40 --out OUT"
)


@pytest.mark.parametrize(
    "command,hits,rows",
    [
        # NOR prints both its levels from row i0, so rows i1 alike in
        # labels are one class: 7,700 of 2 x 52,500 lines are rendered
        (f"synthesize NOR {ROUND_OFF_ZEROS}", 52500, 7700),
        # AND prints a level from row i1, so row i1's printed levels
        # split its classes too, and every line is rendered
        (f"synthesize AND {ROUND_OFF_ZEROS}", 52500, 77000),
        # NOT B prints both its levels from row i0
        (PINNED["synthesize_not_b_x_two_pulse_half_pi_16_out"].command, 13312, 4608),
    ],
    ids=["nor", "and", "not-b"],
)
def test_rows_i1_are_classed_by_labels_when_no_level_is_printed_from_them(
    tmp_path, capsys, rendered, command, hits, rows
):
    out_path = tmp_path / "out.csv"
    argv = [str(out_path) if word == "OUT" else word for word in shlex.split(command)]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out.count("\n") == hits + 1
    assert out_path.read_text().count("\n") == hits + 1
    assert sum(rendered) == rows


@pytest.mark.parametrize("budget", [cli._REUSE_BYTES, cli._REUSE_BYTES // 8])
def test_held_lines_stay_within_the_budget(monkeypatch, budget):
    # A on the thermal pi/8 table at n = 48 holds about 6 MB of lines for
    # the row pairs to come when nothing bounds them

    def peak(budget):
        monkeypatch.setattr(cli, "_REUSE_BYTES", budget)
        with open(os.devnull, "w") as sink:
            monkeypatch.setattr(sys, "stdout", sink)
            tracemalloc.start()
            try:
                code = cli.main(["synthesize", "A", "--grid", "0:1/8pi:48", "--out", os.devnull])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert code == 0
        return peak

    # without held lines, the peak is the table, the search and one block
    fresh, bounded, unbounded = peak(0), peak(budget), peak(1 << 40)
    assert unbounded > fresh + 2 * budget, (fresh, unbounded)
    assert bounded < fresh + budget, (fresh, bounded)


GRID_FAMILIES = {
    "x-phi2,phi1": (
        X_EQUAL_FLIPS_FLAGS,
        synthesis.Scenario(
            "x", 2, "mx", ("phi2", "phi1"), fixed=(("beta1", PI / 2), ("beta2", PI / 2))
        ),
    ),
    "z-phi2,beta2": (
        ("--initial", "z", "--pulses", "2", "--inputs", "phi2,beta2",
         "--fix", "phi1=0", "--fix", "beta1=1/2pi"),
        synthesis.Scenario(
            "z", 2, "mx", ("phi2", "beta2"), fixed=(("phi1", 0.0), ("beta1", PI / 2))
        ),
    ),
    "z-beta,phi": (
        ("--initial", "z", "--pulses", "1", "--inputs", "beta,phi"),
        synthesis.Scenario("z", 1, "mx", ("beta", "phi")),
    ),
}


@pytest.mark.parametrize("block", [None, 7], ids=["default", "7"])
# rows of 3 points put two or more A-rows in a block; at a block of 7
# points, rows of 9 or 101 are each longer than a block; at the default
# block, the 101 x 101 grid takes three blocks
@pytest.mark.parametrize("grid", ["1/8pi:1/3pi:3", "-1/3pi:1/4pi:9", "0:1/50pi:101"])
@pytest.mark.parametrize("family", GRID_FAMILIES)
def test_grid_bytes_match_reference(tmp_path, capsys, monkeypatch, family, grid, block):
    if block is not None:
        monkeypatch.setattr(cli, "_ROW_BLOCK", block)
    flags, scenario = GRID_FAMILIES[family]
    out_path = tmp_path / "grid.csv"
    code, out, err = run(capsys, "grid", *flags, f"--grid={grid}", "--out", str(out_path))
    assert (code, out, err) == (0, "", "")
    axis = cli.parse_grid(grid)
    assert_same_text(out_path.read_bytes().decode(), _reference_grid(scenario, axis, axis))


@pytest.mark.parametrize("block", [cli._ROW_BLOCK, 7])
def test_grid_bytes_match_reference_on_default_axes(tmp_path, capsys, monkeypatch, block):
    monkeypatch.setattr(cli, "_ROW_BLOCK", block)
    out_path = tmp_path / "grid.csv"
    code, _, _ = run(capsys, "grid", *MIXED_FLAGS, "--out", str(out_path))
    assert code == 0
    phi_axis = GridSpec(0.0, 4 * PI / 101, 101)
    beta_axis = GridSpec(-2 * PI, 4 * PI / 101, 101)
    assert_same_text(
        out_path.read_bytes().decode(), _reference_grid(MIXED, phi_axis, beta_axis)
    )


@pytest.mark.parametrize("block", [cli._ROW_BLOCK, 7])
def test_grid_stdout_matches_reference(capsys, monkeypatch, block):
    monkeypatch.setattr(cli, "_ROW_BLOCK", block)
    code, out, _ = run(capsys, "grid", "--initial", "x", "--grid=-1/3pi:1/4pi:9")
    grid = cli.parse_grid("-1/3pi:1/4pi:9")
    scenario = synthesis.Scenario("x", 1, "mx", ("phi", "beta"))
    assert code == 0
    assert_same_text(out, _reference_grid(scenario, grid, grid))


# boundary validation -----------------------------------------------------------


# cases that pin the whole message: a tolerance the search rejects once
# it has built the table, and a grid count that is not an integer
INVALID_NUMBER_MESSAGES = {
    ("synthesize", "XOR", "--initial", "z", "--tol", "nan"):
        "error: tolerance must be finite and non-negative, got nan\n",
    ("synthesize", "XOR", "--initial", "z", "--tol", "-1"):
        "error: tolerance must be finite and non-negative, got -1.0\n",
    ("synthesize", "XOR", "--grid", "0:1:2.5"): "error: grid count must be an integer, got '2.5'",
    ("synthesize", "XOR", "--grid", "0:1:"): "error: grid count must be an integer, got ''",
    ("verify", "--grid", "0:1:2.5"): "error: grid count must be an integer, got '2.5'",
    ("grid", "--pulses", "2", "--inputs", "phi2,phi1", "--fix", "beta1=nan", "--fix", "beta2=1",
     "--grid", "0:1:2"): "error: beta1 must be finite, got nan\n",
}


@pytest.mark.parametrize(
    "argv",
    [
        ("synthesize", "T", "--initial", "z", "--lambda", "nan"),
        ("synthesize", "T", "--initial", "z", "--lambda", "inf"),
        ("grid", "--initial", "x", "--grid", "0:1/2pi:4", "--lambda", "nan"),
        ("grid", "--initial", "x", "--grid", "0:1/2pi:4", "--lambda", "inf"),
        ("verify", "--lambda", "nan"),
        ("verify", "--tol", "nan"),
        # empty values are errors, not the defaults
        ("synthesize", "XOR", "--tol="),
        ("synthesize", "XOR", "--grid="),
        ("grid", "--grid="),
        ("verify", "--tol="),
        ("verify", "--grid="),
        # finite start and step, but the last grid value overflows
        ("grid", "--grid", "1e308:1e308:2"),
        ("synthesize", "AND", "--grid", "1e308:1e308:3"),
        ("verify", "--grid", "1e308:1e308:2"),
        *INVALID_NUMBER_MESSAGES,
        # argparse's own errors take the same one-line handler
        ("synthesize",),
        ("synthesize", "XOR", "--pulses", "3"),
        ("synthesize", "XOR", "--frobnicate"),
    ],
    ids=lambda argv: " ".join(argv),
)
def test_invalid_numbers_are_usage_errors(tmp_path, capsys, argv):
    out_path = tmp_path / "out.csv"
    out_flag = () if argv[0] == "verify" else ("--out", str(out_path))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, *argv, *out_flag)
    assert code == 1
    assert out == ""
    assert err.startswith(INVALID_NUMBER_MESSAGES.get(argv, "error: "))
    assert err.count("\n") == 1
    assert not out_path.exists()


# generated command lines -----------------------------------------------------


def _mostly(usual, odd):
    """One of `usual` three times in four, else one of `odd`."""
    pick = st.tuples(st.booleans(), st.booleans(), st.sampled_from(usual), st.sampled_from(odd))
    return pick.map(lambda t: t[3] if t[0] and t[1] else t[2])


# values that have reached the boundary before: non-finite, overflowing
# and subnormal numbers, a zero denominator, digits outside ASCII (Python
# reads "٣" as 3), an empty value and a word
ODD_VALUES = ("nan", "inf", "-1", "1e400", "5e-324", "1/0pi", "٣", "٣/٨pi", "", "x")
FLAG_VALUES = {
    "initial": ("z", "x", "y"),
    "pulses": ("1", "2", "3", "٢"),
    "inputs": ("phi,beta", "beta,phi", "phi2,phi1", "phi2,beta1", "phi1,phi1", "phi"),
    "fix": ("phi1=1/2pi", "beta1=1/2pi", "beta2=pi", "phi2=0", "beta=1", "phi1", "beta1=nan"),
    "observable": ("mx", "my", "mxy", "mz"),
    "lambda": ("1", "0", "-1/2pi", "1e10"),
    "tol": ("1e-9", "0", "0.02", "0.5"),
}
# scenarios that bind every parameter, for the drawn flags to amend
SCENARIOS = (
    "",
    "--pulses 2 --inputs phi2,phi1 --fix beta1=1/2pi --fix beta2=1/2pi",
    "--initial x --pulses 2 --inputs phi2,beta1 --fix phi1=1/2pi --fix beta2=pi",
)


def _grid_values(command):
    # synthesize T --lambda 0 writes count^4 rows; grid and verify stay small
    counts = ("1", "3", "8", "٨") + (("64", "٦٤") if command != "synthesize" else ())
    return st.builds(
        "{}:{}:{}".format,
        _mostly(("0", "-1/2pi", "١"), ("1e308", "nan", "5e-324", "1e400", "")),
        _mostly(("1/8pi", "0.37", "٣/٨pi"), ("1e308", "5e-324", "1/0pi", "0", "nan")),
        _mostly(counts, ("0", "-1", "nan", "2.5", "")),
    )


def _flag_value(flag, command, root):
    """A value for `--flag`: its own, an odd one, or a path under `root`."""
    if flag == "grid":
        return _grid_values(command)
    if flag in ("out", "config"):
        paths = _mostly(("out.csv", "settings.cfg"), ("missing/out.csv", "", "missing.cfg"))
        return paths.map(lambda name: str(root / name) if name else "")
    return _mostly(FLAG_VALUES[flag], ODD_VALUES)


@settings(max_examples=250, deadline=None, derandomize=True)
@given(data=st.data())
def test_generated_command_lines_keep_the_boundary_contract(data):
    # any command line ends with an exit code of 0-4 and no traceback, and
    # an error (exit 1 or 2) is one "error:" line; the unknown-gate
    # message lists the valid tokens on its second line
    command = data.draw(_mostly(list(cli._COMMANDS), ["frobnicate"]), label="command")
    spec = cli._COMMANDS.get(command, cli._Command("", None))
    argv = [command]
    if spec.gate and data.draw(st.integers(0, 9), label="gate?"):
        tokens = ("AND", "nor", "NOT B", "T", "15", "≤", "٣")
        argv.append(data.draw(_mostly(tokens, ("16", "-1", "frobnicate", "")), label="gate"))
    if command in ("grid", "synthesize"):
        argv += data.draw(st.sampled_from(SCENARIOS), label="scenario").split()
    # mostly the command's own flags, some of another command's
    flags = _mostly(spec.flags or list(cli._FLAGS), list(cli._FLAGS))
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        if "grid" in spec.flags:  # every run draws its grid, within the bounds
            argv.append("--grid=" + data.draw(_grid_values(command), label="grid"))
        for flag in data.draw(st.lists(flags, max_size=3), label="flags"):
            value = data.draw(_flag_value(flag, command, root), label=flag)
            argv += [f"--{flag}={value}"] if data.draw(st.booleans()) else [f"--{flag}", value]
        lines = []
        for key in data.draw(st.lists(flags | st.just("frobnicate"), max_size=2), label="config keys"):
            value = data.draw(_flag_value(key, command, root) if key in cli._FLAGS else st.just("1"))
            lines.append(f"{key}={value}\n")
        (root / "settings.cfg").write_text("".join(lines), encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    err = err.getvalue()
    assert code in range(5), (argv, code)
    assert "Traceback" not in err
    if code in (cli.EXIT_USAGE, cli.EXIT_IO):
        first, *rest = err.splitlines()
        assert first.startswith("error: "), (argv, err)
        assert rest == [] or (
            first.startswith("error: unknown gate") and len(rest) == 1 and rest[0].startswith("valid tokens: ")
        ), (argv, err)
    else:
        assert err == "", (argv, err)
