import math
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from nmrlogic import cli, gates, synthesis
from nmrlogic.observables import GridSpec, scenario_components

PI = math.pi


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


def test_grid_unwritable_path(capsys, tmp_path):
    target = tmp_path / "missing-dir" / "out.csv"
    code, _, err = run(capsys, "grid", "--grid", "0:1:4", "--out", str(target))
    assert code == 2
    assert "cannot write" in err


def test_grid_rejects_bad_inputs(capsys):
    code, _, err = run(capsys, "grid", "--pulses", "2", "--grid", "0:1:4")
    assert code == 1
    assert "--inputs" in err


# classify subcommand ---------------------------------------------------------


def test_classify_xor(capsys):
    code, out, _ = run(capsys, "classify", "XOR")
    assert code == 0
    assert "class: 3" in out
    assert "A=0, B=0" in out
    assert "XNOR" in out


def test_classify_nand(capsys):
    code, out, _ = run(capsys, "classify", "nand")
    assert code == 0
    assert "class: 2" in out
    assert "A=1, B=1" in out


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


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize(
    "argv,golden",
    [
        ((), "verify_default.txt"),
        (("--grid", "0:1/8pi:24"), "verify_grid_eighth_pi_24.txt"),
    ],
)
def test_verify_stdout_matches_golden(capsys, argv, golden):
    code, out, err = run(capsys, "verify", *argv)
    assert code == 0
    assert err == ""
    assert_same_text(out, (GOLDEN / golden).read_text(encoding="utf-8"))


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
        (("verify",), "tol=\n", "could not convert string to float: ''"),
        (("synthesize", "XOR"), "grid=\n", "grid must be start:step:count, got ''"),
    ],
    ids=[
        "pulses-choice",
        "pulses-type",
        "initial-choice",
        "observable-choice",
        "empty-tol",
        "empty-grid",
    ],
)
def test_config_values_get_the_flag_checks(tmp_path, capsys, argv, text, message):
    config = tmp_path / "run.cfg"
    config.write_text(text)
    code, out, err = run(capsys, *argv, "--config", str(config))
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


def _reference_synthesize(scenario, tt, grid, tol=synthesis.DEFAULT_LEVEL_TOL):
    """stdout and CSV text formatted one row per `GateAssignment`."""
    assignments = synthesis.synthesize(scenario, tt, grid, tol)
    text = [
        f"{len(assignments)} {tt.name} assignment(s), class "
        f"{gates.gate_class(tt).value}\n"
    ]
    csv = ["a0,a1,b0,b1,level0,level1\n"]
    for asg in assignments:
        levels = {int(bit): level for level, bit in asg.level_map}
        csv.append(
            f"{asg.a_values[0]:.12g},{asg.a_values[1]:.12g},"
            f"{asg.b_values[0]:.12g},{asg.b_values[1]:.12g},"
            f"{levels.get(0, float('nan')):.12g},"
            f"{levels.get(1, float('nan')):.12g}\n"
        )
        level_text = " ".join(f"{level:.12g}->{int(bit)}" for level, bit in asg.level_map)
        text.append(
            f"A=({asg.a_values[0]:.12g}, {asg.a_values[1]:.12g}) "
            f"B=({asg.b_values[0]:.12g}, {asg.b_values[1]:.12g}) "
            f"levels {level_text}\n"
        )
    return "".join(text), "".join(csv)


def assert_same_text(actual, expected):
    """Equality that reports the first differing line, not a full diff of
    outputs that run to megabytes."""
    if actual == expected:
        return
    got, want = actual.splitlines(True), expected.splitlines(True)
    k = next((k for k, pair in enumerate(zip(got, want)) if pair[0] != pair[1]),
             min(len(got), len(want)))
    pytest.fail(
        f"line {k} differs: {got[k:k + 1]} != {want[k:k + 1]} "
        f"({len(got)} vs {len(want)} lines)"
    )


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
    text, csv = _reference_synthesize(scenario, gates.parse_gate(gate), cli.parse_grid(grid))
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
    text, csv = _reference_synthesize(
        THERMAL, gates.AND, cli.parse_grid("0:1/4pi:16"), 0.01
    )
    assert code == 0
    assert_same_text(out, text)
    assert_same_text(out_path.read_bytes().decode(), csv)


def _reference_grid(scenario, grid_a, grid_b):
    """Grid CSV formatted one numpy scalar at a time."""
    avals, bvals = grid_a.values(), grid_b.values()
    mesh_a, mesh_b = np.meshgrid(avals, bvals, indexing="ij")
    mx, my, _ = scenario_components(
        scenario.initial, scenario.pulses, scenario.inputs, scenario.fixed_values,
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


def test_grid_bytes_match_reference_on_default_axes(tmp_path, capsys):
    out_path = tmp_path / "grid.csv"
    code, _, _ = run(capsys, "grid", *MIXED_FLAGS, "--out", str(out_path))
    assert code == 0
    phi_axis = GridSpec(0.0, 4 * PI / 101, 101)
    beta_axis = GridSpec(-2 * PI, 4 * PI / 101, 101)
    assert_same_text(
        out_path.read_bytes().decode(), _reference_grid(MIXED, phi_axis, beta_axis)
    )


def test_grid_stdout_matches_reference(capsys):
    code, out, _ = run(capsys, "grid", "--initial", "x", "--grid=-1/3pi:1/4pi:9")
    grid = cli.parse_grid("-1/3pi:1/4pi:9")
    scenario = synthesis.Scenario("x", 1, "mx", ("phi", "beta"))
    assert code == 0
    assert_same_text(out, _reference_grid(scenario, grid, grid))


# boundary validation -----------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ("synthesize", "XOR", "--initial", "z", "--tol", "nan"),
        ("synthesize", "XOR", "--initial", "z", "--tol", "-1"),
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
    assert err.startswith("error: ")
    assert not out_path.exists()
