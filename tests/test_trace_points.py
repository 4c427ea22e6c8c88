"""The benchmark's wrap points still exist, still run, and still take the
arguments its counters read.

perfbench/tracing.py times and counts the pipeline by replacing the
module attributes it lists in `TRACED`.  A wrapped function that is
deleted or renamed fails `Tracer.install`; one that no run calls any
more reads zero in every layer metric it feeds; and one whose arguments
move feeds its counter the wrong values.  This test installs the tracer
over a few small runs and checks all three.
"""

import importlib.util
import math
import shlex
from pathlib import Path

import pinned_runs
from nmrlogic import _kernels, cli, gates, synthesis
from nmrlogic.observables import GridSpec

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_runs_and_feeds_its_counter(tmp_path):
    tracing = load_tracing()
    tracer = tracing.Tracer({"cli": cli, "synthesis": synthesis, "_kernels": _kernels})
    scenario = synthesis.reference_single_pulse_scenario()
    grid = GridSpec(0.0, math.pi / 2, 8)
    tracer.install()
    try:
        assert cli.main(["verify"]) == 0
        assert cli.main(["synthesize", "XOR", "--grid", "0:1/4pi:16",
                         "--out", str(tmp_path / "synthesize.csv")]) == 0
        assert cli.main(["grid", *shlex.split(pinned_runs.TWO_PULSE_X), "--grid", "0:1/4pi:8",
                         "--out", str(tmp_path / "grid.csv")]) == 0
        found = synthesis.synthesize(scenario, gates.XOR, grid)
        count = synthesis.count_assignments(scenario, gates.XOR, grid)
    finally:
        tracer.uninstall()
    spans = tracer.take()
    ran = {span["name"] for span in spans}
    assert [path for path, _ in tracing.TRACED if path not in ran] == []

    # the last span of each name: the grid run for cli's evaluator and the
    # propagation, the explicit synthesize and count_assignments calls for
    # the rest
    last = {span["name"]: span for span in spans}
    # A and B at positional arguments 4 and 5: an 8 x 8 table
    assert last["cli.scenario_components"]["points"] == 64
    assert last["synthesis.scenario_components"]["points"] == 64
    assert last["_kernels.two_pulse_components"]["points"] == 64
    # the table first: every quadruple of the 8-point grid
    assert last["_kernels.find_gate_quadruples"]["covered"] == 8**4
    assert last["_kernels.find_gate_quadruples"]["hits"] == count == len(found) > 0
    assert last["synthesis.synthesize"]["built"] == count
