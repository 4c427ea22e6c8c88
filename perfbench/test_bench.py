"""Self-tests of the benchmark.  Run: python3 -m pytest perfbench -q"""

import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import Command  # noqa: E402

NMR = run._program_modules()


def _tiny_commands(out_dir: Path):
    """One command per layer on small grids: every wrapped function runs."""
    specs = [
        ("verify", None, (), (0, 4, 16), 0, None),
        ("synthesize", "AND", workloads.THERMAL_1P, (3, 8, 16), 0, 784),
        ("synthesize", "XOR", ("--initial", "x", "--pulses", "1", "--observable", "my",
                               "--inputs", "phi,beta"), (1, 8, 16), 3, 0),
        ("grid", None, ("--initial", "x", "--pulses", "2", "--inputs", "phi2,beta1",
                        "--fix", "phi1=1/2pi", "--fix", "beta2=pi"), (5, 100, 24), 0, 576),
    ]
    commands = []
    for k, (kind, gate, scenario, grid, expect_exit, rows) in enumerate(specs):
        cid = f"t{k}"
        argv = [kind] + ([gate] if gate else []) + list(scenario)
        argv.append(workloads.grid_token(*grid))
        out = None
        if kind != "verify":
            out = str(out_dir / f"{cid}.csv")
            argv += ["--out", out]
        commands.append(Command(cid=cid, argv=tuple(argv), kind=kind,
                                expect_exit=expect_exit, grid=grid, scenario=scenario,
                                gate=gate, out=out, expect_rows=rows,
                                out_dir=str(out_dir)))
    return commands


@pytest.fixture(scope="module")
def traced_runs(tmp_path_factory):
    """Two fresh workers, each with two traced passes of the tiny plan."""
    runs = []
    for k in range(2):
        out_dir = tmp_path_factory.mktemp(f"run{k}")
        commands = _tiny_commands(out_dir)
        result = run.run_worker(commands, [False, True, True], "tiny", out_dir)
        runs.append((commands, result, out_dir))
    return runs


def test_count_metrics_repeat_exactly(traced_runs):
    layers = [p["layers"] for _, result, _ in traced_runs
              for p in result["passes"] if p["traced"]]
    assert len(layers) == 4
    for name in tracing.COUNT_METRICS:
        assert len({layer[name] for layer in layers}) == 1, name
    first = layers[0]
    assert first["synthesis.assignments_built"] == 784
    assert first["kernels.quadruples_covered"] > 0
    assert first["kernels.points_propagated"] >= 24 * 24
    assert first["cli.rows_out"] > 0


def test_spans_nest_under_cli_main(traced_runs):
    _, _, out_dir = traced_runs[0]
    spans = [json.loads(line) for line in (out_dir / "spans-tiny.jsonl").open()]
    by_id = {(s["pass"], s["id"]): s for s in spans}
    names = {s["name"] for s in spans}
    assert {name for name, _ in tracing.TRACED} <= names
    for span in spans:
        if span["name"] == "cli.main":
            assert span["parent"] is None
        else:
            parent = by_id[(span["pass"], span["parent"])]
            assert parent["start"] <= span["start"] <= span["end"] <= parent["end"]
            assert parent["command"] == span["command"]


def test_outputs_pass_checks_and_digests_repeat(traced_runs):
    (commands, first, _), (_, second, _) = traced_runs
    for commands_k, result in ((commands, first), (traced_runs[1][0], second)):
        verdict = checks.check_run(NMR, commands_k, result["passes"], 1, {})
        assert verdict == {"failed": 0, "problems": []}
    digests = [(c["stdout_sha"], c["out_sha"]) for c in first["passes"][0]["commands"]]
    assert digests == [(c["stdout_sha"], c["out_sha"])
                       for c in second["passes"][0]["commands"]]


def test_checks_count_corrupt_outputs(traced_runs):
    commands, result, out_dir = traced_runs[0]
    passes = result["passes"]
    grid_cmd = next(c for c in commands if c.kind == "grid")
    path = Path(grid_cmd.out)
    original = path.read_text()
    lines = original.splitlines(keepends=True)
    try:
        path.write_text(lines[0] + "".join(
            line.replace(",", ",1", 1) for line in lines[1:]))  # shift input B
        verdict = checks.check_run(NMR, commands, passes, 1, {})
        assert verdict["failed"] == len(passes)
    finally:
        path.write_text(original)

    wrong_exit = [replace(c, expect_exit=0) if c.expect_exit == 3 else c for c in commands]
    assert checks.check_run(NMR, wrong_exit, passes, 1, {})["failed"] == len(passes)

    pins = {c["cid"]: {"exit": c["exit"], "stdout": "0" * 64, "out": c["out_sha"]}
            for c in passes[0]["commands"]}
    verdict = checks.check_run(NMR, commands, passes, 1, pins)
    assert verdict["failed"] == len(passes) * len(commands)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_seed_does_not_change_hit_counts(seed, tmp_path):
    for workload in ("synth-dense", "search-sparse"):
        for cmd in workloads.build(workload, seed, str(tmp_path)):
            if cmd.kind != "synthesize":
                continue
            num, den, count = cmd.grid
            scenario = checks._scenario(NMR.synthesis, checks._flags(cmd.scenario))
            grid = NMR.synthesis.GridSpec(math.pi * num / den, math.pi / den, count)
            tt = NMR.gates.parse_gate(cmd.gate)
            assert NMR.synthesis.count_assignments(scenario, tt, grid) == cmd.expect_rows


def test_same_seed_same_commands(tmp_path):
    for workload in workloads.WORKLOADS:
        a = workloads.build(workload, 5, str(tmp_path))
        assert a == workloads.build(workload, 5, str(tmp_path))
        assert [c.argv for c in a] != [c.argv for c in workloads.build(workload, 6, str(tmp_path))]


def test_grid_export_seeds_keep_the_scenarios(tmp_path):
    def unordered(cmd):
        flags = list(cmd.scenario)
        k = flags.index("--inputs") + 1
        flags[k] = ",".join(sorted(flags[k].split(",")))
        return flags

    first = [unordered(c) for c in workloads.build("grid-export", 0, str(tmp_path))]
    for seed in range(1, 6):
        assert [unordered(c) for c in workloads.build("grid-export", seed, str(tmp_path))] == first


def test_probes_surround_every_command(traced_runs):
    commands, result, _ = traced_runs[0]
    for record in result["passes"]:
        assert len(record["probe_s"]) == len(commands) + 1
        assert all(len(gap) == calibrate.PROBES_PER_GAP for gap in record["probe_s"])
        assert record["wall_s"] == sum(c["wall_s"] for c in record["commands"])


def test_scaled_times_use_the_pass_mean_without_warm_ups():
    ref = calibrate.REFERENCE_PROBE_S
    gaps = [[9.0, ref, ref], [9.0, 3 * ref, 3 * ref], [9.0, 2 * ref, 2 * ref]]
    assert calibrate.scaled_times([1.0, 4.0], gaps) == pytest.approx([0.5, 2.0])


def test_tail_percentile():
    assert run.tail_percentile(list(range(100)))[:2] == (89, 90.0)
    value, pct, n = run.tail_percentile(list(range(40)))
    assert (value, n) == (29, 40) and sum(x > value for x in range(40)) == 10
    assert run.tail_percentile([3.0, 1.0, 2.0]) == (2.0, 50.0, 3)


def test_benchmark_json_lists_what_run_reports():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END_UNITS)
    for metric in bench["end_to_end"]:
        assert metric["unit"] == run.END_TO_END_UNITS[metric["name"]]
    layer_names = list(tracing.layer_metrics([])) + [
        "cli.rows_out", "cli.bytes_out", "trace.overhead_s"]
    assert sorted(m["name"] for m in bench["per_layer"]) == sorted(layer_names)
    for metric in bench["per_layer"]:
        assert metric["unit"] == run._layer_unit(metric["name"])
