"""nmrlogic benchmark: whole CLI runs timed end to end, plus a traced run.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload synth-dense --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all        # every workload, both modes
    python3 perfbench/run.py --pin                 # re-pin default-seed digests

Each workload (see `workloads.py`) runs in a fresh worker process as a
closed loop with one client: the worker calls ``nmrlogic.cli.main(argv)``
for the seeded command list and sends the next command only after the
previous one returns.  One warm-up pass is discarded.  `--seconds` fixes
the number of measured passes (`workloads.PASSES_AT_20S`), so both sides
of a comparison take the same number of samples.

``--trace 0`` reports the end-to-end metrics.  Times are in reference
seconds (`calibrate.py`): each pass's wall times are scaled by how fast
the host ran a fixed calibration probe in the gaps between its commands,
because a shared host's speed can move 20-50% from one second to the
next.  The raw wall times are printed on a comment line.

* setup_s: median time, in fresh interpreters, to import nmrlogic.cli and
  call build_parser(), timed inside each child;
* pass_s: time of one pass over the command list (median);
* cmd_p50_s, cmd_p90_s: per-command time; p90 falls back to the highest
  percentile with at least ten samples beyond it;
* peak_rss_mb: ru_maxrss of the worker process.

``--trace 1`` alternates untraced and traced passes and reports the
per-module metrics from the traced ones, times also in reference seconds
(spans, in wall seconds, are written to
``perfbench/out/spans-<workload>.jsonl``), and trace.overhead_s, the
traced minus the untraced median pass time.

Outputs are checked after the worker ends (`checks.py`); a command with an
unexpected exit code or output counts as failed.  The last line of stdout
is one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
import types
from pathlib import Path

import calibrate
import checks
import workloads
from tracing import COUNT_METRICS, summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
EXPECTED = HERE / "expected.json"

SETUP_PROBES = 7
WORKER_TIMEOUT_S = 150
MIN_PASSES = 3
END_TO_END_UNITS = {"setup_s": "s", "pass_s": "s", "cmd_p50_s": "s",
                    "cmd_p90_s": "s", "peak_rss_mb": "MB"}
LAYER_UNITS = {"_s": "s", "_bytes_computed": "B", "bytes_out": "B", "hit_ratio": "ratio"}

# One thread per numeric library: the worker must use no thread beyond
# its main one.
SINGLE_THREAD_ENV = {name: "1" for name in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}

_SETUP_PROBE = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import nmrlogic.cli
nmrlogic.cli.build_parser()
print(time.perf_counter() - start)
"""


def _child_env() -> dict:
    env = dict(os.environ, **SINGLE_THREAD_ENV)
    env.pop("PYTHONPATH", None)
    return env


def measure_setup() -> tuple:
    """Import-and-parser times from fresh interpreters, raw and in
    reference seconds; the first child, which may compile bytecode, is
    discarded.  Calibration gaps run here between the children, while no
    child runs, and the children count as one pass."""
    walls, probes = [], [calibrate.probe_gap()]
    for _ in range(SETUP_PROBES + 1):
        done = subprocess.run(
            [sys.executable, "-c", _SETUP_PROBE, str(SRC)], env=_child_env(),
            capture_output=True, text=True, timeout=60, check=True)
        walls.append(float(done.stdout))
        probes.append(calibrate.probe_gap())
    return walls[1:], calibrate.scaled_times(walls, probes)[1:]


def run_worker(commands, schedule, workload, work_dir: Path = OUT) -> dict:
    """Run the schedule in a fresh worker process; returns its result."""
    plan = {
        "src": str(SRC),
        "schedule": schedule,
        "spans": str(work_dir / f"spans-{workload}.jsonl"),
        "commands": [{"cid": c.cid, "argv": list(c.argv), "out": c.out,
                      "stdout": c.stdout_path, "stderr": c.stderr_path}
                     for c in commands],
    }
    plan_path, result_path = work_dir / "plan.json", work_dir / "result.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    result_path.unlink(missing_ok=True)
    done = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(plan_path), str(result_path)],
        env=_child_env(), capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"worker exited {done.returncode}: {done.stderr[-2000:]}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def tail_percentile(samples):
    """(value, percentile, count): p90, or the highest nearest-rank
    percentile with at least ten samples above it, but not below the
    median."""
    ordered = sorted(samples)
    n = len(ordered)
    k = min(math.ceil(0.9 * n) - 1, n - 11)
    if k < (n - 1) // 2:
        return statistics.median(ordered), 50.0, n
    return ordered[k], 100.0 * (k + 1) / n, n


def _program_modules():
    sys.path.insert(0, str(SRC))
    from nmrlogic import gates, spincore, synthesis

    return types.SimpleNamespace(gates=gates, spincore=spincore, synthesis=synthesis)


def _layer_unit(name: str) -> str:
    for suffix, unit in LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 pins: dict, report) -> dict:
    """Measure one workload; returns the result object for its JSON line."""
    commands = workloads.build(workload, seed, str(OUT))
    passes = max(MIN_PASSES, round(workloads.PASSES_AT_20S[workload] * seconds / 20))
    if trace:
        pairs = max(2, round(passes / 2))
        schedule = [traced for k in range(pairs)
                    for traced in ((False, True) if k % 2 == 0 else (True, False))]
    else:
        schedule = [False] * passes
        setup_raw, setup = measure_setup()

    started = time.perf_counter()
    result = run_worker(commands, schedule, workload)
    measured_s = time.perf_counter() - started
    verdict = checks.check_run(_program_modules(), commands, result["passes"], seed, pins)
    attempted = sum(len(p["commands"]) for p in result["passes"])

    facts = result["facts"]
    report(f"# workload {workload}, seed {seed}, trace {int(trace)}: "
           f"{len(commands)} commands x {len(schedule)} passes "
           f"(+1 warm-up), closed loop, 1 client, {measured_s:.1f} s")
    report(f"# machine: nproc={facts['nproc']} cpu={_cpu_model()} "
           f"python={facts['python']} numpy={facts['numpy']} "
           f"numba_available={facts['numba_available']} backend={facts['backend']} "
           f"worker_threads={facts['worker_threads']}")
    report(f"# timings compare only with runs on the same backend ({facts['backend']}) "
           "and machine")
    for problem in verdict["problems"][:20]:
        report(f"# FAILED {problem}")
    report(f"failed_ratio {verdict['failed'] / attempted:.6g} "
           f"({verdict['failed']} of {attempted} commands)")

    untraced = [p["wall_s"] for p in result["passes"] if not p["traced"]]
    metrics = {}
    if trace:
        scaled = [(p, calibrate.pass_scale(p["probe_s"])) for p in result["passes"]]
        traced = [(p, scale) for p, scale in scaled if p["traced"]]
        layers = summarize([
            {name: value * scale if _layer_unit(name) == "s" else value
             for name, value in p["layers"].items()} for p, scale in traced])
        layers["trace.overhead_s"] = (
            statistics.median(p["wall_s"] * scale for p, scale in traced)
            - statistics.median(p["wall_s"] * scale for p, scale in scaled if not p["traced"]))
        for name, value in layers.items():
            metrics[name] = {"value": value, "unit": _layer_unit(name)}
            note = ("per pass, equal on all" if name in COUNT_METRICS else "median of")
            report(f"{name} {value:.6g} {_layer_unit(name)} "
                   f"({note} {len(traced)} traced passes)")
    else:
        scaled = [calibrate.scaled_times([c["wall_s"] for c in p["commands"]], p["probe_s"])
                  for p in result["passes"]]
        pass_times = [sum(times) for times in scaled]
        per_command = [t for times in scaled for t in times]
        tail, pct, count = tail_percentile(per_command)
        q1, _, q3 = statistics.quantiles(pass_times, n=4)
        raw_command = [c["wall_s"] for p in result["passes"] for c in p["commands"]]
        probe_times = [t for p in result["passes"] for gap in p["probe_s"] for t in gap]
        report(f"# raw wall times: setup {statistics.median(setup_raw):.4g} s, "
               f"pass {statistics.median(untraced):.4g} s, "
               f"command p50 {statistics.median(raw_command):.4g} s; "
               f"probe median {statistics.median(probe_times) * 1e3:.4g} ms, "
               f"reference {calibrate.REFERENCE_PROBE_S * 1e3:.4g} ms")
        values = {
            "setup_s": (statistics.median(setup), f"median of {len(setup)} interpreters"),
            "pass_s": (statistics.median(pass_times),
                       f"median of {len(pass_times)} passes; q1 {q1:.4g}, q3 {q3:.4g}"),
            "cmd_p50_s": (statistics.median(per_command), f"median of {count} commands"),
            "cmd_p90_s": (tail, f"p{pct:.0f} of {count} commands"),
            "peak_rss_mb": (result["peak_rss_mb"], "ru_maxrss of the worker, 1 sample"),
        }
        for name, (value, note) in values.items():
            unit = END_TO_END_UNITS[name]
            metrics[name] = {"value": value, "unit": unit}
            scale = " reference" if unit == "s" else ""
            report(f"{name} {value:.6g}{scale} {unit} ({note})")

    _record(workload, seed, trace, facts, metrics, verdict, result)
    for cmd in commands:
        for path in (cmd.out, cmd.stdout_path, cmd.stderr_path):
            if path:
                Path(path).unlink(missing_ok=True)
    return {"correct": verdict["failed"] == 0, "attempted": attempted,
            "failed": verdict["failed"], "metrics": metrics}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip().replace(" ", "_")
    except OSError:
        pass
    return platform.machine()


def _record(workload, seed, trace, facts, metrics, verdict, result) -> None:
    """Keep the run's facts, metrics and raw samples next to its spans."""
    record = {"workload": workload, "seed": seed, "trace": trace, "facts": facts,
              "metrics": metrics, "failed": verdict["failed"],
              "problems": verdict["problems"],
              "pass_s": [p["wall_s"] for p in result["passes"]],
              "probe_s": [p["probe_s"] for p in result["passes"]],
              "traced": [p["traced"] for p in result["passes"]],
              "command_s": {c["cid"]: [p["commands"][k]["wall_s"] for p in result["passes"]]
                            for k, c in enumerate(result["passes"][0]["commands"])}}
    path = OUT / f"run-{workload}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1), encoding="utf-8")


def pin(report) -> int:
    """Re-pin the default seed's exit codes and output digests."""
    pinned = {}
    for workload in workloads.WORKLOADS:
        commands = workloads.build(workload, checks.DEFAULT_SEED, str(OUT))
        result = run_worker(commands, [False], workload)
        verdict = checks.check_run(_program_modules(), commands, result["passes"],
                                   checks.DEFAULT_SEED, {})
        if verdict["failed"]:
            report("\n".join(verdict["problems"]))
            return 1
        pinned[workload] = {r["cid"]: {"exit": r["exit"], "stdout": r["stdout_sha"],
                                       "out": r["out_sha"]}
                            for r in result["passes"][0]["commands"]}
    EXPECTED.write_text(json.dumps({"seed": checks.DEFAULT_SEED, "workloads": pinned},
                                   indent=1, sort_keys=True) + "\n", encoding="utf-8")
    report(f"pinned {EXPECTED.name}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=checks.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--pin", action="store_true",
                        help="re-pin the default seed's output digests and exit")
    args = parser.parse_args(argv)

    def report(line: str) -> None:
        print(line, flush=True)

    if not (SRC / "nmrlogic" / "cli.py").is_file():
        print(f"error: no nmrlogic sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    if args.pin:
        return pin(report)
    expected = json.loads(EXPECTED.read_text(encoding="utf-8")) if EXPECTED.is_file() else {}

    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                              checks.pins_for(expected, args.workload, args.seed), report)
        print(json.dumps(result))
        return 0

    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        for trace in (False, True):
            result = run_workload(workload, args.seed, args.seconds, trace,
                                  checks.pins_for(expected, workload, args.seed), report)
            total["correct"] &= result["correct"]
            total["attempted"] += result["attempted"]
            total["failed"] += result["failed"]
            for name, metric in result["metrics"].items():
                total["metrics"][f"{workload}:{name}"] = metric
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
