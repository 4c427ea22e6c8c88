"""Closed-loop worker: one client calling ``nmrlogic.cli.main(argv)``.

Usage: python3 perfbench/worker.py PLAN.json RESULT.json

The plan names the command list and a schedule of passes.  The worker runs
one discarded warm-up pass, then each scheduled pass; within a pass it
sends the next command only after the previous one returns.  A command's
stdout and stderr go to its own files, so the CLI writes as it would to a
redirected terminal.  Digests and row counts are taken after each pass,
outside its timed region.  Calibration probes (`calibrate.py`) run in the
gaps between commands, also outside them.  Passes marked traced run with
`tracing.Tracer` installed.  The worker starts no threads and no processes.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

from calibrate import probe_gap
from tracing import Tracer, layer_metrics, write_spans


def _run_command(cli, cmd: dict, tracer: Tracer) -> dict:
    stdout = open(cmd["stdout"], "w", encoding="utf-8")
    stderr = open(cmd["stderr"], "w", encoding="utf-8")
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = stdout, stderr
    tracer.command = cmd["cid"]
    code, error = None, None
    start = time.perf_counter()
    try:
        code = cli.main(list(cmd["argv"]))
    except Exception:  # a crash fails this command; the run goes on
        error = traceback.format_exc()
    finally:
        stdout.flush()
        elapsed = time.perf_counter() - start
        sys.stdout, sys.stderr = saved
        stdout.close()
        stderr.close()
    return {"cid": cmd["cid"], "exit": code, "wall_s": elapsed, "error": error}


def _digest(path: str):
    """(sha256, lines, bytes) of a file, or None when it does not exist."""
    try:
        handle = open(path, "rb")
    except FileNotFoundError:
        return None
    sha = hashlib.sha256()
    lines = size = 0
    with handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            sha.update(chunk)
            lines += chunk.count(b"\n")
            size += len(chunk)
    return sha.hexdigest(), lines, size


def _run_pass(cli, commands, tracer: Tracer) -> dict:
    for cmd in commands:
        if cmd["out"]:
            Path(cmd["out"]).unlink(missing_ok=True)
    # A calibration gap before each command and after the last.
    probes, results = [], []
    for cmd in commands:
        probes.append(probe_gap())
        results.append(_run_command(cli, cmd, tracer))
    probes.append(probe_gap())
    wall = sum(result["wall_s"] for result in results)

    rows = size = 0
    for cmd, result in zip(commands, results):
        stdout = _digest(cmd["stdout"])
        out = _digest(cmd["out"]) if cmd["out"] else None
        result["stdout_sha"] = stdout[0]
        result["out_sha"] = out[0] if out else None
        result["stderr"] = Path(cmd["stderr"]).read_text(encoding="utf-8")[:2000]
        for digest in (stdout, out):
            if digest:
                rows += digest[1]
                size += digest[2]
    return {"wall_s": wall, "commands": results, "probe_s": probes,
            "rows_out": rows, "bytes_out": size}


def _thread_count() -> int:
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def main(plan_path: str, result_path: str) -> int:
    with open(plan_path, encoding="utf-8") as handle:
        plan = json.load(handle)
    sys.path.insert(0, plan["src"])
    import numpy
    from nmrlogic import _kernels, cli, synthesis

    tracer = Tracer({"cli": cli, "synthesis": synthesis, "_kernels": _kernels})
    commands = plan["commands"]
    _run_pass(cli, commands, tracer)  # warm-up, discarded

    passes, traced_spans = [], []
    for traced in plan["schedule"]:
        if traced:
            tracer.install()
        try:
            record = _run_pass(cli, commands, tracer)
        finally:
            tracer.uninstall()
        record["traced"] = traced
        if traced:
            spans = tracer.take()
            layers = layer_metrics(spans)
            layers["cli.rows_out"] = record["rows_out"]
            layers["cli.bytes_out"] = record["bytes_out"]
            record["layers"] = layers
            traced_spans.append(spans)
        passes.append(record)

    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {
        "passes": passes,
        "peak_rss_mb": peak_rss_kb / 1024.0,
        "facts": {
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "numba_available": bool(getattr(_kernels, "NUMBA_AVAILABLE", False)),
            "backend": "numba" if getattr(_kernels, "NUMBA_ENABLED", False) else "numpy",
            "worker_threads": _thread_count(),
        },
    }
    if traced_spans:
        write_spans(plan["spans"], traced_spans)
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
