"""Output checks for benchmark runs, made after the worker has finished.

Every executed command must return its expected exit code, write nothing
to stderr and give the same output digests on every pass.  For the
default seed the digests must also match the ones pinned in
``expected.json``.  The last pass's files are then spot-checked on rows
drawn from the seed, against routes independent of the code that wrote
them:

* ``grid`` rows against ``spincore`` density-matrix propagation
  (``rot_phi``, ``propagate``, ``magnetization``);
* ``synthesize`` rows with ``synthesis.assignment_realizes``, which
  re-evaluates the four corners of the printed assignment;
* exit 3 is expected only where the capability claims say a gate class
  is out of reach, and then with the exact "no assignments" line.
"""

from __future__ import annotations

import math
import random
import re
from pathlib import Path
from typing import Dict, List

from workloads import Command

DEFAULT_SEED = 0
SPOT_ROWS = {"synthesize": 24, "grid": 48}
GRID_TOL = 1e-9  # values are printed with 12 significant digits
ANGLE_TOL = 1e-9

_SYNTH_HEAD = re.compile(r"^(\d+) (.+) assignment\(s\), class (\d)$")
_SYNTH_ROW = re.compile(
    r"^A=\((\S+), (\S+)\) B=\((\S+), (\S+)\) levels (\S+->[01])(?: (\S+->[01]))?$"
)


def angle(text: str) -> float:
    """Radians from the benchmark's own angle tokens: '3/8pi', 'pi', '0'."""
    if not text.endswith("pi"):
        return float(text)
    body = text[:-2] or "1"
    num, _, den = body.partition("/")
    return math.pi * float(num) / float(den or 1)


def _flags(scenario) -> dict:
    flags = {"fix": []}
    for key, value in zip(scenario[::2], scenario[1::2]):
        name = key.lstrip("-")
        if name == "fix":
            flags["fix"].append(value)
        else:
            flags[name] = value
    return flags


def _grid_values(cmd: Command):
    num, den, count = cmd.grid
    return math.pi * num / den, math.pi / den, count


def _fixed(flags: dict) -> dict:
    return {name: angle(value)
            for name, value in (item.split("=") for item in flags["fix"])}


def _scenario(synthesis, flags: dict):
    return synthesis.Scenario(
        initial=flags["initial"],
        pulses=int(flags["pulses"]),
        observable=flags["observable"],
        inputs=tuple(flags["inputs"].split(",")),
        fixed=tuple(_fixed(flags).items()),
    )


def _on_grid(value: float, start: float, step: float, count: int) -> bool:
    k = (value - start) / step
    return abs(k - round(k)) <= ANGLE_TOL * count and 0 <= round(k) < count


def _check_synthesize(nmr, cmd: Command, rng: random.Random) -> List[str]:
    tt = nmr.gates.parse_gate(cmd.gate)
    start, step, count = _grid_values(cmd)
    stdout = Path(cmd.stdout_path).read_text(encoding="utf-8")
    if cmd.expect_exit == 3:
        want = f"no {tt.name} assignments on grid {start:.12g}:{step:.12g}:{count}\n"
        problems = [] if stdout == want else [f"stdout {stdout[:80]!r}, want {want!r}"]
        if Path(cmd.out).exists():
            problems.append("wrote --out although nothing was found")
        return problems

    lines = stdout.splitlines()
    head = _SYNTH_HEAD.match(lines[0]) if lines else None
    if not head or int(head.group(1)) != cmd.expect_rows or head.group(2) != tt.name:
        return [f"header {lines[:1]!r}, want {cmd.expect_rows} {tt.name} assignments"]
    if int(head.group(3)) != nmr.gates.gate_class(tt).value:
        return [f"class in header {lines[0]!r} is wrong"]
    csv = Path(cmd.out).read_text(encoding="utf-8").splitlines()
    if len(lines) != cmd.expect_rows + 1 or len(csv) != cmd.expect_rows + 1:
        return [f"{len(lines) - 1} stdout rows, {len(csv) - 1} csv rows, "
                f"want {cmd.expect_rows}"]
    if csv[0] != "a0,a1,b0,b1,level0,level1":
        return [f"csv header {csv[0]!r}"]

    scenario = _scenario(nmr.synthesis, _flags(cmd.scenario))
    problems = []
    for row in rng.sample(range(1, len(lines)), SPOT_ROWS["synthesize"]):
        m = _SYNTH_ROW.match(lines[row])
        if not m:
            problems.append(f"row {row} unparsable: {lines[row]!r}")
            continue
        a = (float(m.group(1)), float(m.group(2)))
        b = (float(m.group(3)), float(m.group(4)))
        level_map = []
        for token in filter(None, m.group(5, 6)):
            level, bit = token.split("->")
            level_map.append((float(level), bit == "1"))
        levels = {int(bit): level for level, bit in level_map}
        want_csv = [*a, *b, levels.get(0, math.nan), levels.get(1, math.nan)]
        got_csv = [float(v) for v in csv[row].split(",")]
        if any(not (x == y or (math.isnan(x) and math.isnan(y)))
               for x, y in zip(got_csv, want_csv)):
            problems.append(f"row {row}: csv {csv[row]!r} disagrees with stdout")
        if not all(_on_grid(v, start, step, count) for v in (*a, *b)):
            problems.append(f"row {row}: inputs off the candidate grid")
        assignment = nmr.synthesis.GateAssignment(a, b, tuple(level_map))
        if not nmr.synthesis.assignment_realizes(scenario, assignment, tt):
            problems.append(f"row {row}: {lines[row]!r} does not realize {tt.name}")
    return problems


def _check_verify(nmr, cmd: Command, rng: random.Random) -> List[str]:
    start, step, count = _grid_values(cmd)
    lines = Path(cmd.stdout_path).read_text(encoding="utf-8").splitlines()
    head = f"verification run: lambda=1, tol=1e-10, search grid {start:.12g}:{step:.12g}:{count}"
    if not lines or lines[0] != head:
        return [f"first line {lines[:1]!r}, want {head!r}"]
    checks = lines[1:-1]
    problems = [f"check failed: {line}" for line in checks if not line.startswith("[PASS] ")]
    if lines[-1] != f"{len(checks)}/{len(checks)} checks passed":
        problems.append(f"summary line {lines[-1]!r}")
    return problems


def _oracle(nmr, flags: dict, a: float, b: float):
    """(mx, my) by 2x2 density-matrix propagation, pulse 1 first."""
    spincore = nmr.spincore
    params = _fixed(flags)
    name_a, name_b = flags["inputs"].split(",")
    params[name_a], params[name_b] = a, b
    rho = (spincore.superposition_x_state() if flags["initial"] == "x"
           else spincore.thermal_state())
    if flags["pulses"] == "1":
        u = spincore.rot_phi(params["phi"], params["beta"])
    else:
        u = (spincore.rot_phi(params["phi2"], params["beta2"])
             @ spincore.rot_phi(params["phi1"], params["beta1"]))
    m = spincore.magnetization(spincore.propagate(rho, u))
    return m.mx, m.my


def _check_grid(nmr, cmd: Command, rng: random.Random) -> List[str]:
    flags = _flags(cmd.scenario)
    start, step, count = _grid_values(cmd)
    rows = Path(cmd.out).read_text(encoding="utf-8").splitlines()
    header = flags["inputs"] + ",Mx,My,Mxy"
    if not rows or rows[0] != header:
        return [f"csv header {rows[:1]!r}, want {header!r}"]
    if len(rows) != cmd.expect_rows + 1:
        return [f"{len(rows) - 1} csv rows, want {cmd.expect_rows}"]
    if Path(cmd.stdout_path).stat().st_size:
        return ["grid --out wrote to stdout"]
    problems = []
    for cell in rng.sample(range(cmd.expect_rows), SPOT_ROWS["grid"]):
        i, j = divmod(cell, count)
        a, b = start + step * i, start + step * j
        got = [float(v) for v in rows[cell + 1].split(",")]
        mx, my = _oracle(nmr, flags, a, b)
        want = [a, b, mx, my, math.hypot(mx, my)]
        if any(abs(x - y) > GRID_TOL for x, y in zip(got, want)):
            problems.append(f"cell ({i},{j}): {rows[cell + 1]!r}, oracle {want}")
    return problems


_CONTENT = {"synthesize": _check_synthesize, "verify": _check_verify, "grid": _check_grid}


def check_run(nmr, commands: List[Command], passes: List[dict], seed: int,
              pins: Dict[str, dict]) -> Dict[str, object]:
    """Failures per executed command over all measured passes.

    `nmr` holds the program's modules (gates, synthesis, spincore).  A
    command whose last-pass output fails a spot check fails on every pass
    that produced the same digests.
    """
    last = {r["cid"]: r for r in passes[-1]["commands"]}
    content = {}
    for cmd in commands:
        rng = random.Random(f"{seed}:{cmd.cid}")
        try:
            content[cmd.cid] = _CONTENT[cmd.kind](nmr, cmd, rng)
        except (OSError, ValueError, IndexError) as exc:
            content[cmd.cid] = [f"output unreadable: {exc!r}"]

    failed, problems = 0, []
    by_cid = {cmd.cid: cmd for cmd in commands}
    for k, record in enumerate(passes):
        for result in record["commands"]:
            cmd = by_cid[result["cid"]]
            issues = []
            if result["error"]:
                issues.append(result["error"].strip().splitlines()[-1])
            if result["exit"] != cmd.expect_exit:
                issues.append(f"exit {result['exit']}, want {cmd.expect_exit}")
            if result["stderr"]:
                issues.append(f"stderr {result['stderr'][:120]!r}")
            digests = (result["stdout_sha"], result["out_sha"])
            if digests != (last[cmd.cid]["stdout_sha"], last[cmd.cid]["out_sha"]):
                issues.append("output differs from the last pass")
            else:
                issues += content[cmd.cid]
            pin = pins.get(cmd.cid)
            if pin and (result["exit"], *digests) != (pin["exit"], pin["stdout"], pin["out"]):
                issues.append("output differs from the pinned digests")
            if issues:
                failed += 1
                problems.append(f"pass {k} {cmd.cid} ({' '.join(cmd.argv[:2])}): "
                                + "; ".join(issues[:3]))
    return {"failed": failed, "problems": problems}


def pins_for(expected: dict, workload: str, seed: int) -> Dict[str, dict]:
    """Pinned digests that apply to this run, keyed by command id."""
    if seed != expected.get("seed", DEFAULT_SEED):
        return {}
    return expected.get("workloads", {}).get(workload, {})
