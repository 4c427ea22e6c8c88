"""Seeded command lists for the three benchmark workloads.

A workload is a list of slots.  A slot fixes what a command costs: the
subcommand, the scenario family, the grid size and the gate orbit.  The
seed picks the members: the gate within its orbit, the grid start and the
concrete scenario within the family (for grid-export, the order of the
two inputs).  The slot order is fixed, because
the worker's peak memory depends on it.  The program receives only the
resulting argv.

Seeds do not change the work.  Hit counts are invariant under the gate
orbit moves {negate A, negate B, negate output}, and under a shift of the
grid start by whole steps when the grid length is a multiple of the
table's period in steps.  So every seed gives each slot the same number
of quadruples and hits, which lets runs with different seeds be compared.

Why each workload exists:

* synth-dense: search is almost bypassed and propagation fully bypassed;
  result building and formatting dominate.
* search-sparse: the search kernel does more than 90% of the work and
  nothing is built or printed, so a building or formatting gain should
  leave it unchanged.
* grid-export: no search runs; it is the other write path of cli and the
  only workload that stresses propagation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Tuple

WORKLOADS = ("synth-dense", "search-sparse", "grid-export")

# Measured passes per run at `--seconds 20`, scaled for other lengths.  The
# count is fixed rather than timed, so every run and both sides of a
# comparison take the same samples.  One pass takes about 3.6 s
# (synth-dense), 4.2 s (search-sparse) and 2.8 s (grid-export) in reference
# seconds (calibrate.py) with the numpy backend, so each run measures
# about 28 s.  The counts put each workload's median and tail rank (see
# run.tail_percentile) inside one group of equal-cost commands rather than
# on the edge between two, and give synth-dense a tail above its median.
PASSES_AT_20S = {"synth-dense": 8, "search-sparse": 7, "grid-export": 10}

# Gate orbits under {negA, negB, negOut}; members share hit counts.  The
# AND-like set keeps one output split (a single true corner): negating the
# output keeps the hits but changes the search's peak memory.
AND_LIKE = ("AND", "NOR", ">", "<")
XOR_LIKE = ("XOR", "XNOR")

THERMAL_1P = ("--initial", "z", "--pulses", "1", "--observable", "mx",
              "--inputs", "phi,beta")
# Realizes every gate class on pi/8 grids (capability claim).
MIXED_FIX_2P = ("--initial", "x", "--pulses", "2", "--observable", "mx",
                "--inputs", "phi2,beta1", "--fix", "phi1=1/2pi", "--fix", "beta2=pi")
# Flip angles both pi/2: no weakly canalising gate on pi/2-multiple grids.
EQUAL_FIX_2P = ("--initial", "x", "--pulses", "2", "--observable", "mx",
                "--inputs", "phi2,phi1", "--fix", "beta1=1/2pi", "--fix", "beta2=1/2pi")

# Scenarios exported by grid-export: (initial, pulses, inputs, fixes).
# The seed only transposes each one (swaps its two inputs) and picks the
# grid start, which keep the work; another family would print about 4%
# more or fewer bytes.
GRID_SCENARIOS = (
    ("x", 2, ("phi2", "phi1"), ("beta1=1/2pi", "beta2=1/2pi")),
    ("z", 2, ("phi2", "beta2"), ("phi1=0", "beta1=1/2pi")),
    ("z", 1, ("phi", "beta"), ()),
)
GRID_POINTS = 400


@dataclass(frozen=True)
class Command:
    """One CLI invocation and what its output must look like."""

    cid: str
    argv: Tuple[str, ...]
    kind: str  # synthesize | verify | grid
    expect_exit: int
    grid: Tuple[int, int, int]  # (num, den, count): start num/den pi, step 1/den pi
    scenario: Tuple[str, ...]  # scenario flags, as passed
    gate: Optional[str] = None
    out: Optional[str] = None  # --out path
    expect_rows: Optional[int] = None  # synthesize hits, or grid cells
    out_dir: str = "."

    @property
    def stdout_path(self) -> str:
        return str(Path(self.out_dir) / f"{self.cid}.stdout")

    @property
    def stderr_path(self) -> str:
        return str(Path(self.out_dir) / f"{self.cid}.stderr")


def grid_token(num: int, den: int, count: int) -> str:
    return f"--grid={num}/{den}pi:1/{den}pi:{count}"


def _slot(rng, kind, scenario, gate_set, den, count, expect_exit, expect_rows):
    gate = rng.choice(gate_set) if gate_set else None
    start = rng.randrange(2 * den)  # one full period of 2 pi
    return dict(kind=kind, scenario=tuple(scenario), gate=gate,
                grid=(start, den, count), expect_exit=expect_exit,
                expect_rows=expect_rows)


def _synth_dense(rng) -> List[dict]:
    # Hit counts are fixed per slot (see the module docstring): pi/8
    # grids of 48 points hold whole periods of every table, and on 40
    # points the AND-like counts happen not to depend on the start.
    return [
        _slot(rng, "synthesize", THERMAL_1P, AND_LIKE, 8, 40, 0, 30625),
        _slot(rng, "synthesize", THERMAL_1P, XOR_LIKE, 8, 48, 0, 54756),
        _slot(rng, "synthesize", MIXED_FIX_2P, AND_LIKE, 8, 40, 0, 52500),
    ]


def _search_sparse(rng) -> List[dict]:
    slots = [_slot(rng, "verify", (), None, 8, n, 0, None) for n in (24, 28, 32)]
    for n in (48, 64):
        # The x-state single pulse realizes classes {0,1,2} only, so no
        # XOR-like gate on any readout.
        observable = rng.choice(("mx", "my", "mxy"))
        scenario = ("--initial", "x", "--pulses", "1", "--observable", observable,
                    "--inputs", "phi,beta")
        slots.append(_slot(rng, "synthesize", scenario, XOR_LIKE, 8, n, 3, 0))
    for n in (48, 56, 64):
        slots.append(_slot(rng, "synthesize", EQUAL_FIX_2P, AND_LIKE, 2, n, 3, 0))
    return slots


def _grid_export(rng) -> List[dict]:
    # 400 points at pi/100 span 4 pi, whole periods of every input, so a
    # shifted start permutes the magnetization values and changes only
    # the printed inputs.
    slots = []
    for initial, pulses, inputs, fixes in GRID_SCENARIOS:
        if rng.random() < 0.5:
            inputs = inputs[::-1]
        scenario = ["--initial", initial, "--pulses", str(pulses),
                    "--inputs", ",".join(inputs)]
        for fix in fixes:
            scenario += ["--fix", fix]
        slots.append(_slot(rng, "grid", scenario, None, 100, GRID_POINTS, 0,
                           GRID_POINTS * GRID_POINTS))
    return slots


_BUILDERS = {
    "synth-dense": _synth_dense,
    "search-sparse": _search_sparse,
    "grid-export": _grid_export,
}


def build(workload: str, seed: int, out_dir: str) -> List[Command]:
    """The workload's command list for `seed`, writing files into `out_dir`."""
    rng = random.Random(f"{workload}:{seed}")
    slots = _BUILDERS[workload](rng)
    commands = []
    for k, slot in enumerate(slots):
        cid = f"c{k:02d}"
        argv = [slot["kind"]]
        if slot["gate"] is not None:
            argv.append(slot["gate"])
        argv += slot["scenario"]
        argv.append(grid_token(*slot["grid"]))
        out = None
        if slot["kind"] != "verify":
            out = str(Path(out_dir) / f"{cid}.csv")
            argv += ["--out", out]
        commands.append(Command(cid=cid, argv=tuple(argv), out=out,
                                out_dir=out_dir, **slot))
    return commands
