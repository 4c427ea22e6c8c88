"""A fixed calibration probe for reading timings on a shared host.

On a VM that shares its cores, the same code runs 20-50% slower from one
second to the next, and CPU time tracks wall time, so neither tells the
program's cost from the host's load.  The worker therefore runs `probe`
between the commands of every pass.  The probe does a fixed amount of the
same kinds of work the program does: Python loops that build small
objects, float formatting and joining as in the CSV and synthesize rows,
and numpy broadcasting and elementwise math as in the search and
propagation kernels.  Its time measures how fast the host runs this mix
right now.

A pass's times in reference seconds are its wall times scaled by
``REFERENCE_PROBE_S / mean probe time`` over the pass's gaps: the time the
pass would take on a host that runs one probe in ``REFERENCE_PROBE_S``.
The first probe of each gap is a warm-up and is left out, because it runs
on caches the command before it has just filled.  The probe never calls
into nmrlogic, so a change to the program moves the scaled time as it
moves the wall time.

On a 2-vCPU Xeon VM the probe's time flips between about 10 ms and 17 ms
every tenth of a second or so, and each vCPU flips on its own (probes
pinned to the two vCPUs at once correlate by 0.1-0.25), so the probes run
in the measured process.  One gap samples one state; the mean over the pass's gaps
estimates how much of the pass ran slow.  Scaling a single command by the
gaps next to it follows the host no better, because those few gaps
sample too few flips.
"""

from __future__ import annotations

import time

import numpy as np

# Probe time the reference seconds are scaled to: about the probe's own
# median on a 2-vCPU Xeon VM.  Any fixed value compares runs alike.
REFERENCE_PROBE_S = 0.015
# Probes per calibration gap, the first of which is a warm-up.
PROBES_PER_GAP = 4

_FORMAT_VALUES = [k * 0.7390851332151607 - 41.0 for k in range(4000)]
_ANGLES = np.linspace(0.0, 2.0 * np.pi, 64)


def _python_part() -> int:
    rows = []
    for k, value in enumerate(_FORMAT_VALUES):
        rows.append(f"{k},{value:.12g},{value * 0.5:.12g},{-value:.12g}")
    pairs = [(k, k * 3 % 7, (k & 1) == 0) for k in range(15000)]
    total = sum(a * b for a, b, keep in pairs if keep)
    return len("\n".join(rows)) + total


def _numpy_part() -> float:
    a = np.cos(_ANGLES)[:, None, None] * np.sin(_ANGLES)[None, :, None]
    b = np.sin(_ANGLES)[None, None, :]
    close = np.abs(a - b) < 0.25
    grid = np.linspace(0.0, np.pi, 400)
    c = np.cos(grid)[:, None] * np.cos(grid)[None, :] - np.sin(grid)[:, None] * 0.5
    return float(close.sum() + np.count_nonzero(np.argwhere(close)) + c.sum())


def probe() -> float:
    """Run the probe once; returns its wall time in seconds."""
    start = time.perf_counter()
    _python_part()
    _numpy_part()
    return time.perf_counter() - start


def probe_gap() -> list:
    """One calibration gap: the times of PROBES_PER_GAP probes."""
    return [probe() for _ in range(PROBES_PER_GAP)]


def pass_scale(gaps: list) -> float:
    """Reference seconds per wall second for one pass.

    ``gaps`` holds the pass's calibration gaps, each a list of probe
    times whose first entry is the warm-up.
    """
    probes = [t for gap in gaps for t in gap[1:]]
    return REFERENCE_PROBE_S * len(probes) / sum(probes)


def scaled_times(wall_s: list, gaps: list) -> list:
    """The wall times of one pass in reference seconds."""
    scale = pass_scale(gaps)
    return [wall * scale for wall in wall_s]
