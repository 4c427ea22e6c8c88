"""Hot numeric kernels, vectorised with numpy.

The two inner loops that dominate runtime are (a) numeric two-pulse
propagation evaluated over large parameter grids and (b) the exhaustive
search for gate-realizing parameter quadruples over a candidate grid.
`observables` and `synthesis` look both up on this module at call time, so a
wrapper set on the module attribute (as `perfbench/tracing.py` does) sees
every call.
"""

from __future__ import annotations

import numpy as np


# ---------------------------------------------------------------------------
# Two-pulse propagation: rho -> R2 R1 rho R1+ R2+, then the three traces.
#
# Rotation matrices are built from their closed-form entries
#   [[cos(b/2), -i sin(b/2) e^{-i phi}], [-i sin(b/2) e^{+i phi}, cos(b/2)]]
# which keeps this route purely matrix-algebraic; the analytic observable
# formulas it is checked against live in `observables`.
# ---------------------------------------------------------------------------


def _rotation_stack(phi: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """(N, 2, 2) complex rotation matrices for flat angle arrays."""
    half = 0.5 * beta
    c = np.cos(half)
    s = np.sin(half)
    ph = np.exp(-1j * phi)
    out = np.empty(phi.shape + (2, 2), dtype=np.complex128)
    out[..., 0, 0] = c
    out[..., 0, 1] = -1j * s * ph
    out[..., 1, 0] = -1j * s * np.conj(ph)
    out[..., 1, 1] = c
    return out


def two_pulse_components(phi2, beta2, phi1, beta1, lambda_b, from_x):
    """Vectorised numeric propagation.

    Parameters
    ----------
    phi2, beta2, phi1, beta1 : array_like
        Pulse parameters in radians, broadcast against each other.
        Pulse 1 acts first.
    lambda_b : float
        Polarization scale of the initial state.
    from_x : bool
        Start from the x-polarised superposition state instead of the
        thermal (z) state.

    Returns
    -------
    (mx, my, mz) : tuple of float64 ndarrays
    """
    phi2, beta2, phi1, beta1 = np.broadcast_arrays(
        np.asarray(phi2, dtype=np.float64),
        np.asarray(beta2, dtype=np.float64),
        np.asarray(phi1, dtype=np.float64),
        np.asarray(beta1, dtype=np.float64),
    )
    u = _rotation_stack(phi2, beta2) @ _rotation_stack(phi1, beta1)

    rho0 = np.zeros((2, 2), dtype=np.complex128)
    rho0[0, 0] = rho0[1, 1] = 0.5
    if from_x:
        rho0[0, 1] = rho0[1, 0] = 0.25 * lambda_b
    else:
        rho0[0, 0] += 0.25 * lambda_b
        rho0[1, 1] -= 0.25 * lambda_b

    rho = u @ rho0 @ u.conj().swapaxes(-1, -2)
    mx = 0.5 * (rho[..., 0, 1] + rho[..., 1, 0]).real
    my = (0.5j * (rho[..., 0, 1] - rho[..., 1, 0])).real
    mz = 0.5 * (rho[..., 0, 0] - rho[..., 1, 1]).real
    return mx, my, mz


# ---------------------------------------------------------------------------
# Gate-assignment quadruple search.
#
# `values[i, j]` is the observable with logic input A bound to candidate i
# and input B bound to candidate j.  A quadruple (i0, i1, j0, j1) realizes a
# truth table when all six corner pairs (two rows, two columns, two
# diagonals) pass `_pair_test`: corners of one output bit lie within tol,
# corners of different bits more than tol apart.  That is one level per bit:
# a spread is one pairwise gap, and interleaved levels put a cross gap within tol.
# ---------------------------------------------------------------------------


# Stage 2 takes row pairs (i0, i1) in blocks of about this many
# quadruples, so a block's masks and gathered corners stay in cache; a
# block is never smaller than one row pair.
_BLOCK_QUADRUPLES = 1 << 16


def _pair_test(gaps, same_level, tol):
    """Where two corners `gaps` apart can share one level (`same_level`) or
    lie on two different ones."""
    return gaps <= tol if same_level else gaps > tol


def iter_gate_quadruples(values, outputs, tol):
    """Yield every realizing quadruple, in non-empty (k, 4) int64 blocks.

    Blocks follow lexicographic (i0, i1, j0, j1) order.  Stage 1 tests the
    row and column pairs once per call as n^3 arrays.  Stage 2 takes row
    pairs (i0, i1) in blocks of about `_BLOCK_QUADRUPLES` quadruples and
    tests the two diagonals of the survivors.

    Parameters
    ----------
    values : (nA, nB) float64 ndarray
        Observable with input A bound to the row candidate and input B to
        the column candidate.
    outputs : sequence of 4 bools for inputs (0,0), (0,1), (1,0), (1,1)
    tol : float
        Level clustering/separation tolerance.
    """
    values = np.asarray(values, dtype=np.float64)
    nb = values.shape[1]
    o00, o01, o10, o11 = outputs
    # The pairs in one row or one column depend on three indices each.
    row_gaps = np.abs(values[:, :, None] - values[:, None, :])  # [i, j0, j1]
    col_gaps = np.abs(values[:, None, :] - values[None, :, :])  # [i0, i1, j]
    top = _pair_test(row_gaps, o00 == o01, tol)  # row i0
    bottom = _pair_test(row_gaps, o10 == o11, tol)  # row i1
    left = _pair_test(col_gaps, o00 == o10, tol)  # column j0
    right = _pair_test(col_gaps, o01 == o11, tol)  # column j1
    # XOR and XNOR put equal levels on the diagonals only: test one densely
    diagonal = o00 == o11 and o00 != o01

    # a row pair with no passing column j0, or none for j1, holds no hit
    pairs = np.argwhere(left.any(axis=2) & right.any(axis=2))
    step = max(1, _BLOCK_QUADRUPLES // (nb * nb))
    for start in range(0, len(pairs), step):
        a0, a1 = pairs[start:start + step].T
        ok = left[a0, a1, :, None] & right[a0, a1, None, :]
        ok &= top[a0]
        ok &= bottom[a1]
        if diagonal:
            gaps = values[a0, :, None] - values[a1, None, :]
            ok &= np.abs(gaps, out=gaps) <= tol
        k, cell = np.divmod(np.flatnonzero(ok), nb * nb)
        j0, j1 = np.divmod(cell, nb)
        i0, i1 = a0[k], a1[k]
        keep = _pair_test(np.abs(values[i0, j0] - values[i1, j1]), o00 == o11, tol)
        keep &= _pair_test(np.abs(values[i0, j1] - values[i1, j0]), o01 == o10, tol)
        hits = np.stack((i0, i1, j0, j1), axis=1, dtype=np.int64).compress(keep, axis=0)
        if len(hits):
            yield hits


def find_gate_quadruples(values, outputs, tol):
    """All realizing quadruples, in lexicographic (i0, i1, j0, j1) order:
    the blocks of `iter_gate_quadruples` as one (N, 4) int64 array."""
    empty = np.empty((0, 4), dtype=np.int64)
    return np.concatenate([empty, *iter_gate_quadruples(values, outputs, tol)], axis=0)
