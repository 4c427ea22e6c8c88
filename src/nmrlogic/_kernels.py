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
# truth table when the four corner values cluster into one level per output
# bit (spread <= tol within a bit, gap > tol between bits).
# ---------------------------------------------------------------------------


def _quadruple_mask(corners, outputs, tol, shape):
    zeros = [c for c, o in zip(corners, outputs) if not o]
    ones = [c for c, o in zip(corners, outputs) if o]
    ok = np.ones(shape, dtype=bool)
    if zeros:
        zmin = np.minimum.reduce([np.broadcast_to(c, shape) for c in zeros])
        zmax = np.maximum.reduce([np.broadcast_to(c, shape) for c in zeros])
        ok &= (zmax - zmin) <= tol
    if ones:
        omin = np.minimum.reduce([np.broadcast_to(c, shape) for c in ones])
        omax = np.maximum.reduce([np.broadcast_to(c, shape) for c in ones])
        ok &= (omax - omin) <= tol
    if zeros and ones:
        ok &= ((omin - zmax) > tol) | ((zmin - omax) > tol)
    return ok


# a full 4-d broadcast above this many quadruples would get memory-hungry;
# search one i0 row at a time instead
_FULL_BROADCAST_LIMIT = 1 << 22


def find_gate_quadruples(values, outputs, tol):
    """All realizing quadruples, in lexicographic (i0, i1, j0, j1) order.

    Parameters
    ----------
    values : (nA, nB) float64 ndarray
        Observable with input A bound to the row candidate and input B to
        the column candidate.
    outputs : sequence of 4 bools for inputs (0,0), (0,1), (1,0), (1,1)
    tol : float
        Level clustering/separation tolerance.

    Returns
    -------
    (N, 4) int64 ndarray of candidate indices.
    """
    values = np.asarray(values, dtype=np.float64)
    na, nb = values.shape
    rows = na if na * na * nb * nb <= _FULL_BROADCAST_LIMIT else 1
    blocks = []
    for i0 in range(0, na, rows):
        corners = (
            values[i0:i0 + rows, None, :, None],  # (A=0, B=0)
            values[i0:i0 + rows, None, None, :],  # (A=0, B=1)
            values[None, :, :, None],  # (A=1, B=0)
            values[None, :, None, :],  # (A=1, B=1)
        )
        ok = _quadruple_mask(corners, outputs, tol, (rows, na, nb, nb))
        hits = np.argwhere(ok)
        hits[:, 0] += i0
        blocks.append(hits)
    return np.concatenate(blocks, axis=0, dtype=np.int64)
