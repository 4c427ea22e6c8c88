"""Exact spin-1/2 algebra on 2x2 complex matrices.

Everything here is closed-form: rotation propagators about an axis in the
transverse plane, thermal / x-polarised initial states, unitary
propagation of density matrices and magnetization readout.  All values
are immutable after construction and all functions are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DEFAULT_TOL = 1e-9

IDENTITY = np.eye(2, dtype=np.complex128)
IX = np.array([[0.0, 0.5], [0.5, 0.0]], dtype=np.complex128)
IY = np.array([[0.0, -0.5j], [0.5j, 0.0]], dtype=np.complex128)
IZ = np.array([[0.5, 0.0], [0.0, -0.5]], dtype=np.complex128)


def _tolerance(m: np.ndarray) -> float:
    """`DEFAULT_TOL` scaled to the largest entry of m, when that exceeds 1."""
    return DEFAULT_TOL * max(1.0, float(np.max(np.abs(m))))


def _require_finite(*values: float, name: str = "angle") -> None:
    for v in values:
        if not math.isfinite(v):
            raise ValueError(f"{name} must be finite, got {v!r}")


def rot_axis(axis: str, beta: float) -> np.ndarray:
    """Rotation propagator exp(-i*beta*I_axis) about a Cartesian axis.

    Closed-form entries; unitary with determinant 1 for any finite beta.
    """
    _require_finite(beta)
    c = math.cos(0.5 * beta)
    s = math.sin(0.5 * beta)
    key = axis.strip().lower()
    if key == "x":
        return np.array([[c, -1j * s], [-1j * s, c]], dtype=np.complex128)
    if key == "y":
        return np.array([[c, -s], [s, c]], dtype=np.complex128)
    if key == "z":
        return np.array(
            [[np.exp(-0.5j * beta), 0.0], [0.0, np.exp(0.5j * beta)]],
            dtype=np.complex128,
        )
    raise ValueError(f"unknown rotation axis {axis!r}")


def rot_phi(phi: float, beta: float) -> np.ndarray:
    """Rotation by beta about the transverse axis with azimuth phi.

    Equals rot_axis('z', phi) @ rot_axis('x', beta) @ rot_axis('z', -phi).
    """
    _require_finite(phi, beta)
    c = math.cos(0.5 * beta)
    s = math.sin(0.5 * beta)
    ph = np.exp(-1j * phi)
    return np.array(
        [[c, -1j * s * ph], [-1j * s * np.conj(ph), c]], dtype=np.complex128
    )


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian unit-trace 2x2 state.

    Both checks allow `DEFAULT_TOL` times the largest entry, when that
    exceeds 1, so the round-off of a large polarization passes.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=np.complex128)
        if m.shape != (2, 2):
            raise ValueError(f"density matrix must be 2x2, got {m.shape}")
        if not np.isfinite(m).all():
            raise ValueError("density matrix entries must be finite")
        tol = _tolerance(m)
        if np.max(np.abs(m - m.conj().T)) > tol:
            raise ValueError("density matrix must be Hermitian")
        if abs(np.trace(m) - 1.0) > tol:
            raise ValueError("density matrix must have unit trace")
        m = m.copy()
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)


def thermal_state(lambda_b: float = 1.0) -> DensityMatrix:
    """Thermal equilibrium state: identity/2 + (lambda_b/2) I_z."""
    _require_finite(lambda_b, name="lambda_b")
    return DensityMatrix(0.5 * IDENTITY + 0.5 * lambda_b * IZ)


def superposition_x_state(lambda_b: float = 1.0) -> DensityMatrix:
    """State polarised along +x: identity/2 + (lambda_b/2) I_x.

    Equal to the thermal state after a (phi, beta) = (pi/2, pi/2) pulse.
    """
    _require_finite(lambda_b, name="lambda_b")
    return DensityMatrix(0.5 * IDENTITY + 0.5 * lambda_b * IX)


def propagate(rho: DensityMatrix, u: np.ndarray) -> DensityMatrix:
    """Unitary conjugation u rho u+; trace and Hermiticity are preserved.

    `u` must be a 2x2 matrix with u u+ within `DEFAULT_TOL` of the
    identity, entry by entry; any other raises ValueError.
    """
    u = np.asarray(u, dtype=np.complex128)
    if u.shape != (2, 2) or np.max(np.abs(u @ u.conj().T - IDENTITY)) > DEFAULT_TOL:
        raise ValueError("propagator is not unitary within tolerance")
    return DensityMatrix(u @ rho.matrix @ u.conj().T)


@dataclass(frozen=True)
class Magnetization:
    """Expectation-value vector (<I_x>, <I_y>, <I_z>)."""

    mx: float
    my: float
    mz: float

    @property
    def mxy(self) -> float:
        """Transverse magnitude, the NMR-detectable amount."""
        return math.hypot(self.mx, self.my)

    @property
    def norm(self) -> float:
        return math.hypot(self.mx, self.my, self.mz)


def magnetization(rho: DensityMatrix) -> Magnetization:
    """Readout (Tr{rho I_x}, Tr{rho I_y}, Tr{rho I_z}).

    The traces must be real; a residual imaginary part beyond the state's
    tolerance (as `DensityMatrix` checks it) signals a corrupted state and
    raises.
    """
    tol = _tolerance(rho.matrix)
    components = []
    for op in (IX, IY, IZ):
        tr = np.trace(rho.matrix @ op)
        if abs(tr.imag) > tol:
            raise ArithmeticError(
                f"magnetization trace has imaginary residue {tr.imag:.3e}"
            )
        components.append(float(tr.real))
    return Magnetization(*components)
