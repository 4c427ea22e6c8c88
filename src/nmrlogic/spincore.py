"""Exact spin-1/2 algebra on 2x2 complex matrices.

Everything here is closed-form: rotation propagators about an axis in the
transverse plane, thermal / x-polarised initial states, unitary
propagation of density matrices and magnetization readout.  All values
are immutable after construction and all functions are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

DEFAULT_TOL = 1e-9

IDENTITY = np.eye(2, dtype=np.complex128)
IX = np.array([[0.0, 0.5], [0.5, 0.0]], dtype=np.complex128)
IY = np.array([[0.0, -0.5j], [0.5j, 0.0]], dtype=np.complex128)
IZ = np.array([[0.5, 0.0], [0.0, -0.5]], dtype=np.complex128)


def _require_finite(*values: float) -> None:
    for v in values:
        if not math.isfinite(v):
            raise ValueError(f"angle must be finite, got {v!r}")


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


@dataclass(frozen=True)
class Pulse:
    """A delta pulse: phase (rotation-axis azimuth) and flip angle, radians.

    Amplitude (rad/s) and duration (s) are optional bookkeeping; when given,
    their product must reproduce the flip angle.
    """

    phase: float
    flip_angle: float
    amplitude: Optional[float] = None
    duration: Optional[float] = None

    def __post_init__(self) -> None:
        _require_finite(self.phase, self.flip_angle)
        if (self.amplitude is None) != (self.duration is None):
            raise ValueError("amplitude and duration must be given together")
        if self.amplitude is not None:
            _require_finite(self.amplitude, self.duration)
            if abs(self.flip_angle - self.amplitude * self.duration) > DEFAULT_TOL:
                raise ValueError(
                    "flip_angle inconsistent with amplitude * duration: "
                    f"{self.flip_angle} vs {self.amplitude * self.duration}"
                )

    def propagator(self) -> np.ndarray:
        return rot_phi(self.phase, self.flip_angle)


def sequence_propagator(pulses: Iterable[Pulse]) -> np.ndarray:
    """Ordered product of pulse propagators, first pulse rightmost.

    An empty sequence gives the identity.
    """
    u = IDENTITY.copy()
    for pulse in pulses:
        u = pulse.propagator() @ u
    return u


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian unit-trace 2x2 state, tagged with its polarization scale."""

    matrix: np.ndarray
    lambda_b: float = 1.0

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=np.complex128)
        if m.shape != (2, 2):
            raise ValueError(f"density matrix must be 2x2, got {m.shape}")
        if not np.isfinite(m).all():
            raise ValueError("density matrix entries must be finite")
        if np.max(np.abs(m - m.conj().T)) > DEFAULT_TOL:
            raise ValueError("density matrix must be Hermitian")
        if abs(np.trace(m) - 1.0) > DEFAULT_TOL:
            raise ValueError("density matrix must have unit trace")
        m = m.copy()
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)


def thermal_state(lambda_b: float = 1.0) -> DensityMatrix:
    """Thermal equilibrium state: identity/2 + (lambda_b/2) I_z."""
    _require_finite(lambda_b)
    return DensityMatrix(0.5 * IDENTITY + 0.5 * lambda_b * IZ, lambda_b)


def superposition_x_state(lambda_b: float = 1.0) -> DensityMatrix:
    """State polarised along +x: identity/2 + (lambda_b/2) I_x.

    Equal to the thermal state after a (phi, beta) = (pi/2, pi/2) pulse.
    """
    _require_finite(lambda_b)
    return DensityMatrix(0.5 * IDENTITY + 0.5 * lambda_b * IX, lambda_b)


def is_unitary(u: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    u = np.asarray(u, dtype=np.complex128)
    return u.shape == (2, 2) and np.max(np.abs(u @ u.conj().T - IDENTITY)) <= tol


def propagate(rho: DensityMatrix, u: np.ndarray, tol: float = DEFAULT_TOL) -> DensityMatrix:
    """Unitary conjugation u rho u+; trace and Hermiticity are preserved."""
    if not is_unitary(u, tol):
        raise ValueError("propagator is not unitary within tolerance")
    return DensityMatrix(u @ rho.matrix @ u.conj().T, rho.lambda_b)


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
        return math.sqrt(self.mx**2 + self.my**2 + self.mz**2)


def magnetization(rho: DensityMatrix, tol: float = DEFAULT_TOL) -> Magnetization:
    """Readout (Tr{rho I_x}, Tr{rho I_y}, Tr{rho I_z}).

    The traces must be real; a residual imaginary part beyond `tol` signals
    a corrupted state and raises.
    """
    components = []
    for op in (IX, IY, IZ):
        tr = np.trace(rho.matrix @ op)
        if abs(tr.imag) > tol:
            raise ArithmeticError(
                f"magnetization trace has imaginary residue {tr.imag:.3e}"
            )
        components.append(float(tr.real))
    return Magnetization(*components)


def commutator(a, b) -> np.ndarray:
    """AB - BA; accepts plain matrices or DensityMatrix values."""
    a = np.asarray(getattr(a, "matrix", a), dtype=np.complex128)
    b = np.asarray(getattr(b, "matrix", b), dtype=np.complex128)
    return a @ b - b @ a
