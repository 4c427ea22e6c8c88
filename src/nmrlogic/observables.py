"""Observable evaluation: parameter binding, closed forms and grid axes.

`scenario_components` is the one evaluator: it binds two pulse parameters
to logic inputs A and B, fixes the rest, and returns the two detectable
readouts (mx, my); the z readout lives only in the `spincore` oracle.
It uses the closed-form trigonometric expressions for one pulse and
numeric matrix propagation (`_kernels.two_pulse_components`) for two, and
every printed value comes from one of these.  A two-pulse table that is
only counted is propagated as Bloch vectors instead
(`_kernels.bloch_components`, through `synthesis.search_table`), and its
level labels are used only where they are certified to be the matrix
table's.  `spincore` propagates scalars independently, and the test
suite pins every route against it.

Single-pulse closed forms, starting state polarised along z:

    mx =  (lam/4) sin(phi) sin(beta)
    my = -(lam/4) cos(phi) sin(beta)

and starting polarised along x:

    mx =  (lam/4) (1 - 2 sin^2(phi) sin^2(beta/2))
    my =  (lam/4) sin(2 phi) sin^2(beta/2)

Two-pulse observables are evaluated numerically; closed forms for the
special fixed-parameter families are kept as independent regression
formulas in one registry, `TWO_PULSE_FORMS`, read through
`two_pulse_closed_form`.
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass
from typing import Mapping, Tuple

import numpy as np

from . import _kernels
from .spincore import _require_finite


class InitialState(enum.Enum):
    """Which prepared state the pulse sequence acts on."""

    THERMAL_Z = "z"
    SUPERPOSITION_X = "x"


class ObservableKind(enum.Enum):
    """The NMR-detectable quantities (the z component is not detectable)."""

    MX = "mx"
    MY = "my"
    MXY = "mxy"


ONE_PULSE_PARAMS = ("phi", "beta")
TWO_PULSE_PARAMS = ("phi2", "beta2", "phi1", "beta1")


def _single_pulse_components(phis, betas, lambda_b, from_x):
    """Vectorised closed forms; arrays broadcast. Returns (mx, my)."""
    phis = np.asarray(phis, dtype=np.float64)
    betas = np.asarray(betas, dtype=np.float64)
    q = 0.25 * lambda_b
    if from_x:
        sh2 = np.sin(0.5 * betas) ** 2
        mx = q * (1.0 - 2.0 * np.sin(phis) ** 2 * sh2)
        my = q * np.sin(2.0 * phis) * sh2
    else:
        mx = q * np.sin(phis) * np.sin(betas)
        my = -q * np.cos(phis) * np.sin(betas)
    return mx, my


# ---------------------------------------------------------------------------
# Closed forms for the x-state two-pulse mx with two parameters fixed.
#
# Each entry binds a free pair (input A first) and the two fixed values.
# Six entries fix the remaining pair at pi/2; two fix flip angle pi on
# pulse 2 and pi/2 on one parameter of pulse 1.
# ---------------------------------------------------------------------------


def _form_phi2_phi1(a, b, q):
    return q * (np.cos(a) * np.cos(b) * np.cos(a - b) - np.sin(a) * np.sin(b))


def _form_phi2_beta1(a, b, q):
    return q * (np.cos(a) ** 2 * np.cos(b) - np.sin(a) * np.sin(b))


def _form_beta2_beta1(a, b, q):
    return q * np.cos(a + b)


def _form_beta2_phi1(a, b, q):
    return q * (np.cos(b) ** 2 * np.cos(a) - np.sin(b) * np.sin(a))


def _form_one_pulse_free(a, b, q):
    # free (phase, flip) of one pulse, the other pulse fixed at (pi/2, pi/2)
    return -q * np.sin(a) * np.sin(b)


def _form_both_phis_beta2_pi(a, b, q):
    return q * np.cos(2.0 * a - b) * np.cos(b)


def _form_phi2_beta1_beta2_pi(a, b, q):
    return q * np.cos(2.0 * a) * np.cos(b)


_HALF_PI = math.pi / 2

TWO_PULSE_FORMS: Mapping[str, Tuple[Tuple[str, str], Mapping[str, float], object]] = {
    # label: ((param of A, param of B), fixed values, formula)
    "phi2,phi1; others pi/2": (("phi2", "phi1"), {"beta2": _HALF_PI, "beta1": _HALF_PI}, _form_phi2_phi1),
    "phi2,beta1; others pi/2": (("phi2", "beta1"), {"beta2": _HALF_PI, "phi1": _HALF_PI}, _form_phi2_beta1),
    "beta2,beta1; others pi/2": (("beta2", "beta1"), {"phi2": _HALF_PI, "phi1": _HALF_PI}, _form_beta2_beta1),
    "beta2,phi1; others pi/2": (("beta2", "phi1"), {"phi2": _HALF_PI, "beta1": _HALF_PI}, _form_beta2_phi1),
    "phi2,beta2; others pi/2": (("phi2", "beta2"), {"phi1": _HALF_PI, "beta1": _HALF_PI}, _form_one_pulse_free),
    "phi1,beta1; others pi/2": (("phi1", "beta1"), {"phi2": _HALF_PI, "beta2": _HALF_PI}, _form_one_pulse_free),
    # only horizontal zero-valued traces exist
    "beta1_half_pi,beta2_pi": (("phi2", "phi1"), {"beta1": _HALF_PI, "beta2": math.pi}, _form_both_phis_beta2_pi),
    # horizontal and vertical zero traces both exist
    "phi1_half_pi,beta2_pi": (("phi2", "beta1"), {"phi1": _HALF_PI, "beta2": math.pi}, _form_phi2_beta1_beta2_pi),
}


def two_pulse_closed_form(label: str, a, b, lambda_b: float = 1.0):
    """x-state two-pulse mx of the `TWO_PULSE_FORMS` entry `label`.

    `a` and `b` are the values of the entry's free pair; arrays broadcast.
    Unknown labels and a non-finite `lambda_b` raise ValueError.
    """
    if label not in TWO_PULSE_FORMS:
        raise ValueError(
            f"unknown closed form {label!r}; expected one of {sorted(TWO_PULSE_FORMS)}"
        )
    _require_finite(lambda_b, name="lambda_b")
    _, _, formula = TWO_PULSE_FORMS[label]
    return formula(np.asarray(a), np.asarray(b), 0.25 * lambda_b)


# ---------------------------------------------------------------------------
# Grid axes and parameter binding.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GridSpec:
    """Arithmetic candidate sequence: start, start+step, ... (count values)."""

    start: float
    step: float
    count: int

    def __post_init__(self) -> None:
        _require_finite(self.start, self.step)
        try:
            operator.index(self.count)
        except TypeError:
            raise ValueError(f"grid count must be an integer, got {self.count!r}") from None
        if self.count < 2:
            raise ValueError(f"grid needs at least 2 points, got {self.count}")
        if self.step <= 0:
            raise ValueError(f"grid step must be positive, got {self.step}")
        last = float(self.start) + float(self.step) * (operator.index(self.count) - 1)
        if not math.isfinite(last):
            raise ValueError(f"grid overflows: last value {last!r} is not finite")
        values = self.values()
        if not (values[1:] > values[:-1]).all():
            raise ValueError(
                f"grid repeats values in float64: step {self.step!r} is too "
                f"small for start {self.start!r}"
            )

    def values(self) -> np.ndarray:
        return self.start + self.step * np.arange(self.count, dtype=np.float64)


def default_axis(param: str) -> GridSpec:
    """Axis of 101 points spanning 4pi: phases from 0, flip angles from -2pi."""
    start = 0.0 if param.startswith("phi") else -2 * math.pi
    return GridSpec(start, 4 * math.pi / 101, 101)


def validate_binding(pulses: int, inputs, fixed: Mapping[str, float]) -> None:
    """Check that two distinct parameters are free and the rest are fixed."""
    if pulses == 1:
        names = ONE_PULSE_PARAMS
    elif pulses == 2:
        names = TWO_PULSE_PARAMS
    else:
        raise ValueError(f"pulse count must be 1 or 2, got {pulses}")
    inputs = tuple(inputs)
    if len(inputs) != 2 or inputs[0] == inputs[1]:
        raise ValueError(f"exactly two distinct input parameters required, got {inputs}")
    for p in inputs:
        if p not in names:
            raise ValueError(f"unknown parameter {p!r}; valid: {names}")
    rest = set(names) - set(inputs)
    if set(fixed) != rest:
        raise ValueError(
            f"fixed values must cover exactly {sorted(rest)}, got {sorted(fixed)}"
        )
    for name, value in fixed.items():
        _require_finite(value, name=name)


def scenario_components(
    initial: InitialState,
    pulses: int,
    inputs,
    fixed: Mapping[str, float],
    a_values,
    b_values,
    lambda_b: float = 1.0,
):
    """The detectable readouts (mx, my), with inputs A/B bound to
    `a_values` / `b_values`.

    Arrays broadcast; scalars give scalars.  One-pulse scenarios use the
    closed forms, two-pulse scenarios numeric propagation.  Callers pass a
    `Scenario`'s fields, whose binding the `Scenario` has checked.
    """
    bound = dict(fixed)
    bound[inputs[0]] = a_values
    bound[inputs[1]] = b_values
    from_x = initial is InitialState.SUPERPOSITION_X
    if pulses == 1:
        return _single_pulse_components(bound["phi"], bound["beta"], lambda_b, from_x)
    return _kernels.two_pulse_components(
        bound["phi2"], bound["beta2"], bound["phi1"], bound["beta1"], lambda_b, from_x
    )
