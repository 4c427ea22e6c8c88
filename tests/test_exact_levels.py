"""Level partitions against exact arithmetic.

Every claim rests on `level_labels` grouping the float values that are
equal in exact arithmetic, and only those.  Here each table is computed
again with `decimal` at 50 digits, from the closed forms of `observables`
at the exact angles k pi/8, with cos and sin taken from radicals
(cos pi/8 = sqrt(2 + sqrt 2)/2).  Values within 1e-40 of each other are
one exact level.
"""

import functools
import math
from decimal import Decimal, localcontext

import pytest

from nmrlogic import _kernels, cli
from nmrlogic import synthesis as syn
from nmrlogic.observables import InitialState, ObservableKind

DIGITS = 50
SAME = Decimal("1e-40")
EIGHTH_PI = math.pi / 8


@functools.lru_cache(maxsize=None)
def _cos(k):
    """cos(k pi/8) from radicals."""
    k %= 16
    if k > 8:
        k = 16 - k
    sign = -1 if k > 4 else 1
    k = min(k, 8 - k)
    with localcontext() as ctx:
        ctx.prec = DIGITS
        root2 = Decimal(2).sqrt()
        return sign * {
            0: Decimal(1),
            1: (2 + root2).sqrt() / 2,
            2: root2 / 2,
            3: (2 - root2).sqrt() / 2,
            4: Decimal(0),
        }[k]


@functools.lru_cache(maxsize=None)
def _axis(grid):
    """(cos, sin) of each candidate of `grid` at its exact angle k pi/8."""
    exact = []
    for value in grid.values().tolist():
        k = round(value / EIGHTH_PI)
        assert abs(value - k * EIGHTH_PI) < 1e-12, value
        exact.append((_cos(k), _cos(4 - k)))
    return tuple(exact)


# the closed forms of `observables`, in (cos a, sin a, cos b, sin b, lambda/4)
# with sin^2(b/2) as (1 - cos b)/2 and sin 2a as 2 sin a cos a
def _thermal_mx(ca, sa, cb, sb, q):
    return q * sa * sb


def _x_mx(ca, sa, cb, sb, q):
    return q * (1 - sa * sa * (1 - cb))


def _x_my(ca, sa, cb, sb, q):
    return q * sa * ca * (1 - cb)


def _x_mxy(ca, sa, cb, sb, q):
    return (_x_mx(ca, sa, cb, sb, q) ** 2 + _x_my(ca, sa, cb, sb, q) ** 2).sqrt()


def _phi2_phi1(ca, sa, cb, sb, q):
    # flips pi/2: cos a cos b cos(a - b) - sin a sin b
    return q * (ca * cb * (ca * cb + sa * sb) - sa * sb)


def _phi2_beta1_beta2_pi(ca, sa, cb, sb, q):
    # phi1 = pi/2, beta2 = pi: cos 2a cos b
    return q * (ca * ca - sa * sa) * cb


def _one_pulse(initial, observable, lambda_b=1.0):
    return syn.Scenario(initial, 1, observable, ("phi", "beta"), lambda_b=lambda_b)


THERMAL = _one_pulse(InitialState.THERMAL_Z, ObservableKind.MX)
X_STATE = {
    kind: _one_pulse(InitialState.SUPERPOSITION_X, kind) for kind in ObservableKind
}
X_FORMS = {ObservableKind.MX: _x_mx, ObservableKind.MY: _x_my, ObservableKind.MXY: _x_mxy}
PHI2_BETA1 = syn.Scenario(
    InitialState.SUPERPOSITION_X, 2, ObservableKind.MX, ("phi2", "beta1"),
    (("phi1", math.pi / 2), ("beta2", math.pi)),
)
PHI2_PHI1 = syn.Scenario(
    InitialState.SUPERPOSITION_X, 2, ObservableKind.MX, ("phi2", "phi1"),
    (("beta1", math.pi / 2), ("beta2", math.pi / 2)),
)


def _case(name, scenario, grid, form):
    return pytest.param(scenario, grid, form, id=name)


def _verify_tables(tag, grid):
    """The tables of `capability_checks(grid)` but its `EXEMPLAR_GRID` claim."""
    return [
        _case(f"verify-{tag}-thermal-mx", THERMAL, grid, _thermal_mx),
        *(
            _case(f"verify-{tag}-x-{kind.value}", X_STATE[kind], grid, X_FORMS[kind])
            for kind in ObservableKind
        ),
        _case(f"verify-{tag}-x-phi2-beta1", PHI2_BETA1, grid, _phi2_beta1_beta2_pi),
    ]


CASES = [
    *_verify_tables("quarter-pi-16", syn.DEFAULT_SYNTH_GRID),
    *_verify_tables("eighth-pi-24", cli.parse_grid("0:1/8pi:24")),
    _case("verify-exemplar-x-phi2-phi1", PHI2_PHI1, syn.EXEMPLAR_GRID, _phi2_phi1),
    # the one-pulse `synthesize` goldens
    _case("synthesize-xor-quarter-pi-16", THERMAL, cli.parse_grid("0:1/4pi:16"), _thermal_mx),
    _case("synthesize-t-half-pi-8", THERMAL, cli.parse_grid("0:1/2pi:8"), _thermal_mx),
    _case(
        "synthesize-b-lambda-0-eighth-pi-16",
        _one_pulse(InitialState.THERMAL_Z, ObservableKind.MX, 0.0),
        cli.parse_grid("0:1/8pi:16"),
        _thermal_mx,
    ),
    _case("synthesize-xor-eighth-pi-12", THERMAL, cli.parse_grid("0:1/8pi:12"), _thermal_mx),
    _case(
        "synthesize-xnor-x-mx-eighth-pi-48",
        X_STATE[ObservableKind.MX],
        cli.parse_grid("5/8pi:1/8pi:48"),
        _x_mx,
    ),
    _case(
        "synthesize-xor-x-mxy-eighth-pi-64",
        X_STATE[ObservableKind.MXY],
        cli.parse_grid("4/8pi:1/8pi:64"),
        _x_mxy,
    ),
    # and the two-pulse golden and digest with this closed form
    _case(
        "synthesize-and-x-phi2-phi1-half-pi-48", PHI2_PHI1, cli.parse_grid("0:1/2pi:48"), _phi2_phi1
    ),
    _case(
        "synthesize-not-b-x-phi2-phi1-half-pi-16", PHI2_PHI1, cli.parse_grid("0:1/2pi:16"), _phi2_phi1
    ),
]


# Every table the benchmark's search workloads build at seeds 0-2, each once,
# with the grids that perfbench/workloads.py gave each slot.  An id names the
# workload, the seeds and the slot: slots c00-c02 of search-sparse run verify
# on their grid, and every other slot runs synthesize on its table.
CASES += [
    *(
        _case(f"bench-synth-dense-{tag}", THERMAL, cli.parse_grid(grid), _thermal_mx)
        for tag, grid in [
            ("s0-c00", "4/8pi:1/8pi:40"),
            ("s1-c00", "10/8pi:1/8pi:40"),
            ("s2-c00", "0/8pi:1/8pi:40"),
            ("s0-c01", "5/8pi:1/8pi:48"),
            ("s1-c01", "4/8pi:1/8pi:48"),
            ("s2-c01", "10/8pi:1/8pi:48"),
        ]
    ),
    *(
        _case(f"bench-synth-dense-{tag}", PHI2_BETA1, cli.parse_grid(grid), _phi2_beta1_beta2_pi)
        for tag, grid in [
            ("s0-c02", "12/8pi:1/8pi:40"),
            ("s1-c02", "14/8pi:1/8pi:40"),
            ("s2-c02", "15/8pi:1/8pi:40"),
        ]
    ),
    *(
        case
        for tag, grid in [
            ("s0-c00", "13/8pi:1/8pi:24"),
            ("s1-c00", "4/8pi:1/8pi:24"),
            ("s2-c00", "2/8pi:1/8pi:24"),
            ("s0-s1-c01", "9/8pi:1/8pi:28"),
            ("s2-c01", "5/8pi:1/8pi:28"),
            ("s0-c02", "12/8pi:1/8pi:32"),
            ("s1-c02", "4/8pi:1/8pi:32"),
            ("s2-c02", "3/8pi:1/8pi:32"),
        ]
        for case in _verify_tables(f"bench-search-sparse-{tag}", cli.parse_grid(grid))
    ),
    *(
        _case(f"bench-search-sparse-{tag}", scenario, cli.parse_grid(grid), form)
        for tag, scenario, form, grid in [
            ("s0-c03", X_STATE[ObservableKind.MX], _x_mx, "5/8pi:1/8pi:48"),
            ("s1-c03", X_STATE[ObservableKind.MY], _x_my, "6/8pi:1/8pi:48"),
            ("s2-c03", X_STATE[ObservableKind.MXY], _x_mxy, "14/8pi:1/8pi:48"),
            ("s0-s2-c04", X_STATE[ObservableKind.MXY], _x_mxy, "4/8pi:1/8pi:64"),
            ("s1-c04", X_STATE[ObservableKind.MY], _x_my, "6/8pi:1/8pi:64"),
        ]
    ),
    *(
        _case(f"bench-search-sparse-{tag}", PHI2_PHI1, cli.parse_grid(grid), _phi2_phi1)
        for tag, grid in [
            ("s0-s1-c05", "1/2pi:1/2pi:48"),
            ("s2-c05", "2/2pi:1/2pi:48"),
            ("s0-c06", "3/2pi:1/2pi:56"),
            ("s1-c06", "1/2pi:1/2pi:56"),
            ("s2-c06", "0/2pi:1/2pi:56"),
            ("s0-c07", "3/2pi:1/2pi:64"),
            ("s1-s2-c07", "0/2pi:1/2pi:64"),
        ]
    ),
]


def _exact_levels(scenario, grid, form):
    """(values, labels, gap): the exact table, flattened, its level label
    per cell in ascending order of level, and the smallest gap between
    two levels (inf for one level)."""
    axis = _axis(grid)
    with localcontext() as ctx:
        ctx.prec = DIGITS
        q = Decimal(scenario.lambda_b) / 4
        values = [form(ca, sa, cb, sb, q) for ca, sa in axis for cb, sb in axis]
        order = sorted(range(len(values)), key=values.__getitem__)
        labels = [0] * len(values)
        gaps = []
        for before, cell in zip(order, order[1:]):
            gap = values[cell] - values[before]
            if gap > SAME:
                gaps.append(gap)
            labels[cell] = len(gaps)
    return values, labels, min(gaps, default=Decimal("Infinity"))


@pytest.mark.parametrize("scenario,grid,form", CASES)
def test_level_labels_give_the_exact_partition(scenario, grid, form):
    tol = syn.DEFAULT_LEVEL_TOL
    _, table = syn.candidate_table(scenario, grid)
    values, exact_labels, gap = _exact_levels(scenario, grid, form)
    labels = _kernels.level_labels(table, tol)
    assert labels is not None
    assert labels.ravel().tolist() == exact_labels
    deviation = max(
        abs(Decimal(x) - value) for x, value in zip(table.ravel().tolist(), values)
    )
    assert 2 * deviation < Decimal(tol) < gap - 2 * deviation, (deviation, gap)
