import math

import numpy as np
import pytest

from nmrlogic import _kernels as k

PI = math.pi


def test_quadruple_search_lexicographic_order():
    table = np.zeros((3, 3))
    found = k.find_gate_quadruples(table, (True, True, True, True), 1e-9)
    assert len(found) == 81
    assert np.array_equal(found[0], [0, 0, 0, 0])
    as_tuples = [tuple(row) for row in found]
    assert as_tuples == sorted(as_tuples)


def test_quadruple_search_level_separation():
    # two levels closer than the tolerance cannot encode distinct bits
    table = np.array([[0.0, 0.5e-9], [0.5e-9, 0.0]])
    found = k.find_gate_quadruples(table, (False, True, True, False), 1e-9)
    assert len(found) == 0
    table = np.array([[0.0, 1.0], [1.0, 0.0]])
    found = k.find_gate_quadruples(table, (False, True, True, False), 1e-9)
    # both level-map orientations work, for either input ordering
    assert [tuple(r) for r in found] == [
        (0, 1, 0, 1), (0, 1, 1, 0), (1, 0, 0, 1), (1, 0, 1, 0)
    ]


def test_quadruple_search_within_level_spread():
    table = np.array([[0.0, 2e-9], [0.0, 1.0]])
    # corners (0,0),(0,1),(1,0) would need to share a level but differ by 2e-9
    found = k.find_gate_quadruples(table, (False, False, False, True), 1e-9)
    for i0, i1, j0, j1 in found:
        zeros = [table[i0, j0], table[i0, j1], table[i1, j0]]
        assert max(zeros) - min(zeros) <= 1e-9


def test_chunked_numpy_search_matches_full_broadcast(monkeypatch):
    rng = np.random.default_rng(11)
    table = np.round(rng.uniform(-0.25, 0.25, size=(12, 12)) * 8) / 8
    for outputs in [
        (False, False, False, True),
        (True, True, True, True),
        (False, True, True, False),
    ]:
        full = k.find_gate_quadruples(table, outputs, 1e-9)
        monkeypatch.setattr(k, "_FULL_BROADCAST_LIMIT", 1)
        chunked = k.find_gate_quadruples(table, outputs, 1e-9)
        monkeypatch.undo()
        assert np.array_equal(full, chunked)


def test_two_pulse_components_broadcast_and_shape():
    phis = np.linspace(0, 2 * PI, 7)
    betas = np.linspace(-PI, PI, 5)
    mx, my, mz = k.two_pulse_components(
        phis[:, None], betas[None, :], 0.0, 0.0, 1.0, False
    )
    assert mx.shape == my.shape == mz.shape == (7, 5)


def test_two_pulse_components_scalar_input():
    mx, my, mz = k.two_pulse_components(PI / 2, PI / 2, 0.0, 0.0, 1.0, False)
    assert float(mx) == pytest.approx(0.25, abs=1e-15)
    assert float(mz) == pytest.approx(0.0, abs=1e-15)
