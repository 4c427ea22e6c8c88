import importlib
import pkgutil
import types

import pytest

import nmrlogic

PUBLIC_NAMES = [
    "ALL_GATES",
    "CanalisingProfile",
    "GateAssignment",
    "GateClass",
    "GridSpec",
    "InitialState",
    "ObservableKind",
    "Scenario",
    "TruthTable",
    "achievable_classes",
    "assignment_realizes",
    "canalising_counts",
    "capability_checks",
    "gate_class",
    "orbit",
    "parse_gate",
    "synthesize",
    "truth_table",
    "verify_reference_tables",
]


def test_public_names_are_pinned_and_resolve():
    assert sorted(nmrlogic.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(nmrlogic, name) is not None, name
    # a name dropped from __all__ must not linger as an import; submodules
    # are attributes once imported, by the package or by a test
    public = {
        name
        for name, value in vars(nmrlogic).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(PUBLIC_NAMES)


# each name dropped from __all__: the module it still lives in, or None
# where the helper is deleted
DROPPED = {
    "DensityMatrix": "spincore",
    "Magnetization": "spincore",
    "Pulse": None,
    "commutator": None,
    "commutes": None,
    "evaluate_scenario": None,
    "is_canalising_value": None,
    "magnetization": "spincore",
    "propagate": "spincore",
    "rot_axis": "spincore",
    "rot_phi": "spincore",
    "sequence_propagator": None,
    "spin_operator": None,
    "spin_vector": None,
    "superposition_x_state": "spincore",
    "thermal_state": "spincore",
    "two_pulse_closed_form": "observables",
}

SUBMODULES = [info.name for info in pkgutil.iter_modules(nmrlogic.__path__)]


@pytest.mark.parametrize("name", sorted(DROPPED))
def test_dropped_name_lives_only_in_its_module(name):
    with pytest.raises(ImportError):
        exec(f"from nmrlogic import {name}", {})
    module = DROPPED[name]
    if module is None:
        for sub in SUBMODULES:
            assert not hasattr(importlib.import_module(f"nmrlogic.{sub}"), name), sub
    else:
        assert callable(getattr(importlib.import_module(f"nmrlogic.{module}"), name))
