"""The sixteen two-input boolean gates: truth tables, canalising structure,
equivalence orbits under rewiring and inversion.

Gate ids follow the standard truth-table ordering: reading the output
column for inputs (0,0), (0,1), (1,0), (1,1) top to bottom as the binary
digits of the id, most significant first.  So id = 8*f(0,0) + 4*f(0,1) +
2*f(1,0) + 1*f(1,1); e.g. XOR is 6 and NAND is 14.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import FrozenSet, NamedTuple, Tuple


@dataclass(frozen=True, order=True)
class TruthTable:
    """Outputs for input pairs (0,0), (0,1), (1,0), (1,1), in that order."""

    outputs: Tuple[bool, bool, bool, bool]

    def __post_init__(self) -> None:
        if len(self.outputs) != 4:
            raise ValueError("a two-input truth table has exactly 4 outputs")
        object.__setattr__(self, "outputs", tuple(bool(o) for o in self.outputs))

    @property
    def gate_id(self) -> int:
        return sum(int(o) << (3 - k) for k, o in enumerate(self.outputs))

    @property
    def name(self) -> str:
        return GATE_NAMES[self.gate_id]

    def __call__(self, a: int, b: int) -> bool:
        return self.outputs[2 * int(bool(a)) + int(bool(b))]


def truth_table(gate_id: int) -> TruthTable:
    """Truth table of gate id 0-15, in the module's id order; any other id
    raises ValueError."""
    if not 0 <= gate_id <= 15:
        raise ValueError(f"gate id must be in 0..15, got {gate_id}")
    return TruthTable(tuple(bool((gate_id >> (3 - k)) & 1) for k in range(4)))


F = truth_table(0)
AND = truth_table(1)
GREATER = truth_table(2)  # A AND NOT B
A = truth_table(3)
LESS = truth_table(4)  # NOT A AND B
B = truth_table(5)
XOR = truth_table(6)
OR = truth_table(7)
NOR = truth_table(8)
XNOR = truth_table(9)
NOT_B = truth_table(10)
GREATER_EQUAL = truth_table(11)  # A OR NOT B
NOT_A = truth_table(12)
LESS_EQUAL = truth_table(13)  # NOT A OR B
NAND = truth_table(14)
T = truth_table(15)

ALL_GATES = tuple(truth_table(i) for i in range(16))

GATE_NAMES = {
    0: "F",
    1: "AND",
    2: ">",
    3: "A",
    4: "<",
    5: "B",
    6: "XOR",
    7: "OR",
    8: "NOR",
    9: "XNOR",
    10: "NOT B",
    11: ">=",
    12: "NOT A",
    13: "<=",
    14: "NAND",
    15: "T",
}

_TOKEN_ALIASES = {name.lower(): gate_id for gate_id, name in GATE_NAMES.items()}
_TOKEN_ALIASES.update({
    "false": 0,
    "gt": 2,
    "lt": 4,
    "notb": 10, "not_b": 10,
    "geq": 11, "ge": 11, "≥": 11,
    "nota": 12, "not_a": 12,
    "leq": 13, "le": 13, "≤": 13,
    "true": 15,
})


def parse_gate(token: str) -> TruthTable:
    """Gate from a case-insensitive name token or a numeric id 0-15; any
    other token raises a ValueError whose message lists the valid tokens."""
    key = token.strip().lower()
    try:
        return truth_table(int(_TOKEN_ALIASES.get(key, key)))
    except ValueError:
        valid = [*sorted(_TOKEN_ALIASES), *map(str, range(16))]
        raise ValueError(f"unknown gate {token!r}\nvalid tokens: {', '.join(valid)}") from None


class GateClass(enum.IntEnum):
    """Canalising classes: constant, strongly, weakly, non-canalising."""

    CONSTANT = 0
    STRONG = 1
    WEAK = 2
    NONE = 3


class CanalisingProfile(NamedTuple):
    count_a: int
    count_b: int


def canalising_counts(tt: TruthTable) -> CanalisingProfile:
    """How many of the two values of each input are canalising, that is,
    pin the output whatever the other input is."""
    return CanalisingProfile(
        sum(tt(v, 0) == tt(v, 1) for v in (0, 1)),
        sum(tt(0, v) == tt(1, v) for v in (0, 1)),
    )


def gate_class(tt: TruthTable) -> GateClass:
    profile = canalising_counts(tt)
    if profile == (2, 2):
        return GateClass.CONSTANT
    if profile in ((2, 0), (0, 2)):
        return GateClass.STRONG
    if profile == (1, 1):
        return GateClass.WEAK
    return GateClass.NONE  # (0, 0), the one profile left


def swap_inputs(tt: TruthTable) -> TruthTable:
    return TruthTable(tuple(tt(b, a) for a in (0, 1) for b in (0, 1)))


def negate_input(tt: TruthTable, variable: str) -> TruthTable:
    if variable == "A":
        return TruthTable(tuple(tt(1 - a, b) for a in (0, 1) for b in (0, 1)))
    if variable == "B":
        return TruthTable(tuple(tt(a, 1 - b) for a in (0, 1) for b in (0, 1)))
    raise ValueError(f"variable must be 'A' or 'B', got {variable!r}")


def negate_output(tt: TruthTable) -> TruthTable:
    return TruthTable(tuple(not o for o in tt.outputs))


def orbit(tt: TruthTable) -> FrozenSet[TruthTable]:
    """Closure under input swap, per-input and output negation; a move is a swap, then negations."""
    images = {tt, swap_inputs(tt)}
    for negate in (lambda t: negate_input(t, "A"), lambda t: negate_input(t, "B"), negate_output):
        images |= {negate(image) for image in images}
    return frozenset(images)
