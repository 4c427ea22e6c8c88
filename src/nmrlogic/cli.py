"""Command-line front end.

Subcommands: ``grid`` (CSV export of observable grids), ``classify``
(gate truth table, canalising profile, class and orbit), ``synthesize``
(search gate realizations over a candidate grid) and ``verify``
(recompute the built-in reference values and capability claims).

Exit codes: 0 success, 1 usage/config error, 2 I/O error, 3 no solution
found, 4 verification failure.

Angles are accepted as decimal radians or as rational multiples of pi
("pi", "3/2pi", "-1/2pi").  Gate ids follow the truth-table ordering
documented in `nmrlogic.gates` (output column for inputs 00, 01, 10, 11
read as binary, most significant first).
"""

from __future__ import annotations

import argparse
import contextlib
import math
import re
import sys
from typing import Optional, Sequence

import numpy as np

from . import gates, synthesis
from ._format import format_12g, packed
from .observables import (
    GridSpec,
    InitialState,
    ObservableKind,
    ONE_PULSE_PARAMS,
    default_axis,
    scenario_components,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_NO_SOLUTION = 3
EXIT_VERIFY_FAILED = 4

_ANGLE_RE = re.compile(
    r"^(?P<sign>[+-])?(?P<num>\d+(?:\.\d+)?)?(?:/(?P<den>\d+(?:\.\d+)?))?\s*pi$",
    re.IGNORECASE,
)


def parse_angle(text: str) -> float:
    """Radians from a decimal or a rational multiple of pi like '3/2pi'."""
    token = text.strip()
    m = _ANGLE_RE.match(token)
    if m:
        value = math.pi
        if m.group("num"):
            value *= float(m.group("num"))
        if m.group("den"):
            den = float(m.group("den"))
            if den == 0:
                raise ValueError(f"zero denominator in angle {text!r}")
            value /= den
        if m.group("sign") == "-":
            value = -value
        return value
    try:
        return float(token)
    except ValueError:
        raise ValueError(
            f"cannot parse angle {text!r}; use radians or 'p/q pi' (e.g. '3/2pi')"
        ) from None


def parse_grid(text: str) -> GridSpec:
    """GridSpec from 'start:step:count'."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid must be start:step:count, got {text!r}")
    try:
        count = int(parts[2])
    except ValueError:
        raise ValueError(f"grid count must be an integer, got {parts[2]!r}") from None
    return GridSpec(parse_angle(parts[0]), parse_angle(parts[1]), count)


def parse_fix(text: str) -> tuple:
    if "=" not in text:
        raise ValueError(f"--fix expects param=angle, got {text!r}")
    name, value = text.split("=", 1)
    return name.strip(), parse_angle(value)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on bad usage, not argparse's 2
        raise _UsageError(message)


def _add_flags(
    parser: argparse.ArgumentParser,
    *,
    scenario: bool,
    observable: bool = False,
    tol_help: Optional[str] = None,
) -> None:
    """Add the option flags a subcommand reads.

    `scenario` adds the flags that define the experiment plus --out,
    `observable` adds --observable, and `tol_help` adds --tol with that
    help text.  Each flag name without "--" is also a --config key.
    """
    if scenario:
        parser.add_argument("--initial", choices=["z", "x"], help="initial state")
        parser.add_argument("--pulses", type=int, choices=[1, 2], help="pulse count")
        parser.add_argument(
            "--inputs",
            help="comma-separated parameters bound to logic inputs A,B "
            "(phi,beta for 1 pulse; phi1,beta1,phi2,beta2 for 2 pulses)",
        )
        parser.add_argument(
            "--fix",
            action="append",
            default=None,
            metavar="PARAM=ANGLE",
            help="fix a non-input parameter (repeatable)",
        )
    if observable:
        parser.add_argument(
            "--observable", choices=["mx", "my", "mxy"], help="detected quantity"
        )
    parser.add_argument(
        "--lambda", dest="lambda_b", type=float, help="polarization scale"
    )
    parser.add_argument("--grid", help="candidate grid start:step:count")
    if scenario:
        parser.add_argument("--out", help="output path (default: stdout)")
    if tol_help:
        parser.add_argument("--tol", type=float, help=tol_help)
    parser.add_argument("--config", help="key=value config file; flags win")


_EPILOG = (
    "gate ids read the truth-table output column for inputs "
    "(0,0),(0,1),(1,0),(1,1) as binary, most significant bit first "
    "(B=5, XOR=6, NAND=14); angles are radians or multiples of pi "
    "like '3/2pi'; grids are start:step:count"
)


def build_parser() -> _Parser:
    parser = _Parser(
        prog="nmrlogic", description=__doc__.splitlines()[0], epilog=_EPILOG
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_grid = sub.add_parser(
        "grid", help="export an observable grid as CSV", epilog=_EPILOG
    )
    # grid writes the Mx, My and Mxy columns, so it takes no --observable
    _add_flags(p_grid, scenario=True)
    p_grid.set_defaults(run=cmd_grid)

    p_classify = sub.add_parser(
        "classify", help="classify a boolean gate", epilog=_EPILOG
    )
    p_classify.add_argument("gate", help="gate name or id 0-15")
    p_classify.set_defaults(run=cmd_classify)

    p_synth = sub.add_parser(
        "synthesize", help="search gate realizations", epilog=_EPILOG
    )
    p_synth.add_argument("gate", help="gate name or id 0-15")
    _add_flags(
        p_synth, scenario=True, observable=True, tol_help="numeric tolerance override"
    )
    p_synth.set_defaults(run=cmd_synthesize)

    p_verify = sub.add_parser(
        "verify", help="recompute built-in reference values", epilog=_EPILOG
    )
    _add_flags(
        p_verify,
        scenario=False,
        tol_help="tolerance of the reference-table checks only "
        f"(default {synthesis.DEFAULT_REFERENCE_TOL:g}); "
        "the capability claims always run at the search tolerance "
        f"DEFAULT_LEVEL_TOL = {synthesis.DEFAULT_LEVEL_TOL:g}",
    )
    p_verify.set_defaults(run=cmd_verify)
    parser.commands = sub.choices  # name -> subcommand parser, for --config keys
    return parser


def _load_config(path: str) -> dict:
    values: dict = {}
    with open(path, "r", encoding="utf-8") as handle:
        for raw in handle:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"config line is not key=value: {line!r}")
            key, value = line.split("=", 1)
            key = key.strip().lower()
            value = value.strip()
            if key == "fix":
                values.setdefault("fix", []).append(value)
            elif key in values:
                raise ValueError(f"config key {key!r} is given more than once")
            else:
                values[key] = value
    return values


def _merge_config(
    args: argparse.Namespace, parser: argparse.ArgumentParser
) -> argparse.Namespace:
    """Fill the flags left unset from the --config file; `parser` is the
    subcommand's, so a key it has no flag for is an error."""
    if not getattr(args, "config", None):
        return args
    actions = {
        action.option_strings[0][2:]: action
        for action in parser._actions
        if action.option_strings and action.dest not in ("help", "config")
    }
    for key, value in _load_config(args.config).items():
        if key not in actions:
            raise ValueError(
                f"unknown config key {key!r} for {args.command}; "
                f"valid: {', '.join(actions)}"
            )
        action = actions[key]
        if getattr(args, action.dest) is None:
            setattr(args, action.dest, _config_value(key, action, value))
    return args


def _config_value(key: str, action: argparse.Action, value):
    """`value` converted and checked as the flag behind `key` would be."""
    where = f"config key {key!r} (--{key})"
    if action.type is not None:
        try:
            value = action.type(value)
        except ValueError:
            raise ValueError(
                f"{where}: invalid {action.type.__name__} value: {value!r}"
            ) from None
    if action.choices is not None and value not in action.choices:
        choices = ", ".join(map(str, action.choices))
        raise ValueError(f"{where}: invalid choice: {value!r} (choose from {choices})")
    return value


def _scenario_from_args(args: argparse.Namespace) -> synthesis.Scenario:
    initial = InitialState(args.initial or "z")
    pulses = args.pulses or 1
    # grid reads all three readouts and has no --observable
    observable = ObservableKind(getattr(args, "observable", None) or "mx")
    if args.inputs:
        inputs = tuple(p.strip() for p in args.inputs.split(","))
    elif pulses == 1:
        inputs = ONE_PULSE_PARAMS
    else:
        raise ValueError("--inputs is required for two-pulse scenarios")
    fixed = tuple(parse_fix(item) for item in (args.fix or []))
    lambda_b = args.lambda_b if args.lambda_b is not None else 1.0
    return synthesis.Scenario(
        initial=initial,
        pulses=pulses,
        observable=observable,
        inputs=inputs,
        fixed=fixed,
        lambda_b=lambda_b,
    )


def _open_out(path: Optional[str]):
    """A context for the `--out` file: None when `path` is None, else the
    file opened for writing.  A file that cannot be opened raises an
    OSError naming it, which `main` reports as an I/O error."""
    if path is None:
        return contextlib.nullcontext()
    try:
        return open(path, "w", encoding="utf-8", newline="")
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from None


def cmd_grid(args: argparse.Namespace) -> int:
    scenario = _scenario_from_args(args)
    if args.grid is not None:
        grid_a = grid_b = parse_grid(args.grid)
    else:
        grid_a = default_axis(scenario.inputs[0])
        grid_b = default_axis(scenario.inputs[1])
    avals = grid_a.values()
    bvals = grid_b.values()
    # The axes are formatted once.  The grid streams in blocks of whole
    # A-rows of about _ROW_BLOCK points, each propagated, formatted and
    # written before the next, so no whole-grid array is ever held.
    a_text, b_text = packed(format_12g(avals)), packed(format_12g(bvals))
    count = len(bvals)
    step = max(1, _ROW_BLOCK // count)

    def blocks():
        for k0 in range(0, len(avals), step):
            mx, my = scenario_components(
                scenario.initial,
                scenario.pulses,
                scenario.inputs,
                scenario.fixed_values,
                avals[k0 : k0 + step, None],
                bvals[None, :],
                scenario.lambda_b,
            )[:2]
            yield [
                np.repeat(a_text[k0 : k0 + step], count),
                np.tile(b_text, len(mx)),
                *(format_12g(v.ravel()) for v in (mx, my, np.hypot(mx, my))),
            ]

    with _open_out(args.out) as handle:
        out = sys.stdout if handle is None else handle
        header_a, header_b = scenario.inputs
        out.write(f"{header_a},{header_b},Mx,My,Mxy\n")
        _write_rows([(out, "%s,%s,%s,%s,%s\n")], blocks())
    return EXIT_OK


def _parse_gate(token: str) -> gates.TruthTable:
    try:
        return gates.parse_gate(token)
    except ValueError:
        raise ValueError(
            f"unknown gate {token!r}\nvalid tokens: "
            + ", ".join(gates.valid_gate_tokens())
        ) from None


def cmd_classify(args: argparse.Namespace) -> int:
    tt = _parse_gate(args.gate)
    profile = gates.canalising_counts(tt)
    cls = gates.gate_class(tt)
    members = sorted(gates.orbit(tt), key=lambda g: g.gate_id)
    print(f"gate {tt.name} (id {tt.gate_id})")
    print("  A B | out")
    for a in (0, 1):
        for b in (0, 1):
            print(f"  {a} {b} |  {int(tt(a, b))}")
    print(f"canalising input values: A={profile.count_a}, B={profile.count_b}")
    print(f"class: {cls.value} ({cls.name.lower()})")
    print(
        "orbit members: "
        + ", ".join(f"{g.name} (id {g.gate_id})" for g in members)
    )
    return EXIT_OK


# rows per block that `grid` and `synthesize` hand to `_write_rows`
_ROW_BLOCK = 4096


def _write_rows(outputs, blocks) -> None:
    """Write each block of rows to each `(handle, template)` of `outputs`,
    through its `%s` template.

    A block is a list of equal-length NUL-padded fixed-width bytes
    arrays, one field per `%s`; every output's rows are built from the
    same fields.  Each template's text between its `%s` is ASCII with no
    `%` or NUL.
    """
    outputs = [
        (handle, [text.encode("ascii") for text in template.split("%s")])
        for handle, template in outputs
    ]
    for fields in blocks:
        for handle, literals in outputs:
            handle.write(_row_block(literals, fields))


def _row_block(literals, fields) -> str:
    """The rows of `fields` as text, from one block of repeated row bytes.

    The block repeats one row's layout, literals with each field as NUL
    padding, and is viewed as records of one structured dtype with an
    `S<width>` field at each slot; each field fills its slot's full
    width, and dropping the NUL padding leaves the rows as
    `template % row` gives them.
    """
    row = bytearray(literals[0])
    offsets = []
    for literal, field in zip(literals[1:], fields):
        offsets.append(len(row))
        row += bytes(field.itemsize) + literal
    layout = np.dtype(
        {
            "names": [f"f{k}" for k in range(len(fields))],
            "formats": [field.dtype for field in fields],
            "offsets": offsets,
            "itemsize": len(row),
        }
    )
    block = row * len(fields[0])
    records = np.frombuffer(block, layout)
    for name, field in zip(layout.names, fields):
        records[name] = field
    # each buffer is freed once the next one is built, so fewer are live;
    # the records view would keep the block alive
    del records
    text = block.translate(None, b"\0")
    del block
    return text.decode("ascii")


def cmd_synthesize(args: argparse.Namespace) -> int:
    tt = _parse_gate(args.gate)
    scenario = _scenario_from_args(args)
    grid = parse_grid(args.grid) if args.grid is not None else synthesis.DEFAULT_SYNTH_GRID
    tol = args.tol if args.tol is not None else synthesis.DEFAULT_LEVEL_TOL
    found = synthesis.search(scenario, tt, grid, tol)
    count = len(found.indices)

    if not count:
        print(
            f"no {tt.name} assignments on grid "
            f"{grid.start:.12g}:{grid.step:.12g}:{grid.count}"
        )
        return EXIT_NO_SOLUTION

    # Each candidate and table value is formatted once; rows index them.
    candidates = packed(format_12g(found.candidates))
    levels = packed(format_12g(found.table.ravel()))

    def blocks():
        for start in range(0, count, _ROW_BLOCK):
            rows = slice(start, start + _ROW_BLOCK)
            yield [candidates[found.indices[rows, k]] for k in range(4)] + [
                levels[found.cells[bit][rows]] for bit in found.cells
            ]

    text_levels = " ".join(f"%s->{int(bit)}" for bit in found.cells)
    outputs = [(sys.stdout, "A=(%s, %s) B=(%s, %s) levels " + text_levels + "\n")]
    with _open_out(args.out) as handle:
        if handle is not None:
            handle.write("a0,a1,b0,b1,level0,level1\n")
            csv_levels = ",".join("%s" if bit in found.cells else "nan" for bit in (False, True))
            outputs.insert(0, (handle, "%s,%s,%s,%s," + csv_levels + "\n"))
        print(f"{count} {tt.name} assignment(s), class {gates.gate_class(tt).value}")
        _write_rows(outputs, blocks())
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    lambda_b = args.lambda_b if args.lambda_b is not None else 1.0
    tol = args.tol if args.tol is not None else synthesis.DEFAULT_REFERENCE_TOL
    grid = parse_grid(args.grid) if args.grid is not None else synthesis.DEFAULT_SYNTH_GRID
    checks = synthesis.verify_reference_tables(lambda_b=lambda_b, tol=tol)
    checks += synthesis.capability_checks(grid=grid, lambda_b=lambda_b)
    print(
        f"verification run: lambda={lambda_b:.12g}, tol={tol:.3g}, "
        f"search grid {grid.start:.12g}:{grid.step:.12g}:{grid.count}"
    )
    failures = 0
    for check in checks:
        status = "PASS" if check.passed else "FAIL"
        print(f"[{status}] {check.name}: {check.detail}")
        failures += not check.passed
    print(f"{len(checks) - failures}/{len(checks)} checks passed")
    return EXIT_OK if failures == 0 else EXIT_VERIFY_FAILED


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        args = _merge_config(args, parser.commands[args.command])
        return args.run(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        # numpy's error names the array it could not allocate; Python's is bare
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
