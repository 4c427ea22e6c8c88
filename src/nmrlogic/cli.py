"""Command-line front end.

Subcommands: ``grid`` (CSV export of observable grids), ``classify``
(gate truth table, canalising profile, class and orbit), ``synthesize``
(search gate realizations over a candidate grid) and ``verify``
(recompute the built-in reference values and capability claims).

Each subcommand's help, gate token and option flags come from one
table, `_COMMANDS`, and each flag's `add_argument` keywords from
`_FLAGS`.  A flag's name without "--" is also its key in a `--config`
file of key=value lines; flags given on the command line win.

Exit codes: 0 success, 1 usage/config error, 2 I/O error, 3 no solution
found, 4 verification failure.  An output pipe whose reader closes early
ends the run with exit 2 and no message.

Angles are accepted as decimal radians or as rational multiples of pi
("pi", "3/2pi", "-1/2pi").  Gate ids follow the truth-table ordering
documented in `nmrlogic.gates` (output column for inputs 00, 01, 10, 11
read as binary, most significant first).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import os
import re
import sys
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from . import _kernels, gates, synthesis
from ._format import format_12g, packed_12g
from .observables import (
    GridSpec,
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


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's own matcher takes "-1e-3" and "-1/2pi:4" for flags; no
        # flag starts with "-" and a digit, or "-." and a digit
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def error(self, message):  # a usage error like any other: exit 1, not argparse's 2
        raise ValueError(message)


def _scenario_from_args(args: argparse.Namespace) -> synthesis.Scenario:
    pulses = args.pulses or 1
    if args.inputs:
        inputs = tuple(p.strip() for p in args.inputs.split(","))
    elif pulses == 1:
        inputs = ONE_PULSE_PARAMS
    else:
        raise ValueError("--inputs is required for two-pulse scenarios")
    fixed = tuple(parse_fix(item) for item in (args.fix or []))
    lambda_b = args.lambda_b if args.lambda_b is not None else 1.0
    return synthesis.Scenario(
        initial=args.initial or "z",
        pulses=pulses,
        # grid writes Mx, My and Mxy, so it has no --observable
        observable=getattr(args, "observable", None) or "mx",
        inputs=inputs,
        fixed=fixed,
        lambda_b=lambda_b,
    )


def _open_out(path: Optional[str]):
    """A context for the `--out` file: None when `path` is None, else the
    file opened for writing.  A file that cannot be opened raises an
    OSError naming it once, which `main` reports as an I/O error."""
    if path is None:
        return contextlib.nullcontext()
    try:
        return open(path, "w", encoding="utf-8", newline="")
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc.strerror or exc}") from None


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
    a_text, b_text = packed_12g(avals), packed_12g(bvals)
    count = len(bvals)
    step = max(1, _ROW_BLOCK // count)

    def blocks():
        for k0 in range(0, len(avals), step):
            mx, my = scenario_components(
                scenario.initial, scenario.pulses, scenario.inputs, scenario.fixed_values,
                avals[k0 : k0 + step, None], bvals[None, :], scenario.lambda_b,
            )
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


def cmd_classify(args: argparse.Namespace) -> int:
    tt = gates.parse_gate(args.gate)
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
    row, layout = _layout(tuple(literals), tuple(field.dtype for field in fields))
    block = bytearray(row) * len(fields[0])
    records = np.frombuffer(block, layout)
    for name, field in zip(layout.names, fields):
        records[name] = field
    # each buffer is freed once the next one is built, so fewer are live;
    # the records view would keep the block alive
    del records
    text = block.translate(None, b"\0")
    del block
    return text.decode("ascii")


@functools.lru_cache(maxsize=8)
def _layout(literals, formats):
    """(row, layout) of `_row_block`: one row's bytes, with NUL padding
    for each field, and the structured dtype of its `formats` at their
    slots.  A command asks for the same few, block after block."""
    row = bytearray(literals[0])
    offsets = []
    for literal, field in zip(literals[1:], formats):
        offsets.append(len(row))
        row += bytes(field.itemsize) + literal
    layout = np.dtype(
        {
            "names": [f"f{k}" for k in range(len(formats))],
            "formats": list(formats),
            "offsets": offsets,
            "itemsize": len(row),
        }
    )
    return bytes(row), layout


# bytes that `synthesize` may hold of rendered rows for the row pairs to
# come, and what a held line costs beyond its text: its str header and
# its list slot
_REUSE_BYTES = 1 << 21
_LINE_BYTES = sys.getsizeof("") + 8


def _write_hits(outputs, hits, candidates, levels, corners, classes):
    """Write a row for each hit of the blocks `hits` to each `(handle,
    template)` of `outputs`: the texts in `candidates` of i0, i1, j0 and
    j1, then for each (a, b) of `corners` the text in `levels` of table
    cell (i_a, j_b), through each `%s` template as `_write_rows` does.
    Each template ends its row with its one line break, "\n".

    Every template starts with i0 and i1, its prefix.  A row pair's hits,
    and its text after the prefix, depend on rows i0 and i1 only through
    their `classes`, so every row pair of a class pair writes the same
    lines after its own prefix, and the last of them, in row pair order,
    is the pair of each class's last row.  The lines of a class pair with
    row pairs still to come are rendered once, with those of the other
    class pairs first met in the same kernel block, held until its last
    row pair, and written after each prefix by one join, while the held
    lines stay within `_REUSE_BYTES`.  The other row pairs are written in
    runs, in blocks of at most `_ROW_BLOCK` rows, so a table without
    repeated rows is written as `_write_rows` writes it.  A kernel block
    never splits a row pair.
    """
    handles = [handle for handle, _ in outputs]
    literals = [[text.encode("ascii") for text in template.split("%s")] for _, template in outputs]
    # the prefix as a template of the two A texts; the lines after it
    # from j0, j1 and the levels, with no text of their own before them
    prefixes = [b"%s".join(parts[:3]).decode("ascii") for parts in literals]
    suffixes = [[b""] + parts[3:] for parts in literals]
    # a held row's cost in all outputs, at most: its NUL-padded bytes
    padded = 2 * candidates.itemsize + len(corners) * levels.itemsize
    width = sum(len(b"".join(suffix)) + padded + _LINE_BYTES for suffix in suffixes)
    names = [text.decode("ascii") for text in candidates.tolist()]
    last = {row_class: row for row, row_class in enumerate(classes)}
    held = {}  # class pair -> (its cost, its lines per output)
    budget = _REUSE_BYTES

    def fields(rows):
        return [candidates[rows[:, k]] for k in range(4)] + [
            levels[rows[:, a], rows[:, 2 + b]] for a, b in corners.values()
        ]

    def hold(block, new):
        # the lines after the prefix of the row pairs `new` of `block`, each
        # (start, stop, class pair), rendered together; an empty first
        # line puts the prefix before the first row
        suffix = fields(np.concatenate([block[start:stop] for start, stop, _ in new]))[2:]
        lines = [_row_block(parts, suffix).splitlines(True) for parts in suffixes]
        k = 0
        for start, stop, pair in new:
            held[pair][1].extend(["", *rendered[k : k + stop - start]] for rendered in lines)
            k += stop - start

    def write(rows):
        _write_rows(outputs, (fields(rows[k : k + _ROW_BLOCK]) for k in range(0, len(rows), _ROW_BLOCK)))

    for block in hits:
        # each row pair of the block: its first hit, its end and its rows
        i0, i1 = block[:, 0], block[:, 1]
        starts = [0, *(np.flatnonzero((i0[1:] != i0[:-1]) | (i1[1:] != i1[:-1])) + 1).tolist()]
        pairs = list(zip(starts, starts[1:] + [len(block)], block[starts, :2].tolist()))
        # the class pairs to hold from here, rendered together before any
        # row of the block is written
        new = []
        for start, stop, (a0, a1) in pairs:
            pair = classes[a0], classes[a1]
            cost = (stop - start) * width
            if pair in held or cost > budget or (a0, a1) == (last[pair[0]], last[pair[1]]):
                continue
            held[pair] = cost, []
            budget -= cost
            new.append((start, stop, pair))
        if new:
            hold(block, new)
        run = 0  # the first hit not yet written
        for start, stop, (a0, a1) in pairs:
            pair = classes[a0], classes[a1]
            entry = held.get(pair)
            if entry is None:
                continue  # written with the run
            if run < start:
                write(block[run:start])
            run = stop
            for handle, prefix, lines in zip(handles, prefixes, entry[1]):
                handle.write((prefix % (names[a0], names[a1])).join(lines))
            if (a0, a1) == (last[pair[0]], last[pair[1]]):
                del held[pair]
                budget += entry[0]
        write(block[run:])


def cmd_synthesize(args: argparse.Namespace) -> int:
    tt = gates.parse_gate(args.gate)
    scenario = _scenario_from_args(args)
    grid = parse_grid(args.grid) if args.grid is not None else synthesis.DEFAULT_SYNTH_GRID
    tol = args.tol if args.tol is not None else synthesis.DEFAULT_LEVEL_TOL
    cand, table, labels = synthesis.search_table(scenario, grid, tol)
    count, hits = _kernels.gate_quadruples(table, tt.outputs, tol, labels)

    if not count:
        print(
            f"no {tt.name} assignments on grid "
            f"{grid.start:.12g}:{grid.step:.12g}:{grid.count}"
        )
        return EXIT_NO_SOLUTION
    if table is None:  # the printed levels come from the matrix table
        cand, table = synthesis.candidate_table(scenario, grid)

    # Each candidate and table value is formatted once; rows index them.
    # The kernel's blocks of hits are written as they come.  Rows alike in
    # labels (in value bits on the pairwise route) and in printed levels
    # are one class.
    candidates, levels = packed_12g(cand), packed_12g(table)
    corners = synthesis.level_corners(tt)
    classes = _kernels.row_classes(table if labels is None else labels, levels)
    text_levels = " ".join(f"%s->{int(bit)}" for bit in corners)
    outputs = [(sys.stdout, "A=(%s, %s) B=(%s, %s) levels " + text_levels + "\n")]
    with _open_out(args.out) as handle:
        if handle is not None:
            handle.write("a0,a1,b0,b1,level0,level1\n")
            csv_levels = ",".join("%s" if bit in corners else "nan" for bit in (False, True))
            outputs.insert(0, (handle, "%s,%s,%s,%s," + csv_levels + "\n"))
        print(f"{count} {tt.name} assignment(s), class {gates.gate_class(tt).value}")
        _write_hits(outputs, hits, candidates, levels, corners, classes)
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


# `add_argument` keywords of each option flag, keyed by the flag name
# without "--", which is also its --config key
_FLAGS = {
    "initial": dict(choices=["z", "x"], help="initial state"),
    "pulses": dict(type=int, choices=[1, 2], help="pulse count"),
    "inputs": dict(
        help="comma-separated parameters bound to logic inputs A,B "
        "(phi,beta for 1 pulse; phi1,beta1,phi2,beta2 for 2 pulses)"
    ),
    "fix": dict(
        action="append",
        default=None,
        metavar="PARAM=ANGLE",
        help="fix a non-input parameter (repeatable)",
    ),
    "observable": dict(choices=["mx", "my", "mxy"], help="detected quantity"),
    "lambda": dict(dest="lambda_b", type=float, help="polarization scale"),
    "grid": dict(help="candidate grid start:step:count"),
    "out": dict(help="output path (default: stdout)"),
    "tol": dict(type=float),  # its help is the subcommand's `tol_help`
    "config": dict(help="key=value config file; flags win"),
}


class _Command(NamedTuple):
    help: str
    run: Callable[[argparse.Namespace], int]
    gate: bool = False  # takes a gate token
    flags: Sequence[str] = ()  # keys of _FLAGS, in help order
    tol_help: Optional[str] = None


# every subcommand, in help order
_COMMANDS = {
    # grid writes the Mx, My and Mxy columns, so it takes no --observable
    "grid": _Command(
        "export an observable grid as CSV",
        cmd_grid,
        flags="initial pulses inputs fix lambda grid out config".split(),
    ),
    "classify": _Command("classify a boolean gate", cmd_classify, gate=True),
    "synthesize": _Command(
        "search gate realizations",
        cmd_synthesize,
        gate=True,
        flags="initial pulses inputs fix observable lambda grid out tol config".split(),
        tol_help="numeric tolerance override",
    ),
    "verify": _Command(
        "recompute built-in reference values",
        cmd_verify,
        flags="lambda grid tol config".split(),
        tol_help="tolerance of the reference-table checks only "
        f"(default {synthesis.DEFAULT_REFERENCE_TOL:g}); "
        "the capability claims always run at the search tolerance "
        f"DEFAULT_LEVEL_TOL = {synthesis.DEFAULT_LEVEL_TOL:g}",
    ),
}

_EPILOG = (
    "gate ids read the truth-table output column for inputs "
    "(0,0),(0,1),(1,0),(1,1) as binary, most significant bit first "
    "(B=5, XOR=6, NAND=14); angles are radians or multiples of pi "
    "like '3/2pi'; grids are start:step:count"
)


@functools.cache
def build_parser() -> _Parser:
    """The CLI parser, built on the first call and shared by every later
    call in the process; callers must not mutate it.

    Reuse is safe because `parse_args` keeps no state on the parser: each
    call fills a fresh namespace, `--fix` appends to a list that starts as
    None, `--config` is merged into the namespace only, and the help
    width is read from COLUMNS each time help is formatted.
    """
    parser = _Parser(
        prog="nmrlogic", description=__doc__.splitlines()[0], epilog=_EPILOG
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p_command = sub.add_parser(name, help=command.help, epilog=_EPILOG)
        if command.gate:
            p_command.add_argument("gate", help="gate name or id 0-15")
        for flag in command.flags:
            keywords = _FLAGS[flag]
            if flag == "tol":
                keywords = dict(keywords, help=command.tol_help)
            p_command.add_argument(f"--{flag}", **keywords)
    return parser


def _load_config(path: str) -> dict:
    try:
        # utf-8-sig drops the byte-order mark that some editors write first
        with open(path, "r", encoding="utf-8-sig") as handle:
            lines = list(handle)
    except UnicodeDecodeError as exc:
        raise ValueError(f"cannot read config {path}: {exc}") from None
    except OSError as exc:  # an I/O error, as for --out
        raise OSError(f"cannot read config {path}: {exc.strerror or exc}") from None
    values: dict = {}
    for raw in lines:
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


def _merge_config(args: argparse.Namespace) -> argparse.Namespace:
    """Fill the flags left unset from the --config file; a key that is not
    one of the subcommand's flags is an error."""
    if not getattr(args, "config", None):
        return args
    keys = [flag for flag in _COMMANDS[args.command].flags if flag != "config"]
    for key, value in _load_config(args.config).items():
        if key not in keys:
            raise ValueError(
                f"unknown config key {key!r} for {args.command}; "
                f"valid: {', '.join(keys)}"
            )
        dest = _FLAGS[key].get("dest", key)
        if getattr(args, dest) is None:
            setattr(args, dest, _config_value(key, value))
    return args


def _config_value(key: str, value):
    """`value` converted and checked as the flag behind `key` would be."""
    where = f"config key {key!r} (--{key})"
    convert = _FLAGS[key].get("type")
    if convert is not None:
        try:
            value = convert(value)
        except ValueError:
            raise ValueError(
                f"{where}: invalid {convert.__name__} value: {value!r}"
            ) from None
    choices = _FLAGS[key].get("choices")
    if choices is not None and value not in choices:
        choices = ", ".join(map(str, choices))
        raise ValueError(f"{where}: invalid choice: {value!r} (choose from {choices})")
    return value


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return _COMMANDS[args.command].run(_merge_config(args))
    except BrokenPipeError:  # the reader has gone, and with it anyone to tell
        return EXIT_IO
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
    code = main()
    try:
        sys.stdout.flush()
    except BrokenPipeError:  # send what no reader takes to devnull, not to the flush at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_IO
    sys.exit(code)


if __name__ == "__main__":
    entry_point()
