"""Every pinned CLI run: its argv, exit code and the bytes it prints.

A row is one run of `nmrlogic`, with COLUMNS=80 (argparse wraps help to
it).  `OUT` in the command stands for the `--out` path.  A pin is a file
name under tests/golden/ or the sha256 digest of the bytes.  Every run
must also leave stderr empty.

tests/test_cli.py runs each row in process through `cli.main`.  Run
this file to run each row through the installed `nmrlogic` script:

    python tests/pinned_runs.py

It names each row that differs and exits 1 if any does.  To pin a new
run, add a row with its reason as a comment, and its golden file under
tests/golden/; tier-1 fails on a golden file that no row names.
"""

import hashlib
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import List, NamedTuple, Optional

GOLDEN = Path(__file__).parent / "golden"
EMPTY = hashlib.sha256(b"").hexdigest()


class Row(NamedTuple):
    id: str
    command: str  # shell words after `nmrlogic`
    code: int
    stdout: str  # pin of stdout
    out: Optional[str] = None  # pin of the --out file

    def argv(self, out_path: str = "OUT") -> List[str]:
        return [out_path if word == "OUT" else word for word in shlex.split(self.command)]


TWO_PULSE_X = "--initial x --pulses 2 --inputs phi2,phi1 --fix beta1=1/2pi --fix beta2=1/2pi"

ROWS = [
    Row("classify_xor", "classify XOR", 0, "classify_xor.txt"),
    Row("classify_nand", "classify NAND", 0, "classify_nand.txt"),
    # the help goldens are argparse's layout on Python 3.11
    Row("help", "--help", 0, "help.txt"),
    Row("help_grid", "grid --help", 0, "help_grid.txt"),
    Row("help_classify", "classify --help", 0, "help_classify.txt"),
    Row("help_synthesize", "synthesize --help", 0, "help_synthesize.txt"),
    Row("help_verify", "verify --help", 0, "help_verify.txt"),
    Row("verify_default", "verify", 0, "verify_default.txt"),
    # the default grid, given explicitly
    Row("verify_quarter_pi_16", "verify --grid 0:1/4pi:16", 0, "verify_default.txt"),
    Row("verify_eighth_pi_24", "verify --grid 0:1/8pi:24", 0, "verify_grid_eighth_pi_24.txt"),
    Row("synthesize_xor_quarter_pi_16", "synthesize XOR --grid 0:1/4pi:16", 0,
        "synthesize_xor_quarter_pi_16.txt"),
    # one --out run streams both outputs, block by block
    Row("synthesize_xor_quarter_pi_16_out", "synthesize XOR --grid 0:1/4pi:16 --out OUT", 0,
        "synthesize_xor_quarter_pi_16.txt", "synthesize_xor_quarter_pi_16.csv"),
    # a constant gate: its CSV has a nan level column; 1,857 lines of stdout
    Row("synthesize_t_half_pi_8_out", "synthesize T --grid 0:1/2pi:8 --out OUT", 0,
        "520fbbd342351e9d71d983093d766df7b307bac78b5ff4d909eae7a11dc9ca50",
        "synthesize_t_half_pi_8.csv"),
    # AND on three levels over 48 columns, counted by the sort on the
    # table's distinct rows; it finds nothing, exits 3 and prints one line
    Row("synthesize_and_x_two_pulse_half_pi_48",
        f"synthesize AND {TWO_PULSE_X} --grid 0:1/2pi:48", 3,
        "synthesize_and_x_two_pulse_half_pi_48.txt"),
    # XNOR on 27 levels and XOR on 11: each counts only its own orbit sum
    # on int16 keys, finds nothing, exits 3 and prints one line
    Row("synthesize_xnor_x_mx_eighth_pi_48",
        "synthesize XNOR --initial x --pulses 1 --observable mx --inputs phi,beta"
        " --grid=5/8pi:1/8pi:48", 3, "synthesize_xnor_x_mx_eighth_pi_48.txt"),
    Row("synthesize_xor_x_mxy_eighth_pi_64",
        "synthesize XOR --initial x --pulses 1 --observable mxy --inputs phi,beta"
        " --grid=4/8pi:1/8pi:64", 3, "synthesize_xor_x_mxy_eighth_pi_64.txt"),
    # 256 rows with few distinct ones, each counted once; one line of stdout
    Row("synthesize_xnor_x_mx_eighth_pi_256",
        "synthesize XNOR --initial x --pulses 1 --observable mx --inputs phi,beta"
        " --grid=5/8pi:1/8pi:256", 3,
        "78955bcccac25a2a341f7bce9fcefc04f3fb5d4b8f60f67bfd678e1945349696"),
    # the thermal table repeats its rows with period 2 pi, so 97% of the
    # lines after each A=(a0, a1) are rendered once per class pair and
    # reused; stdout and the CSV each hold 54,757 lines
    Row("synthesize_xnor_eighth_pi_48_out", "synthesize XNOR --grid 5/8pi:1/8pi:48 --out OUT", 0,
        "160825e942d0abf3a2dc2489cc8f58caf077306721eba81eb80f31de037eb6e1",
        "6e7c359a04c18931bee6c7ab0efcd95158adc476a02ba16eb61ec727b9fecefe"),
    # B and NOT B count through the sort on any table: one level with no
    # hits exits 3 and prints one line, and three levels over 16 columns
    # write 13,312 rows
    Row("synthesize_b_lambda_0_eighth_pi_16", "synthesize B --lambda 0 --grid 0:1/8pi:16", 3,
        "synthesize_b_lambda_0_eighth_pi_16.txt"),
    Row("synthesize_not_b_x_two_pulse_half_pi_16_out",
        f'synthesize "NOT B" {TWO_PULSE_X} --grid 0:1/2pi:16 --out OUT', 0,
        "dc0f0b0dbf4d0e9c9e6a9e7da7671ed010d363feb7f63efa9816a482913319c4",
        "5119ecddfbeffbafe94b267e04f187360e696313165b855061905304c472d195"),
    # 191 levels take int32 keys: 7,220 rows
    Row("synthesize_a_0.37_20_out", "synthesize A --grid 0:0.37:20 --out OUT", 0,
        "4e675b8fb58f003bd628af9a8fb974e9fd144d583c59a9d85f2ba08aace40a5c",
        "55bd5f3ea05a36355d17cf2f263c4515b33f839185ccb850c09a1d27164896b6"),
    # at tol 0.02 the search compares float gaps, not level labels; with
    # --out, the count pass and the write pass fill one row test
    Row("synthesize_xor_eighth_pi_12_tol_0.02", "synthesize XOR --grid 0:1/8pi:12 --tol 0.02", 0,
        "synthesize_xor_eighth_pi_12_tol_0.02.txt"),
    Row("synthesize_xor_eighth_pi_12_tol_0.02_out",
        "synthesize XOR --grid 0:1/8pi:12 --tol 0.02 --out OUT", 0,
        "synthesize_xor_eighth_pi_12_tol_0.02.txt", "synthesize_xor_eighth_pi_12_tol_0.02.csv"),
    # "<" on the pairwise route re-tests both diagonals of each of its
    # 3,969 hits
    Row("synthesize_lt_eighth_pi_24_tol_0.02_out",
        'synthesize "<" --grid 0:1/8pi:24 --tol 0.02 --out OUT', 0,
        "e5fe182bd8189e31739e0b073c276cb357c5f246b2904e108dbbb3f81c9f0234",
        "ed7955fa4f3594704487a32fbcae491877367092ba8355250eef26457988c9f8"),
    Row("grid_z_quarter_pi_8", "grid --initial z --grid 0:1/4pi:8", 0, "grid_z_quarter_pi_8.txt"),
    # the x-state one-pulse closed forms, -0 and sub-1e-10 values included
    Row("grid_x_quarter_pi_8", "grid --initial x --grid 0:1/4pi:8", 0, "grid_x_quarter_pi_8.txt"),
    # sign, "0.000" prefix and 12 digits in one value: -0.000707106781187
    Row("grid_z_lambda_0.004_quarter_pi_8", "grid --initial z --lambda 0.004 --grid 0:1/4pi:8", 0,
        "grid_z_lambda_0.004_quarter_pi_8.txt"),
    # negative values given as the word after their flag, an exponent
    # and a rational multiple of pi: the bytes of the "=" forms
    Row("grid_lambda_-1e-3_space_form", "grid --lambda -1e-3 --grid -1/2pi:1/2pi:4", 0,
        "f425e00663d429d441fd93ee257bd32cc8b9b379ca5838a9517e5fe87dad3502"),
    Row("grid_x_two_pulse_quarter_pi_8_out", f"grid {TWO_PULSE_X} --grid 0:1/4pi:8 --out OUT", 0,
        EMPTY, "grid_x_two_pulse_quarter_pi_8.csv"),
    # every coherence real part of this grid is zero, so every point of
    # rho takes the per-point product again
    Row("grid_z_two_pulse_beta2_beta1_quarter_pi_8",
        "grid --initial z --pulses 2 --inputs beta2,beta1 --fix phi2=0 --fix phi1=0"
        " --grid 0:1/4pi:8", 0, "grid_z_two_pulse_beta2_beta1_quarter_pi_8.txt"),
    # both inputs in pulse 1: each point has its own R1, so R2 R1 is made
    # per point, in groups of four
    Row("grid_x_two_pulse_phi1_beta1_quarter_pi_8_out",
        "grid --initial x --pulses 2 --inputs phi1,beta1 --fix phi2=1/2pi --fix beta2=1/2pi"
        " --grid 0:1/4pi:8 --out OUT", 0,
        EMPTY, "grid_x_two_pulse_phi1_beta1_quarter_pi_8.csv"),
]


def first_difference(got: bytes, want: bytes) -> str:
    """Where `got` first differs from `want`, by line: outputs run to
    megabytes, so a full diff would bury it."""
    got, want = got.splitlines(True), want.splitlines(True)
    k = next((k for k, pair in enumerate(zip(got, want)) if pair[0] != pair[1]),
             min(len(got), len(want)))
    return f"line {k} differs: {got[k:k + 1]} != {want[k:k + 1]} ({len(got)} vs {len(want)} lines)"


def mismatches(row: Row, code: int, stdout: bytes, stderr: bytes,
               written: Optional[bytes]) -> List[str]:
    """What differs between one run of `row` and its pins; `written` is
    the --out file, or None when the run left none."""
    found = [] if code == row.code else [f"exit {code}, pinned {row.code}"]
    if stderr:
        found.append(f"stderr is not empty: {stderr[:200]!r}")
    for name, pin, data in (("stdout", row.stdout, stdout), ("--out", row.out, written)):
        if pin is None:
            continue
        if data is None:
            found.append(f"no {name} written")
        elif "." in pin:  # a golden file name; a digest has no dot
            want = (GOLDEN / pin).read_bytes()
            if data != want:
                found.append(f"{name} differs from {pin}: {first_difference(data, want)}")
        elif hashlib.sha256(data).hexdigest() != pin:
            found.append(f"{name} has sha256 {hashlib.sha256(data).hexdigest()}, pinned {pin}")
    return found


def main() -> int:
    env = dict(os.environ, COLUMNS="80")
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        for row in ROWS:
            out_path = Path(tmp) / row.id
            proc = subprocess.run(["nmrlogic", *row.argv(str(out_path))], capture_output=True, env=env)
            written = out_path.read_bytes() if out_path.exists() else None
            found = mismatches(row, proc.returncode, proc.stdout, proc.stderr, written)
            for text in found:
                print(f"{row.id}: {text}")
            failed += bool(found)
    print(f"{len(ROWS) - failed} of {len(ROWS)} pinned runs match")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
