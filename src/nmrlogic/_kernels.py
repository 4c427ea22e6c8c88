"""Hot numeric kernels, vectorised with numpy.

The two inner loops that dominate runtime are (a) numeric two-pulse
propagation evaluated over large parameter grids and (b) the exhaustive
search for gate-realizing parameter quadruples over a candidate grid.

Propagation builds each pulse's rotations on that pulse's own broadcast
shape, so a grid passed as `a[:, None]` and `b[None, :]` takes O(n)
trigonometry per pulse.  Each 2x2 product takes its route where it is
made.  Points that share a right-hand matrix go through one row-stacked
gemm: U rho0 always does, and R2 R1 (`_product`) does per distinct R1.
Where each right-hand matrix serves one point, as in (U rho0) U† and R2
R1 with both inputs in pulse 1, four points go through one gemm, their
left factors on the diagonal of an 8x8 zero matrix times their right
factors stacked 8x2 (`_grouped_product`).  Each padding product adds an
exact zero, so every entry that is not zero keeps the bits of the
per-point `np.matmul`; the points where the sign of a zero could reach a
later product or a readout take the per-point call again.

`bloch_components` propagates Bloch vectors instead: two elementwise
Rodrigues rotations, each pulse's trigonometry on its own broadcast
shape, with no complex matrix and no BLAS call.  Its readouts lie within
`rounding_bound` of the matrix route's, so `level_labels` given that
bound as its `slack` returns labels only where they are the matrix
table's too.  `synthesis.search_table` says which tables take which
route.

The search tests corner pairs with one comparator: equal level labels
where the table has levels, else |x - y| <= tol (the pairwise route).
The caller labels a table once and passes its labels, or None, to
`gate_counts` and `gate_quadruples` (`synthesis.search_table`, or
`level_labels` for a caller that holds the table); only
`find_gate_quadruples` labels its own table.  The search counts the hits
of every row pair from histograms of column label pairs
(`level_pair_counts`) a block of rows at a time, each block counting its
own rows' labels, and streams the hits of the row pairs that hold any in
cache-sized blocks (`gate_quadruples`), holding one n^3 boolean row
test that a search allocates once and each of its passes fills.
Equal labels are transitive, so on the label route a quadruple's four
sides settle its diagonals, except for XOR and XNOR, which test both
diagonals densely on either route; on the pairwise route the other gates
re-test the diagonals of their hits.
`gate_counts` counts one gate per orbit: on labels from the histograms,
holding none, or on the pairwise route by the counting pass of
`gate_quadruples` each.  `level_pair_counts` is the one label counter; it
counts only the orbit sums asked for (a search its gate's
representative, `gate_counts` the union of its gates'), each on one row
of each class of equal rows, and its docstring says how.  `row_classes`
is the one row dedupe; the `synthesize` writer classes its rows with it
too.  The pi/8 and pi/2 grids of `verify` and the benchmark repeat each
table with period 2 pi, so its 24-64-row tables hold 3-9 row classes.

`observables` and `synthesis` look both up on this module at call time, so a
wrapper set on the module attribute (as `perfbench/tracing.py` does) sees
every call.
"""

from __future__ import annotations

import math

import numpy as np


# ---------------------------------------------------------------------------
# Two-pulse propagation: rho -> R2 R1 rho R1+ R2+, then the mx and my traces.
#
# Rotation matrices are built from their closed-form entries
#   [[cos(b/2), -i sin(b/2) e^{-i phi}], [-i sin(b/2) e^{+i phi}, cos(b/2)]]
# which keeps this route purely matrix-algebraic; the analytic observable
# formulas it is checked against live in `observables`.
# ---------------------------------------------------------------------------


def _rotation_stack(phi: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """(..., 2, 2) complex rotation matrices over the broadcast angle shape."""
    half = 0.5 * beta
    c = np.cos(half)
    s = np.sin(half)
    ph = np.exp(-1j * phi)
    shape = np.broadcast_shapes(phi.shape, beta.shape)
    out = np.empty(shape + (2, 2), dtype=np.complex128)
    out[..., 0, 0] = c
    out[..., 0, 1] = -1j * s * ph
    out[..., 1, 0] = -1j * s * np.conj(ph)
    out[..., 1, 1] = c
    return out


# `_grouped_product` runs `_GROUP` points per gemm, `(2G x 2G) @ (2G x 2)`,
# and takes `_CHUNK_GROUPS` groups at a time through one reused buffer.
_GROUP = 4
_CHUNK_GROUPS = 256


def _any_zero(out):
    """(n,) bool: the points of an (n, 2, 2) stack with an exactly zero
    real or imaginary part in any entry."""
    return (out.reshape(len(out), 4).view(np.float64) == 0).any(axis=1)


def _readout_zeros(rho):
    """(n,) bool: the points of an (n, 2, 2) stack of rho where a readout
    combines two exactly zero parts, so that their signs reach it: the
    real parts of both coherences (mx, my) or their imaginary parts (my)."""
    zero = rho.reshape(len(rho), 4).view(np.float64) == 0
    return (zero[:, 2] & zero[:, 4]) | (zero[:, 3] & zero[:, 5])


def _product(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """R2 R1: C-ordered `left @ right` over broadcast stacks of 2x2
    matrices, bit for bit.

    When every right-hand matrix serves one point, four points go through
    each gemm (`_grouped_product`); U feeds later products, so every point
    with a zero part takes the per-point call again (`_any_zero`).
    Otherwise the points that share a right-hand matrix go through one
    row-stacked gemm, `(rows, 2) @ (2, 2)`, which rounds each row as the
    per-point call does.  The axes along which `right` varies come first,
    so one `@` over `(distinct, rows, 2)` makes one gemm per distinct R1.
    """
    shape = np.broadcast_shapes(left.shape, right.shape)
    right = right.reshape((1,) * (len(shape) - right.ndim) + right.shape)
    left = np.broadcast_to(left, shape)
    varies = [axis for axis in range(len(shape) - 2) if right.shape[axis] != 1]
    points = [axis for axis in range(len(shape) - 2) if axis not in varies]
    if math.prod(shape[axis] for axis in points) == 1:
        right = np.broadcast_to(right, shape).reshape(-1, 2, 2)
        return _grouped_product(left.reshape(-1, 2, 2), right, _any_zero).reshape(shape)
    order = varies + points + [len(shape) - 2, len(shape) - 1]
    left = left.transpose(order)
    distinct = math.prod(left.shape[: len(varies)])
    rows = math.prod(left.shape[len(varies) : -1])
    out = left.reshape(distinct, rows, 2) @ right.transpose(order).reshape(distinct, 2, 2)
    inverse = sorted(range(len(order)), key=order.__getitem__)
    return np.ascontiguousarray(out.reshape(left.shape).transpose(inverse))


def _grouped_product(left, right, redo):
    """(n, 2, 2) C-ordered `left @ right` of two (n, 2, 2) stacks, with
    the bits of the per-point `@`.

    N stays 2 and each padding product adds an exact zero to a sum over
    K = 2G, so an entry that is not zero keeps its per-point bits; a zero
    may take the other sign.  The points that `redo` marks, and the 0-3 left over
    after the groups, take the per-point `@` on the same strides.
    """
    n = len(left)
    out = np.empty((n, 2, 2), dtype=np.complex128)
    grouped = n - n % _GROUP
    size = 2 * _GROUP
    buffer = np.zeros((min(grouped // _GROUP, _CHUNK_GROUPS), size, size), dtype=np.complex128)
    # a writable view of the diagonal 2x2 blocks; the rest stays zero
    blocks = np.einsum("gjajb->gjab", buffer.reshape(len(buffer), _GROUP, 2, _GROUP, 2))
    step = _CHUNK_GROUPS * _GROUP
    for start in range(0, grouped, step):
        stop = min(start + step, grouped)
        g = (stop - start) // _GROUP
        blocks[:g] = left[start:stop].reshape(g, _GROUP, 2, 2)
        np.matmul(
            buffer[:g], right[start:stop].reshape(g, size, 2), out=out[start:stop].reshape(g, size, 2)
        )
    again = np.append(np.flatnonzero(redo(out[:grouped])), np.arange(grouped, n))
    out[again] = left[again] @ right[again]
    return out


def two_pulse_components(phi2, beta2, phi1, beta1, lambda_b, from_x):
    """Vectorised numeric propagation.

    Parameters
    ----------
    phi2, beta2, phi1, beta1 : array_like
        Pulse parameters in radians, broadcast against each other.
        Pulse 1 acts first.  Each pulse's rotations are built on its own
        broadcast shape, so axes such as `a[:, None]` and `b[None, :]`
        keep the trigonometry at O(n) per pulse.
    lambda_b : float
        Polarization scale of the initial state.
    from_x : bool
        Start from the x-polarised superposition state instead of the
        thermal (z) state.

    Returns
    -------
    (mx, my) : tuple of two C-ordered float64 ndarrays
        The transverse readouts, each owning its memory.
    """
    phi2, beta2, phi1, beta1 = (
        np.asarray(v, dtype=np.float64) for v in (phi2, beta2, phi1, beta1)
    )
    u = _product(_rotation_stack(phi2, beta2), _rotation_stack(phi1, beta1))

    rho0 = np.zeros((2, 2), dtype=np.complex128)
    rho0[0, 0] = rho0[1, 1] = 0.5
    if from_x:
        rho0[0, 1] = rho0[1, 0] = 0.25 * lambda_b
    else:
        rho0[0, 0] += 0.25 * lambda_b
        rho0[1, 1] -= 0.25 * lambda_b

    # U rho0 as one row-stacked gemm; (U rho0) U† four points per gemm
    u_rho0 = (u.reshape(-1, 2) @ rho0).reshape(-1, 2, 2)
    u_dagger = u.conj().swapaxes(-1, -2)
    del u  # U† is a copy: three (..., 2, 2) stacks at a time, not four
    rho = _grouped_product(u_rho0, u_dagger.reshape(-1, 2, 2), _readout_zeros)
    rho = rho.reshape(u_dagger.shape)
    mx = 0.5 * (rho[..., 0, 1] + rho[..., 1, 0]).real
    my = (0.5j * (rho[..., 0, 1] - rho[..., 1, 0])).real.copy()
    return mx, my


# ---------------------------------------------------------------------------
# Two-pulse propagation of the Bloch vector (mx, my, mz): each pulse rotates
# it by beta about n = (cos phi, sin phi, 0), by Rodrigues' formula
#   v cos(beta) + (n x v) sin(beta) + n (n . v)(1 - cos(beta)),
# elementwise, with no complex matrix and no BLAS call.  Its readouts differ
# from `two_pulse_components`' by round-off only, within `rounding_bound`.
# ---------------------------------------------------------------------------


def rounding_bound(lambda_b):
    """E(lambda): a bound on how far any readout of `bloch_components`, or
    its hypot, lies from that of `two_pulse_components`.  rho holds an
    identity part of 0.5 at every lambda, so the matrix route rounds by
    about 1e-16 even at lambda 0.  On all 12 bindings at lambda 0 to 1e10
    the two routes differed by at most 6 x 2^-52 (0.5 + |lambda|/4),
    over 3,000 times less than this bound."""
    return 2.0**-40 * (0.5 + abs(lambda_b))


def _rotate(v, phi, beta):
    """The Bloch vector `v`, three arrays, rotated by the pulse (phi, beta).
    The pulse's trigonometry is made on its angles' own broadcast shape."""
    x, y, z = v
    c, s = np.cos(phi), np.sin(phi)
    cos_b, sin_b = np.cos(beta), np.sin(beta)
    along = (c * x + s * y) * (1.0 - cos_b)
    return (
        x * cos_b + (s * sin_b) * z + c * along,
        y * cos_b - (c * sin_b) * z + s * along,
        z * cos_b + (c * y - s * x) * sin_b,
    )


def bloch_components(phi2, beta2, phi1, beta1, lambda_b, from_x):
    """(mx, my) of `two_pulse_components`' arguments, within
    `rounding_bound(lambda_b)` of its values, not bit for bit."""
    q = 0.25 * lambda_b
    v = _rotate((q, 0.0, 0.0) if from_x else (0.0, 0.0, q), phi1, beta1)
    mx, my, _ = _rotate(v, phi2, beta2)
    return mx, my


# ---------------------------------------------------------------------------
# Gate-assignment quadruple search.
#
# `values[i, j]` is the observable with logic input A bound to candidate i
# and input B bound to candidate j.  A quadruple (i0, i1, j0, j1) realizes a
# truth table when all six corner pairs (two rows, two columns, two
# diagonals) pass: corners of one output bit are close (within tol), and
# corners of different bits are not.  That is one level per bit: a spread
# is one pairwise gap, and interleaved levels put a cross gap within tol.
#
# Sorted, a table splits into levels wherever consecutive values lie more
# than tol apart, so values of different levels lie more than tol apart.
# When every level also spans at most tol, "close" is "same label", tested
# exactly on ints.  The hits of row pair (i0, i1) then follow from h(x, y):
# the number of columns j with labels x in row i0 and y in row i1.
#
# Negating input A swaps i0 and i1, negating input B swaps j0 and j1, and
# negating the output swaps the bits.  These moves keep hit counts, so five
# orbit representatives give the counts of all 16 gates.  Swapping the
# inputs transposes the table, which changes the counts.
# ---------------------------------------------------------------------------


# Stage 2 takes row pairs (i0, i1) in blocks of about this many
# quadruples, so a block's masks and gathered corners stay in cache; a
# block is never smaller than one row pair.  Stage 1 and the level-label
# pass take rows in blocks of about this many cells.
_BLOCK_QUADRUPLES = 1 << 16


def _check_tol(tol: float) -> None:
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tolerance must be finite and non-negative, got {tol!r}")


def level_labels(values, tol, slack=0.0):
    """Int level label per cell, or None when some level spans more than `tol`.
    `tol` is checked here, as every search checks it.

    With a `slack`, labels come back only when every level spans at most
    `tol - 2*slack` and every gap between levels exceeds `tol + 2*slack`.
    Any table within `slack` of `values`, cell by cell, then has the same
    levels in the same order, so these are its labels too."""
    _check_tol(tol)
    values = np.asarray(values, dtype=np.float64)
    flat = values.ravel()
    order = np.argsort(flat)
    ordered = flat[order]
    if not np.isfinite(ordered).all():
        return None
    gaps = np.diff(ordered)
    new_level = gaps > tol
    first = np.flatnonzero(np.concatenate(([True], new_level)))
    last = np.append(first[1:] - 1, flat.size - 1)
    if (ordered[last] - ordered[first] > tol - 2 * slack).any():
        return None
    if slack and (gaps[new_level] <= tol + 2 * slack).any():
        return None
    labels = np.empty(flat.size, dtype=np.int64)
    labels[order] = np.concatenate(([0], np.cumsum(new_level)))
    return labels.reshape(values.shape)


def orbit_representative(outputs):
    """(slot, transposed) of a truth table's orbit representative.

    `slot` indexes T, A, B, XOR, AND, the order in which
    `level_pair_counts` stacks them.  A gate's hits in row pair (i0, i1)
    are its representative's hits in (i1, i0) when `transposed`, else in
    (i0, i1).
    """
    o00, o01, o10, o11 = outputs
    ones = o00 + o01 + o10 + o11
    if ones in (0, 4):
        return 0, False
    if ones in (1, 3):
        # AND has its odd corner in row i1; one in row i0 swaps the rows
        return 4, o10 == o11
    if o00 == o01:
        return 1, False
    if o00 == o10:
        return 2, False
    return 3, False


def level_pair_counts(labels, slots):
    """(len(slots), nA, nA) int64 hits per row pair (i0, i1) of the
    representatives `slots` names, in its order (0-4: T, A, B, XOR, AND).

    With h(x, y) the row pair's histogram of column label pairs and r(x)
    the count of label x in row i0:
      T:   sum h(x, x)^2
      A:   sum over x != y of h(x, y)^2
      B:   (sum h(x, x))^2 - sum h(x, x)^2
      XOR: sum over x != y of h(x, y) h(y, x)
      AND: sum h(x, x) (r(x) - h(x, x))
    Only the sums asked for are counted.  T always is, as the others
    subtract it; A adds one reduce of h^2, B one of h(x, x), and XOR a
    lookup of h(y, x) for each entry with x < y.  Only AND compares the
    two rows' labels column by column, each column weighted by r(x).
    The keys x*m + y sort in the narrowest signed dtype that holds m^2 - 1:
    int16 up to 181 levels, then int32, then int64.  T, A, B and XOR are
    symmetric in (i0, i1), so a block of rows counts them only against
    the rows from its own first row on and mirrors the rest from the
    blocks before it; AND weights by row i0's r(x) and counts both orders.
    Row pairs go in blocks of about `_BLOCK_QUADRUPLES` cells.

    A row pair's counts depend only on the labels of its two rows, so
    they are counted on one row of each class of equal rows
    (`row_classes`) and gathered back to every row pair by class.
    """
    slots = list(slots)
    classes = row_classes(labels)
    # the last row of each class, in class order: a dict keeps each key at
    # its first place.  The rows of a class are equal
    labels = labels[list(dict(zip(classes, range(len(classes)))).values())]
    na, nb = labels.shape
    m = int(labels.max()) + 1
    sums = {slot: np.empty((na, na), dtype=np.int64) for slot in {0, *slots}}
    dtype = next(t for t in (np.int16, np.int32, np.int64) if m * m - 1 <= np.iinfo(t).max)
    labels = labels.astype(dtype)
    step = max(1, _BLOCK_QUADRUPLES // (na * nb))
    for start in range(0, na, step):
        _block_pair_counts(labels, start, min(start + step, na), m, sums)
    classes = np.array(classes)
    return np.stack([sums[slot] for slot in slots])[:, classes[:, None], classes]


def row_classes(*tables):
    """Each row's class, numbered from 0 in order of first occurrence: two
    rows share a class when their bytes are equal in every one of
    `tables`, 2-d arrays with one row per row of the table they describe."""
    keys = map(np.ndarray.tobytes, tables[0])
    for table in tables[1:]:
        keys = map(bytes.__add__, keys, map(np.ndarray.tobytes, table))
    index = {}
    return [index.setdefault(key, len(index)) for key in keys]


def _block_pair_counts(labels, start, stop, m, sums):
    """Fill rows `start:stop` of each (nA, nA) array in `sums`, keyed by
    slot, with `level_pair_counts`, once the rows before `start` are filled.

    Row i0's symmetric sums are counted for i1 >= `start` and mirrored
    for i1 < `start`.  The label counts r(x) of the block's rows take
    (stop - start) * m int64, and entry-sized arrays are freed once
    read, so the peak is a few of them.
    """
    top = labels[start:stop]
    rest = labels[start:]
    b, nb = top.shape
    pairs = b * len(rest)
    # one sorted row of column label pairs x*m + y per row pair; each run
    # of one key is one histogram entry, so a row pair has at least one
    keys = np.add((top * m)[:, None, :], rest[None, :, :]).reshape(pairs, nb)
    keys.sort(axis=1)
    new = np.empty(keys.shape, dtype=bool)
    new[:, 0] = True
    np.not_equal(keys[:, 1:], keys[:, :-1], out=new[:, 1:])
    runs = np.flatnonzero(new)
    del new
    cell = keys.ravel()[runs]
    del keys
    firsts = np.searchsorted(runs, np.arange(0, pairs * nb, nb))
    h = np.empty_like(runs)
    np.subtract(runs[1:], runs[:-1], out=h[:-1])
    h[-1] = pairs * nb - runs[-1]
    found = {}
    square = np.square(h)
    if 1 in sums:
        found[1] = np.add.reduceat(square, firsts)
    # y - x of each entry's key x*m + y: 0 on the diagonal x == y
    offset = cell // m
    offset *= -(m + 1)
    offset += cell
    diagonal = offset == 0
    square *= diagonal
    found[0] = np.add.reduceat(square, firsts)
    if 2 in sums:
        # B is the square of sum h(x, x), less T
        s = np.add.reduceat(np.multiply(h, diagonal, out=square), firsts)
        found[2] = s * s - found[0]
    del square, diagonal
    if 3 in sums:
        # each entry with x < y looks up h(y, x), 0 where it is absent: the
        # entry keys pair*m*m + x*m + y ascend, and (y, x) has key
        # key + (y - x)(m - 1)
        key = runs
        key //= nb
        key *= m * m
        key += cell
        lower = offset > 0
        mirror_key = np.multiply(offset[lower], m - 1, dtype=np.int64)
        mirror_key += key[lower]
        where = np.searchsorted(key, mirror_key)
        np.minimum(where, len(key) - 1, out=where)
        hit = key[where] == mirror_key
        del key, mirror_key
        mirror = h[where]
        del where
        mirror *= hit
        del hit
        # the sum over x != y of h(x, y) h(y, x) is twice that over x < y
        mirror *= h[lower]
        entries = np.zeros_like(h)
        entries[lower] = mirror
        del lower, mirror
        found[3] = 2 * np.add.reduceat(entries, firsts)
        del entries
    del runs, cell, h, offset
    if 1 in sums:
        found[1] -= found[0]  # the sum over all x, y holds T once
    for slot, sum_ in found.items():
        out = sums[slot]
        out[start:stop, start:] = sum_.reshape(b, -1)
        out[start:stop, :start] = out[:start, start:stop].T
    if 4 in sums:
        # AND weights by row i0's r(x), so it takes both orders: the
        # columns whose two labels agree, each weighted by r(x), give
        # sum h(x, x) r(x), which holds T once.  r[i, j] is the count of
        # columns in row i with the label of column j
        flat = top + m * np.arange(b)[:, None]
        r = np.bincount(flat.ravel(), minlength=b * m)[flat]
        same = top[:, None, :] == labels[None, :, :]
        np.einsum("ikj,ij->ik", same, r, out=sums[4][start:stop])
        sums[4][start:stop] -= sums[0][start:stop]


def gate_counts(values, outputs_seq, tol, labels):
    """Realizing quadruples over `values` for each truth table in `outputs_seq`.

    A caller that holds the table's labels passes them as `labels`:
    `level_labels(values, tol)`, or labels certified to be those of a
    table the caller never built (`synthesis.search_table`); `values` is
    then not read and may be None.  None labels take the pairwise route.
    Gates of one orbit have one count, so each orbit slot is counted
    once: on labels in one counting pass for all of them, on the pairwise
    route by the counting pass of `gate_quadruples` for one gate per slot.
    """
    _check_tol(tol)
    slots = [orbit_representative(outputs)[0] for outputs in outputs_seq]
    if labels is None:
        by_slot = dict(zip(slots, outputs_seq))  # one gate of each orbit
        totals = {slot: gate_quadruples(values, o, tol, None)[0] for slot, o in by_slot.items()}
    else:
        wanted = sorted(set(slots))
        totals = dict(zip(wanted, level_pair_counts(labels, wanted).sum(axis=(1, 2)).tolist()))
    return [totals[slot] for slot in slots]


def gate_quadruples(values, outputs, tol, labels):
    """(count, blocks): the number of realizing quadruples, and an iterator
    over them in non-empty (k, 4) int64 blocks.

    Blocks follow lexicographic (i0, i1, j0, j1) order, and a block never
    splits a row pair (i0, i1).  With labels, the count is the sum of the
    label counts of the row pairs, which also pick the row pairs the
    blocks search.  On the pairwise route (None labels), counting takes
    one pass over the blocks, and iterating them a second.  A count of 0
    builds no block.

    `values` is the finite (nA, nB) table, input A on rows, as every
    scenario table is; `outputs` holds the bits for inputs (0,0), (0,1),
    (1,0), (1,1); `tol` is the level clustering/separation tolerance;
    `labels` are as in `gate_counts`.
    """
    count, search = _search(values, labels, outputs, tol)
    if count is None:
        count = sum(map(len, search()))
    return count, (search() if count else iter(()))


def _search(values, labels, outputs, tol):
    """(count, search) for `gate_quadruples`, given `values`' level labels
    (`level_labels`) or None: the count on labels, else None, and a
    function that starts a pass over the blocks.  Every pass fills one
    (nA, nB, nB) row test, allocated here unless the count is 0, so a
    search too large for memory fails before `gate_quadruples` returns.
    `tol` is checked here on either route, as `level_labels` checks it."""
    _check_tol(tol)
    if labels is None:
        values = np.asarray(values, dtype=np.float64)

        def close(x, y):
            gaps = np.subtract(x, y)
            return np.abs(gaps, out=gaps) <= tol

        count, table, candidates = None, values, None
    else:
        slot, transposed = orbit_representative(outputs)
        counts = level_pair_counts(labels, (slot,))[0]
        count, close = int(counts.sum()), np.equal
        table = labels.astype(np.min_scalar_type(labels.max()))
        candidates = (counts.T if transposed else counts) > 0
    na, nb = table.shape
    rows = np.empty((na, nb, nb), dtype=bool) if count != 0 else None
    return count, lambda: _blocks(table, outputs, close, rows, candidates)


def _blocks(table, outputs, close, rows, candidates):
    """Yield the realizing quadruples of `table` in non-empty blocks.

    A corner pair passes when `close` holds exactly when its two bits
    agree.  Stage 1 fills the row test `rows` a block of rows at a time;
    when `candidates`, the row pairs that may hold hits, is None, it marks
    in a new (nA, nA) array the row pairs with a passing column j0 and one
    for j1.  Stage 2 takes row pairs (i0, i1) in blocks of about
    `_BLOCK_QUADRUPLES` quadruples and tests their columns from their two
    rows.  XOR and XNOR also test both diagonals of every quadruple; other
    gates re-test the diagonals of their hits on the pairwise route only.
    """
    na, nb = table.shape
    pairwise = candidates is None
    candidates = np.empty((na, na), dtype=bool) if pairwise else candidates
    o00, o01, o10, o11 = outputs
    # rows[i, j0, j1]: columns j0 and j1 of row i are close.  Rows i0 and
    # i1 read it, negated where their two bits differ: x & ~y is x > y.
    top = np.logical_and if o00 == o01 else np.greater
    bottom = np.logical_and if o10 == o11 else np.greater
    step = max(1, _BLOCK_QUADRUPLES // (max(na, nb) * nb))
    for start in range(0, na, step):
        block = table[start:start + step]
        rows[start:start + step] = close(block[:, :, None], block[:, None, :])
        if pairwise:
            # a row pair with no passing column j0, or none for j1, holds no hit
            columns = close(block[:, None, :], table[None, :, :])  # [i0, i1, j]
            some = {True: columns.any(axis=2), False: ~columns.all(axis=2)}
            candidates[start:start + step] = some[o00 == o10] & some[o01 == o11]
    pairs = np.argwhere(candidates)
    # The four sides join the ends of each diagonal by two paths.  A gate
    # with equal bits on some side has them on one of each diagonal's paths,
    # so a transitive test, as equal labels are, settles both diagonals from
    # the sides.  XOR and XNOR differ on all four sides: they test both
    # diagonals densely.  |x - y| <= tol is not transitive, so on the
    # pairwise route every other gate re-tests both diagonals of its hits.
    diagonals = o00 == o11 and o01 == o10 and o00 != o01
    retest = pairwise and not diagonals

    step = max(1, _BLOCK_QUADRUPLES // (nb * nb))
    for start in range(0, len(pairs), step):
        a0, a1 = pairs[start:start + step].T
        columns = close(table[a0], table[a1])
        ok = (columns == (o00 == o10))[:, :, None] & (columns == (o01 == o11))[:, None, :]
        del columns
        top(ok, rows[a0], out=ok)
        bottom(ok, rows[a1], out=ok)
        if diagonals:
            ok &= close(table[a0, :, None], table[a1, None, :])
            ok &= close(table[a0, None, :], table[a1, :, None])
        # `//` and a product back: numpy's integer `divmod` is slower
        flat = np.flatnonzero(ok)
        del ok
        k = flat // (nb * nb)
        cell = flat - k * (nb * nb)
        del flat
        j0 = cell // nb
        j1 = cell - j0 * nb
        del cell
        i0, i1 = a0[k], a1[k]
        del k
        hits = np.stack((i0, i1, j0, j1), axis=1, dtype=np.int64)
        if retest:
            keep = close(table[i0, j0], table[i1, j1]) == (o00 == o11)
            keep &= close(table[i0, j1], table[i1, j0]) == (o01 == o10)
            hits = hits.compress(keep, axis=0)
            del keep
        # the writer builds its rows on top of what is live at `yield`
        del i0, i1, j0, j1
        if len(hits):
            yield hits


def find_gate_quadruples(values, outputs, tol):
    """All realizing quadruples, in lexicographic (i0, i1, j0, j1) order:
    the blocks of `gate_quadruples` as one (N, 4) int64 array, searched in
    one pass on any route.

    The one search that labels its own table (`level_labels`): it serves
    `synthesis.synthesize`, which holds the table but not its labels."""
    count, search = _search(values, level_labels(values, tol), outputs, tol)
    empty = np.empty((0, 4), dtype=np.int64)
    return np.concatenate([empty, *(search() if count != 0 else ())], axis=0)
