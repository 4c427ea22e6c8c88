"""Hot numeric kernels, vectorised with numpy.

The two inner loops that dominate runtime are (a) numeric two-pulse
propagation evaluated over large parameter grids and (b) the exhaustive
search for gate-realizing parameter quadruples over a candidate grid.

Propagation builds each pulse's rotations on that pulse's own broadcast
shape, so a grid passed as `a[:, None]` and `b[None, :]` takes O(n)
trigonometry per pulse.  In a product, points that share a right-hand
matrix go through one row-stacked gemm, and products where both factors
vary per point keep a per-point product; either way the bits are those of
the stacked per-point `np.matmul` (`_product`).

The search tests corner pairs with one comparator: equal level labels
where the table has levels (`level_labels`), else |x - y| <= tol.  It
counts the hits of every row pair from histograms of column label pairs
(`level_pair_counts`) a block of rows at a time, each block counting its
own rows' labels, and streams the hits of the row pairs that hold any in
cache-sized blocks (`gate_quadruples`), holding one n^3 boolean.
`gate_counts` counts hits per truth table from either, holding none.

`observables` and `synthesis` look both up on this module at call time, so a
wrapper set on the module attribute (as `perfbench/tracing.py` does) sees
every call.
"""

from __future__ import annotations

import math

import numpy as np


# ---------------------------------------------------------------------------
# Two-pulse propagation: rho -> R2 R1 rho R1+ R2+, then the three traces.
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


def _product(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """`left @ right` over broadcast stacks of 2x2 matrices, bit for bit.

    Points that share a right-hand matrix go through one row-stacked gemm,
    `(rows, 2) @ (2, 2)`, which rounds each row as the per-point call
    does; products where both factors vary per point keep a per-point
    product.  The axes along which `right` varies come first, so one `@`
    over `(distinct, rows, 2)` runs both; the other point axes follow in
    `left`'s memory order, so a `left` that is a transposed view is
    reshaped without a copy.
    """
    shape = np.broadcast_shapes(left.shape, right.shape)
    right = right.reshape((1,) * (len(shape) - right.ndim) + right.shape)
    left = np.broadcast_to(left, shape)
    varies = [axis for axis in range(len(shape) - 2) if right.shape[axis] != 1]
    points = [axis for axis in range(len(shape) - 2) if axis not in varies]
    points.sort(key=lambda axis: -abs(left.strides[axis]))
    order = varies + points + [len(shape) - 2, len(shape) - 1]
    left = left.transpose(order)
    distinct = math.prod(left.shape[: len(varies)])
    rows = math.prod(left.shape[len(varies) : -1])
    out = left.reshape(distinct, rows, 2) @ right.transpose(order).reshape(distinct, 2, 2)
    inverse = sorted(range(len(order)), key=order.__getitem__)
    return out.reshape(left.shape).transpose(inverse)


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
    (mx, my, mz) : tuple of float64 ndarrays
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

    # C order whatever u's memory order, so the readouts come out C-ordered
    rho = np.matmul(_product(u, rho0), u.conj().swapaxes(-1, -2), order="C")
    mx = 0.5 * (rho[..., 0, 1] + rho[..., 1, 0]).real
    my = (0.5j * (rho[..., 0, 1] - rho[..., 1, 0])).real
    mz = 0.5 * (rho[..., 0, 0] - rho[..., 1, 1]).real
    return mx, my, mz


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


def level_labels(values, tol):
    """Int level label per cell, or None when some level spans more than `tol`."""
    values = np.asarray(values, dtype=np.float64)
    flat = values.ravel()
    order = np.argsort(flat, kind="stable")
    ordered = flat[order]
    if not np.isfinite(ordered).all():
        return None
    new_level = np.diff(ordered) > tol
    first = np.flatnonzero(np.concatenate(([True], new_level)))
    last = np.append(first[1:] - 1, flat.size - 1)
    if (ordered[last] - ordered[first] > tol).any():
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


def level_pair_counts(labels):
    """(5, nA, nA) int64 hits per row pair (i0, i1) of each representative.

    With h(x, y) the row pair's histogram of column label pairs and r(x)
    the count of label x in row i0:
      T:   sum h(x, x)^2
      A:   sum over x != y of h(x, y)^2
      B:   (sum h(x, x))^2 - sum h(x, x)^2
      XOR: sum over x != y of h(x, y) h(y, x)
      AND: sum h(x, x) (r(x) - h(x, x))
    Row pairs go in blocks of about `_BLOCK_QUADRUPLES` cells.
    """
    na, nb = labels.shape
    m = int(labels.max()) + 1
    counts = np.empty((5, na * na), dtype=np.int64)
    step = max(1, _BLOCK_QUADRUPLES // (na * nb))
    for start in range(0, na, step):
        stop = min(start + step, na)
        sums = counts[:, start * na:stop * na]
        _block_pair_counts(labels[start:stop], labels, m, sums)
    return counts.reshape(5, na, na)


def _block_pair_counts(top, labels, m, sums):
    """Fill `sums`, (5, len(top) * nA), with `level_pair_counts` for the row
    pairs (i0, i1) with i0 in `top`.

    The label counts r(x) of `top`'s rows take len(top) * m int64, and
    entry-sized arrays are freed or overwritten once read, so the peak is a
    few of them.
    """
    b, nb = top.shape
    na = len(labels)
    # r[i, j]: the count of columns in row i with the label of column j
    flat = top + m * np.arange(b)[:, None]
    r = np.bincount(flat.ravel(), minlength=b * m)[flat]
    keys = np.empty((b, na, nb), dtype=np.int64)
    # the columns whose two labels agree give sum h(x, x) and, each
    # weighted by r(x), sum h(x, x) r(x)
    same = top[:, None, :] == labels[None, :, :]
    np.sum(same, axis=2, out=sums[2].reshape(b, na))
    np.multiply(same, r[:, None, :], out=keys)
    np.sum(keys, axis=2, out=sums[4].reshape(b, na))
    del same
    # one sorted row of column label pairs x*m + y per row pair; each run
    # of one key is one histogram entry, so a row pair has at least one
    np.multiply(top[:, None, :], m, out=keys)
    keys += labels[None, :, :]
    keys = keys.reshape(-1, nb)
    keys.sort(axis=1)
    new = np.empty(keys.shape, dtype=bool)
    new[:, 0] = True
    np.not_equal(keys[:, 1:], keys[:, :-1], out=new[:, 1:])
    runs = np.flatnonzero(new)
    del new
    cell = keys.ravel()[runs]
    del keys
    firsts = np.searchsorted(runs, np.arange(0, b * na * nb, nb))
    h = np.empty_like(runs)
    np.subtract(runs[1:], runs[:-1], out=h[:-1])
    h[-1] = b * na * nb - runs[-1]
    # entry keys pair*m*m + x*m + y ascend, and (y, x) has key
    # key + (y - x)(m - 1): look up h(y, x), 0 where it is absent
    key = runs
    key //= nb
    key *= m * m
    key += cell
    x = cell // m
    mirror_key = np.remainder(cell, m, out=cell)  # y
    on = x == mirror_key  # the diagonal x == y
    mirror_key -= x
    del x
    mirror_key *= m - 1
    mirror_key += key
    where = np.searchsorted(key, mirror_key)
    np.minimum(where, len(key) - 1, out=where)
    found = key[where] == mirror_key
    del runs, key, cell, mirror_key  # two buffers under two names each
    mirror = h[where]
    del where
    mirror *= found
    del found
    # sum the entries of each row pair.  T is sum h(x, x)^2, and the sums
    # over all x, y (A, XOR), the square of sum h(x, x) (B) and
    # sum h(x, x) r(x) (AND) each hold it once, so it comes off all four
    np.add.reduceat(np.multiply(mirror, h, out=mirror), firsts, out=sums[3])
    del mirror
    on = h * on
    np.add.reduceat(np.square(h, out=h), firsts, out=sums[1])
    np.add.reduceat(np.square(on, out=on), firsts, out=sums[0])
    sums[2] *= sums[2]
    sums[1:] -= sums[0]


def gate_counts(values, outputs_seq, tol):
    """Realizing quadruples over `values` for each truth table in `outputs_seq`.

    A table with levels (`level_labels`) takes one counting pass for all of
    them; any other takes the count of each `gate_quadruples`, one at a time.
    """
    labels = level_labels(values, tol)
    if labels is None:
        return [gate_quadruples(values, outputs, tol)[0] for outputs in outputs_seq]
    totals = level_pair_counts(labels).sum(axis=(1, 2)).tolist()
    return [totals[orbit_representative(outputs)[0]] for outputs in outputs_seq]


def gate_quadruples(values, outputs, tol):
    """(count, blocks): the number of realizing quadruples, and an iterator
    over them in non-empty (k, 4) int64 blocks.

    Blocks follow lexicographic (i0, i1, j0, j1) order.  On a table with
    levels (`level_labels`), the count is the sum of the label counts of
    the row pairs, which also pick the row pairs the blocks search.  On any
    other table, counting takes one pass over the blocks, and iterating
    them a second.  A count of 0 builds no block.

    `values` is the finite (nA, nB) table, input A on rows, as every
    scenario table is; `outputs` holds the bits for inputs (0,0), (0,1),
    (1,0), (1,1); `tol` is the level clustering/separation tolerance.
    """
    count, search = _search(values, outputs, tol)
    if count is None:
        count = sum(len(hits) for hits in search())
    return count, (search() if count else iter(()))


def _search(values, outputs, tol):
    """(count, search) for `gate_quadruples`: the count on a table with
    levels, else None, and a function that starts a pass over the blocks."""
    values = np.asarray(values, dtype=np.float64)
    labels = level_labels(values, tol)
    if labels is None:

        def close(x, y):
            gaps = np.subtract(x, y)
            return np.abs(gaps, out=gaps) <= tol

        return None, lambda: _quadruple_blocks(values, outputs, close)
    slot, transposed = orbit_representative(outputs)
    counts = level_pair_counts(labels)[slot]
    table = labels.astype(np.min_scalar_type(int(labels.max())))
    candidates = (counts.T if transposed else counts) > 0
    return int(counts.sum()), lambda: _quadruple_blocks(table, outputs, np.equal, candidates)


def _quadruple_blocks(table, outputs, close, candidates=None):
    """Yield the realizing quadruples of `table` in non-empty blocks.

    A corner pair passes when `close` holds exactly when its two bits
    agree.  `candidates[i0, i1]` marks the row pairs that may hold hits;
    when it is None, stage 1 marks the row pairs with a passing column j0
    and one for j1.  Stage 1 tests the column pairs of each row, one
    (nA, nB, nB) boolean built a block of rows at a time.  Stage 2 takes
    row pairs (i0, i1) in blocks of about `_BLOCK_QUADRUPLES` quadruples,
    tests their columns from their two rows, and the two diagonals of the
    survivors.
    """
    na, nb = table.shape
    pairwise = candidates is None
    if pairwise:
        candidates = np.empty((na, na), dtype=bool)

    o00, o01, o10, o11 = outputs
    # rows[i, j0, j1]: columns j0 and j1 of row i are close.  Rows i0 and
    # i1 read it, negated where their two bits differ: x & ~y is x > y.
    top = np.logical_and if o00 == o01 else np.greater
    bottom = np.logical_and if o10 == o11 else np.greater
    rows = np.empty((na, nb, nb), dtype=bool)
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
    # XOR and XNOR put equal levels on the diagonals only: test one densely
    diagonal = o00 == o11 and o00 != o01

    step = max(1, _BLOCK_QUADRUPLES // (nb * nb))
    for start in range(0, len(pairs), step):
        a0, a1 = pairs[start:start + step].T
        columns = close(table[a0], table[a1])
        ok = (columns == (o00 == o10))[:, :, None] & (columns == (o01 == o11))[:, None, :]
        top(ok, rows[a0], out=ok)
        bottom(ok, rows[a1], out=ok)
        if diagonal:
            ok &= close(table[a0, :, None], table[a1, None, :])
        k, cell = np.divmod(np.flatnonzero(ok), nb * nb)
        j0, j1 = np.divmod(cell, nb)
        i0, i1 = a0[k], a1[k]
        keep = close(table[i0, j0], table[i1, j1]) == (o00 == o11)
        keep &= close(table[i0, j1], table[i1, j0]) == (o01 == o10)
        hits = np.stack((i0, i1, j0, j1), axis=1, dtype=np.int64).compress(keep, axis=0)
        if len(hits):
            yield hits


def find_gate_quadruples(values, outputs, tol):
    """All realizing quadruples, in lexicographic (i0, i1, j0, j1) order:
    the blocks of `gate_quadruples` as one (N, 4) int64 array, searched in
    one pass on any route."""
    count, search = _search(values, outputs, tol)
    empty = np.empty((0, 4), dtype=np.int64)
    return np.concatenate([empty, *(search() if count != 0 else ())], axis=0)
