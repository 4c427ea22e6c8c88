"""`.12g` text of float64 arrays as fixed-width byte strings, in numpy.

`format_12g` gives the bytes of f"{x:.12g}" for every value, NUL-padded to
one fixed slot, and `packed` drops each string's NULs, one value at a time,
and narrows them to their shortest common width.  The CLI writes its `grid`
and `synthesize` rows from these.
"""

from __future__ import annotations

import numpy as np

# `format_12g` lays f"{x:.12g}" out in one fixed slot of five uint64
# words per value, NUL where a byte is unused: the sign and a "0.000"
# prefix, 12 digits each followed by a point slot (3 words), and "e+ddd".
SLOT = 40
# 10**k for k in -269..292, the scale factors 10**(11 - e) of the decimal
# exponents e of |x| in [1e-280, 1e280], each within an ulp of exact
_POW10 = 10.0 ** np.arange(-269, 293)


def _digit_tables():
    """Look-up tables of `format_12g`.

    The 12 digits of m take 24 bytes: each digit in an even byte, each
    followed by a point slot.  DIGITS[g] is the 8 bytes of one 4-digit
    group g as a uint64, and SIGNIFICANT[g] counts its digits before its
    trailing zeros (-8 for g = 0, so that a zero group is never the last
    significant one).  KEEP[k] keeps the first k digits of the 24 bytes,
    and POINT[p] puts "." after digit p (none for p = 12).  HEAD holds the
    sign and "0.000" prefix by 5 * negative + -e for fixed e in -4..-1,
    and TAIL "e+dd" or "e+ddd" by e + 300 (its last row, for fixed form,
    is empty).  The tables are byte patterns viewed as uint64, so the byte
    order does not matter.  They are filled by repeating and slicing
    uint8 digit runs: numpy arithmetic here would page in loops that stay
    resident and that the formatter never runs.
    """
    ten = np.arange(ord("0"), ord("0") + 10, dtype=np.uint8)

    def digit_runs(count: int, places: int):
        """The ASCII digits of 0..count-1, most significant first."""
        runs = np.empty((count, places), np.uint8)
        for k in range(places):
            step = 10 ** (places - 1 - k)
            runs[:, k] = np.tile(np.repeat(ten, step), count // (10 * step) + 1)[:count]
        return runs

    words = np.zeros((10000, 8), np.uint8)
    words[:, ::2] = digit_runs(10000, 4)
    significant = np.full(10000, 4, np.int8)
    for zeros, step in enumerate((10, 100, 1000), 1):
        significant[::step] = 4 - zeros
    significant[0] = -8
    keep = np.zeros((13, 24), np.uint8)
    point = np.zeros((13, 24), np.uint8)
    for k in range(12):
        keep[k + 1 :, 2 * k] = 0xFF
        point[k, 2 * k + 1] = ord(".")
    head = np.zeros((2, 5, 8), np.uint8)
    head[1, :, 0] = ord("-")
    for zeros in range(1, 5):
        head[:, zeros, 1 : 2 + zeros] = np.frombuffer(b"0.000"[: 1 + zeros], np.uint8)
    magnitude = digit_runs(301, 3)  # of |e|, for e = -300..300 below
    exponent = np.concatenate([magnitude[:0:-1], magnitude])
    tail = np.zeros((602, 8), np.uint8)
    tail[:601, 0] = ord("e")
    tail[:300, 1] = ord("-")
    tail[300:601, 1] = ord("+")
    tail[:201, 2:5] = exponent[:201]  # e <= -100
    tail[201:400, 2:4] = exponent[201:400, 1:]  # |e| < 100: two digits
    tail[400:601, 2:5] = exponent[400:]
    words, keep, point, head, tail = (
        table.view(np.uint64) for table in (words, keep, point, head, tail)
    )
    return words.ravel(), significant, keep, point, head.ravel(), tail.ravel()


_DIGITS, _SIGNIFICANT, _KEEP, _POINT, _HEAD, _TAIL = _digit_tables()


def format_12g(values) -> np.ndarray:
    """f"{x:.12g}" of each float64 in `values`, as NUL-padded `S40` bytes.

    |x| is scaled by 10**(11 - e), e = floor(log10|x|), and rounded to a
    12-digit integer m; the digits of m are then laid out by `%g`'s rules.
    The power and the product each round once, so the scaled value is
    within about 2**-52 relative of the exact one, far inside the margin
    below.  Python formats what that cannot prove: values whose scaled
    fraction lies within 2**-48 x scaled of .5, values whose m has the
    wrong digit count, and ±0, nan, ±inf and |x| outside [1e-280, 1e280].
    """
    values = np.asarray(values, dtype=np.float64)
    size = np.abs(values)
    direct = (size >= 1e-280) & (size <= 1e280)
    size = np.where(direct, size, 1.0)
    e = np.floor(np.log10(size)).astype(np.int64)
    scaled = size * _POW10[280 - e]
    m = np.rint(scaled)
    direct &= 0.5 - np.abs(scaled - m) > scaled * 2.0**-48
    m = m.astype(np.int64)
    carry = m == 10**12  # rounding reached the next power of ten
    e += carry
    m[carry] = 10**11
    direct &= (m >= 10**11) & (m < 10**12)
    m[~direct] = 10**11
    groups = np.empty((len(values), 3), np.int64)
    groups[:, 0], low = np.divmod(m, 10**8)
    groups[:, 1], groups[:, 2] = np.divmod(low, 10**4)
    # digits of m before its trailing zeros
    significant = _SIGNIFICANT.take(groups) + np.array([0, 4, 8], np.int8)
    digits = np.maximum(np.maximum(significant[:, 0], significant[:, 1]), significant[:, 2])
    # %g: scientific form when the rounded exponent is outside -4..11
    scientific = (e < -4) | (e >= 12)
    whole = np.where(scientific, 1, np.maximum(e + 1, 0))  # digits before "."
    keep = np.maximum(whole, digits)
    point = np.where((whole >= 1) & (keep > whole), whole - 1, 12)
    out = np.empty((len(values), 5), np.uint64)
    prefix = np.where(scientific | (e >= 0), 0, -e)
    out[:, 0] = _HEAD.take(5 * np.signbit(values) + prefix)
    out[:, 1:4] = _DIGITS.take(groups) & _KEEP.take(keep, 0) | _POINT.take(point, 0)
    out[:, 4] = _TAIL.take(np.where(scientific, e + 300, -1))
    out = out.view(f"S{SLOT}").ravel()
    slow = np.flatnonzero(~direct)
    if slow.size:
        out[slow] = [f"{x:.12g}" for x in values[slow].tolist()]
    return out


def packed(strings: np.ndarray) -> np.ndarray:
    """`strings` with their NUL bytes removed, in the narrowest width.

    For tables that rows index many times, so that each row carries fewer
    padding bytes than a full slot.  Each value is one `bytes.replace`, so
    no array of its bytes or their positions is built.
    """
    return np.array([s.replace(b"\0", b"") for s in strings.tolist()], dtype=bytes)
