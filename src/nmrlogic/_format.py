"""`.12g` text of float64 arrays as fixed-width byte strings, in numpy.

`format_12g` gives the bytes of f"{x:.12g}" for every value, NUL-padded to
one fixed slot, and `packed_12g` gives them in their shortest common width.
The CLI writes its `grid` and `synthesize` rows from these.
"""

from __future__ import annotations

import numpy as np

# `format_12g` lays f"{x:.12g}" out in one fixed slot of three
# little-endian uint64 words per value, NUL where a byte is unused: bytes
# 0-5 hold the sign and a "0.000" prefix, bytes 6-18 the digits and the
# point, and bytes 19-23 "e+dd" or "e+ddd".
SLOT = 24
_WORD = np.dtype("<u8")
# 10**k for k in -269..292, the scale factors 10**(11 - e) of the decimal
# exponents e of |x| in [1e-280, 1e280], each within an ulp of exact
_POW10 = 10.0 ** np.arange(-269, 293)


def _digit_tables():
    """Look-up tables of `format_12g`, as little-endian uint64 words.

    DIGITS[g] holds the 4 digits of one 4-digit group g in its low 4
    bytes, and SIGNIFICANT[g] counts them before their trailing zeros (-8
    for g = 0, so that a zero group is never the last significant one).
    FRAME[:, 601 * negative + e + 300] holds, for the decimal exponent e
    of a value, the head word (the sign, and the "0.000" prefix of fixed
    e in -4..-1), the tail word ("e+dd" or "e+ddd" in its top 5 bytes,
    none for fixed e in -4..11) and 13 * whole, for the count `whole` of
    digits before the point.  LAYOUT[:, 13 * whole + digits], for
    `digits` significant digits, masks the digit pair, the 12 digits in
    16 bytes: two words keep the digits before the point, two keep those
    after it once the pair is shifted one byte up, and two hold the
    point, none when no digit follows it.
    The tables are filled by repeating and slicing uint8 digit runs:
    numpy arithmetic, casts or transposing copies here would page in
    loops that stay resident and that the formatter never runs.
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
    words[:, :4] = digit_runs(10000, 4)
    significant = np.full(10000, 4, np.int8)
    for zeros, step in enumerate((10, 100, 1000), 1):
        significant[::step] = 4 - zeros
    significant[0] = -8
    frame = np.zeros((3, 2, 601, 8), np.uint8)
    head, tail = frame[0], frame[1]
    head[1, :, 0] = ord("-")
    for zeros in range(1, 5):
        head[:, 300 - zeros, 1 : 2 + zeros] = np.frombuffer(b"0.000"[: 1 + zeros], np.uint8)
    magnitude = digit_runs(301, 3)  # of |e|, for e = -300..300 below
    exponent = np.concatenate([magnitude[:0:-1], magnitude])
    tail[:, :, 3] = ord("e")
    tail[:, :300, 4] = ord("-")
    tail[:, 300:, 4] = ord("+")
    tail[:, :201, 5:] = exponent[:201]  # e <= -100
    tail[:, 201:400, 5:7] = exponent[201:400, 1:]  # |e| < 100: two digits
    tail[:, 400:, 5:] = exponent[400:]
    tail[:, 296:312] = 0  # fixed form: e in -4..11
    base = frame[2, :, :, 0]  # 13 * whole fits the low byte of its word
    base[:] = 13  # scientific form: one digit before the point
    base[:, 296:300] = 0
    base[:, 300:312] = np.arange(13, 13 * 13, 13, dtype=np.uint8)
    # byte b of the digit pair holds digit b, and of the shifted pair b - 1
    layout = np.zeros((3, 2, 13, 13, 8), np.uint8)  # mask, word, whole, digits, byte
    for b in range(13):
        before, after, point = layout[:, b // 8, :, :, b % 8]
        before[b + 1 :] = 0xFF  # digit b comes before the point
        before[0, b + 1 :] = 0xFF  # a "0.000" prefix: every significant digit
        after[1:b, b:] = 0xFF  # digit b - 1 comes after the point
        if b:
            point[b, b + 1 :] = ord(".")  # a significant digit follows it
    frame = frame.view(_WORD).reshape(3, 1202)
    layout = layout.reshape(6, 169, 8).view(_WORD).reshape(6, 169)
    return words.view(_WORD).ravel(), significant, frame, layout


_DIGITS, _SIGNIFICANT, _FRAME, _LAYOUT = _digit_tables()
# the digit offsets of the three 4-digit groups
_GROUP_START = np.array([[0], [4], [8]], np.int8)


def format_12g(values) -> np.ndarray:
    """f"{x:.12g}" of each float64 in `values`, as NUL-padded `S24` bytes.

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
    scaled = size * _POW10.take(280 - e)
    m = np.rint(scaled)
    direct &= 0.5 - np.abs(scaled - m) > scaled * 2.0**-48
    carry = m == 1e12  # rounding reached the next power of ten
    e += carry
    m[carry] = 1e11
    direct &= (m >= 1e11) & (m < 1e12)
    m[~direct] = 1e11
    # m's three 4-digit groups: each quotient is an integer plus a
    # fraction of at least 1e-8 below the next one, far above an ulp
    groups = np.empty((3, len(m)), np.int64)
    groups[0] = high = np.floor(m / 1e8)
    low = m - high * 1e8
    groups[1] = middle = np.floor(low / 1e4)
    groups[2] = low - middle * 1e4
    significant = _SIGNIFICANT.take(groups)
    significant += _GROUP_START
    frame = _FRAME.take(e + 300 + 601 * np.signbit(values), 1)
    layout = frame[2].view("<i8") + significant.max(0)
    # the digit pair, then the same pair one byte up: the masks keep the
    # digits before the point from the first, those after it from the
    # second, and put the point between them.  They are taken in two
    # parts: one 6-word take per value raised the peak RSS of grid exports
    text = _DIGITS.take(groups)
    pair = np.empty((4, len(m)), _WORD)
    np.left_shift(text[1], 32, out=pair[0])
    pair[0] |= text[0]
    pair[1] = text[2]
    np.left_shift(pair[:2], 8, out=pair[2:])
    pair[3] |= pair[0] >> 56
    pair &= _LAYOUT[:4].take(layout, 1)
    number = pair[:2]
    number |= pair[2:]
    number |= _LAYOUT[4:].take(layout, 1)
    # the head, the number and the tail at bytes 0, 6 and 19 of the slot
    out = np.empty((len(m), 3), _WORD)
    np.left_shift(number[0], 48, out=out[:, 0])
    out[:, 0] |= frame[0]
    np.right_shift(number[0], 16, out=out[:, 1])
    out[:, 1] |= number[1] << 48
    np.right_shift(number[1], 16, out=out[:, 2])
    out[:, 2] |= frame[1]
    out = out.view(f"S{SLOT}").ravel()
    slow = np.flatnonzero(~direct)
    if slow.size:
        out[slow] = [f"{x:.12g}" for x in values[slow].tolist()]
    return out


def packed_12g(values) -> np.ndarray:
    """f"{x:.12g}" of each float64 in `values`, as bytes of the narrowest
    width, in the shape of `values`.

    For the tables that rows index many times, so that each row carries
    fewer padding bytes than a `format_12g` slot.  One Python string per
    distinct value is built and dropped, and the values index their texts.
    Values are told apart by their bits, so -0.0 and 0.0 keep their signs.
    """
    values = np.asarray(values, dtype=np.float64)
    bits, inverse = np.unique(values.ravel().view(np.uint64), return_inverse=True)
    text = [f"{v:.12g}" for v in bits.view(np.float64).tolist()]
    return np.array(text, dtype="S")[inverse].reshape(values.shape)
