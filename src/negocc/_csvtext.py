"""CSV rows rendered by numpy, byte for byte as ``'%d'`` and ``'%.17g'``.

A cell is a row of little-endian uint64 words whose bytes are its text at
fixed slots, NUL where a slot is unused; the last byte of a cell is its
separator.  One ``bytes.translate`` drops the NULs of a block of rows.
Digits come four at a time from a table of ``0000``..``9999`` and move
between slots by shifts and masks of whole words.

Floats.  Zeros, infinities and NaN are literal words.  For any other
``x``, the decimal exponent ``X`` comes from the binary one and one
comparison with a table of the least double at or above each power of
ten, so ``y = |x| * 10**(16 - X)`` lies in [1e16, 1e17).  ``y`` is formed
with an error below 1e-13: ``|x|`` and the double nearest ``10**(16 - X)``
are each split into halves of at most 26 bits, every product of halves
is exact, and so is the sum of the two middle products; only the product
of ``|x|`` with the rest of the power is rounded.  Rounding ``y`` half to
even gives the 17 significant digits, with a carry at ``10**17``.  A
value whose fraction lies within ``_TIE`` of one half may be a true tie,
such as ``2**-25``, or too close to call, and only such a value is
rendered by ``'%.17g' % v``.  The method is printf-style Ryu (Adams
2019, "Ryu revisited: printf floating point conversion", OOPSLA) with
the correct rounding of Gay (1990).

A float cell is four words: sign and the "0.000" lead of 1e-4 <= |x| < 1
(bytes 0-5), the first digit (6), 17 slots for the other 16 digits and
the point (7-23), "e+dd" or "e-ddd" (24-28) and the separator (31).
"""

import functools
from types import SimpleNamespace

import numpy as np

__all__ = ["rows"]

_WORD = "<u8"

#: Rows rendered at a time, so that the temporaries stay in cache.
_BLOCK_ROWS = 8192

#: Decimal scales s = 16 - X of the power table.  Past _TINY_S the table
#: holds 10**s * 2**-200 and |x| is scaled by 2**200, below _HUGE_S
#: 10**s * 2**200 and 2**-200, so that no product over- or underflows.
_MIN_S, _MAX_S, _TINY_S, _HUGE_S = -292, 340, 290, -280

#: Offset of the decimal-exponent tables; a double has -324 <= X <= 308.
_X_OFFSET = 330
_X_COUNT = 2 * _X_OFFSET

#: Fractions of y closer than this to one half go to ``'%.17g' % v``.
_TIE = 1e-7

_U8, _U32, _U56 = np.uint64(8), np.uint64(32), np.uint64(56)
_ASCII_ZEROS = np.uint64(0x3030303030303030)
_ROUND26 = np.uint64(1 << 26)
_HIGH26 = ~np.uint64((1 << 27) - 1)


def _words(texts) -> np.ndarray:
    """ASCII strings of at most eight characters as NUL-padded words."""
    return np.frombuffer(b"".join(t.encode("ascii").ljust(8, b"\0") for t in texts),
                         _WORD).astype(np.uint64)


def _byte_words(rows: np.ndarray) -> np.ndarray:
    """(n, 8 * w) uint8 rows as (w, n) words, one row per word."""
    return np.ascontiguousarray(rows).view(_WORD).astype(np.uint64).T.copy()


@functools.cache
def _tables() -> SimpleNamespace:
    """The tables, built on first use.

    ``power``: rows (hi_1, hi_2, lo, scale) by s - _MIN_S; hi_1 + hi_2 is
    the double nearest 10**s / scale, each half with at most 26
    significant bits, and lo the double nearest the rest.
    ``decade``: the least double >= 10**k by k + _X_OFFSET.
    ``digits4``: the four digits (0-9) of 0..9999 as bytes 0-3.
    ``prefix``: sign and lead by X + _X_OFFSET + _X_COUNT * signbit.
    ``exponent``: "e+dd" by X + _X_OFFSET, empty in fixed notation.
    ``code``: 17 * p by X + _X_OFFSET: the point follows digit p, and
    p = 17 stands for no point among the digits (0.000ddd).
    ``keep``, ``shift``, ``point``: by code + the index of the last
    nonzero digit, the bytes of cell words 0-2 that hold a digit of their
    own slot (digit i in slot i), a digit of the slot before (digit i in
    slot i + 1), and the point.
    ``specials``: "0", "-0", "inf", "-inf", "nan".
    ``powers``: 10**j for j = 0..19.
    ``sign_digits``: for ints, the ASCII offsets of the last three words
    of a cell by digit count (0 for zero) + 20 * negative.
    """
    import math
    from fractions import Fraction

    power = np.empty((4, _MAX_S - _MIN_S + 1))
    for i, s in enumerate(range(_MIN_S, _MAX_S + 1)):
        scale = Fraction(2) ** (200 if s > _TINY_S else -200 if s < _HUGE_S else 0)
        exact = Fraction(10) ** s / scale
        hi = float(exact)
        mant, exp = math.frexp(hi)
        hi_1 = math.ldexp(round(mant * 2**26), exp - 26)
        power[:, i] = hi_1, hi - hi_1, float(exact - Fraction(hi)), float(scale)

    decade = np.full(_X_COUNT, math.inf)
    for k in range(-_X_OFFSET, 309):
        exact = Fraction(10) ** k
        nearest = float(exact)
        decade[k + _X_OFFSET] = (nearest if Fraction(nearest) >= exact
                                 else math.nextafter(nearest, math.inf))

    v = np.arange(10_000, dtype=np.uint64)
    digits4 = sum(v // 10**(3 - j) % 10 << np.uint64(8 * j) for j in range(4))

    xs = range(-_X_OFFSET, _X_OFFSET)
    prefix = _words([sign + ("0.000"[:1 - x] if -4 <= x < 0 else "")
                     for sign in ("", "-") for x in xs])
    exponent = _words(["" if -4 <= x < 17 else "e%+03d" % x for x in xs])
    code = np.array([17 * (x if 0 <= x < 17 else 17 if -4 <= x < 0 else 0) for x in xs])

    # byte 6 + j of a cell is slot j, the slots 1..17 after the first digit
    masks = np.zeros((3, 18 * 17, 24), np.uint8)
    for p in range(18):
        for last_digit in range(17):
            row = masks[:, 17 * p + last_digit]
            if p == 17:
                row[1, 8:8 + last_digit] = 0xFF
                continue
            # trailing zeros after the point go, and the point if bare
            last = last_digit + 1 if last_digit > p else p
            for slot in range(1, last + 1):
                kind = 0 if slot <= p else 2 if slot == p + 1 else 1
                row[kind, 6 + slot] = ord(".") if kind == 2 else 0xFF
    keep, shift, point = (_byte_words(m) for m in masks)

    # an int cell ends in up to 19 digits, a sign before them, then the
    # separator byte
    offsets = np.zeros((40, 24), np.uint8)
    for count in range(20):
        shown = max(count, 1)  # zero has one digit
        offsets[[count, count + 20], 23 - shown:23] = ord("0")
        offsets[count + 20, 22 - shown] = ord("-")

    return SimpleNamespace(
        power=power, decade=decade, digits4=digits4, prefix=prefix,
        exponent=exponent, code=code, keep=keep, shift=shift, point=point,
        specials=_words(["0", "-0", "inf", "-inf", "nan"]),
        powers=np.array([10**j for j in range(20)], dtype=np.uint64),
        sign_digits=_byte_words(offsets),
    )


def _digits8(v: np.ndarray) -> np.ndarray:
    """The eight digits (0-9) of each v < 10**8 as the bytes of a word,
    most significant first."""
    digits4 = _tables().digits4
    high = v // np.uint64(10_000)
    return digits4.take(high) | digits4.take(v - high * np.uint64(10_000)) << _U32


def _int_words(column, sep: int) -> np.ndarray:
    """'%d' cells: digits and sign end just before the separator byte."""
    t = _tables()
    v = np.asarray(column, dtype=np.int64)
    neg = v < 0
    signed = bool(np.count_nonzero(neg))
    # -(-2**63) wraps to itself, which reads 2**63 as uint64
    u = (np.where(neg, -v, v) if signed else v).view(np.uint64)
    width = len(str(int(u.max()))) if u.size else 1
    count = (width + signed) // 8 + 1
    # floor(bits * log10 2) is the digit count or one below it
    estimate = (np.frexp(u.astype(np.float64))[1] * 1233) >> 12
    offset = estimate + (u >= t.powers.take(estimate))
    if signed:
        offset += 20 * neg
    # 8-digit groups, most significant first, moved one byte forward
    groups, rest = [np.uint64(sep)], u
    for _ in range(count - 1):
        high = rest // np.uint64(10**8)
        groups.insert(0, _digits8(rest - high * np.uint64(10**8)))
        rest = high
    groups.insert(0, _digits8(rest))
    words = np.empty((u.size, count), _WORD)
    for j in range(count):
        words[:, j] = ((groups[j] >> _U8 | groups[j + 1] << _U56)
                       + t.sign_digits[3 - count + j].take(offset))
    return words


def _round17(x: np.ndarray):
    """(N, X, uncertain) for finite nonzero x: the 17 significant digits N
    in [1e16, 1e17) and the decimal exponent X of |x| rounded half to
    even, and where that rounding could not be certified."""
    t = _tables()
    a = np.abs(x)
    # floor((e - 1) log10 2) for |x| in [2**(e-1), 2**e) is X or X - 1
    exp10 = ((np.frexp(a)[1] - 1) * 78913 >> 18).astype(np.int64)
    exp10 += a >= t.decade.take(exp10 + (_X_OFFSET + 1))
    hi_1, hi_2, lo, scale = (row.take(16 - _MIN_S - exp10) for row in t.power)
    a *= scale  # exact
    a_hi = ((a.view(np.uint64) + _ROUND26) & _HIGH26).view(np.float64)
    a_lo = a - a_hi
    whole = (a_hi * hi_1).astype(np.int64)  # an integer: 52 bits, above 2**53
    middle = a_hi * hi_2 + a_lo * hi_1  # exact: below 2**53 units of the last bit
    floor = np.floor(middle)
    whole += floor.astype(np.int64)
    frac = (middle - floor) + (a_lo * hi_2 + a * lo)
    floor = np.floor(frac)
    whole += floor.astype(np.int64)
    frac -= floor
    whole += frac > 0.5
    carry = whole == 10**17
    whole -= carry * (9 * 10**16)
    return whole, exp10 + carry, np.abs(frac - 0.5) < _TIE


def _regular_words(x: np.ndarray) -> np.ndarray:
    """'%.17g' cells of finite nonzero values, separator byte NUL."""
    t = _tables()
    whole, exp10, uncertain = _round17(x)
    at = exp10 + _X_OFFSET
    first = whole // 10**16
    rest = (whole - first * 10**16).view(np.uint64)
    high = rest // np.uint64(10**8)
    middle = _digits8(high)  # digits 1-8
    low = _digits8(rest - high * np.uint64(10**8))  # digits 9-16
    # the last nonzero digit is the top nonzero byte; digit bytes are at
    # most 9, so the float conversion never rounds up to a new bit length
    in_low = low != 0
    tail = np.where(in_low, low, middle).astype(np.float64)
    last_digit = ((np.frexp(tail)[1] + 7) >> 3) + 8 * in_low
    code = t.code.take(at) + last_digit
    middle += _ASCII_ZEROS
    low += _ASCII_ZEROS
    # slots 1..17 take digit i from the word where it sits in slot i (own)
    # or in slot i + 1 (before); digits 1..X of 10 <= |x| < 1e17 go before
    # the point, every other digit sits after it or has no point before it
    own = (middle << _U56, middle >> _U8 | low << _U56, low >> _U8)
    before = (np.uint64(0), middle, low)
    words = np.empty((x.size, 4), _WORD)
    for j in range(3):
        words[:, j] = (own[j] & t.keep[j].take(code) | before[j] & t.shift[j].take(code)
                       | t.point[j].take(code))
    words[:, 0] |= (t.prefix.take(at + _X_COUNT * np.signbit(x))
                    | (first.view(np.uint64) + np.uint64(ord("0"))) << np.uint64(48))
    words[:, 3] = t.exponent.take(at)
    unsure = uncertain.nonzero()[0]
    if unsure.size:
        words[unsure] = _printf_words(x[unsure].tolist())
    return words


def _printf_words(values) -> np.ndarray:
    """'%.17g' cells of the values whose rounding the kernel leaves open."""
    text = b"".join(("%.17g" % v).encode("ascii").ljust(32, b"\0") for v in values)
    return np.frombuffer(text, _WORD).reshape(-1, 4)


def _float_words(column, sep: int) -> np.ndarray:
    """'%.17g' cells."""
    x = np.asarray(column, dtype=np.float64)
    regular = np.isfinite(x) & (x != 0)
    if np.count_nonzero(regular) == x.size:
        words = _regular_words(x)
    else:
        words = np.zeros((x.size, 4), _WORD)
        odd = (~regular).nonzero()[0]
        y = x[odd]
        special = np.where(np.isnan(y), 4, np.isinf(y) * 2 + np.signbit(y))
        words[odd, 0] = _tables().specials.take(special)
        regular = regular.nonzero()[0]
        if regular.size:
            words[regular] = _regular_words(x[regular])
    words[:, 3] |= np.uint64(sep) << _U56
    return words


def _block_bytes(columns) -> bytes:
    """The CSV bytes of equal-length columns, a newline after every row."""
    last = len(columns) - 1
    cells = [(_int_words if c.dtype.kind in "iu" else _float_words)(
        c, ord("\n") if i == last else ord(",")) for i, c in enumerate(columns)]
    line = cells[0] if len(cells) == 1 else np.concatenate(cells, axis=1)
    return line.tobytes().translate(None, b"\0")


def rows(columns) -> str:
    """Equal-length columns as CSV rows joined by newlines, with no
    newline after the last; integer columns as '%d', others as '%.17g'."""
    columns = [np.asarray(c) for c in columns]
    text = b"".join(_block_bytes([c[start:start + _BLOCK_ROWS] for c in columns])
                    for start in range(0, len(columns[0]), _BLOCK_ROWS))
    return text[:-1].decode("ascii")
