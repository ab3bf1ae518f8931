"""CSV text of a float table, byte for byte Python's `'{:.15g}'`, from numpy.

`format_rows` writes every cell of a 2-D float64 array with array arithmetic
instead of one `str.format` call per value.  A 15-significant-digit
conversion never takes dtoa's fast path, so `str.format` costs about a
microsecond a value; the trajectory CSV has 20 of them per sample.

Method, per cell `x` with `1e-290 <= |x| < 1e15`:

- the decimal exponent `e` is `floor(log10|x|)`, corrected where the scaled
  value falls outside `[1e14, 1e15)`, because `log10` can be off by one;
- `|x|*10**(14-e)` is formed as a double-double `hi + lo`: Dekker's split and
  TwoProduct against a `hi, lo` table of the powers of ten, which is built
  from Python integers on first use;
- the mantissa `N` is that product rounded to the nearest integer.  The
  double-double is good to about `2**-48` there, far inside `_TIE`, but an
  exact tie such as `2**-22` needs round-half-even on the exact binary value,
  so a fractional part within `_TIE` of one half is not certified;
- the digits of `N` come from its four-digit groups (exact float division)
  and a digit table, and the `g` layout (sign, `0.000` prefix, decimal point,
  stripped trailing zeros, `e±XX`) is written into a padded `uint8`
  template with one row per character slot; dropping the padding and
  decoding as ASCII gives the text.

Zero prints as `0` and negative zero as `-0`.  A chunk holding a cell
outside that range, a non-finite cell or a near-tie is not formatted: the
function returns None and the caller formats the chunk with `str.format`.
"""

import functools

import numpy as np

_LOWEST = 1e-290
_HIGHEST = 1e15
# a rounding remainder this close to one half is left to str.format
_TIE = 2.0 ** -32
# scaling exponents 14 - e reachable from [_LOWEST, _HIGHEST) within the
# three exponent corrections of _decimal
_P_MIN, _P_MAX = -4, 308
_SPLIT = 134217729.0  # 2**27 + 1

# slot layout of one cell, padding (0) wherever a slot is unused:
#   sign | digits and point (20) | e, sign, 3 digits | separator
_SIGN, _NUM, _EXP, _SEP = 0, 1, 21, 26
_SLOTS = 27
_C = {c: np.uint8(ord(c)) for c in "-+.0e,\n"}


@functools.cache
def _pow10_table():
    """`10**p ~ hi + lo` for p in [_P_MIN, _P_MAX], with `hi = hh + hl`
    split into 26-bit halves (Dekker) for the TwoProduct."""
    his, los = [], []
    for p in range(_P_MIN, _P_MAX + 1):
        num, den = (10 ** p, 1) if p >= 0 else (1, 10 ** -p)
        hi = num / den  # int division rounds correctly, as does the next one
        hi_num, hi_den = hi.as_integer_ratio()
        his.append(hi)
        los.append((num * hi_den - hi_num * den) / (den * hi_den))
    hi, lo = np.array(his), np.array(los)
    # split the mantissa, not hi itself: (2**27 + 1) * 1e300 would overflow
    m, k = np.frexp(hi)
    c = _SPLIT * m
    mh = c - (c - m)
    table = (hi, lo, np.ldexp(mh, k), np.ldexp(m - mh, k))
    for arr in table:
        arr.flags.writeable = False
    return table


@functools.cache
def _group_digits():
    """The four ASCII digits of each group 0000 to 9999, as one `uint32`."""
    text = "".join(f"{g:04d}" for g in range(10000)).encode("ascii")
    table = np.frombuffer(text, dtype=np.uint32).copy()
    table.flags.writeable = False
    return table


def _scaled(a, p):
    """`a * 10**p` as a double-double `(hi, lo)`, `a > 0`."""
    hi, lo, hh, hl = _pow10_table()
    i = p - _P_MIN
    ah = _SPLIT * a
    ah = ah - (ah - a)
    al = a - ah
    ph = a * hi[i]
    err = ah * hh[i]
    err -= ph
    err += ah * hl[i]
    err += al * hh[i]
    err += al * hl[i]
    err += a * lo[i]
    return ph, err


def _decimal(x):
    """`(N, e)` with `|x| = N * 10**(e - 14)` to 15 digits, `N` an integer in
    `[1e14, 1e15)` held in float64 (0 for a zero cell, whose `e` is 0), or
    None when some cell is not certified."""
    a = np.abs(x)
    zero = a == 0.0
    if not (np.isfinite(a).all() and (a < _HIGHEST).all()
            and ((a >= _LOWEST) | zero).all()):
        return None
    a[zero] = 1.0

    e = np.floor(np.log10(a)).astype(np.intp)
    ph, pl = _scaled(a, 14 - e)
    for _ in range(3):
        off = (ph >= 1e15).astype(np.intp) - (ph < 1e14)
        fix = np.flatnonzero(off)
        if fix.size == 0:
            break
        e[fix] += off[fix]
        ph[fix], pl[fix] = _scaled(a[fix], 14 - e[fix])
    else:
        return None

    # round to the nearest integer, certified away from ties; ph < 2**50, so
    # floor(ph) and ph - floor(ph) are exact
    N = np.floor(ph)
    frac = ph - N
    frac += pl
    k = np.floor(frac)
    frac -= k
    if (np.abs(frac - 0.5) < _TIE).any():
        return None
    N += k
    N += frac > 0.5
    carry = N == 1e15  # rounding reached the next power of ten
    N[carry] = 1e14
    e += carry
    N[zero] = 0.0
    e[zero] = 0
    return N, e.astype(np.int16)


def _digits(N):
    """Slot-major ASCII `(21, n)`: rows 1-4 hold `0000` and rows 5-19 the 15
    digits of `N`; and the count of digits left after stripping trailing
    zeros."""
    n = N.size
    W = np.zeros((21, n), dtype=np.uint8)
    W[1:4] = _C["0"]
    # four-digit groups (the floor of a quotient below 2**52 is exact); the
    # first is below 1000, so its leading 0 lands on row 4
    hi = np.floor(N / 1e8)
    groups = []
    for part in (hi, N - hi * 1e8):
        upper = np.floor(part / 1e4)
        groups += [upper, part - upper * 1e4]
    table = _group_digits()
    for row, group in zip((4, 8, 12, 16), groups):
        W[row:row + 4] = table[group.astype(np.intp)].view(np.uint8).reshape(n, 4).T
    kept = (np.arange(1, 16, dtype=np.uint8)[:, None] * (W[5:20] != _C["0"])).max(axis=0)
    return W, np.maximum(kept, 1)


def _template(x, N, e, ncols):
    """The padded slot-major `uint8` template `(_SLOTS, n)` of the cells."""
    W, nd = _digits(N)
    # the number is W[1:20][first:last + 1], with a point after W[1:20][point]
    # when last > point; slot r of the region holds W[r + 1] up to the point,
    # then the point, then W[r]
    sci = (e < -4) | (e >= 15)
    lead = ~sci & (e < 0)
    first = np.where(lead, 4 + e, 4)
    point = np.where(lead, first, np.where(sci, 4, 4 + e))
    last = np.maximum(3 + nd, point)
    end = last + (last > point)
    ae = np.abs(e)

    T = np.zeros((_SLOTS, x.size), dtype=np.uint8)
    T[_SIGN] = np.signbit(x) * _C["-"]
    region = T[_NUM:_EXP]
    r = np.arange(20, dtype=np.int16)[:, None]
    np.multiply(W[1:], r <= point, out=region)
    region += W[:-1] * (r > point + 1)
    region += (r == point + 1) * _C["."]
    region *= first <= r
    region *= r <= end
    T[_EXP] = sci * _C["e"]
    T[_EXP + 1] = sci * np.where(e < 0, _C["-"], _C["+"])
    T[_EXP + 2] = (sci & (ae >= 100)) * (ae // 100 + _C["0"])
    T[_EXP + 3] = sci * (ae // 10 % 10 + _C["0"])
    T[_EXP + 4] = sci * (ae % 10 + _C["0"])
    T[_SEP] = _C[","]
    T[_SEP, ncols - 1::ncols] = _C["\n"]
    return T


def format_rows(rows):
    """The cells of the 2-D float array `rows`, each as `'{:.15g}'`, joined
    by commas within a row and ended by a newline after each row.

    Returns None when some cell cannot be certified (non-finite, `|x| >= 1e15`,
    `0 < |x| < 1e-290`, or a rounding remainder within `_TIE` of a tie).
    """
    rows = np.asarray(rows, dtype=np.float64)
    x = rows.ravel()
    decimal = _decimal(x)
    if decimal is None:
        return None
    text = _template(x, *decimal, rows.shape[-1]).T.tobytes()
    return text.translate(None, b"\0").decode("ascii")
