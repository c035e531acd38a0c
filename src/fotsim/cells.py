"""The cell format of fotsim's CSV files, and a writer of whole columns.

Every float cell is ``'%.16e' % value``: 17 significant digits, enough to
round-trip a float64.  Every integer cell is ``'%d' % value``.  Python's
``%.16e`` is correctly rounded and pays for it with a bignum path per value,
so ``write_columns`` formats whole chunks of a column with numpy instead and
writes the same bytes.

For a finite normal ``x = m * 2**e`` with ``E = floor(log10|x|)`` and
``k = 16 - E``, the 17 digits are ``D = round(x * 10**k)``, an integer in
``[10**16, 10**17)``.  ``_POW5`` holds ``5**k`` truncated to 128 bits, T_k,
for every k a float64 can need, the table of Adams's fixed-precision
printing (*Ryu revisited: printf floating point conversion*, 2019).  The
top 128 bits of the 192-bit product ``(m << 11) * T_k`` fall short of the
exact scaled value by less than 2 units of their last bit: truncating
``5**k`` loses less than one unit of T_k, which ``m << 11 < 2**64`` turns
into less than one unit of the kept bits, and dropping the product's low 64
bits loses less than one more.  So the computed fraction decides the
rounding, unless it lies within 2 units of one half.  Those cells, which
include every exact decimal tie, are left to ``'%.16e' %``, as are
subnormals, ``nan``, ``inf`` and the rare value whose scaled value lies
within 2 units of a power of ten.  ``'%.16e' %`` is the reference the kernel
matches, not a second path: it formats only what the kernel leaves open.
The kernel multiplies by the high half of T_k first and adds the low half
only where the fraction comes near one half.

A chunk is laid out as a matrix of 4-byte words, seven per cell, in the
order the text is read.  Slots a cell does not use (a ``-`` of a positive
value, a third exponent digit, the leading zeros of an integer) hold NUL
bytes, and one ``bytes.translate`` drops them all.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

# rows per write: bounds the text held at once whatever the run length
_CHUNK_ROWS = 8192
# the reference format of a float cell; it formats the cells the kernel leaves
_FLOAT_CELL = "%.16e"

# the words of one cell.  A float: [NUL, sign, lead digit, '.'], four words
# of four digits, ['e', exponent sign, hundreds, tens], [units, separator,
# NUL, NUL].  An integer: [NUL, NUL, NUL, sign], five words of four digits,
# [NUL, separator, NUL, NUL].  The reference's longest text, '-' + 17
# digits + '.' + 'e-308', is 24 bytes and fits the 28.
_WORDS = 7
_INT_GROUPS = 5   # 20 digits hold any int64

# decimal exponents E with a table entry: k = 16 - E covers -330..340
_E_MIN, _E_MAX = -324, 346
_M32 = np.uint64(0xFFFFFFFF)
_U32 = np.uint64(32)


def _pow5_table():
    """For each E: the 32-bit limbs (most significant first) of 5**k, k = 16 -
    E, truncated to 128 bits as T_k with 5**k ~= T_k * 2**b_k, and the shift
    958 - b_k - k that turns a biased binary exponent into the fraction's
    width (see _scaled)."""
    limbs, shifts = [], []
    for big_e in range(_E_MIN, _E_MAX + 1):
        k = 16 - big_e
        p = 5 ** abs(k)
        if k >= 0:
            b = p.bit_length() - 128
            t = p >> b if b >= 0 else p << -b
        else:
            b = -(127 + p.bit_length())
            t = (1 << -b) // p
        limbs.append([(t >> s) & 0xFFFFFFFF for s in (96, 64, 32, 0)])
        shifts.append(958 - b - k)
    return np.array(limbs, dtype=np.uint64).T.copy(), np.array(shifts, dtype=np.int64)


def _words(text: str) -> np.ndarray:
    """The 4-byte words of text, in memory order, whatever the byte order."""
    return np.frombuffer(text.encode("ascii"), dtype=np.uint32)


def _digit_tables():
    """Words of 0..9999 as four digits, and with leading zeros as NUL."""
    i = np.arange(10_000)
    digits = (i[:, None] // np.array([1000, 100, 10, 1]) % 10 + ord("0")).astype(np.uint8)
    blank = digits.copy()
    blank[np.logical_and.accumulate(digits == ord("0"), axis=1)] = 0
    return digits.view(np.uint32).ravel(), blank.view(np.uint32).ravel()


_POW5, _SHIFT = _pow5_table()
_DIGITS4, _BLANK4 = _digit_tables()
# the leading word by 10 * sign + lead digit
_LEAD = _words("".join(f"\0{s}{d}." for s in ("\0", "-") for d in range(10)))
# the exponent words of each E: ['e', sign, hundreds, tens], [units]
_EXP_HI = _words("".join(
    f"e{'-' if i < 0 else '+'}{abs(i) // 100 if abs(i) >= 100 else chr(0)}{abs(i) // 10 % 10}"
    for i in range(_E_MIN, _E_MAX + 1)))
_EXP_LO = _words("".join(f"{abs(i) % 10}\0\0\0" for i in range(_E_MIN, _E_MAX + 1)))
_INT_SIGN = _words("\0\0\0\0" "\0\0\0-")
_ZERO_WORD = _words("\0\0\0" "0")[0]
_COMMA, _NEWLINE = _words("\0,\0\0" "\0\n\0\0")


def _mul64(a1, a0, b1, b0):
    """(hi, lo) words of (a1 * 2**32 + a0) * (b1 * 2**32 + b0); all four
    inputs are below 2**32."""
    p00 = a0 * b0
    p01 = a0 * b1
    p10 = a1 * b0
    mid = (p00 >> _U32) + (p01 & _M32) + (p10 & _M32)
    lo = (mid << _U32) | (p00 & _M32)
    hi = a1 * b1 + (p01 >> _U32) + (p10 >> _U32) + (mid >> _U32)
    return hi, lo


def _scaled(m, biased, j):
    """x * 10**k in fixed point, for x with significand m (shifted up to bit
    63) and biased binary exponent, and table row j (k = 16 - E): the two
    words of m * (T_k >> 64), and the width r of the fraction in the high
    word.  The table's low half would add less than 2**64 units to lo."""
    hi, lo = _mul64(m >> _U32, m & _M32, _POW5[0][j], _POW5[1][j])
    # x * 10**k = (hi * 2**64 + lo) * 2**(biased - 1075 - 11 + b_k + k - 64),
    # so the integer part is hi shifted right by r = 958 - b_k - k - biased
    return hi, lo, (_SHIFT[j] - biased).astype(np.uint64)


def _add_low_half(m, j, hi, lo):
    """hi and lo of _scaled with the table's low half added: the top 128
    bits of m * T_k, short of the exact product by less than 2 units of lo."""
    carry, _ = _mul64(m >> _U32, m & _M32, _POW5[2][j], _POW5[3][j])
    lo = lo + carry
    return hi + (lo < carry), lo


def _float_words(x: np.ndarray, out: np.ndarray) -> None:
    """Write the cell words of float64 array x into the (n, 7) array out,
    separator not included."""
    bits = x.view(np.uint64)
    neg = bits >> np.uint64(63)
    biased = ((bits >> np.uint64(52)) & np.uint64(0x7FF)).astype(np.int64)
    # zeros, subnormals, nan and inf stand in as 1.0: the zeros are written
    # below, the rest by the reference
    special = zero = np.flatnonzero((biased == 0) | (biased == 0x7FF))
    xs = x
    if special.size:
        xs = x.copy()
        xs[special] = 1.0
        biased[special] = 1023
        zero = special[(bits[special] << np.uint64(1)) == 0]
        special = np.setdiff1d(special, zero, assume_unique=True)
        bits = xs.view(np.uint64)
    m = (bits << np.uint64(11)) | np.uint64(1 << 63)
    # the table row of E = floor(log10|x|)
    j = np.floor(np.log10(np.abs(xs))).astype(np.int64) - _E_MIN

    hi, lo, r = _scaled(m, biased, j)
    d = hi >> r
    # np.log10 can be one off next to a power of ten: redo those cells one
    # decade over.  A cell still outside [10**16, 10**17) then lies within 2
    # units of a power of ten and is left open.
    redo = np.flatnonzero((d < 10 ** 16) | (d >= 10 ** 17))
    if redo.size:
        j[redo] += (d[redo] >= 10 ** 17).astype(np.int64) * 2 - 1
        hi[redo], lo[redo], r[redo] = _scaled(m[redo], biased[redo], j[redo])
        d[redo] = hi[redo] >> r[redo]
        redo = redo[(d[redo] < 10 ** 16) | (d[redo] >= 10 ** 17)]

    # without the table's low half, hi and lo fall short by less than
    # 2**64 + 2 units of lo.  That decides nothing unless the fraction's
    # high bits lie at one half or within 2 units below it: only there is
    # the low half added.
    half = np.uint64(1) << (r - np.uint64(1))
    frac = hi & ((half << np.uint64(1)) - np.uint64(1))
    up = frac > half
    near = np.flatnonzero((frac + np.uint64(2) >= half) & (frac <= half))
    if near.size:
        hi_n, lo_n = _add_low_half(m[near], j[near], hi[near], lo[near])
        frac_n, half_n = hi_n & ((half[near] << np.uint64(1)) - np.uint64(1)), half[near]
        up[near] = (frac_n > half_n) | ((frac_n == half_n) & (lo_n > 2))
        # within 2 units of one half, ties included, the reference decides
        near = near[((frac_n == half_n) & (lo_n <= 2))
                    | ((frac_n == half_n - np.uint64(1)) & (lo_n >= np.uint64(2 ** 64 - 3)))]
    d += up
    top = d == 10 ** 17
    d[top] = 10 ** 16
    j += top
    d[zero] = 0
    j[zero] = -_E_MIN

    lead = d // np.uint64(10 ** 16)
    rest = d - lead * np.uint64(10 ** 16)
    upper = (rest // np.uint64(10 ** 8)).astype(np.intp)
    lower = rest.astype(np.intp) - upper * 10 ** 8
    out[:, 0] = _LEAD.take((neg * np.uint64(10) + lead).astype(np.intp))
    for w, part in ((1, upper), (3, lower)):
        hi4 = part // 10_000
        out[:, w] = _DIGITS4.take(hi4)
        out[:, w + 1] = _DIGITS4.take(part - hi4 * 10_000)
    out[:, 5] = _EXP_HI.take(j)
    out[:, 6] = _EXP_LO.take(j)

    text = out.view(np.uint8)
    for i in np.concatenate([special, redo, near]):
        raw = (_FLOAT_CELL % x[i]).encode("ascii")
        text[i] = 0
        text[i, :len(raw)] = np.frombuffer(raw, dtype=np.uint8)


def _int_words(v: np.ndarray) -> np.ndarray:
    """The (n, 7) cell words of int64 array v, as '%d' writes them,
    separator not included."""
    neg = v < 0
    a = np.where(neg, -v, v).view(np.uint64)  # -(-2**63) wraps to 2**63 here
    out = np.zeros((v.size, _WORDS), dtype=np.uint32)
    out[:, 0] = _INT_SIGN.take(neg)
    for j in range((len(str(int(a.max(initial=0)))) + 3) // 4):
        q = a // np.uint64(10_000)
        g = a - q * np.uint64(10_000)
        # a group below the leading one keeps its zeros
        out[:, _INT_GROUPS - j] = np.where(q > 0, _DIGITS4.take(g), _BLANK4.take(g))
        a = q
    out[v == 0, _INT_GROUPS] = _ZERO_WORD
    return out


def _chunk_text(columns: list) -> str:
    """CSV rows of equal-length column chunks, each line ending in '\\n'."""
    words = np.empty((len(columns[0]), len(columns), _WORDS), dtype=np.uint32)
    for j, col in enumerate(columns):
        if np.issubdtype(col.dtype, np.integer):
            words[:, j] = _int_words(col.astype(np.int64, copy=False))
        else:
            _float_words(np.ascontiguousarray(col, dtype=np.float64), words[:, j])
    words[:, :-1, -1] |= _COMMA
    words[:, -1, -1] |= _NEWLINE
    return words.tobytes().translate(None, b"\0").decode("ascii")


def write_columns(path: Path, header: list[str], columns: list) -> None:
    """Write equal-length columns as CSV rows under a header line.

    A column with an integer dtype holds int64 values and is written as
    '%d' writes them, any other as float64 cells as '%.16e' writes them.
    """
    columns = [np.asarray(col) for col in columns]
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(columns[0]), _CHUNK_ROWS):
            fh.write(_chunk_text([col[start:start + _CHUNK_ROWS] for col in columns]))
