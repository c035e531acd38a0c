"""The cell format of fotsim's CSV files, and a writer of whole columns.

Every float cell is ``'%.16e' % value``: 17 significant digits, enough to
round-trip a float64.  Every integer cell is ``'%d' % value``.  Python's
``%.16e`` is correctly rounded and pays for it with a bignum path per value,
so ``write_tables`` formats whole chunks of a column with numpy instead and
writes the same bytes, for several tables in one pass.

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
rounding, unless it lies at one half or one unit below.  Those cells, which
include every exact decimal tie, are left to ``'%.16e' %``, as are
subnormals, ``nan``, ``inf`` and the rare value whose scaled value lies
within 2 units of a power of ten.  ``'%.16e' %`` is the reference the kernel
matches, not a second path: it formats only what the kernel leaves open.
The kernel multiplies by the high half of T_k first, and _round_up adds the
low half only where the fraction comes near one half.

A chunk of a table is laid out as a matrix of 4-byte words, seven per cell,
in the order the text is read.  Slots a cell does not use (a ``-`` of a
positive value, a third exponent digit, the leading zeros of an integer)
hold NUL bytes, and one ``bytes.translate`` drops them all.

``read_columns`` is the mirror: it reads cells in that shape with the same
table (row k = E - 16) and leaves every other cell, and the few whose
rounding the bound leaves open, to ``float()``, the reference.
"""

from __future__ import annotations

import os
from collections import Counter
from collections.abc import Iterator
from contextlib import ExitStack
from pathlib import Path

import numpy as np

from .errors import ConfigError

# rows per chunk: bounds the memory a write holds whatever the run length.
# A chunk's bytes of a seven-column table stay under 1 MB; at twice the rows
# glibc mapped them afresh for every chunk (page faults on each write, and
# more peak memory over repeated runs)
_CHUNK_ROWS = 4096
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


def _round_up(m, j, hi, lo, half):
    """Whether each value rounds up, and the indices of those left open,
    from hi and lo, the words of m * (T >> 64) at table row j (clipped), and
    one half in units of hi.

    The table's low half adds a carry below 2**64 to lo, giving Z, which
    falls short of the exact value by less than 2 units of lo.  So only a
    fraction in hi at one half or one below needs the low half, and after
    it only a Z at one half with lo = 0, or one unit below, may be a tie.
    """
    frac = hi & ((half << np.uint64(1)) - np.uint64(1))
    up = frac > half
    near = np.flatnonzero(frac - half + np.uint64(1) <= np.uint64(1))
    if near.size:
        m, j, half = m[near], j[near], half[near]
        carry, _ = _mul64(m >> _U32, m & _M32, _POW5[2].take(j, mode="clip"),
                          _POW5[3].take(j, mode="clip"))
        lo = lo[near] + carry
        frac = frac[near] + (lo < carry)
        up[near] = (frac > half) | ((frac == half) & (lo > 0))
        near = near[((frac == half) & (lo == 0))
                    | ((frac == half - np.uint64(1)) & (lo == np.uint64(2 ** 64 - 1)))]
    return up, near


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

    up, near = _round_up(m, j, hi, lo, np.uint64(1) << (r - np.uint64(1)))
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


def _int_words(v: np.ndarray, out: np.ndarray) -> None:
    """Write the cell words of int64 array v, as '%d' writes them, into the
    (n, 7) array out, separator not included."""
    neg = v < 0
    a = np.where(neg, -v, v).view(np.uint64)  # -(-2**63) wraps to 2**63 here
    out[:] = 0
    out[:, 0] = _INT_SIGN.take(neg)
    for j in range((len(str(int(a.max(initial=0)))) + 3) // 4):
        q = a // np.uint64(10_000)
        g = a - q * np.uint64(10_000)
        # a group below the leading one keeps its zeros
        out[:, _INT_GROUPS - j] = np.where(q > 0, _DIGITS4.take(g), _BLANK4.take(g))
        a = q
    out[v == 0, _INT_GROUPS] = _ZERO_WORD


def _cell_words(col: np.ndarray, out: np.ndarray) -> None:
    """Write the cell words of a column chunk into the (n, 7) array out,
    separator not included."""
    if np.issubdtype(col.dtype, np.integer):
        _int_words(col.astype(np.int64, copy=False), out)
    else:
        _float_words(np.ascontiguousarray(col, dtype=np.float64), out)


def _table_texts(tables: list) -> Iterator[tuple]:
    """For each chunk of _CHUNK_ROWS rows, (t, text) for every table t in
    order: the CSV rows of the chunk as bytes, each line ending in '\\n'.  A
    table is a list of columns, all of one length.

    A column is formatted straight into its slot of one word matrix that the
    tables take in turn.  A column array that several tables (or columns)
    share is formatted once per chunk into a buffer of its own and copied
    into each slot, and a constant column (stride 0, as np.broadcast_to
    makes) once for the whole pass.  Every buffer is reused from chunk to
    chunk, so the memory held is bounded by the chunk.
    """
    arrays: dict = {}
    tables = [[arrays.setdefault(id(col), np.asarray(col)) for col in columns]
              for columns in tables]
    n = len(tables[0][0])
    rows = min(n, _CHUNK_ROWS)
    matrix = np.empty(rows * max(map(len, tables)) * _WORDS, dtype=np.uint32)
    uses = Counter(id(col) for columns in tables for col in columns)
    constant, shared = {}, {}
    for col in arrays.values():
        if col.size and col.strides == (0,):
            constant[id(col)] = np.empty((1, _WORDS), dtype=np.uint32)
            _cell_words(col[:1], constant[id(col)])
        elif uses[id(col)] > 1:
            shared[id(col)] = np.empty((rows, _WORDS), dtype=np.uint32)
    for start in range(0, n, _CHUNK_ROWS):
        k = min(n - start, _CHUNK_ROWS)
        # the cell words of this chunk kept by column id
        done = dict(constant)
        for t, columns in enumerate(tables):
            words = matrix[:k * len(columns) * _WORDS].reshape(k, len(columns), _WORDS)
            for j, col in enumerate(columns):
                key = id(col)
                if key in shared and key not in done:
                    done[key] = shared[key][:k]
                    _cell_words(col[start:start + k], done[key])
                if key in done:
                    words[:, j] = done[key]
                else:
                    _cell_words(col[start:start + k], words[:, j])
            words[:, :-1, -1] |= _COMMA
            words[:, -1, -1] |= _NEWLINE
            yield t, words.tobytes().translate(None, b"\0")


def write_tables(tables: list) -> None:
    """Write tables as CSV files in one pass over their rows.

    Each table is (path, header, columns), and every column of every table
    has one length.  A column with an integer dtype holds int64 values and
    is written as '%d' writes them, any other as float64 cells as '%.16e'
    writes them.  The files are written as bytes, so every line ends in
    '\\n' on every platform.
    """
    with ExitStack() as stack:
        files = [stack.enter_context(open(path, "wb")) for path, _, _ in tables]
        for fh, (_, header, _) in zip(files, tables):
            fh.write((",".join(header) + "\n").encode("ascii"))
        for t, text in _table_texts([columns for _, _, columns in tables]):
            files[t].write(text)


def write_columns(path: Path, header: list[str], columns: list) -> None:
    """Write equal-length columns as CSV rows under a header line: the
    one-table case of write_tables."""
    write_tables([(path, header, columns)])


# bytes per read of read_columns: bounds the text held at once whatever the
# file length
_BLOCK_BYTES = 1 << 18
# zeros after a block, so that the 24-byte window of any cell stays inside it
_WINDOW = 24
_PAD = bytes(_WINDOW + 8)
_MINUS, _DOT, _ZERO_BYTE, _COMMA_BYTE, _NEWLINE_BYTE = (np.uint8(ord(c)) for c in "-.0,\n")
# the two bytes after the digits: 'e' and the exponent sign
_EXP_PLUS, _EXP_MINUS = (np.uint64(ord("e") | ord(c) << 8) for c in "+-")
_BYTES = 0x0101010101010101
_ZEROS8 = np.uint64(0x30 * _BYTES)
_DIGIT_TOP = np.uint64(0x46 * _BYTES)
_HIGH_BITS = np.uint64(0x80 * _BYTES)
_SWAR_MASK = np.uint64(0x000000FF000000FF)
_SWAR_MUL1 = np.uint64(100 + (1_000_000 << 32))
_SWAR_MUL2 = np.uint64(1 + (10_000 << 32))
_FRACTION = np.uint64((1 << 52) - 1)
# a cell's exponent E reads 5**(E - 16) from table row _ROW_OF_E0 - E; the
# biased binary exponent of the result is _BIASED_OF_ROW at that row plus
# Z's top bit above 126 plus a carry of the rounding, minus the shift of D
_ROW_OF_E0 = 32 - _E_MIN
_BIASED_OF_ROW = 2171 - _SHIFT


def _are_digits(*words):
    """Whether all 8 bytes of each uint64 in every array of words are ASCII
    digits: no byte lies below '0' or, raised by 0x46, reaches 0x80
    (Lemire)."""
    bad = (words[0] + _DIGIT_TOP) | (words[0] - _ZEROS8)
    for v in words[1:]:
        bad |= (v + _DIGIT_TOP) | (v - _ZEROS8)
    return bad & _HIGH_BITS == 0


def _eight_digits(v):
    """The number that the 8 ASCII digits in each uint64 of v spell, first
    (lowest) byte most significant: pairs, then groups of four, then all."""
    v = v - _ZEROS8
    v = v * np.uint64(10) + (v >> np.uint64(8))
    return ((v & _SWAR_MASK) * _SWAR_MUL1
            + ((v >> np.uint64(16)) & _SWAR_MASK) * _SWAR_MUL2) >> _U32


def _parse_cells(b, windows, start, end):
    """The float64 values of the cells b[start:end] in the '%.16e' shape, and
    the indices of the cells that float() has to read instead.

    A cell ``[-]d.dddddddddddddddde±dd[d]`` spells x = D * 10**q with the
    17-digit integer D and q = E - 16.  With 5**q ~= T_q * 2**b_q from
    ``_POW5`` (the row with k = q) and D shifted up to bit 63 as w, the top
    128 bits Z of the 192-bit product w * T_q fall short of the exact scaled
    value by less than 2 units of their last bit: truncating 5**q loses less
    than one unit of T_q, which w < 2**64 turns into less than one unit of
    Z, and dropping the product's low 64 bits loses less than one more
    (Lemire, *Number Parsing at a Gigabyte per Second*, 2021, here with this
    bound instead of his rounded-up table).  The 53-bit significand is the
    top of Z, and the 74 or 75 bits below it decide the rounding unless they
    lie at one half or one unit below.  Those cells, every exact tie among
    them, are left to float(), as are zeros, results that would be
    subnormal or overflow, and every cell not in the shape, checked byte by
    byte.  As in _float_words, _round_up adds the low half of T_q only where
    the high half leaves the rounding open.
    """
    neg = b[start] == _MINUS
    s = start + neg
    width = end - s
    three = width == 23
    # the 24 bytes after the '.': 16 digits, 'e', the exponent's sign and
    # its digits, and what follows
    hi8, lo8, tail = windows[s + 2].view("<u8").reshape(-1, 3).T.copy()
    marker = tail & np.uint64(0xFFFF)
    # the exponent's digits moved to the top bytes, '0' below: 8 digits too
    shift = three.astype(np.uint64) << np.uint64(3)
    exp = (((tail >> np.uint64(16)) << (np.uint64(48) - shift))
           | (_ZEROS8 >> (np.uint64(16) + shift)))
    lead = b[s] - _ZERO_BYTE
    valid = (((width == 22) | three) & (lead - np.uint8(1) < 9) & (b[s + 1] == _DOT)
             & ((marker == _EXP_PLUS) | (marker == _EXP_MINUS)) & _are_digits(hi8, lo8, exp))
    # D lies in [10**16, 10**17): 7 to 10 bits shift it up to bit 63
    d = lead * np.uint64(10 ** 16) + _eight_digits(hi8) * np.uint64(10 ** 8) + _eight_digits(lo8)
    lz = (np.uint64(10) - (d >= np.uint64(2 ** 54)) - (d >= np.uint64(2 ** 55))
          - (d >= np.uint64(2 ** 56)))
    w = d << lz
    e = _eight_digits(exp).view(np.int64)
    j = np.where(marker == _EXP_MINUS, _ROW_OF_E0 + e, _ROW_OF_E0 - e)
    valid &= j.view(np.uint64) < np.uint64(_SHIFT.size)

    hi, lo = _mul64(w >> _U32, w & _M32, _POW5[0].take(j, mode="clip"),
                    _POW5[1].take(j, mode="clip"))
    # Z's top bit is bit 126 + u; the significand is the 53 bits from there
    u = hi >> np.uint64(63)
    r = np.uint64(10) + u
    mant = hi >> r
    up, near = _round_up(w, j, hi, lo, np.uint64(512) << u)
    valid[near] = False
    mant += up
    carry = mant >> np.uint64(53)
    mant >>= carry
    biased = (u + carry - lz).view(np.int64) + _BIASED_OF_ROW.take(j, mode="clip")
    valid &= (biased - 1).view(np.uint64) < np.uint64(2046)
    bits = ((neg.astype(np.uint64) << np.uint64(63))
            | (biased.view(np.uint64) << np.uint64(52)) | (mant & _FRACTION))
    return bits.view(np.float64), np.flatnonzero(~valid)


def _float_cell(cell: bytes):
    """float() of one cell, or None where it is not a number.  float() also
    reads '1_000'; a CSV cell with '_' is junk."""
    if b"_" in cell:
        return None
    try:
        return float(cell)
    except ValueError:
        return None


def _row_separators(ncols: int) -> np.ndarray:
    """The separators that end the cells of one row."""
    return np.array([_COMMA_BYTE] * (ncols - 1) + [_NEWLINE_BYTE], dtype=np.uint8)


def _block_columns(text: bytes, ncols: int, want: list, path, line: int) -> list:
    """The wanted columns (index, name) of the complete rows in text, which
    starts on file line `line`."""
    b = np.frombuffer(text + _PAD, dtype=np.uint8)
    # the 24 bytes from each offset, as one void item each: a gather of
    # these copies them out aligned
    windows = np.ndarray((b.size - _WINDOW + 1,), dtype=f"V{_WINDOW}", buffer=b, strides=(1,))
    sep = np.flatnonzero((b == _COMMA_BYTE) | (b == _NEWLINE_BYTE))
    kinds = b[sep]
    if kinds.size % ncols or (kinds.reshape(-1, ncols) != _row_separators(ncols)).any():
        for k, row in enumerate(text.split(b"\n")[:-1]):
            if row.count(b",") != ncols - 1:
                raise ConfigError(f"{path}: line {line + k}: expected {ncols} fields, "
                                  f"found {row.count(b',') + 1}")
    sep = sep.reshape(-1, ncols)
    out = []
    for c, name in want:
        end = sep[:, c]
        start = sep[:, c - 1] + 1 if c else np.concatenate(([0], sep[:-1, -1] + 1))
        values, redo = _parse_cells(b, windows, start, end)
        for i in redo.tolist():
            cell = text[start[i]:end[i]]
            value = _float_cell(cell)
            if value is None:
                raise ConfigError(f"{path}: line {line + i}, column {name!r}: "
                                  f"cannot read {cell.decode('ascii', 'replace')!r} as a number")
            values[i] = value
        out.append(values)
    return out


def _header(fh, path) -> list[str]:
    first = fh.readline()
    if not first:
        raise ConfigError(f"{path} is empty: no header line")
    return first.decode("ascii", "replace").strip().split(",")


def read_header(path: Path) -> list[str]:
    """The column names on the first line of a CSV file."""
    with open(path, "rb") as fh:
        return _header(fh, path)


def read_columns(path: Path, names: list[str]) -> list[np.ndarray]:
    """The named columns of a CSV file under a header line, as float64 arrays.

    The mirror of write_columns: the file is read in blocks of
    ``_BLOCK_BYTES``, each cut after its last newline, and _parse_cells reads
    whole columns of a block.  A cell in the '%.16e' shape is read by the
    kernel; any other number float() reads is read by float(), the
    reference.  A missing column, a row with another number of fields than
    the header and a cell that is not a number raise ConfigError naming the
    file, line and column.  Each column is one array, grown at most rarely:
    its length is estimated from the first block.
    """
    with open(path, "rb") as fh:
        header = _header(fh, path)
        for name in names:
            if name not in header:
                raise ConfigError(f"column {name!r} not in {path} (columns: {header})")
        want = [(header.index(name), name) for name in names]
        size = os.fstat(fh.fileno()).st_size
        columns = [np.empty(0) for _ in names]
        n, carry = 0, b""
        while True:
            block = fh.read(_BLOCK_BYTES)
            cut = block.rfind(b"\n") + 1
            if not block:
                if not carry:
                    break
                text, carry = carry + b"\n", b""
            elif not cut:
                carry += block
                continue
            else:
                text, carry = carry + block[:cut], block[cut:]
            parts = _block_columns(text, len(header), want, path, n + 2)
            rows = parts[0].size
            if n + rows > columns[0].size:
                # room for the rest of the file at this block's row density
                room = n + rows + int(rows * 1.125 * (size - fh.tell()) / len(text)) + 16
                columns = [_grown(col, n, room) for col in columns]
            for col, part in zip(columns, parts):
                col[n:n + rows] = part
            n += rows
    for col in columns:
        col.resize(n, refcheck=False)
    return columns


def _grown(col: np.ndarray, n: int, size: int) -> np.ndarray:
    """An array of `size` floats starting with col[:n]."""
    out = np.empty(size)
    out[:n] = col[:n]
    return out
