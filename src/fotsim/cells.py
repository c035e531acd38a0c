"""The cell format of fotsim's CSV files, and a writer of whole columns.

Every float cell is ``'%.16e' % value``: 17 significant digits, enough to
round-trip a float64.  Every integer cell is ``'%d' % value``.  Python's
``%.16e`` is correctly rounded and pays for it with a bignum path per value,
so ``write_tables`` formats whole chunks of columns with numpy instead and
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
subnormals, ``nan``, ``inf`` and the rare value next to a power of ten
whose scaled value falls outside ``[10**16, 10**17)``, as where ``np.log10``
is a decade off.  ``'%.16e' %`` is the reference the kernel
matches, not a second path: it formats only what the kernel leaves open.
The kernel multiplies by the high half of T_k first, and _round_up adds the
low half only where the fraction comes near one half.

Each chunk of rows is formatted in one kernel call per kind of column:
``_float_words`` takes the chunk's rows of every distinct float column of
every table, stacked, and ``_int_words`` those of every integer column.
Every temporary of a call is a row of one ``_Scratch``, made once for the
write.  A chunk of a table is laid out as a matrix of 4-byte words, seven
per cell, in the order the text is read.  Slots a cell does not use (a
``-`` of a positive value, a third exponent digit, the leading zeros of an
integer) hold NUL bytes, which a numpy boolean mask drops.  The calling
thread formats every chunk; where the process may use two CPUs, one helper
thread (``workers.on_helper``) drops the NUL bytes of each chunk and writes
it while the caller formats the next, the two handing two sets of matrices
back and forth.

``read_columns`` is the mirror: it reads cells in that shape with the same
table (row k = E - 16) and leaves every other cell, and the few whose
rounding the bound leaves open, to ``float()``, the reference.
"""

from __future__ import annotations

import os
import queue
from collections import Counter
from collections.abc import Iterator
from contextlib import ExitStack
from pathlib import Path

import numpy as np

from . import workers
from .errors import ConfigError
from .workers import on_helper, share

# rows and cells (over all the tables of a write) per chunk: bound the
# memory a write holds whatever the run length, to at most 231 bytes a cell:
# 91 of _Scratch, 28 of words, 28 in each of two buffer sets, and 28 each
# in the mask and the text of a table's chunk (see _table_chunks and
# _write_chunk).  A run's round tables with two access nodes (20 cells
# a row) go out 1228 rows a chunk, a series (2 cells a row) 4096.  On a
# two-core host those round tables wrote equally fast at 1024 to 4096 rows a
# chunk, but from 2048 rows on their words and scratch raised the run's peak
# memory above that of a writer of one column per kernel call.  A series
# wrote twice as slowly at 1024 rows as at 4096, in four times the kernel
# calls, and at 6144 rows and more it raised the peak memory of the
# process's later runs
_CHUNK_ROWS = 4096
_CHUNK_CELLS = 24576
# the reference format of a float cell; it formats the cells the kernel leaves
_FLOAT_CELL = "%.16e"

# the words of one cell.  A float: [NUL, sign, lead digit, '.'], four words
# of four digits, ['e', exponent sign, hundreds, tens], [units, separator,
# NUL, NUL].  An integer: [NUL, NUL, NUL, sign], five words of four digits,
# [NUL, separator, NUL, NUL].  The reference's longest text, '-' + 17
# digits + '.' + 'e-308', is 24 bytes and fits the 28.
_WORDS = 7
# a cell's words as one item, which the tables' slots copy whole
_CELL = np.dtype((np.void, 4 * _WORDS))
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
_INT_MINUS, _ZERO_WORD = _words("\0\0\0-" "\0\0\0" "0")
_COMMA, _NEWLINE = _words("\0,\0\0" "\0\n\0\0")


def _mul64(a1, a0, b1, b0, t=None):
    """(hi, lo) words of (a1 * 2**32 + a0) * (b1 * 2**32 + b0); all four
    inputs are below 2**32.  The inputs are scratch: hi and lo are written
    over a1 and b1, and t holds three more arrays of their shape (made when
    None)."""
    p00, mid, x = (np.empty_like(a0) for _ in range(3)) if t is None else t
    np.multiply(a0, b0, out=p00)
    p01 = np.multiply(a0, b1, out=a0)
    p10 = np.multiply(a1, b0, out=b0)
    hi = np.multiply(a1, b1, out=a1)
    np.right_shift(p00, _U32, out=mid)
    mid += np.bitwise_and(p01, _M32, out=x)
    mid += np.bitwise_and(p10, _M32, out=x)
    lo = np.left_shift(mid, _U32, out=b1)
    lo |= np.bitwise_and(p00, _M32, out=p00)
    hi += np.right_shift(p01, _U32, out=p01)
    hi += np.right_shift(p10, _U32, out=p10)
    hi += np.right_shift(mid, _U32, out=mid)
    return hi, lo


def _scaled(m, biased, j, t):
    """x * 10**k in fixed point, for x with significand m (shifted up to bit
    63) and biased binary exponent (int64), and table row j (k = 16 - E):
    the two words of m * (T_k >> 64), and the width r of the fraction in
    the high word.  The table's low half would add less than 2**64 units to
    lo.  t holds seven uint64 arrays of m's shape for the work; hi, r and lo
    are written over the first three."""
    a1, a0, b1, b0, *rest = t
    hi, lo = _mul64(np.right_shift(m, _U32, out=a1), np.bitwise_and(m, _M32, out=a0),
                    _POW5[0].take(j, mode="clip", out=b1), _POW5[1].take(j, mode="clip", out=b0),
                    rest)
    # x * 10**k = (hi * 2**64 + lo) * 2**(biased - 1075 - 11 + b_k + k - 64),
    # so the integer part is hi shifted right by r = 958 - b_k - k - biased
    r = _SHIFT.take(j, mode="clip", out=a0.view(np.int64))
    r -= biased
    return hi, lo, r.view(np.uint64)


def _round_up(m, j, hi, lo, half, t):
    """Whether each value rounds up, and the indices of those left open,
    from hi and lo, the words of m * (T >> 64) at table row j (clipped), and
    one half in units of hi.  t holds two uint64 and two bool arrays of hi's
    shape for the work; the first bool array is returned.

    The table's low half adds a carry below 2**64 to lo, giving Z, which
    falls short of the exact value by less than 2 units of lo.  So only a
    fraction in hi at one half or one below needs the low half, and after
    it only a Z at one half with lo = 0, or one unit below, may be a tie.
    """
    frac, x, up, open_ = t
    np.left_shift(half, np.uint64(1), out=frac)
    frac -= np.uint64(1)
    frac &= hi
    np.greater(frac, half, out=up)
    np.subtract(frac, half, out=x)
    x += np.uint64(1)
    near = np.flatnonzero(np.less_equal(x, np.uint64(1), out=open_))
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


class _Scratch:
    """The memory of the cell kernels for calls of up to `n` values: the
    values in row 0 and the kernel's scratch in the 10 others of ``rows``
    (uint64, each viewed as the dtype a step takes), and three bool rows,
    91 bytes per value.  Every array of a kernel call's size is a row of
    it, so a write makes its kernel arrays once."""

    def __init__(self, n: int):
        self.rows = np.empty((11, n), dtype=np.uint64)
        self.flags = np.empty((3, n), dtype=bool)

    def stack(self, columns: list, start: int, k: int, dtype) -> np.ndarray:
        """Rows start:start + k of each column, one column after the other,
        as an array of dtype in row 0."""
        values = self.rows[0, :len(columns) * k].view(dtype)
        for c, col in enumerate(columns):
            values[c * k:(c + 1) * k] = col[start:start + k]
        return values


def _put(out, w, table, index, row):
    """Word w of each cell in out: table at index, gathered first into the
    leading half of the bytes of the uint64 array row."""
    out[:, w] = table.take(index, mode="clip", out=row.view(np.uint32)[:index.size])


def _float_words(x: np.ndarray, out: np.ndarray, ws: _Scratch) -> None:
    """Write the cell words of float64 array x, row 0 of ws, into the (n, 7)
    array out, separator not included.  x is written over while the call
    runs and holds its values again when it returns."""
    n = x.size
    u, flags = ws.rows[1:, :n], ws.flags[:, :n]
    bits = x.view(np.uint64)
    neg = np.signbit(x, out=flags[2])
    biased = np.right_shift(bits, np.uint64(52), out=u[0])
    biased &= np.uint64(0x7FF)
    biased = biased.view(np.int64)
    # zeros, subnormals, nan and inf stand in as 1.0: the zeros are written
    # below, the rest by the reference
    every = np.equal(biased, 0, out=flags[0])
    every |= np.equal(biased, 0x7FF, out=flags[1])
    special = zero = every = np.flatnonzero(every)
    if every.size:
        kept = x[every]
        zero = every[(kept.view(np.uint64) << np.uint64(1)) == 0]
        special = np.setdiff1d(every, zero, assume_unique=True)
        x[every] = 1.0
        biased[every] = 1023
    m = np.left_shift(bits, np.uint64(11), out=u[1])
    m |= np.uint64(1 << 63)
    # the table row of E = floor(log10|x|)
    e = np.abs(x, out=u[3].view(np.float64))
    np.floor(np.log10(e, out=e), out=e)
    j = np.subtract(e, _E_MIN, out=u[2].view(np.int64), casting="unsafe")

    hi, lo, r = _scaled(m, biased, j, u[3:10])
    d = np.right_shift(hi, r, out=u[6])
    # np.log10 can be one off next to a power of ten: a cell outside
    # [10**16, 10**17) is left open
    off = np.less(d, np.uint64(10 ** 16), out=flags[0])
    off |= np.greater_equal(d, np.uint64(10 ** 17), out=flags[1])
    off = np.flatnonzero(off)

    half = np.subtract(r, np.uint64(1), out=u[0])
    np.left_shift(np.uint64(1), half, out=half)
    up, near = _round_up(m, j, hi, lo, half, (u[7], u[8], flags[0], flags[1]))
    d += up
    top = np.equal(d, np.uint64(10 ** 17), out=flags[0])
    np.copyto(d, np.uint64(10 ** 16), where=top)
    j += top
    d[zero] = 0
    j[zero] = -_E_MIN

    # the leading word by 10 * sign + lead digit, then four words of four
    # digits from the 16 digits after it
    lead = np.floor_divide(d, np.uint64(10 ** 16), out=u[0])
    d -= np.multiply(lead, np.uint64(10 ** 16), out=u[1])
    lead += np.multiply(neg, np.uint64(10), out=u[1])
    _put(out, 0, _LEAD, lead.view(np.int64), u[7])
    upper = np.floor_divide(d, np.uint64(10 ** 8), out=u[0])
    d -= np.multiply(upper, np.uint64(10 ** 8), out=u[1])
    for w, part in ((1, upper), (3, d)):
        hi4 = np.floor_divide(part, np.uint64(10_000), out=u[1])
        _put(out, w, _DIGITS4, hi4.view(np.int64), u[7])
        part -= np.multiply(hi4, np.uint64(10_000), out=u[1])
        _put(out, w + 1, _DIGITS4, part.view(np.int64), u[7])
    _put(out, 5, _EXP_HI, j, u[7])
    _put(out, 6, _EXP_LO, j, u[7])

    if every.size:
        x[every] = kept
    text = out.view(np.uint8)
    for i in np.concatenate([special, off, near]):
        raw = (_FLOAT_CELL % x[i]).encode("ascii")
        text[i] = 0
        text[i, :len(raw)] = np.frombuffer(raw, dtype=np.uint8)


def _int_words(v: np.ndarray, out: np.ndarray, ws: _Scratch) -> None:
    """Write the cell words of int64 array v, row 0 of ws, as '%d' writes
    them, into the (n, 7) array out, separator not included."""
    n = v.size
    u, flags = ws.rows[1:, :n], ws.flags[0, :n]
    row, blank = (w.view(np.uint32)[:n] for w in u[3:5])
    out[:] = 0
    np.copyto(out[:, 0], _INT_MINUS, where=np.less(v, 0, out=flags))
    a = np.abs(v, out=u[0].view(np.int64)).view(np.uint64)  # |-2**63| reads as 2**63 here
    q = u[1]
    for j in range((len(str(int(a.max(initial=0)))) + 3) // 4):
        np.floor_divide(a, np.uint64(10_000), out=q)
        a -= np.multiply(q, np.uint64(10_000), out=u[2])
        g = a.view(np.int64)
        # a group below the leading one keeps its zeros
        _DIGITS4.take(g, mode="clip", out=row)
        np.copyto(row, _BLANK4.take(g, mode="clip", out=blank), where=np.equal(q, 0, out=flags))
        out[:, _INT_GROUPS - j] = row
        a, q = q, a
    np.copyto(out[:, _INT_GROUPS], _ZERO_WORD, where=np.equal(v, 0, out=flags))


def _chunk_rows(tables: list) -> int:
    """Rows per chunk of tables, lists of columns: _CHUNK_ROWS, or fewer
    where that would pass _CHUNK_CELLS cells over all the tables, and at
    least one row."""
    return max(1, min(_CHUNK_ROWS, _CHUNK_CELLS // sum(map(len, tables))))


def _table_chunks(tables: list, free: queue.SimpleQueue, sets: int) -> Iterator[tuple]:
    """For each chunk of _chunk_rows(tables) rows, (matrices, k): k, the
    chunk's rows, and a buffer set, one word matrix per table, the first k
    rows of which hold the table's cells of the chunk, separators included.
    A table is a list of columns, all of one length.

    The pass makes `sets` buffer sets and puts them in free.  Each chunk
    takes a set from free once its cells are formatted, waiting there while
    none is free, and the consumer puts the set back when it is done with
    it.  So a consumer on another thread has one set while the next chunk is
    formatted into the other.

    Each distinct column array is formatted once per chunk, whichever
    tables (or columns) share it: the chunk's rows of every float column
    are stacked into one _float_words call, and of every integer column
    into one _int_words call, both on one _Scratch made for the pass.  A
    constant column (stride 0, as np.broadcast_to makes) is formatted once
    for the whole pass, in one call per kind.  Each table's matrix is then
    filled from those words.  Every buffer is reused from chunk to chunk,
    so the memory held is bounded by the chunk: for each cell of a distinct
    column, 91 bytes of _Scratch and 28 of words, and for each cell of a
    table, 28 in the matrix of each set.
    """
    arrays: dict = {}
    tables = [[arrays.setdefault(id(col), np.asarray(col)) for col in columns]
              for columns in tables]
    n = len(tables[0][0])
    step = _chunk_rows(tables)
    rows = min(n, step)
    # the distinct columns by kind: (kernel, dtype, constant, varying)
    kinds = [(_float_words, np.float64, [], []), (_int_words, np.int64, [], [])]
    for col in arrays.values():
        kind = kinds[np.issubdtype(col.dtype, np.integer)]
        kind[2 if col.size and col.strides == (0,) else 3].append(col)
    ws = _Scratch(max(max(len(c), rows * len(v)) for _, _, c, v in kinds))
    # the cell words of each column by id: a constant's for the whole pass,
    # the others' for the chunk at hand
    words = {}
    for kernel, dtype, constant, varying in kinds:
        if constant:
            out = np.empty((len(constant), _WORDS), dtype=np.uint32)
            kernel(ws.stack(constant, 0, 1, dtype), out, ws)
            words.update((id(col), out.view(_CELL)[c]) for c, col in enumerate(constant))
    batches = [(kernel, dtype, varying, np.empty((len(varying) * rows, _WORDS), dtype=np.uint32))
               for kernel, dtype, _, varying in kinds if varying]
    for _ in range(sets):
        free.put([np.empty((rows, len(columns)), dtype=_CELL) for columns in tables])
    for start in range(0, n, step):
        k = min(n - start, step)
        for kernel, dtype, varying, out in batches:
            kernel(ws.stack(varying, start, k, dtype), out[:len(varying) * k], ws)
            cells = out.view(_CELL)[:, 0]
            words.update((id(col), cells[c * k:(c + 1) * k]) for c, col in enumerate(varying))
        matrices = free.get()
        for matrix, columns in zip(matrices, tables):
            matrix = matrix[:k]
            for j, col in enumerate(columns):
                matrix[:, j] = words[id(col)]
            # the separator in the second byte of each cell's last word
            last = matrix.view(np.uint32)[:, _WORDS - 1::_WORDS]
            last[:, :-1] |= _COMMA
            last[:, -1] |= _NEWLINE
        yield matrices, k


def _write_chunk(files: list, matrices: list, k: int) -> None:
    """Write the first k rows of each word matrix to its file, without their
    NUL bytes.  The mask and the text it keeps are one table's chunk at a
    time, and numpy makes both without the interpreter lock."""
    for fh, matrix in zip(files, matrices):
        text = matrix[:k].view(np.uint8).reshape(-1)
        fh.write(text[text != 0])


def _write_rows(files: list, tables: list) -> None:
    """Write the CSV rows of tables, lists of columns of one length, to the
    binary files, one table each.

    The calling thread formats every chunk (_table_chunks).  Where
    workers._worker_count() is 2 and there is more than one chunk, one
    helper thread writes them (_write_chunk) in order, each while the caller
    formats the next, and the two hand two buffer sets back and forth; else
    the caller writes each chunk itself, from one set.  The caller always
    hands the helper its stop item and returns only once the helper's run
    has returned, also when the caller raises.  After a write fails, the
    caller stops at its next chunk, and the first failure is raised here.
    """
    free = queue.SimpleQueue()
    if workers._worker_count() == 1 or len(tables[0][0]) <= _chunk_rows(tables):
        for matrices, k in _table_chunks(tables, free, 1):
            _write_chunk(files, matrices, k)
            free.put(matrices)
        return
    todo, failed = queue.SimpleQueue(), []

    def write():
        while (chunk := todo.get()) is not None:
            try:
                _write_chunk(files, *chunk)
            except BaseException as exc:  # raised in the calling thread below
                failed.append(exc)
            free.put(chunk[0])

    finished = on_helper(write)
    try:
        for chunk in _table_chunks(tables, free, 2):
            if failed:
                break
            todo.put(chunk)
    finally:
        todo.put(None)
        finished.wait()
    if failed:
        raise failed[0]


def write_tables(tables: list) -> None:
    """Write tables as CSV files in one pass over their rows.

    Each table is (path, header, columns), and every column of every table
    has one length.  A column with an integer dtype holds int64 values and
    is written as '%d' writes them, any other as float64 cells as '%.16e'
    writes them.  The files are written as bytes, so every line ends in
    '\\n' on every platform, and close only after the last write to them
    has returned, on whichever thread made it.
    """
    with ExitStack() as stack:
        files = [stack.enter_context(open(path, "wb")) for path, _, _ in tables]
        for fh, (_, header, _) in zip(files, tables):
            fh.write((",".join(header) + "\n").encode("ascii"))
        _write_rows(files, [columns for _, _, columns in tables])


def write_columns(path: Path, header: list[str], columns: list) -> None:
    """Write equal-length columns as CSV rows under a header line: the
    one-table case of write_tables."""
    write_tables([(path, header, columns)])


# bytes of text per block of read_columns: bounds the memory a read holds
# whatever the file length.  Two workers hand the interpreter lock back and
# forth between numpy's calls, which are short on short blocks: on a
# two-core host, 2^18-byte blocks read no faster than one worker, and a
# 2^22-row series took 0.46, 0.40 and 0.36 s at 2^19, 2^20 and 2^21 bytes
_BLOCK_BYTES = 1 << 20
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
# the shortest row of fotsim's files: one '%.16e' cell and its separator
_MIN_ROW = 23
# a workspace's words per row of a block: a cell's 24-byte window (3), the
# scratch of _parse_cells (10), its flag bytes (2) and the cells' start
# offsets (1), then one float64 per wanted column
_WORDS_PER_ROW = 16


class _Workspace:
    """One worker's memory for the blocks of read_columns.

    ``text`` holds a block and the zeros of _PAD after it; one uint64
    matrix holds, for each row of the block, the words that _block_columns
    and _parse_cells fill.  Made for _BLOCK_BYTES of text plus a last line
    of up to _BLOCK_BYTES more, and for _BLOCK_BYTES // _MIN_ROW rows, it
    holds 2 * _BLOCK_BYTES + 33 bytes plus (_WORDS_PER_ROW + columns) words
    per row.  Before a block's cells are read, the first 13 words of each
    row hold its two separator masks, one byte per byte of text each.
    Parsing a block makes two arrays besides: the offsets of its separators
    (8 bytes each) with their kinds and the kinds' check (1 byte each), and
    its cells' 24-byte windows.  For one column of a file of canonical cells
    that is about 8 bytes per byte of block.  A last line longer than
    _BLOCK_BYTES, or a block of more rows, grows the workspace; neither
    occurs in the files fotsim writes.
    """

    def __init__(self, columns: int):
        self.columns = columns
        self.text = bytearray(2 * _BLOCK_BYTES + 1 + len(_PAD))
        self.rows = 0
        self.fit(_BLOCK_BYTES // _MIN_ROW)

    def fit(self, rows: int) -> None:
        """Room for `rows` rows, and for the masks of the whole text."""
        rows = max(rows, -(-2 * len(self.text) // (13 * 8)))
        if rows <= self.rows:
            return
        self.rows = rows
        shape = (_WORDS_PER_ROW + self.columns, rows)
        words = np.empty(shape, dtype=np.uint64)
        self.digits = words[:3]
        self.scratch = words[3:13]
        self.masks = words[:13].reshape(-1).view(np.bool_)
        self.flags = words[13:15].reshape(-1).view(np.uint8).reshape(16, rows)
        self.start = words[15].view(np.int64)
        self.values = words[16:].view(np.float64)

    def grow_text(self) -> None:
        """Twice the room for text, keeping what it holds."""
        self.text = self.text + bytes(len(self.text))
        self.fit(self.rows)


def _are_digits(words, out, bad, t):
    """Whether all 8 bytes of each uint64 in every array of words are ASCII
    digits, into the bool array out: no byte lies below '0' or, raised by
    0x46, reaches 0x80 (Lemire).  bad and t are uint64 scratch."""
    np.add(words[0], _DIGIT_TOP, out=bad)
    bad |= np.subtract(words[0], _ZEROS8, out=t)
    for v in words[1:]:
        bad |= np.add(v, _DIGIT_TOP, out=t)
        bad |= np.subtract(v, _ZEROS8, out=t)
    bad &= _HIGH_BITS
    return np.equal(bad, 0, out=out)


def _eight_digits(v, t):
    """The number that the 8 ASCII digits in each uint64 of v spell, first
    (lowest) byte most significant, written over v: pairs, then groups of
    four, then all.  t is uint64 scratch."""
    v -= _ZEROS8
    np.right_shift(v, np.uint64(8), out=t)
    v *= np.uint64(10)
    v += t
    np.right_shift(v, np.uint64(16), out=t)
    t &= _SWAR_MASK
    t *= _SWAR_MUL2
    v &= _SWAR_MASK
    v *= _SWAR_MUL1
    v += t
    v >>= _U32
    return v


def _parse_cells(b, windows, start, end, ws, out):
    """The float64 values of the cells b[start:end] in the '%.16e' shape,
    written into out, and the indices of the cells that float() has to read
    instead.  Every temporary is a row of the workspace ws.

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

    Each array is named where it is made; the scratch row it takes is free
    again once its last use is past.
    """
    n = start.size
    u = ws.scratch[:, :n]
    flags = ws.flags[:, :n]
    neg, three, valid, ok, minus, up, open_ = flags[:7].view(np.bool_)
    c8, d8 = flags[7:9]
    # every index is in range; np.take writes straight into out only when
    # it need not raise
    np.equal(np.take(b, start, mode="clip", out=c8), _MINUS, out=neg)
    s = np.add(start, neg, out=u[0].view(np.int64))
    width = np.subtract(end, s, out=u[1].view(np.int64))
    np.equal(width, 23, out=three)
    np.equal(width, 22, out=valid)
    valid |= three
    # the 24 bytes after the '.' (16 digits, 'e', the exponent's sign and
    # its digits, and what follows) as 3 words, one row each.  Indexing
    # copies out only the n windows (np.take would first copy every
    # overlapping window); that copy is the one array made here per block
    hi8, lo8, tail = words = ws.digits[:, :n]
    np.copyto(words, windows[np.add(s, 2, out=width)].view("<u8").reshape(-1, 3).T)
    marker = np.bitwise_and(tail, np.uint64(0xFFFF), out=u[2])
    # the exponent's digits moved to the top bytes, '0' below: 8 digits too
    shift = u[3]
    np.copyto(shift, three)
    shift <<= np.uint64(3)
    exp = np.right_shift(tail, np.uint64(16), out=tail)
    exp <<= np.subtract(np.uint64(48), shift, out=u[4])
    exp |= np.right_shift(_ZEROS8, np.add(np.uint64(16), shift, out=u[4]), out=u[4])
    lead = np.take(b, s, mode="clip", out=c8)
    lead -= _ZERO_BYTE
    valid &= np.less(np.subtract(lead, np.uint8(1), out=d8), 9, out=ok)
    valid &= np.equal(np.take(b, np.add(s, 1, out=width), mode="clip", out=d8), _DOT, out=ok)
    np.equal(marker, _EXP_MINUS, out=minus)
    valid &= np.logical_or(np.equal(marker, _EXP_PLUS, out=ok), minus, out=ok)
    valid &= _are_digits((hi8, lo8, exp), ok, u[4], u[5])
    # D lies in [10**16, 10**17): 7 to 10 bits shift it up to bit 63
    d = np.multiply(lead, np.uint64(10 ** 16), out=u[3])
    d += np.multiply(_eight_digits(hi8, u[4]), np.uint64(10 ** 8), out=hi8)
    d += _eight_digits(lo8, u[4])
    lz = np.subtract(np.uint64(10), np.greater_equal(d, np.uint64(2 ** 54), out=ok), out=u[4])
    lz -= np.greater_equal(d, np.uint64(2 ** 55), out=ok)
    lz -= np.greater_equal(d, np.uint64(2 ** 56), out=ok)
    w = np.left_shift(d, lz, out=d)
    e = _eight_digits(exp, u[5]).view(np.int64)
    # row _ROW_OF_E0 + e where the exponent's sign is '-', else - e
    j = np.subtract(_ROW_OF_E0, e, out=u[5].view(np.int64))
    np.copyto(j, np.add(e, _ROW_OF_E0, out=e), where=minus)
    valid &= np.less(j.view(np.uint64), np.uint64(_SHIFT.size), out=ok)

    hi, lo = _mul64(np.right_shift(w, _U32, out=u[6]), np.bitwise_and(w, _M32, out=u[7]),
                    np.take(_POW5[0], j, mode="clip", out=u[8]),
                    np.take(_POW5[1], j, mode="clip", out=u[9]), (u[0], u[1], u[2]))
    # Z's top bit is bit 126 + top; the significand is the 53 bits from there
    top = np.right_shift(hi, np.uint64(63), out=u[0])
    mant = np.right_shift(hi, np.add(np.uint64(10), top, out=u[1]), out=u[1])
    half = np.left_shift(np.uint64(512), top, out=u[2])
    up, near = _round_up(w, j, hi, lo, half, (u[7], u[9], up, open_))
    valid[near] = False
    mant += up
    carry = np.right_shift(mant, np.uint64(53), out=u[7])
    mant >>= carry
    biased = np.add(top, carry, out=top)
    biased -= lz
    biased = biased.view(np.int64)
    biased += np.take(_BIASED_OF_ROW, j, mode="clip", out=u[9].view(np.int64))
    valid &= np.less(np.subtract(biased, 1, out=u[9].view(np.int64)).view(np.uint64),
                     np.uint64(2046), out=ok)
    bits = out.view(np.uint64)
    np.copyto(bits, neg)
    bits <<= np.uint64(63)
    bits |= np.left_shift(biased.view(np.uint64), np.uint64(52), out=top)
    bits |= np.bitwise_and(mant, _FRACTION, out=mant)
    return out, np.flatnonzero(np.logical_not(valid, out=ok))


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


def _block_columns(ws: _Workspace, size: int, ncols: int, want: list, path, line: int) -> list:
    """The wanted columns (index, name) of the complete rows in
    ws.text[:size], which starts on file line `line`, as views of ws."""
    b = np.frombuffer(ws.text, dtype=np.uint8, count=size + len(_PAD))
    # the 24 bytes from each offset, as one void item each: a gather of
    # these copies them out aligned
    windows = np.ndarray((b.size - _WINDOW + 1,), dtype=f"V{_WINDOW}", buffer=b, strides=(1,))
    is_sep, is_newline = ws.masks[:b.size], ws.masks[b.size:2 * b.size]
    np.equal(b, _COMMA_BYTE, out=is_sep)
    is_sep |= np.equal(b, _NEWLINE_BYTE, out=is_newline)
    sep = np.flatnonzero(is_sep)
    kinds = b[sep]
    if kinds.size % ncols or (kinds.reshape(-1, ncols) != _row_separators(ncols)).any():
        for k, row in enumerate(ws.text[:size].split(b"\n")[:-1]):
            if row.count(b",") != ncols - 1:
                raise ConfigError(f"{path}: line {line + k}: expected {ncols} fields, "
                                  f"found {row.count(b',') + 1}")
    sep = sep.reshape(-1, ncols)
    rows = sep.shape[0]
    ws.fit(rows)
    start = ws.start[:rows]
    out = []
    for values, (c, name) in zip(ws.values, want):
        end = sep[:, c]
        if c:
            np.add(sep[:, c - 1], 1, out=start)
        else:
            start[0] = 0
            np.add(sep[:-1, -1], 1, out=start[1:])
        values, redo = _parse_cells(b, windows, start, end, ws, values[:rows])
        for i in redo.tolist():
            cell = ws.text[start[i]:end[i]]
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

    The mirror of write_columns.  A cell in the '%.16e' shape is read by the
    kernel; any other number float() reads is read by float(), the
    reference.  A missing column, a row with another number of fields than
    the header and a cell that is not a number raise ConfigError naming the
    file, line and column.

    The file is read in blocks of _BLOCK_BYTES, each finished to the end of
    its last line by readline, and _parse_cells reads whole columns of a
    block.  workers.share hands the blocks out to the calling thread and,
    where the host allows and the file holds more than one block, one helper
    thread, each with its own _Workspace.  A block is read and its newlines
    counted under share's lock, which fixes its first row and file line
    before it is parsed; its columns are copied into the output under the
    lock too.  So the values do not depend on the worker count, and the
    error raised is that of the first failing block in the file, as one
    worker would raise it.  Each column is one array, grown at most rarely:
    its length is estimated from the first block to finish.
    """
    with open(path, "rb") as fh:
        header = _header(fh, path)
        for name in names:
            if name not in header:
                raise ConfigError(f"column {name!r} not in {path} (columns: {header})")
        want = [(header.index(name), name) for name in names]
        size = os.fstat(fh.fileno()).st_size
        blocks = -(-(size - fh.tell()) // _BLOCK_BYTES)
        columns = [np.empty(0) for _ in names]
        capacity, taken = 0, 0

        def take(ws):
            # a block of whole lines: up to _BLOCK_BYTES, then the rest of
            # its last line; at the end of the file, a newline added
            nonlocal taken
            n = fh.readinto(memoryview(ws.text)[:_BLOCK_BYTES])
            if not n:
                return None
            line = fh.readline()
            while len(ws.text) - len(_PAD) - 1 < n + len(line):
                ws.grow_text()
            text = ws.text
            text[n:n + len(line)] = line
            n += len(line)
            if text[n - 1] != _NEWLINE_BYTE:
                text[n] = _NEWLINE_BYTE
                n += 1
            text[n:n + len(_PAD)] = _PAD
            # the worker's masks are free until it parses this block
            rows = int(np.count_nonzero(np.equal(np.frombuffer(text, np.uint8, n), _NEWLINE_BYTE,
                                                 out=ws.masks[:n])))
            taken += rows
            return taken - rows, rows, n, fh.tell()

        def work(block, ws):
            first, _, nbytes, _ = block
            return _block_columns(ws, nbytes, len(header), want, path, first + 2)

        def done(block, parts):
            nonlocal capacity, columns
            first, rows, nbytes, pos = block
            if first + rows > capacity:
                # room for the rest of the file at this block's row density
                capacity = first + rows + int(rows * 1.125 * (size - pos) / nbytes) + 16
                columns = [_grown(col, capacity) for col in columns]
            for col, part in zip(columns, parts):
                col[first:first + rows] = part

        share(take, work, done, lambda: _Workspace(len(want)), blocks)
    for col in columns:
        col.resize(taken, refcheck=False)
    return columns


def _grown(col: np.ndarray, size: int) -> np.ndarray:
    """An array of `size` floats starting with col."""
    out = np.empty(size)
    out[:col.size] = col
    return out
