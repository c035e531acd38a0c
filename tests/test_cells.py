"""The CSV cell kernels: the writer against Python's '%.16e' and '%d', byte
for byte, and the reader against float() and np.loadtxt, bit for bit."""

import io
import sys
import tempfile
import threading
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fotsim import cells, workers
from fotsim.errors import ConfigError


def reference_rows(columns):
    # the cell format as Python writes it, one value at a time
    rows = []
    for values in zip(*(col.tolist() for col in columns)):
        rows.append(",".join("%d" % v if isinstance(v, int) else "%.16e" % v
                             for v in values))
    return "".join(row + "\n" for row in rows)


def check_text(got, want, what=""):
    # on a difference, name the first line that differs: pytest's own diff of
    # two long texts takes minutes
    if got != want:
        g, w = got.split("\n"), want.split("\n")
        i = next((i for i, (a, b) in enumerate(zip(g, w)) if a != b), min(len(g), len(w)))
        pytest.fail(f"{what}: line {i + 1} differs, {g[i:i + 1]} != {w[i:i + 1]} "
                    f"({len(g)} and {len(w)} lines)")


def written(tmp_path, header, columns):
    path = tmp_path / "cells.csv"
    cells.write_tables([(path, header, columns)])
    data = path.read_bytes()
    assert b"\r" not in data
    return data.decode("ascii")


def chunk_lines(columns):
    """The lines the writer makes of one table's columns, and a last ''."""
    out = io.BytesIO()
    cells._write_rows([out], [columns])
    return out.getvalue().decode("ascii").split("\n")


def kernel_cases(rng):
    """About 1.1M float64 values: random bit patterns over the whole exponent
    range, powers of ten and their neighbours, integers, exact decimal ties,
    values like a run's columns, and the special values."""
    powers = np.array([10.0 ** j for j in range(-323, 309)])
    # x = m / 2**j with m odd has the decimal digits of m * 5**j; with 18 of
    # them x lies exactly halfway between two 17-digit decimals
    ties = []
    for j in range(2, 24):
        lo, hi = -(-10 ** 17 // 5 ** j), min(10 ** 18 // 5 ** j, 2 ** 53)
        if lo + 1 < hi:
            m = rng.integers(lo // 2, (hi - 1) // 2, 3000) * 2 + 1
            ties.append(m[m >= lo] / 2.0 ** j)
    ties = np.concatenate(ties)
    return {
        "random bits": rng.integers(0, 2 ** 64, 600_000, dtype=np.uint64).view(np.float64),
        "powers of ten": np.concatenate([
            powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf), -powers]),
        "integers": np.concatenate([
            rng.integers(-2 ** 53, 2 ** 53, 100_000).astype(float),
            np.arange(-50_000, 50_000, dtype=float)]),
        "ties": np.concatenate([ties, -ties]),
        "residuals": 1e-9 * rng.standard_normal(100_000),
        "round times": np.arange(50_000) + 0.01 * rng.random(50_000),
        "intervals": 1e-3 + 1e-9 * rng.standard_normal(50_000),
        "specials": np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324,
                              -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
                              1.7976931348623157e308, -1e-100, 1e100, 0.5, 1.5, 2.5]),
    }


def test_kernel_matches_percent_format_on_a_million_values():
    rng = np.random.default_rng(20260418)
    total = 0
    for name, x in kernel_cases(rng).items():
        for start in range(0, x.size, cells._CHUNK_ROWS):
            part = x[start:start + cells._CHUNK_ROWS].tolist()
            got = chunk_lines([np.array(part)])
            want = ["%.16e" % v for v in part] + [""]
            if got != want:
                bad = [(v, g, w) for v, g, w in zip(part, got, want) if g != w]
                pytest.fail(f"{name}: {len(bad)} cells differ, first {bad[:3]}")
        total += x.size
    assert total >= 1_000_000


def test_million_values_reach_both_edges_of_the_rounding_window(monkeypatch):
    # the high half's fraction decides a cell unless it lies at one half or
    # one unit below; the test above formats cells at both and at two units
    # below, the first the high half decides alone
    offsets = []
    round_up = cells._round_up

    def spy(m, j, hi, lo, half, t):
        frac = hi & ((half << np.uint64(1)) - np.uint64(1))
        offsets.append(frac.astype(np.int64) - half.astype(np.int64))
        return round_up(m, j, hi, lo, half, t)

    monkeypatch.setattr(cells, "_round_up", spy)
    for x in kernel_cases(np.random.default_rng(20260418)).values():
        cells._write_rows([io.BytesIO()], [[x]])
    offsets = np.concatenate(offsets)
    counts = {k: int(np.count_nonzero(offsets == k)) for k in (-2, -1, 0)}
    assert all(counts.values()), counts


def test_fallback_formats_only_what_the_kernel_leaves_open(monkeypatch):
    # an upper-case reference marks the cells it formatted: 'E', 'NAN', 'INF'
    monkeypatch.setattr(cells, "_FLOAT_CELL", "%.16E")

    def by_reference(x):
        return [cell != cell.lower() for cell in chunk_lines([x])[:-1]]

    cases = kernel_cases(np.random.default_rng(7))
    for name in ("residuals", "round times", "intervals", "integers"):
        assert not any(by_reference(cases[name][:cells._CHUNK_ROWS])), name
    # every exact tie lies in the window the kernel leaves open
    assert all(by_reference(cases["ties"][:cells._CHUNK_ROWS]))
    # so do nan, inf and subnormals; zeros and normals are the kernel's
    x = cases["specials"]
    fallback = ~np.isfinite(x) | ((x != 0) & (np.abs(x) < np.finfo(float).tiny))
    assert by_reference(x) == fallback.tolist()


def test_mixed_columns_with_fallback_cells_inside_chunks(tmp_path):
    rng = np.random.default_rng(3)
    rows = cells._chunk_rows([[None] * 5])
    n = 2 * rows + 77
    index = np.arange(n)
    signed = rng.integers(-10 ** 6, 10 ** 6, n)
    signed[:4] = [0, -1, np.iinfo(np.int64).max, np.iinfo(np.int64).min]
    x = 1e-9 * rng.standard_normal(n)
    y = rng.standard_normal(n) * 10.0 ** rng.integers(-320, 308, n)
    special = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -4.9e-310, 2.5, 0.125,
               1e-300, -1e300, 17.5]
    for start in (5, rows - 3, n - len(special)):
        y[start:start + len(special)] = special
    columns = [index, x, signed, y, np.full(n, 50.0)]
    got = written(tmp_path, ["index", "x", "signed", "y", "km"], columns)
    check_text(got, "index,x,signed,y,km\n" + reference_rows(columns))


def test_empty_columns_write_only_the_header(tmp_path):
    assert written(tmp_path, ["a", "b"], [np.arange(0), np.zeros(0)]) == "a,b\n"


# rows per chunk of the three tables below, ten columns in all
ONE_PASS_ROWS = cells._chunk_rows([[None] * 10])


@pytest.mark.parametrize("count", [1, 2])
@pytest.mark.parametrize("n", [0, 1, ONE_PASS_ROWS, 2 * ONE_PASS_ROWS + 1])
def test_tables_written_in_one_pass_match_the_reference(tmp_path, monkeypatch, pin_workers,
                                                        n, count):
    # three tables over one length: a float column shared by all three, an
    # integer column shared by two, constant float and integer columns.
    # The caller formats every chunk, and writes it itself on one worker or
    # hands it to the helper on two: the same bytes and kernel calls
    pin_workers(count)
    rng = np.random.default_rng(n)
    index = np.arange(n)
    shared = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    shared[:3] = [0.0, -0.0, np.nan][:n]
    position = np.broadcast_to(np.float64(25.0), n)
    tables = {
        "a.csv": (["i", "x", "y"], [index, shared, 1e-9 * rng.standard_normal(n)]),
        "b.csv": (["x", "km", "signed", "i"],
                  [shared, position, rng.integers(-10 ** 12, 10 ** 12, n), index]),
        "c.csv": (["k", "x", "km"], [np.broadcast_to(np.int64(-7), n), shared, position]),
    }
    calls = []

    def spy(kernel):
        def call(values, out, ws):
            calls.append((kernel.__name__, values.tolist()))
            return kernel(values, out, ws)
        return call

    for name in ("_float_words", "_int_words"):
        monkeypatch.setattr(cells, name, spy(getattr(cells, name)))
    cells.write_tables([(tmp_path / name, *table) for name, table in tables.items()])
    for name, (header, columns) in tables.items():
        data = (tmp_path / name).read_bytes()
        assert b"\r" not in data
        check_text(data.decode("ascii"), ",".join(header) + "\n" + reference_rows(columns), name)
    # the two constant columns formatted once, in one call per kind, and
    # each chunk's cells of the four other distinct columns once, in one
    # call per kind: x and y stacked, then i and signed
    _, x, y = tables["a.csv"][1]
    signed = tables["b.csv"][1][2]
    want = [("_float_words", [25.0]), ("_int_words", [-7])] * (n > 0)
    for start in range(0, n, ONE_PASS_ROWS):
        part = slice(start, start + ONE_PASS_ROWS)
        want += [("_float_words", x[part].tolist() + y[part].tolist()),
                 ("_int_words", index[part].tolist() + signed[part].tolist())]
    assert str(calls) == str(want)


def test_concurrent_writers_switching_often_write_the_reference(tmp_path, pin_workers,
                                                                idle_helpers):
    # more writes than cores, switching often: each caller and its helper
    # hand two buffer sets back and forth, and a set refilled before its
    # chunk is written would show in the bytes
    pin_workers(2)
    rng = np.random.default_rng(11)
    n = 3 * cells._chunk_rows([[None] * 3]) + 5
    columns = [np.arange(n), rng.standard_normal(n), 1e-9 * rng.standard_normal(n)]
    errors = []

    def write(k):
        try:
            cells.write_tables([(tmp_path / f"{k}.csv", ["a", "b", "c"], columns)])
        except BaseException as exc:
            errors.append(exc)

    writers = [threading.Thread(target=write, args=(k,)) for k in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in writers:
            thread.start()
        for thread in writers:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in writers) and not errors
    want = "a,b,c\n" + reference_rows(columns)
    for k in range(6):
        check_text((tmp_path / f"{k}.csv").read_text(), want, f"{k}.csv")


SPECIALS = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -4.9e-310, 2.2250738585072014e-308,
            1.7976931348623157e308, 1e-300, -1e300, 0.125, 2.5, 17.5]
INT_EDGES = [0, -1, 7, np.iinfo(np.int64).min, np.iinfo(np.int64).max]
COLUMN_KINDS = ["float", "int", "special", "constant float", "constant int"]


def pool_column(kind, n, rng):
    """A column of n rows: random floats over the whole exponent range,
    int64s, a mix of the special values, or a constant (stride 0) one."""
    if kind == "float":
        return rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    if kind == "int":
        v = rng.integers(-10 ** 18, 10 ** 18, n)
        v[:len(INT_EDGES)] = INT_EDGES[:n]
        return v
    if kind == "special":
        return rng.choice(np.array(SPECIALS + [1e-9, -3.75]), n)
    if kind == "constant float":
        return np.broadcast_to(np.float64(rng.choice(SPECIALS)), n)
    return np.broadcast_to(np.int64(rng.choice(INT_EDGES)), n)


@st.composite
def table_sets(draw):
    """1-4 tables over one pool of columns, which the tables (and the
    columns of one table) may share, and a length of 0 or 1 rows or about
    one to three chunks of the tables."""
    kinds = draw(st.lists(st.sampled_from(COLUMN_KINDS), min_size=1, max_size=6))
    tables = draw(st.lists(st.lists(st.integers(0, len(kinds) - 1), min_size=1, max_size=5),
                           min_size=1, max_size=4))
    rows = cells._chunk_rows(tables)
    n = draw(st.sampled_from([0, 1, rows - 1, rows, rows + 1, 2 * rows + 1, 3 * rows - 1]))
    return kinds, tables, n, draw(st.integers(0, 2 ** 32 - 1))


@settings(max_examples=30, deadline=None)
@given(table_sets())
def test_batched_tables_match_the_reference(case):
    kinds, picks, n, seed = case
    rng = np.random.default_rng(seed)
    pool = [pool_column(kind, n, rng) for kind in kinds]
    tables = [[pool[i] for i in table] for table in picks]
    with tempfile.TemporaryDirectory() as tmp:
        paths = [Path(tmp) / f"t{t}.csv" for t in range(len(tables))]
        cells.write_tables([(path, [f"c{i}" for i in table], columns)
                            for path, table, columns in zip(paths, picks, tables)])
        for path, table, columns in zip(paths, picks, tables):
            data = path.read_bytes()
            assert b"\r" not in data
            header = ",".join(f"c{i}" for i in table) + "\n"
            check_text(data.decode("ascii"), header + reference_rows(columns), path.name)


# the read side: read_columns against float(), the reference, bit for bit

def read_back(path, names):
    return [col.view(np.uint64) for col in cells.read_columns(path, names)]


def test_read_returns_what_was_written_bit_for_bit(tmp_path):
    # the writer's value families in one file of about 26 MB: every block
    # edge falls inside some row
    rng = np.random.default_rng(20261018)
    x = np.concatenate(list(kernel_cases(rng).values()))
    index = np.arange(x.size)
    path = tmp_path / "cells.csv"
    cells.write_tables([(path, ["index", "x"], [index, x])])
    assert path.stat().st_size > 20 * cells._BLOCK_BYTES
    got_index, got = cells.read_columns(path, ["index", "x"])
    assert np.array_equal(got_index, index)
    finite = ~np.isnan(x)
    assert np.array_equal(got.view(np.uint64)[finite], x.view(np.uint64)[finite])
    assert np.isnan(got[~finite]).all()


@pytest.mark.parametrize("block", [1, 7, 64, 1000])
def test_rows_split_across_small_blocks(tmp_path, monkeypatch, block):
    # blocks shorter than a row: readline ends each block with the rest of
    # its row, which grows the text on the first block
    rng = np.random.default_rng(block)
    x = rng.standard_normal(300) * 10.0 ** rng.integers(-300, 300, 300)
    x[:5] = [0.0, -0.0, 5e-324, np.inf, 2.5]
    path = tmp_path / "cells.csv"
    cells.write_tables([(path, ["i", "x", "y"], [np.arange(300), x, -x])])
    monkeypatch.setattr(cells, "_BLOCK_BYTES", block)
    y, got = read_back(path, ["y", "x"])
    assert np.array_equal(got, x.view(np.uint64))
    assert np.array_equal(y, (-x).view(np.uint64))


def canonical_cells(rng, n, exponents):
    """'%.16e'-shaped cells of random 17-digit integers: not round-trip
    text of any float64, so they land anywhere between two, ties included."""
    digits = rng.integers(10 ** 16, 10 ** 17, n, dtype=np.int64)
    signs = rng.choice(["", "-"], n)
    return [f"{s}{str(d)[0]}.{str(d)[1:]}e{e:+03d}"
            for s, d, e in zip(signs, digits.tolist(), exponents.tolist())]


def test_arbitrary_canonical_cells_match_float(tmp_path):
    rng = np.random.default_rng(11)
    texts = (canonical_cells(rng, 200_000, rng.integers(-330, 330, 200_000))
             # integers above 2**53: many lie exactly halfway between two floats
             + canonical_cells(rng, 50_000, rng.integers(15, 23, 50_000))
             + ["9.0071992547409930e+15", "9.0071992547409950e+15", "1.7976931348623158e+308",
                "1.7976931348623159e+308", "2.2250738585072011e-308", "2.2250738585072014e-308",
                "4.9406564584124654e-324", "2.4703282292062328e-324", "1.0000000000000000e-400",
                "9.9999999999999999e+999", "0.0000000000000000e+00", "-0.0000000000000000e+00",
                "1.0000000000000000e+099", "1.0000000000000000e-099"])
    path = tmp_path / "cells.csv"
    path.write_text("x\n" + "".join(t + "\n" for t in texts))
    (got,) = read_back(path, ["x"])
    want = np.array([float(t) for t in texts]).view(np.uint64)
    bad = np.flatnonzero(got != want)
    assert not bad.size, [texts[i] for i in bad[:5]]


NON_CANONICAL = ["1e-9", "0.5", "-0", " 1.0 ", "+1.5E+03", "inf", "-inf", "nan", "1",
                 "12345678901234567890", "1.5e+03", "1.0000000000000000E+00",
                 "+1.0000000000000000e+00", "1.00000000000000000e+00", "1.0000000000000000e+0",
                 "1.0000000000000000e+0000", "\t2\t", "0.0000000000000001e+00"]


@pytest.mark.parametrize("newline,final", [("\n", "\n"), ("\r\n", "\r\n"), ("\n", "")])
def test_non_canonical_cells_read_as_loadtxt(tmp_path, newline, final):
    rows = [f"{i},{cell},{NON_CANONICAL[-1 - i]}" for i, cell in enumerate(NON_CANONICAL)]
    path = tmp_path / "cells.csv"
    path.write_bytes(("a,b,c" + newline + newline.join(rows) + final).encode("ascii"))
    want = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    got = cells.read_columns(path, ["a", "b", "c"])
    for j, col in enumerate(got):
        assert np.array_equal(col, want[:, j], equal_nan=True)
        assert np.array_equal(np.signbit(col), np.signbit(want[:, j]))


@pytest.mark.parametrize("count", [1, 2])
def test_fallback_reads_only_what_the_kernel_leaves_open(tmp_path, monkeypatch, pin_workers,
                                                         count):
    # one worker reads the open cells in file order; on two, the calls of
    # two blocks interleave, so only the cells read are compared
    pin_workers(count)
    same = (lambda a, b: a == b) if count == 1 else (lambda a, b: Counter(a) == Counter(b))
    seen = []
    reference = cells._float_cell
    monkeypatch.setattr(cells, "_float_cell", lambda cell: seen.append(cell) or reference(cell))

    def by_reference(x):
        seen.clear()
        path = tmp_path / "cells.csv"
        cells.write_tables([(path, ["x"], [x])])
        cells.read_columns(path, ["x"])
        return [cell.decode() for cell in seen]

    def open_cells(x):
        # zeros, subnormals, nan and inf
        return ["%.16e" % v for v in x.tolist()
                if not np.isfinite(v) or abs(v) < np.finfo(float).tiny]

    cases = kernel_cases(np.random.default_rng(7))
    for name in ("residuals", "round times", "intervals"):
        assert not open_cells(cases[name])
    for name, x in cases.items():
        assert same(by_reference(x[:50_000]), open_cells(x[:50_000])), name
    # so are 2**53 + 1, 2**54 + 2 and -(2**55 + 4), halfway between two floats
    texts = ["9.0071992547409930e+15", "1.8014398509481986e+16", "-3.6028797018963972e+16"]
    path = tmp_path / "ties.csv"
    path.write_text("x\n" + "".join(t + "\n" for t in texts))
    seen.clear()
    (got,) = cells.read_columns(path, ["x"])
    assert seen == [t.encode() for t in texts]
    assert got.tolist() == [2.0 ** 53, 2.0 ** 54, -2.0 ** 55]


@pytest.mark.parametrize("text,message", [
    ("a,b\n1,2\n3,abc\n", "line 3, column 'b': cannot read 'abc'"),
    ("a,b\n1,2\n3,\n", "line 3, column 'b': cannot read ''"),
    ("a,b\n1,2\n3,1_0\n", "line 3, column 'b': cannot read '1_0'"),
    ("a,b\n1,2\n3\n", "line 3: expected 2 fields, found 1"),
    ("a,b\n1,2,4\n3,4\n", "line 2: expected 2 fields, found 3"),
    ("a,b\n1,2\n\n3,4\n", "line 3: expected 2 fields, found 1"),
    ("a,c\n1,2\n", "column 'b' not in"),
    ("", "is empty"),
])
def test_malformed_files_raise_config_error(tmp_path, text, message):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ConfigError, match=message) as info:
        cells.read_columns(path, ["b"])
    assert str(path) in str(info.value)


def test_error_line_numbers_count_across_blocks(tmp_path):
    n = 150_000
    path = tmp_path / "x.csv"
    cells.write_tables([(path, ["i", "x"], [np.arange(n), np.linspace(-1.0, 1.0, n)])])
    lines = path.read_text().split("\n")
    lines[110_001] = lines[110_001].replace("e", "q")
    path.write_text("\n".join(lines))
    assert path.stat().st_size > 3 * cells._BLOCK_BYTES
    with pytest.raises(ConfigError, match=r"line 110002, column 'x'"):
        cells.read_columns(path, ["x"])
    # a column that is not read is not parsed, but every row is counted
    lines[130_001] = "1,2,3"
    path.write_text("\n".join(lines))
    with pytest.raises(ConfigError, match=r"line 130002: expected 2 fields, found 3"):
        cells.read_columns(path, ["i"])


# the blocks of one read on one worker and on two

def mixed_file(path, rows, final=True):
    """A three-column file of random float64 bit patterns, kernel and
    fallback cells alike, ending in a newline or not."""
    x = np.random.default_rng(rows).integers(0, 2 ** 64, rows, dtype=np.uint64).view(np.float64)
    x[:5] = [0.0, -0.0, 5e-324, np.inf, 2.5]
    cells.write_tables([(path, ["i", "x", "y"], [np.arange(rows), x, -x])])
    if not final:
        path.write_bytes(path.read_bytes()[:-1])


@pytest.fixture
def helper_takes_a_block(monkeypatch):
    """With two workers, the calling thread waits in its first block until
    the helper thread has started one, so both parse some.  Yields the set
    of threads that parsed a block."""
    block_columns = cells._block_columns
    caller, helper_started = threading.current_thread(), threading.Event()
    threads = set()

    def gated(*args):
        threads.add(threading.current_thread())
        if threading.current_thread() is not caller:
            helper_started.set()
        elif workers._worker_count() > 1:
            helper_started.wait(5.0)
        return block_columns(*args)

    monkeypatch.setattr(cells, "_block_columns", gated)
    yield threads


@pytest.mark.parametrize("final", [True, False])
@pytest.mark.parametrize("block, long_row", [(1, False), (7, False), (64, False), (4096, False),
                                             (4096, True)])
def test_one_and_two_workers_read_equal_bits(tmp_path, monkeypatch, pin_workers,
                                             helper_takes_a_block, block, long_row, final):
    # blocks of 1, 7 and 64 bytes are shorter than a row: readline ends each
    # with the rest of its row.  A row longer than two blocks among short
    # ones grows the text after a full block
    path = tmp_path / "cells.csv"
    mixed_file(path, 3000 if block == 4096 else 300, final)
    if long_row:
        rows = path.read_bytes().split(b"\n")
        rows[1501] = b"1500." + b"0" * 2 * block + rows[1501][4:]
        path.write_bytes(b"\n".join(rows))
    monkeypatch.setattr(cells, "_BLOCK_BYTES", block)
    pin_workers(1)
    one = read_back(path, ["y", "i", "x"])
    assert len(helper_takes_a_block) == 1
    pin_workers(2)
    two = read_back(path, ["y", "i", "x"])
    assert len(helper_takes_a_block) == 2
    for a, b in zip(one, two):
        assert np.array_equal(a, b)
    assert np.array_equal(one[1].view(np.float64), np.arange(one[1].size))


def test_many_blocks_on_more_threads_than_cores(tmp_path, monkeypatch, pin_workers):
    # 4 callers with 2 workers each read 64-byte blocks, switching threads
    # every microsecond: a block lost, taken twice or stored at another row
    # would change some column
    path = tmp_path / "cells.csv"
    mixed_file(path, 300)
    monkeypatch.setattr(cells, "_BLOCK_BYTES", 64)
    pin_workers(2)
    want = read_back(path, ["x", "y"])
    got = [None] * 4
    start = threading.Barrier(len(got), timeout=60.0)

    def call(i):
        start.wait()
        got[i] = [read_back(path, ["x", "y"]) for _ in range(2)]

    callers = [threading.Thread(target=call, args=(i,)) for i in range(len(got))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=60.0)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    for reads in got:
        for columns in reads:
            assert all(np.array_equal(a, b) for a, b in zip(columns, want))


@pytest.mark.parametrize("count", [1, 2])
def test_earliest_bad_block_is_the_error_raised(tmp_path, monkeypatch, pin_workers, count):
    # two bad cells, in an early and a late block.  On two workers the
    # early block waits to fail until the late one has failed, and the
    # error raised is still the early one's, as on one worker
    path = tmp_path / "cells.csv"
    mixed_file(path, 3000)
    lines = path.read_text().split("\n")
    for k, junk in ((150, "junk"), (2000, "1_0")):
        i, _, y = lines[k].split(",")
        lines[k] = f"{i},{junk},{y}"
    path.write_text("\n".join(lines))
    monkeypatch.setattr(cells, "_BLOCK_BYTES", 4096)
    pin_workers(count)
    block_columns = cells._block_columns
    late_failed = threading.Event()

    def gated(*args):
        try:
            return block_columns(*args)
        except ConfigError as exc:
            if "line 2001," in str(exc):
                late_failed.set()
            elif count == 2:
                assert late_failed.wait(5.0)
            raise

    monkeypatch.setattr(cells, "_block_columns", gated)
    with pytest.raises(ConfigError) as info:
        cells.read_columns(path, ["x"])
    assert str(info.value) == f"{path}: line 151, column 'x': cannot read 'junk' as a number"
    assert late_failed.is_set() == (count == 2)


def test_helper_exception_reaches_the_caller(tmp_path, monkeypatch, pin_workers, idle_helpers):
    # the caller waits in its first block until the helper has failed in
    # its own and ended its run, then finishes that block and takes no other
    path = tmp_path / "cells.csv"
    mixed_file(path, 3000)
    monkeypatch.setattr(cells, "_BLOCK_BYTES", 4096)
    pin_workers(2)
    block_columns = cells._block_columns
    caller, helper_failed = threading.current_thread(), threading.Event()
    caller_blocks = []

    def failing(*args):
        if threading.current_thread() is not caller:
            helper_failed.set()
            raise RuntimeError("helper failed")
        assert helper_failed.wait(5.0)
        idle_helpers.put(idle_helpers.get(timeout=5.0))
        caller_blocks.append(args[-1])
        return block_columns(*args)

    monkeypatch.setattr(cells, "_block_columns", failing)
    with pytest.raises(RuntimeError, match="helper failed"):
        cells.read_columns(path, ["x"])
    assert len(caller_blocks) <= 1


def test_one_block_starts_no_thread(tmp_path, monkeypatch, pin_workers, idle_helpers):
    started = []

    class Recorded(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", Recorded)
    pin_workers(2)
    path = tmp_path / "cells.csv"
    mixed_file(path, 19)
    assert path.stat().st_size < cells._BLOCK_BYTES
    cells.read_columns(path, ["x"])
    assert started == []
    monkeypatch.setattr(cells, "_BLOCK_BYTES", 256)
    cells.read_columns(path, ["x"])
    assert len(started) == 1
