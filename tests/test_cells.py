"""The CSV cell kernel against Python's '%.16e' and '%d', byte for byte."""

import numpy as np
import pytest

from fotsim import cells


def reference_rows(columns):
    # the cell format as Python writes it, one value at a time
    rows = []
    for values in zip(*(col.tolist() for col in columns)):
        rows.append(",".join("%d" % v if isinstance(v, int) else "%.16e" % v
                             for v in values))
    return "".join(row + "\n" for row in rows)


def written(tmp_path, header, columns):
    path = tmp_path / "cells.csv"
    cells.write_columns(path, header, columns)
    with open(path) as fh:
        return fh.read()


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
            got = cells._chunk_text([np.array(part)]).split("\n")
            want = ["%.16e" % v for v in part] + [""]
            if got != want:
                bad = [(v, g, w) for v, g, w in zip(part, got, want) if g != w]
                pytest.fail(f"{name}: {len(bad)} cells differ, first {bad[:3]}")
        total += x.size
    assert total >= 1_000_000


def test_fallback_formats_only_what_the_kernel_leaves_open(monkeypatch):
    # an upper-case reference marks the cells it formatted: 'E', 'NAN', 'INF'
    monkeypatch.setattr(cells, "_FLOAT_CELL", "%.16E")

    def by_reference(x):
        return [cell != cell.lower() for cell in cells._chunk_text([x]).split("\n")[:-1]]

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
    n = 2 * cells._CHUNK_ROWS + 77
    index = np.arange(n)
    signed = rng.integers(-10 ** 6, 10 ** 6, n)
    signed[:4] = [0, -1, np.iinfo(np.int64).max, np.iinfo(np.int64).min]
    x = 1e-9 * rng.standard_normal(n)
    y = rng.standard_normal(n) * 10.0 ** rng.integers(-320, 308, n)
    special = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -4.9e-310, 2.5, 0.125,
               1e-300, -1e300, 17.5]
    for start in (5, cells._CHUNK_ROWS - 3, n - len(special)):
        y[start:start + len(special)] = special
    columns = [index, x, signed, y, np.full(n, 50.0)]
    got = written(tmp_path, ["index", "x", "signed", "y", "km"], columns)
    assert got == "index,x,signed,y,km\n" + reference_rows(columns)


def test_empty_columns_write_only_the_header(tmp_path):
    assert written(tmp_path, ["a", "b"], [np.arange(0), np.zeros(0)]) == "a,b\n"
