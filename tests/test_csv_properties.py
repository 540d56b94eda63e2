"""Byte test of the CSV writer over random tables.

The reference is the per-cell writer: every field through ``_fmt``, an absent
column as an empty field.  Every table is written twice, once with each block
formatted in numpy and once with format() per cell, the path that small
blocks take.
"""

import math
from dataclasses import fields
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, strategies as st  # noqa: E402

from collide1d import cli  # noqa: E402
from collide1d.cli import CSV_HEADER, ResultTable, _fmt  # noqa: E402

# the numpy digits cover 1e-250 < |x| < 1e250 and switch to exponent
# notation below 1e-4 and from 1e17; 3 * 2**-24 is an exact tie (rounds to even)
EDGE_VALUES = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300, 1e-250,
               math.nextafter(1e-250, 1), 1e250, math.nextafter(1e250, 0), 1.0, -3.0, 2.0**53,
               math.nextafter(2.0**53, 0), 2.0**53 + 2, 1e16, math.nextafter(1e16, 0), 1e17,
               math.nextafter(1e17, 0), 1e-4, math.nextafter(1e-4, 0), 1e-5,
               math.nextafter(1e-5, 0), 0.1, 1 / 3, 3 * 2.0**-24, float("inf"), float("nan"))
values = st.one_of(st.sampled_from(EDGE_VALUES), st.integers(-10**6, 10**6).map(float),
                   st.floats(allow_nan=False, allow_infinity=False))


def per_cell_csv(table: ResultTable) -> bytes:
    cols = [getattr(table, f.name) for f in fields(table)]
    lines = [CSV_HEADER] + [",".join(_fmt(None if c is None else c[i]) for c in cols)
                            for i in range(len(table.t))]
    return ("\n".join(lines) + "\n").encode()


@st.composite
def tables(draw):
    """t and any subset of the other columns; flux and io residual as lists that
    may hold None in their first or last row, the edge bins."""
    n = draw(st.integers(1, 30))
    column = st.lists(values, min_size=n, max_size=n)
    table = {"t": np.array(draw(column))}
    for name in ("p_e", "re_coh", "im_coh", "entropy_bits", "norm"):
        if draw(st.booleans()):
            table[name] = np.array(draw(column))
    for name in ("photon_flux", "io_residual"):
        if draw(st.booleans()):
            cells = draw(column)
            for edge in draw(st.sets(st.sampled_from((0, n - 1)))):
                cells[edge] = None
            table[name] = cells
    return ResultTable(**table)


@given(table=tables())
@example(table=ResultTable(t=np.array([0.0]), photon_flux=[None], io_residual=[None]))
@example(table=ResultTable(t=np.array([0.0, 5e-324, 1e300]), norm=np.array([1.0, -0.0, 2.0]),
                           photon_flux=[0.5, 1e-300, None], io_residual=[None, -0.0, 3.0]))
def test_writer_matches_per_cell_writer(table, tmp_path_factory):
    path = tmp_path_factory.getbasetemp() / "table.csv"
    for numpy_from in (0, cli._NUMPY_CELLS):
        with mock.patch.object(cli, "_NUMPY_CELLS", numpy_from):
            table.write_csv(str(path))
        assert path.read_bytes() == per_cell_csv(table), f"numpy from {numpy_from} cells"
