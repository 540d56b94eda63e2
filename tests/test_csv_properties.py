"""Byte test of the CSV writer over random tables.

The reference is the per-cell writer: every field through ``_fmt``, an absent
column, the flux's last row and the io residual's first as empty fields.
"""

import math
from dataclasses import fields

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, strategies as st  # noqa: E402

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
    lines = [CSV_HEADER]
    for row in range(len(table.t)):
        cells = []
        for f in fields(table):
            column, at = getattr(table, f.name), row - (f.name == "io_residual")  # from row 1
            cells.append("" if column is None or not 0 <= at < len(column) else _fmt(column[at]))
        lines.append(",".join(cells))
    return ("\n".join(lines) + "\n").encode()


@st.composite
def tables(draw):
    """t and any subset of the other columns; flux and io residual one row short,
    the flux for rows 0..n-2 and the io residual for rows 1..n-1."""
    n = draw(st.integers(1, 30))

    def column(rows):
        return np.array(draw(st.lists(values, min_size=rows, max_size=rows)), dtype=float)
    table = {"t": column(n)}
    for name in ("p_e", "re_coh", "im_coh", "entropy_bits", "norm"):
        if draw(st.booleans()):
            table[name] = column(n)
    for name in ("photon_flux", "io_residual"):
        if draw(st.booleans()):
            table[name] = column(n - 1)
    return ResultTable(**table)


@given(table=tables())
@example(table=ResultTable(t=np.array([0.0]), photon_flux=np.array([]), io_residual=np.array([])))
@example(table=ResultTable(t=np.array([0.0, 5e-324, 1e300]), norm=np.array([1.0, -0.0, 2.0]),
                           photon_flux=np.array([0.5, 1e-300]), io_residual=np.array([-0.0, 3.0])))
def test_writer_matches_per_cell_writer(table, tmp_path_factory):
    path = tmp_path_factory.getbasetemp() / "table.csv"
    table.write_csv(str(path))
    assert path.read_bytes() == per_cell_csv(table)
