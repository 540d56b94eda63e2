"""Byte test of the CSV writer over random tables.

The reference is the per-cell writer that ``ResultTable.write_csv`` replaced:
every field through ``_fmt``, an absent column as an empty field.
"""

from dataclasses import fields

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, strategies as st  # noqa: E402

from collide1d.cli import CSV_HEADER, ResultTable, _fmt  # noqa: E402

EDGE_VALUES = (0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, 1.0, -3.0, 2.0**53, 1e16,
               0.1, 1 / 3, float("inf"), float("nan"))
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
def test_template_writer_matches_per_cell_writer(table, tmp_path_factory):
    path = tmp_path_factory.getbasetemp() / "table.csv"
    table.write_csv(str(path))
    assert path.read_bytes() == per_cell_csv(table)
