"""Property test for the OBE doubling scan over random drives.

The reference is the sequential RK4 loop the scan replaced (``loop_obe`` in
test_obe.py), which applies the RK4 step matrix once per substep.  The scan
sums the same affine recurrence in another order and takes the per-collision
map as a matrix power, so the two agree to rounding, not bit for bit.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from collide1d import SimulationParams, obe_integrate  # noqa: E402
from collide1d.obe import rk_step_limit  # noqa: E402
from test_obe import loop_obe  # noqa: E402

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)
TOL = 1e-11


@st.composite
def obe_runs(draw):
    """(params, t_final, phi0, dt_rk): every rate*dt <= 0.008, 1 to 16 RK4 substeps
    per collision, up to 20,000 collisions and t_final anywhere on the grid."""
    rates = dict(gamma=draw(st.floats(0.05, 5.0)), omega_rabi=draw(st.floats(0.0, 40.0)),
                 delta=draw(st.floats(-10.0, 10.0)))
    limit = rk_step_limit(SimulationParams(dt=1e-9, n_steps=1, **rates))
    params = SimulationParams(dt=draw(st.floats(0.05, 8.0)) * limit,
                              n_steps=draw(st.integers(1, 20_000)), **rates)
    last = draw(st.integers(0, params.n_steps))
    dt_rk = draw(st.one_of(st.none(), st.floats(0.5, 1.0).map(lambda f: f * limit)))
    return params, last * params.dt, draw(st.sampled_from("ge")), dt_rk


def case(n_steps, last, dt_factor, phi0, dt_rk_factor):
    rates = dict(gamma=1.0, omega_rabi=30.0, delta=-0.7)
    limit = rk_step_limit(SimulationParams(dt=1e-9, n_steps=1, **rates))
    params = SimulationParams(dt=dt_factor * limit, n_steps=n_steps, **rates)
    return (params, last * params.dt, phi0,
            None if dt_rk_factor is None else dt_rk_factor * limit)


@PROPERTY
@given(run=obe_runs())
@example(run=case(1, 1, 0.5, "g", None))
@example(run=case(1, 1, 3.0, "e", 0.7))
@example(run=case(20_000, 20_000, 1.0, "g", None))
@example(run=case(20_000, 19_999, 2.5, "e", None))
@example(run=case(20_000, 12_345, 4.0, "g", 0.6))
def test_scan_matches_rk4_loop(run):
    params, t_final, phi0, dt_rk = run
    traj = obe_integrate(params, t_final, phi0, dt_rk=dt_rk)
    scan = np.stack([traj.sx, traj.sy, traj.sz], axis=1)
    reference = loop_obe(params, t_final, phi0, dt_rk)
    assert scan.shape == reference.shape
    assert np.abs(scan - reference).max() <= TOL
