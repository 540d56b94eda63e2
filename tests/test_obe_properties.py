"""Property test for the OBE doubling scan over random drives.

The reference is the sequential RK4 loop the scan replaced (``loop_obe`` in
test_obe.py), which applies the RK4 step matrix once per substep.  The scan
sums the same affine recurrence in another order and takes the per-collision
map as a matrix power, so the two agree to rounding, not bit for bit.  The
scan's record is compared with the loop's (1 + s.sigma)/2.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, strategies as st  # noqa: E402

from collide1d import SimulationParams, obe_integrate  # noqa: E402
from collide1d.obe import rk_step_limit  # noqa: E402
from test_obe import bloch_rho, loop_obe  # noqa: E402

TOL = 1e-11


@st.composite
def obe_runs(draw):
    """(params, t_final, phi0): every rate*dt <= 0.008, 1 to 8 RK4 substeps per
    collision, up to 20,000 collisions and t_final anywhere on the grid."""
    rates = dict(gamma=draw(st.floats(0.05, 5.0)), omega_rabi=draw(st.floats(0.0, 40.0)),
                 delta=draw(st.floats(-10.0, 10.0)))
    limit = rk_step_limit(SimulationParams(dt=1e-9, n_steps=1, **rates))
    params = SimulationParams(dt=draw(st.floats(0.05, 8.0)) * limit,
                              n_steps=draw(st.integers(1, 20_000)), **rates)
    last = draw(st.integers(0, params.n_steps))
    return params, last * params.dt, draw(st.sampled_from("ge"))


def case(n_steps, last, dt_factor, phi0):
    """dt = dt_factor RK4 step limits, so ceil(dt_factor) substeps per collision."""
    rates = dict(gamma=1.0, omega_rabi=30.0, delta=-0.7)
    limit = rk_step_limit(SimulationParams(dt=1e-9, n_steps=1, **rates))
    params = SimulationParams(dt=dt_factor * limit, n_steps=n_steps, **rates)
    return params, last * params.dt, phi0


# the last two examples take 9 and 16 substeps, beyond the drawn 8
@given(run=obe_runs())
@example(run=case(1, 1, 0.5, "g"))
@example(run=case(1, 1, 4.5, "e"))
@example(run=case(20_000, 20_000, 1.0, "g"))
@example(run=case(20_000, 19_999, 2.5, "e"))
@example(run=case(20_000, 12_345, 6.5, "g"))
@example(run=case(3, 2, 8.5, "e"))
@example(run=case(2_000, 1_999, 16.0, "g"))
def test_scan_matches_rk4_loop(run):
    params, t_final, phi0 = run
    rho = obe_integrate(params, t_final, phi0).rho
    reference = bloch_rho(loop_obe(params, t_final, phi0))
    assert rho.shape == reference.shape
    # rho's entries are half the Bloch components: TOL on s is TOL / 2 on rho
    assert np.abs(rho - reference).max() <= TOL / 2
