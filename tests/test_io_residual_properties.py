"""Property test for the input-output residual over random dense runs.

The reference is the per-step evaluation that ``io_residual`` replaced: it
contracts sigma_- and a_{n-1} with the full joint state before and after each
collision, states built one collision at a time by ``np.tensordot``.
``io_residual`` instead reads <a_{n-1}> before and after collision n, and
rho_eg before it, from the arrays ``run_dense`` records on its light cone
(only collision n touches mode n - 1).
"""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from collide1d import (DenseJointState, SimulationParams, io_residual,  # noqa: E402
                       run_dense)
from collide1d.engine import DISPLACED, LAB, SIGMA_MINUS, annihilation  # noqa: E402
from test_engine_dense import expectation, full_contraction  # noqa: E402
from test_materializer_properties import drives  # noqa: E402


def contracted_io_residual(params, frame, states):
    omega = params.omega_q if frame == LAB else params.omega_p
    root_dt, a = math.sqrt(params.dt), annihilation(params.fock_dim)
    out = []
    for step in range(1, params.n_steps + 1):
        after, before = states[step], states[step - 1]
        a_out = expectation(after, a, step) / root_dt
        a_in = expectation(before, a, step) / root_dt
        sm = (expectation(before, SIGMA_MINUS, 0)
              * np.exp(-1j * omega * (step - 1) * params.dt))
        out.append(abs(a_out - a_in + math.sqrt(params.gamma) * sm))
    return np.array(out)


@given(drive=drives(), frame=st.sampled_from((LAB, DISPLACED)),
       fock_dim=st.integers(2, 3), phi0=st.sampled_from("ge"))
def test_io_residual_matches_full_state_contraction(drive, frame, fock_dim, phi0):
    params = SimulationParams(fock_dim=fock_dim, **drive)
    initial = DenseJointState.product_state(phi0, params.n_steps, fock_dim, frame=frame)
    traj = run_dense(params, initial, frame=frame)
    _, _, states = full_contraction(params, initial, frame)
    assert np.allclose(io_residual(traj), contracted_io_residual(params, frame, states),
                       rtol=0, atol=1e-14)
