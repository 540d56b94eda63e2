"""Property test for the input-output residual over random dense runs.

The reference is the per-snapshot evaluation that ``io_residual`` replaced:
it contracts sigma_- and a_{n-1} with the full joint state before and after
each collision, where ``io_residual`` reads rho_eg from the qubit matrices
that ``run_dense`` records at every step.
"""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from collide1d import (DenseJointState, SimulationParams, io_residual,  # noqa: E402
                       run_dense)
from collide1d.engine import DISPLACED, LAB, SIGMA_MINUS, annihilation  # noqa: E402
from test_materializer_properties import drives  # noqa: E402

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)


def expectation(state, op, axis):
    """<psi| op on tensor axis `axis` |psi> by a full-state contraction."""
    psi = state.tensor()
    lowered = np.moveaxis(np.tensordot(op, psi, axes=[(1,), (axis,)]), 0, axis)
    return complex(np.vdot(psi.reshape(-1), lowered.reshape(-1)))


def contracted_io_residual(traj):
    params = traj.params
    omega = params.omega_q if traj.frame == LAB else params.omega_p
    root_dt, a = math.sqrt(params.dt), annihilation(params.fock_dim)
    out = []
    for step in range(1, params.n_steps + 1):
        after, before = traj.snapshot(step), traj.snapshot(step - 1)
        a_out = expectation(after, a, step) / root_dt
        a_in = expectation(before, a, step) / root_dt
        sm = (expectation(before, SIGMA_MINUS, 0)
              * np.exp(-1j * omega * (step - 1) * params.dt))
        out.append(abs(a_out - a_in + math.sqrt(params.gamma) * sm))
    return np.array(out)


@PROPERTY
@given(drive=drives(), frame=st.sampled_from((LAB, DISPLACED)),
       fock_dim=st.integers(2, 3), phi0=st.sampled_from("ge"))
def test_io_residual_matches_full_state_contraction(drive, frame, fock_dim, phi0):
    params = SimulationParams(fock_dim=fock_dim, **drive)
    initial = DenseJointState.product_state(phi0, params.n_steps, fock_dim, frame=frame)
    traj = run_dense(params, initial, frame=frame, snapshot_steps="all")
    assert np.allclose(io_residual(traj), contracted_io_residual(traj), rtol=0, atol=1e-14)
