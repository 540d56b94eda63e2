"""Property tests for the single-excitation recursion over random parameters.

The reference is the per-collision loop the doubling scan replaced: it applies
the 2x2 collision map to (c_e, b_n) one mode at a time.
"""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from collide1d import (SimulationParams, make_exponential_wavepacket,  # noqa: E402
                       make_gaussian_wavepacket, run_single_excitation)
from collide1d.core import VALIDITY_BOUND  # noqa: E402


def loop_recursion(params, b0, ce):
    """(c_e trajectory, final field) collision by collision."""
    damp = math.exp(-0.5 * params.gamma * params.dt)
    kick = math.sqrt(1.0 - math.exp(-params.gamma * params.dt))
    b, ce_traj = b0.copy(), [ce]
    for step in range(params.n_steps):
        angle = params.omega_q * step * params.dt
        phase, bn = complex(math.cos(angle), math.sin(angle)), b[step]
        ce, b[step] = damp * ce + kick * phase * bn, damp * bn - kick * phase.conjugate() * ce
        ce_traj.append(ce)
    return np.array(ce_traj), b


@st.composite
def single_excitation_runs(draw):
    """(params, packet or None) with gamma*dt inside the bound and N <= 3000."""
    dt = draw(st.floats(1e-3, 0.05))
    kind = draw(st.sampled_from(("exponential", "gaussian", "vacuum")))
    params = SimulationParams(gamma=draw(st.floats(1e-3, 0.99 * VALIDITY_BOUND / dt)),
                              omega_q=draw(st.floats(0.0, 5.0)), dt=dt,
                              n_steps=draw(st.integers(100 if kind == "gaussian" else 1,
                                                       3000)))
    omega = draw(st.floats(-5.0, 5.0))
    total = params.grid.total_time
    if kind == "exponential":  # exp(-G*T) <= e^-14: the grid holds the whole packet
        return params, make_exponential_wavepacket(draw(st.floats(14.0, 60.0)) / total,
                                                   omega, params.grid)
    if kind == "gaussian":
        sigma = draw(st.floats(0.1, 1.0)) * total / 10
        return params, make_gaussian_wavepacket(sigma, total / 2, omega, params.grid)
    return params, None


@given(case=single_excitation_runs())
def test_scan_matches_collision_loop(case):
    params, packet = case
    if packet is None:
        run = run_single_excitation(params, None)
        b0, ce0 = np.zeros(params.n_steps, complex), 1.0 + 0j
    else:
        run = run_single_excitation(params, packet)
        b0, ce0 = packet.mode_amplitudes().astype(complex), 0j
    ce_ref, b_ref = loop_recursion(params, b0, ce0)
    assert np.abs(run.c_e_trajectory - ce_ref).max() <= 1e-13
    assert np.abs(run.final_state().g - b_ref).max() <= 1e-13
    assert np.abs(run.norm_trajectory - 1.0).max() <= 1e-12
