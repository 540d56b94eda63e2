"""Property tests for the shared tuple materializer over random drives.

Both tiers materialize tuple amplitudes through one routine and differ only in
their propagators and lag offset, so each is checked against an evaluation
that does not go through it: the sector propagator against its lazy
per-tuple ``amplitude``, the closed form against the coefficient density
``fm`` of each tuple.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, strategies as st  # noqa: E402

from collide1d import SimulationParams, run_displaced_sectors  # noqa: E402
from collide1d.analytic import assemble_coherent, fm  # noqa: E402
from collide1d.core import VALIDITY_BOUND  # noqa: E402


#: the no-emission propagator's complex Rabi frequency vanishes at Omega = gamma/2
EXCEPTIONAL = dict(gamma=2.0, omega_rabi=1.0, delta=0.0, omega_q=0.7, dt=0.02, n_steps=6)


@st.composite
def drives(draw, n_steps=st.integers(1, 6)):
    """(gamma, Omega, delta, omega_q, dt) with every rate times dt inside the bound."""
    dt = draw(st.floats(1e-3, 0.05))
    top = 0.99 * VALIDITY_BOUND / dt
    return dict(gamma=draw(st.floats(0.01 * top, top)),
                omega_rabi=draw(st.floats(0.0, top)),
                delta=draw(st.floats(-top, top)),
                omega_q=draw(st.floats(0.0, 5.0)),
                dt=dt, n_steps=draw(n_steps))


@given(drive=drives(), phi0=st.sampled_from("ge"))
@example(drive=EXCEPTIONAL, phi0="g")
@example(drive=EXCEPTIONAL, phi0="e")
def test_state_at_matches_lazy_amplitudes(drive, phi0):
    params = SimulationParams(**drive)
    n = params.n_steps
    run = run_displaced_sectors(params, n, phi0)
    for step in range(n + 1):
        state = run.state_at(step)
        for m in range(n + 1):
            for row, modes in enumerate(state.tuples[m]):
                lazy = [run.amplitude(eps, modes, step) for eps in "ge"]
                assert np.allclose(state.values[m][:, row], lazy, rtol=0, atol=1e-14)


@given(drive=drives(), phi0=st.sampled_from("ge"))
@example(drive=EXCEPTIONAL, phi0="g")
@example(drive=EXCEPTIONAL, phi0="e")
def test_assembly_matches_coefficient_densities(drive, phi0):
    params = SimulationParams(**drive)
    dt = params.dt
    for step in range(params.n_steps + 1):
        m_max = min(3, step)
        coeffs = assemble_coherent(params, step * dt, m_max, phi0)
        for m in range(m_max + 1):
            for row, modes in enumerate(coeffs.tuples[m]):
                times = [k * dt for k in modes]
                dense = [fm(eps, phi0, step * dt, times, params) * dt ** (m / 2)
                         for eps in "ge"]
                assert np.allclose(coeffs.values[m][:, row], dense, rtol=1e-12,
                                   atol=1e-14)

