"""Property tests for the shared tuple materializer over random drives.

Both tiers materialize tuple amplitudes through one routine and differ only in
their propagators and emission blocks, so each is checked against an
evaluation that does not go through it: the sector propagator against its lazy
per-tuple ``amplitude`` and against the dense displaced oracle, the closed
form against the coefficient density ``fm`` of each tuple.  The routine
itself is pinned bit for bit to a prefix-lookup reference over random complex
inputs, and checked against the reference's closed-form lag offset with that
offset folded into the emission block; the dense oracle it is compared with
keeps unit norm.
"""

import itertools
import math
import re

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, strategies as st  # noqa: E402

from collide1d import SimulationParams, run_displaced_sectors  # noqa: E402
from collide1d._conv import materialize_tuples  # noqa: E402
from collide1d.analytic import assemble_coherent, fm  # noqa: E402
from collide1d.core import VALIDITY_BOUND, MemoryGuardError  # noqa: E402
from collide1d.engine import DISPLACED, LAB, DenseJointState, run_dense  # noqa: E402


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
                assert np.allclose(state.values[m][:, row], run.amplitude(modes, step),
                                   rtol=0, atol=1e-14)


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
                dense = fm(phi0, step * dt, times, params) * dt ** (m / 2)
                assert np.allclose(coeffs.values[m][:, row], dense, rtol=1e-12,
                                   atol=1e-14)



def prefix_lookup_tuples(props, emit, phases, phi0, step, m_max, offset):
    """The materializer by lookup: each sector's tuples from itertools.combinations,
    each tuple's parent found through a dict keyed by its prefix."""
    tuples = [np.zeros((1, 0), dtype=int)]
    values = [(props[step] @ phi0).reshape(2, 1)]
    births, prev_last = phi0.reshape(2, 1), np.full(1, -offset)
    for m in range(1, m_max + 1):
        combos = np.array(list(itertools.combinations(range(step), m)),
                          dtype=int).reshape(-1, m)
        order = {tuple(t): i for i, t in enumerate(tuples[-1].tolist())}
        parent_idx = np.fromiter((order[tuple(c[:-1])] for c in combos.tolist()),
                                 dtype=int, count=len(combos))
        last = combos[:, -1]
        lag = last - prev_last[parent_idx] - offset
        parent_now = np.einsum("kab,bk->ak", props[lag], births[:, parent_idx])
        births = phases[last] * (emit @ parent_now)
        values.append(np.einsum("kab,bk->ak", props[step - offset - last], births))
        tuples.append(combos)
        prev_last = last
    return tuples, values


def random_chain(rng, step):
    """Random complex (props, emit, phases, phi0) for `step` collisions."""
    def draw(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return draw(step + 1, 2, 2), draw(2, 2), draw(step), draw(2)


def semigroup_chain(rng, step):
    """Random (props, emit, phases, phi0) with props[j] = P^j, as the closed form's
    propagator is a semigroup, for a random P of unit spectral norm; and P."""
    _, emit, phases, phi0 = random_chain(rng, step)
    one = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    one /= np.linalg.norm(one, 2)
    props = np.array([np.linalg.matrix_power(one, j) for j in range(step + 1)])
    return (props, emit, phases, phi0), one


@pytest.mark.parametrize("offset", (0, 1))
@pytest.mark.parametrize("step", range(13))
def test_materializer_matches_prefix_lookup(step, offset):
    # offset 1 is the materializer's own rule, bit for bit on any chain; offset 0
    # is the closed form's, which it gives on a semigroup with P folded into the
    # emission block, up to the rounding of P^j against products of P
    rng = np.random.default_rng(100 * step + offset)
    if offset:
        chain = random_chain(rng, step)
        block = chain[1]
    else:
        chain, one = semigroup_chain(rng, step)
        block = one @ chain[1]
    for m_max in range(step + 3):
        got = materialize_tuples(chain[0], block, *chain[2:], step, m_max,
                                 max_amplitudes=1 << 21)
        want = prefix_lookup_tuples(*chain, step, m_max, offset)
        for g, w in zip(got, want):
            assert len(g) == len(w) == m_max + 1
            for a, b in zip(g, w):
                assert a.dtype == b.dtype and a.shape == b.shape
                if offset or a.dtype.kind == "i":
                    assert np.array_equal(a, b)
                else:  # largest difference found: 1.3e-15 of the sector's largest
                    assert (np.abs(a - b).max(initial=0.0)
                            <= 1e-12 * np.abs(b).max(initial=0.0))


@pytest.mark.parametrize("step,m_max", [(0, 0), (0, 2), (5, 2), (12, 12), (12, 14)])
def test_materializer_guard_boundary(step, m_max):
    chain = random_chain(np.random.default_rng(step), step)
    total = sum(math.comb(step, m) for m in range(m_max + 1))
    tuples, _ = materialize_tuples(*chain, step, m_max, max_amplitudes=total)
    assert sum(len(t) for t in tuples) == total
    message = (f"materializing {total} tuple amplitudes exceeds the guard ({total - 1}); "
               f"lower m_max")
    with pytest.raises(MemoryGuardError, match=f"^{re.escape(message)}$"):
        materialize_tuples(*chain, step, m_max, max_amplitudes=total - 1)


@given(drive=drives(n_steps=st.integers(1, 8)), phi0=st.sampled_from("ge"))
@example(drive={**EXCEPTIONAL, "n_steps": 8}, phi0="e")
def test_sectors_at_full_m_max_match_the_dense_oracle(drive, phi0):
    # criterion 7 over random drives: every tuple amplitude, at its tolerance
    params = SimulationParams(**drive)
    n = params.n_steps
    initial = DenseJointState.product_state(phi0, n, 2, frame=DISPLACED)
    psi = run_dense(params, initial, frame=DISPLACED).snapshot(n).amplitudes.reshape(2, -1)
    state = run_displaced_sectors(params, n, phi0).state_at(n)
    for m in range(n + 1):
        assert np.abs(psi[:, state.dense_index(m)] - state.values[m]).max() <= 1e-10


@given(drive=drives(n_steps=st.integers(1, 8)), phi0=st.sampled_from("ge"))
def test_dense_oracle_keeps_unit_norm(drive, phi0):
    for fock_dim in (2, 3):
        params = SimulationParams(**drive, fock_dim=fock_dim)
        for frame in (LAB, DISPLACED):
            initial = DenseJointState.product_state(phi0, params.n_steps, fock_dim,
                                                    frame=frame)
            traj = run_dense(params, initial, frame=frame)
            trace = np.einsum("naa->n", traj.qubit_matrices).real
            assert np.abs(trace - 1.0).max() <= 1e-12, (fock_dim, frame)
