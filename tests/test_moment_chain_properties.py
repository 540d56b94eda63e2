"""Property tests for the doubling scan, the moment chain and the power table.

The reference for the chain is an FFT evaluation of the same sector moments:
each sector is the causal convolution of its births with the lag kernel
G[j] X = props[j] X props[j]^dag, which never goes through the recurrence.
Its kernel spans every lag 0..N, so the bin-0 birth reaches the last step at
lag N in the closed-form (offset 0) convention.  The closed form folds that
offset into its emission block, M(dt) times the bare one, so its chain is
compared with the reference at offset 0 on the reduced states and sector
weights; the emitted weights are compared for the sector propagator.  The
chain runs in three ways, chosen from its sector count and length: every step
a block start of the doubling scan (up to 7 sectors), blocks of structured
steps after doubled block starts, and one block of structured steps (fewer
than 16 steps a sector); the cases below reach all three.  The scan itself
and the power table are compared with sequential products.
"""

import math
import tracemalloc

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from collide1d import SimulationParams, _conv, run_displaced_sectors  # noqa: E402
from collide1d.analytic import coherent_qubit_trajectory, f0_matrix  # noqa: E402
from collide1d.engine import SIGMA_MINUS  # noqa: E402
from test_materializer_properties import drives  # noqa: E402

#: long enough for several blocks of the recurrence
LONG = st.integers(1, 120)


def fft_moment_chain(props, emit, phi0, m_max, offset):
    """Reference moments S_m[s] = sum_n G[s - n - offset] D_m[n] by FFT convolution.

    Returns (rho, weights, emitted) in the layout of ``_conv.moment_chain``.
    """
    n_steps = props.shape[0] - 1
    q = np.einsum("nab,b->na", props, phi0)
    # lag kernel G[j][(a,b),(c,d)] = props[j][a,c] * conj(props[j][b,d])
    G = np.einsum("nac,nbd->nabcd", props, props.conj()).reshape(n_steps + 1, 4, 4)
    if offset == 0:
        G[0] = 0.0  # births propagate over lag >= 1 in the closed-form convention
    n_fft = 1
    while n_fft < 2 * n_steps + 1:
        n_fft *= 2
    G_hat = np.fft.fft(G, n=n_fft, axis=0)
    rho = np.einsum("na,nb->nab", q, q.conj())
    weights = np.empty((m_max + 1, n_steps + 1, 2))
    weights[0] = np.abs(q) ** 2
    emitted = np.zeros(n_steps)
    # births out of the vacuum sector (pre-collision parent amplitudes)
    parent = np.einsum("na,nb->nab", q[:n_steps], q[:n_steps].conj())
    for m in range(1, m_max + 1):
        D = np.einsum("ac,ncd,bd->nab", emit, parent, emit.conj())
        D_hat = np.fft.fft(D.reshape(n_steps, 4), n=n_fft, axis=0)
        flat = np.fft.ifft(np.einsum("lab,lb->la", G_hat, D_hat), axis=0)
        S = np.zeros((n_steps + 1, 2, 2), complex)
        S[offset:] = flat[:n_steps + 1 - offset].reshape(-1, 2, 2)
        emitted += np.einsum("naa->n", D).real
        rho = rho + S
        weights[m, :, 0] = S[:, 0, 0].real
        weights[m, :, 1] = S[:, 1, 1].real
        parent = S[:n_steps]
    return rho, weights, emitted


@st.composite
def qubit_states(draw):
    """A normalized qubit vector with a random relative phase."""
    theta = draw(st.floats(0.0, math.pi))
    phase = draw(st.floats(0.0, 2 * math.pi))
    return np.array([math.cos(theta / 2), math.sin(theta / 2) * np.exp(1j * phase)])


def tier_chains(params, phi0, m_max, offset):
    """The sector propagator's (offset 1) or the closed form's (offset 0) moment
    chain, and the FFT reference's at that offset with the bare emission block.
    The closed form's record holds rho and weights only."""
    if offset:
        run = run_displaced_sectors(params, m_max, phi0)
        props, emit = run.powers, run.emission_block
        fast = _conv.moment_chain(props, emit, phi0, m_max, params.gamma * params.dt)
    else:
        props = f0_matrix(params.grid.times(), params)
        emit = -math.sqrt(params.gamma * params.dt) * SIGMA_MINUS
        record = coherent_qubit_trajectory(params, m_max, phi0)
        fast = record.rho, record.weights
    return fast, fft_moment_chain(props, emit, phi0, m_max, offset)


@given(drive=drives(n_steps=LONG), phi0=qubit_states(), m_max=st.integers(0, 5),
       offset=st.sampled_from((0, 1)))
def test_recurrence_matches_fft_reference(drive, phi0, m_max, offset):
    params = SimulationParams(**drive)
    fast, reference = tier_chains(params, phi0, m_max, offset)
    assert len(fast) == 2 + offset
    for got, want in zip(fast, reference):
        assert got.shape == want.shape
        assert np.abs(got - want).max(initial=0.0) <= 1e-12


@given(drive=drives(n_steps=LONG), phi0=qubit_states(), m_max=st.integers(0, 5))
def test_sector_weights_are_probabilities(drive, phi0, m_max):
    params = SimulationParams(**drive)
    sectors = run_displaced_sectors(params, m_max, phi0).record().weights
    assert sectors.min() >= 0.0
    assert sectors.max() <= 1.0 + 1e-12
    # the closed form's discrete norm may exceed one by O(gamma*dt), so only
    # its sign is a property
    closed = coherent_qubit_trajectory(params, m_max, phi0).weights
    assert closed.min() >= 0.0


#: more sectors than steps (the sectors above N stay empty) and wide chains,
#: each one block of structured steps
WIDE = ((3, 9), (30, 40), (200, 24), (500, 60))
#: blocks of 2 and of 8 structured steps after doubled block starts
BLOCKED = ((200, 9), (600, 35))


@pytest.mark.parametrize("offset", (0, 1))
@pytest.mark.parametrize("n_steps,m_max", WIDE + BLOCKED)
def test_wide_recurrence_matches_fft_reference(n_steps, m_max, offset):
    params = SimulationParams(gamma=1.0, omega_rabi=30.0, delta=2.0, omega_q=1.0,
                              dt=2e-3, n_steps=n_steps)
    phi0 = np.array([0.6, 0.8j])
    fast, reference = tier_chains(params, phi0, m_max, offset)
    assert len(fast) == 2 + offset
    for got, want in zip(fast, reference):
        assert np.abs(got - want).max() <= 1e-12
    assert np.all(fast[1][n_steps + 1:] == 0.0)


def test_wide_chain_peaks_below_twice_its_moments():
    # the truncation guard reruns N = 1000 at 2^21 / (4N + 4) - 1 sectors; a dense
    # (4 * 523)^2 one-collision map alone would be 2.1 times the moments
    params = SimulationParams(gamma=1.0, omega_rabi=30.0, delta=2.0, omega_q=1.0,
                              dt=2e-3, n_steps=1000)
    run = run_displaced_sectors(params, 0)
    args = (run.powers, run.emission_block, np.array([0.6, 0.8j]), 522, 2e-3)
    tracemalloc.start()
    try:
        _conv.moment_chain(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * (1000 + 1) * (522 + 1) * 4 * 8


#: 0, 1, and each side of the powers of two where the scan starts a new level
SCAN_LENGTHS = (0, 1, 2, 3, 4, 5, 7, 8, 9, 63, 64, 65, 255, 256, 257)


@pytest.mark.parametrize("n", SCAN_LENGTHS)
@pytest.mark.parametrize("size,dtype", ((1, complex), (3, float), (20, float)))
def test_linear_recurrence_matches_sequential_products(n, size, dtype):
    rng = np.random.default_rng(n)
    # the moment chain's shape of step: keep on the diagonal blocks, feed one up,
    # squared from its first block row; one complex 4x4 block is the power table's
    keep = 0.99 * np.linalg.qr(rng.standard_normal((4, 4)))[0].astype(dtype)
    if dtype is complex:
        keep = keep * np.exp(0.3j)
    feed = 0.1 * rng.standard_normal((4, 4))
    step = np.kron(np.eye(size), keep) + np.kron(np.eye(size, k=1), feed)
    x = np.empty((n + 1, 2, 4 * size), dtype=dtype)  # a stack of two row vectors
    x[0] = rng.standard_normal((2, 4 * size))
    expected = x.copy()
    for s in range(n):
        expected[s + 1] = expected[s] @ step
    _conv.linear_recurrence(step, x)
    # one rounding per product, each a few eps per block of a row, relative to the
    # largest entry (the feed lets the upper blocks grow)
    scale = np.abs(expected).max()
    assert np.abs(x - expected).max() <= 4 * size * max(n, 1) * np.finfo(float).eps * scale


#: 1, 2, 3; each side of a power of two, where the doubling takes a new level
#: (3, 4; 8, 9; 15, 16); lengths in between (10, 24, 50, 99, 100, 200)
POWER_STEPS = (1, 2, 3, 4, 8, 9, 10, 15, 16, 24, 50, 99, 100, 200)


@given(drive=drives(n_steps=st.sampled_from(POWER_STEPS)))
def test_power_table_matches_sequential_products(drive):
    params = SimulationParams(**drive)
    run = run_displaced_sectors(params, 0)
    n = params.n_steps
    expected = np.empty((n + 1, 2, 2), complex)
    expected[0] = np.eye(2)
    for j in range(n):
        expected[j + 1] = run.no_jump_block @ expected[j]
    # one rounding per product, each at most a few eps on entries of size <= 1
    assert np.abs(run.powers - expected).max() <= 4 * n * np.finfo(float).eps
