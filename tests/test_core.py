import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from collide1d import (SimulationParams, TimeGrid, ValidityWarning, Wavepacket, complex_rabi,
                       make_exponential_wavepacket, make_gaussian_wavepacket)
from collide1d.core import _normalized, grid_exp, qubit_vector


class TestTimeGrid:
    def test_times_include_both_endpoints(self):
        grid = TimeGrid(dt=0.5, n_steps=4)
        assert np.allclose(grid.times(), [0, 0.5, 1.0, 1.5, 2.0])
        assert grid.total_time == 2.0

    def test_index_time_round_trip(self):
        grid = TimeGrid(dt=1e-3, n_steps=1000)
        for n in range(0, 1001, 37):
            assert grid.index_of(n * grid.dt) == n

    def test_off_grid_time_rejected(self):
        grid = TimeGrid(dt=1e-3, n_steps=10)
        for t in (5.0005e-3, math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match="is not on the grid"):
                grid.index_of(t)

    @pytest.mark.parametrize("dt,n", [(0.0, 5), (-1.0, 5), (0.1, 0), (math.inf, 5),
                                      (math.nan, 5), (0.1, 4.0)])
    def test_invalid_construction(self, dt, n):
        with pytest.raises(ValueError):
            TimeGrid(dt=dt, n_steps=n)


class TestSimulationParams:
    def test_omega_p_is_derived(self):
        p = SimulationParams(gamma=1.0, dt=1e-3, n_steps=10, omega_q=5.0, delta=2.0)
        assert p.omega_p == 3.0

    @pytest.mark.parametrize("kwargs", [
        dict(gamma=-1.0), dict(gamma=0.0), dict(omega_q=-1.0),
        dict(omega_rabi=-0.5), dict(dt=0.0), dict(n_steps=0), dict(fock_dim=1),
        dict(gamma=math.nan), dict(dt=math.inf), dict(omega_q=math.inf),
        dict(delta=math.nan), dict(omega_rabi=math.nan), dict(n_steps=4.0),
        dict(fock_dim=2.0),
    ])
    def test_domain_errors(self, kwargs):
        base = dict(gamma=1.0, dt=1e-3, n_steps=10)
        base.update(kwargs)
        with pytest.raises(ValueError):
            SimulationParams(**base)

    def test_validity_guard_warns_by_default(self):
        with pytest.warns(ValidityWarning):
            SimulationParams(gamma=1.0, dt=0.2, n_steps=5)

    def test_validity_warning_points_at_the_constructing_line(self):
        with pytest.warns(ValidityWarning) as record:
            SimulationParams(gamma=1.0, dt=0.2, n_steps=5)
        assert record[0].filename == __file__

    def test_validity_guard_raises_when_strict(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", ValidityWarning)
            with pytest.raises(ValidityWarning, match="omega_rabi\\*dt = 0.2 >= 0.1"):
                SimulationParams(gamma=1.0, dt=1e-3, n_steps=5, omega_rabi=200.0)

    def test_detuning_guard(self):
        with pytest.warns(ValidityWarning):
            SimulationParams(gamma=1.0, dt=1e-3, n_steps=5, omega_q=500.0, delta=150.0)


class TestRabi:
    def test_complex_rabi_real_limit(self):
        # gamma must stay positive; use one small enough not to matter
        p = SimulationParams(gamma=1e-12, dt=1e-3, n_steps=1, omega_rabi=1.0)
        assert complex_rabi(p) == pytest.approx(1.0, abs=1e-9)

    def test_complex_rabi_pure_imaginary(self):
        p = SimulationParams(gamma=2.0, dt=1e-3, n_steps=1)
        root = complex_rabi(p)
        assert root == pytest.approx(1j)
        assert root.imag >= 0  # principal branch

    def test_complex_rabi_mixed(self):
        p = SimulationParams(gamma=2.0, dt=1e-3, n_steps=1, omega_rabi=2.0)
        assert complex_rabi(p) == pytest.approx(math.sqrt(3.0))

    @pytest.mark.parametrize("gamma,delta,omega", [
        (1.0, 0.0, 0.0), (0.5, 2.0, 3.0), (2.0, -1.0, 10.0), (1.0, 0.0, 0.5),
    ])
    def test_square_recovers_argument(self, gamma, delta, omega):
        p = SimulationParams(gamma=gamma, dt=1e-4, n_steps=1, delta=delta,
                             omega_rabi=omega)
        target = omega**2 + (delta - 0.5j * gamma) ** 2
        assert complex_rabi(p) ** 2 == pytest.approx(target, rel=1e-12)


@pytest.mark.parametrize("phi0,match", [
    (np.ones(3) / np.sqrt(3), "qubit state must be 'g', 'e', or a length-2 amplitude vector"),
    ([[1.0, 0.0]], "qubit state must be 'g', 'e', or a length-2 amplitude vector"),
    ([1.0, 1.0], r"qubit state vector must be normalized, \|v\| = 1\.414"),
], ids=["three-amplitudes", "row-matrix", "unnormalized"])
def test_qubit_vector_refuses(phi0, match):
    with pytest.raises(ValueError, match=match):
        qubit_vector(phi0)


@given(n=st.integers(0, 20000), dt=st.floats(1e-4, 1.0),
       growth=st.floats(-300.0, 300.0), turns=st.floats(-1e4, 1e4))
@example(n=0, dt=0.1, growth=300.0, turns=1.0)
@example(n=1, dt=0.1, growth=-300.0, turns=1.0)
@example(n=2, dt=0.1, growth=300.0, turns=-3.0)
@example(n=4900, dt=1e-3, growth=300.0, turns=50.0)  # a perfect square
@example(n=4999, dt=1e-3, growth=-300.0, turns=-50.0)  # a prime
def test_grid_exp_matches_numpy_exp(n, dt, growth, turns):
    # the exponent's real part reaches `growth` and its phase `turns` at t_(n-1)
    t_last = max(n - 1, 0) * dt
    rate = complex(growth, turns) / max(t_last, dt)
    values = grid_exp(rate, dt, n)
    assert values.shape == (n,) and values.dtype == complex
    reference = np.exp(rate * (np.arange(n) * dt))
    bound = 8 * np.finfo(float).eps * (1 + abs(rate) * t_last)
    assert np.all(np.abs(values - reference) <= bound * np.abs(reference))


class TestWavepackets:
    def test_sample_count_must_match_the_grid(self):
        with pytest.raises(ValueError, match="wavepacket has 3 samples for a grid of 4 bins"):
            Wavepacket(samples=np.ones(3, complex), grid=TimeGrid(dt=1e-2, n_steps=4))

    def test_exponential_unit_norm(self):
        grid = TimeGrid(dt=1e-3, n_steps=20000)
        pkt = make_exponential_wavepacket(1.0, 0.0, grid)
        assert pkt.discrete_norm() == pytest.approx(1.0, abs=1e-9)

    def test_exponential_initial_value_before_renormalization(self):
        grid = TimeGrid(dt=1e-3, n_steps=20000)
        big_gamma = 2.0
        pkt = make_exponential_wavepacket(big_gamma, 0.0, grid)
        # the raw samples sqrt(G) e^{-G t_n / 2} have the discrete norm
        # dt * G * sum_n e^{-G t_n}, a geometric sum
        ratio = math.exp(-big_gamma * grid.dt)
        raw_norm = grid.dt * big_gamma * (1 - ratio ** grid.n_steps) / (1 - ratio)
        assert pkt.samples[0] == pytest.approx(math.sqrt(big_gamma / raw_norm), rel=1e-12)

    def test_exponential_phase_does_not_change_intensity(self):
        grid = TimeGrid(dt=1e-3, n_steps=10000)
        flat = make_exponential_wavepacket(2.0, 0.0, grid)
        spun = make_exponential_wavepacket(2.0, 5.0, grid)
        assert np.allclose(np.abs(flat.samples), np.abs(spun.samples))

    def test_exponential_short_grid_refused(self):
        grid = TimeGrid(dt=1e-3, n_steps=1000)  # exp(-1) tail
        with pytest.raises(ValueError, match="extend the grid$"):
            make_exponential_wavepacket(1.0, 0.0, grid)

    def test_gaussian_norm_and_peak(self):
        grid = TimeGrid(dt=1e-3, n_steps=10000)
        pkt = make_gaussian_wavepacket(1.0, 5.0, 0.0, grid)
        assert pkt.discrete_norm() == pytest.approx(1.0, abs=1e-9)
        assert np.argmax(np.abs(pkt.samples)) == 5000

    def test_gaussian_translation(self):
        grid = TimeGrid(dt=1e-2, n_steps=1200)
        a = make_gaussian_wavepacket(1.0, 5.0, 0.0, grid)
        b = make_gaussian_wavepacket(1.0, 6.0, 0.0, grid)
        shift = 100
        assert np.allclose(np.abs(a.samples[:-shift]), np.abs(b.samples[shift:]),
                           atol=1e-12)

    def test_gaussian_support_violation(self):
        grid = TimeGrid(dt=1e-2, n_steps=100)
        with pytest.raises(ValueError):
            make_gaussian_wavepacket(1.0, 0.5, 0.0, grid)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.parametrize("fill", [1e200, math.nan])
    def test_non_normalizable_envelope_raises(self, fill):
        # 1e200 squared overflows, so the rescaled envelope comes out all zero
        grid = TimeGrid(dt=1e-2, n_steps=4)
        with pytest.raises(ValueError, match="cannot be normalized"):
            _normalized(np.full(4, fill, dtype=complex), grid)
