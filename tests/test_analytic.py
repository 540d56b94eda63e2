import cmath
import math

import numpy as np
import pytest

from collide1d import (SimulationParams, complex_rabi, make_exponential_wavepacket,
                       make_gaussian_wavepacket, run_displaced_sectors)
from collide1d import analytic
from collide1d.analytic import (assemble_coherent, coherent_qubit_trajectory, fm,
                                single_photon_state, spontaneous_emission_state,
                                strong_drive_state, xi_tilde_trajectory)
from collide1d.core import ValidityWarning, qubit_index


def f0(eps, phi0, t, params) -> complex:
    """The no-emission amplitude from phi0 to eps: one entry of f0_matrix."""
    return complex(analytic.f0_matrix(t, params)[qubit_index(eps), qubit_index(phi0)])


def f0_reference(eps, phi0, t, params, root):
    """Direct transcription of the closed forms with an explicit root choice."""
    gamma, delta, omega = params.gamma, params.delta, params.omega_rabi
    pref = cmath.exp(-gamma * t / 4 - 0.5j * delta * t)
    c = cmath.cos(root * t / 2)
    s_over = t / 2 if abs(root * t) < 1e-12 else cmath.sin(root * t / 2) / root
    table = {
        ("g", "g"): pref * (c + s_over * (gamma / 2 + 1j * delta)),
        ("g", "e"): pref * s_over * omega,
        ("e", "g"): -pref * s_over * omega,
        ("e", "e"): pref * (c - s_over * (gamma / 2 + 1j * delta)),
    }
    return table[(eps, phi0)]


PARAM_SETS = [
    dict(gamma=1.0, delta=0.0, omega_rabi=20.0),
    dict(gamma=0.5, delta=2.0, omega_rabi=3.0),
    dict(gamma=2.0, delta=-1.0, omega_rabi=0.0),
    dict(gamma=1.0, delta=0.0, omega_rabi=0.5),  # critically damped: Omega' = 0
]


class TestF0:
    def test_identity_at_time_zero(self):
        p = SimulationParams(gamma=1.0, dt=1e-4, n_steps=10, delta=0.7, omega_rabi=5.0)
        assert f0("g", "g", 0.0, p) == pytest.approx(1.0)
        assert f0("e", "e", 0.0, p) == pytest.approx(1.0)
        assert f0("g", "e", 0.0, p) == 0.0
        assert f0("e", "g", 0.0, p) == 0.0

    def test_wigner_weisskopf_limit(self):
        p = SimulationParams(gamma=1.0, dt=1e-4, n_steps=10)
        for t in (0.3, 1.0, 2.5):
            assert f0("e", "e", t, p) == pytest.approx(math.exp(-t / 2), rel=1e-12)

    def test_ground_state_stays_put_without_drive(self):
        p = SimulationParams(gamma=1.0, dt=1e-4, n_steps=10)
        for t in (0.1, 1.0, 10.0):
            assert f0("g", "g", t, p) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("kwargs", PARAM_SETS)
    def test_branch_invariance(self, kwargs):
        p = SimulationParams(dt=1e-4, n_steps=10, **kwargs)
        root = complex_rabi(p)
        for t in (0.05, 0.4, 1.3):
            for eps in "ge":
                for phi0 in "ge":
                    plus = f0_reference(eps, phi0, t, p, root)
                    minus = f0_reference(eps, phi0, t, p, -root)
                    assert plus == pytest.approx(minus, abs=1e-14)
                    assert f0(eps, phi0, t, p) == pytest.approx(plus, abs=1e-12)

    @pytest.mark.parametrize("kwargs", PARAM_SETS)
    def test_semigroup_property(self, kwargs):
        p = SimulationParams(dt=1e-4, n_steps=10, **kwargs)
        t1, t2 = 0.37, 0.81
        m1 = analytic.f0_matrix(t1, p)
        m2 = analytic.f0_matrix(t2, p)
        m12 = analytic.f0_matrix(t1 + t2, p)
        assert np.abs(m12 - m2 @ m1).max() < 1e-12

    @pytest.mark.parametrize("gamma,delta", [(1.0, 0.0), (1.0, 0.3), (0.1, -2.0),
                                             (3.0, 5.0)])
    def test_undriven_stays_finite_at_long_times(self, gamma, delta):
        # e^{-gamma t/4} alone underflows and cos(Omega' t/2) alone overflows
        # long before gamma t = 1e4; their product must not
        p = SimulationParams(gamma=gamma, dt=1e-4, n_steps=10, delta=delta)
        t = np.linspace(0.0, 1e4 / gamma, 2001)
        expected = np.zeros((len(t), 2, 2), complex)
        expected[:, 0, 0] = 1.0
        expected[:, 1, 1] = np.exp(-(0.5 * gamma + 1j * delta) * t)
        assert np.abs(analytic.f0_matrix(t, p) - expected).max() <= 1e-12

    def test_matches_displaced_oracle_vacuum_amplitude(self):
        # the collision product at d = 2 is the displaced oracle's vacuum block
        p = SimulationParams(gamma=1.0, dt=1e-4, n_steps=5000, omega_rabi=20.0)
        run = run_displaced_sectors(p, 0, "g")
        phi = np.array([1.0, 0.0], complex)
        numeric = run.powers[5000] @ phi
        closed = analytic.f0_matrix(0.5, p) @ phi
        assert np.abs(numeric - closed).max() < 1e-3


def fm_reference(eps, phi0, t, times, params):
    """fm as the time-ordered scalar product: one f0 call per no-emission segment."""
    if not times:
        return f0(eps, phi0, t, params)
    value = f0("e", phi0, times[0], params)
    for prev, cur in zip(times, times[1:]):
        value *= f0("e", "g", cur - prev, params) * cmath.exp(-1j * params.omega_p * prev)
    value *= cmath.exp(-1j * params.omega_p * times[-1]) * f0(eps, "g", t - times[-1], params)
    return (-math.sqrt(params.gamma)) ** len(times) * value


class TestPhotonCoefficients:
    def setup_method(self):
        self.p = SimulationParams(gamma=1.0, dt=1e-4, n_steps=100, delta=0.3,
                                  omega_rabi=4.0, omega_q=2.0)

    def test_f1_spontaneous_emission_reduction(self):
        p = SimulationParams(gamma=1.0, dt=1e-4, n_steps=10)
        for t1 in (0.0, 0.4, 1.0):
            expected = -math.sqrt(p.gamma) * math.exp(-t1 / 2)
            assert fm("e", 2.0, [t1], p)[0] == pytest.approx(expected, rel=1e-12)

    def test_f1_vanishes_from_ground_at_zero(self):
        assert fm("g", 1.0, [0.0], self.p)[0] == 0.0

    def test_f1_ordering_error(self):
        with pytest.raises(ValueError):
            fm("g", 1.0, [2.0], self.p)

    def test_f2_equal_times_vanish(self):
        for t1 in (0.0, 0.3):
            assert fm("g", 1.0, [t1, t1], self.p)[0] == 0.0

    def test_f2_vanishes_without_drive(self):
        p = SimulationParams(gamma=1.0, dt=1e-4, n_steps=10, delta=0.3)
        assert fm("g", 1.0, [0.2, 0.7], p)[0] == 0.0

    def test_f2_ordering_error(self):
        with pytest.raises(ValueError):
            fm("g", 1.0, [0.7, 0.2], self.p)

    def test_fm_repeated_adjacent_time_vanishes(self):
        assert fm("g", 1.0, [0.2, 0.5, 0.5], self.p)[0] == 0.0

    def test_fm_matches_the_scalar_segment_product(self):
        # fm takes its segments from one f0_matrix call over an array and multiplies
        # in another order, so the two agree to rounding, not bit for bit
        rng = np.random.default_rng(25)
        for m in range(4):
            times = sorted(rng.uniform(0, 1.5, m))
            for phi0 in "ge":
                for eps, value in zip("ge", fm(phi0, 1.5, times, self.p)):
                    want = fm_reference(eps, phi0, 1.5, times, self.p)
                    assert value == pytest.approx(want, rel=1e-12)

    def test_fm_unsorted_rejected(self):
        with pytest.raises(ValueError):
            fm("g", 1.0, [0.5, 0.2], self.p)


class TestAssembly:
    def test_vacuum_only_norm_is_exact_without_drive(self):
        p = SimulationParams(gamma=1.0, dt=1e-3, n_steps=100)
        state = assemble_coherent(p, 0.1, 0, "g")
        assert state.norm_squared() == pytest.approx(1.0, abs=1e-14)

    def test_norm_monotone_in_m_max(self):
        p = SimulationParams(gamma=1.0, dt=1e-3, n_steps=300, omega_rabi=10.0)
        norms = [assemble_coherent(p, 0.3, m, "g").norm_squared() for m in (0, 1, 2)]
        assert norms[0] <= norms[1] <= norms[2] <= 1 + 1e-9

    def test_m_max_guard(self):
        p = SimulationParams(gamma=1.0, dt=1e-3, n_steps=10, omega_rabi=1.0)
        with pytest.raises(ValueError):
            assemble_coherent(p, 0.01, 4, "g")

    def test_matches_tuplewise_fm(self):
        p = SimulationParams(gamma=1.0, dt=1e-2, n_steps=12, omega_rabi=2.0,
                             delta=0.4, omega_q=1.0)
        t = 0.12
        state = assemble_coherent(p, t, 2, "g")
        root_dt = math.sqrt(p.dt)
        for m in range(3):
            for row, modes in enumerate(state.tuples[m]):
                times = [n * p.dt for n in modes]
                expected = fm("g", t, times, p) * root_dt**m
                for qi in range(2):
                    assert state.values[m][qi, row] == pytest.approx(expected[qi],
                                                                     abs=1e-12)

    def test_chain_norm_covers_strong_drive(self):
        p = SimulationParams(gamma=1.0, dt=1e-4, n_steps=10000, omega_rabi=20.0)
        rho = coherent_qubit_trajectory(p, 2, "g").rho
        assert np.einsum("aa->", rho[-1]).real >= 0.95

    def test_chain_matches_assembled_weights(self):
        # from |e> the photon emitted in bin 0 reaches the last step at lag N
        p = SimulationParams(gamma=1.0, dt=1e-2, n_steps=30, omega_rabi=3.0)
        for phi0 in "ge":
            record = coherent_qubit_trajectory(p, 2, phi0)
            state = assemble_coherent(p, 0.3, 2, phi0)
            assert np.abs(state.qubit_matrix() - record.rho[30]).max() < 1e-12
            assert record.weights[:, 30, :] == pytest.approx(state.sector_weights(), abs=1e-12)


class TestStrongDrive:
    def test_initial_state_pure_ground(self):
        p = SimulationParams(gamma=1.0, dt=1e-3, n_steps=100, omega_rabi=40.0)
        state = strong_drive_state(0.0, p)
        assert state.values[0][0, 0] == pytest.approx(1.0)
        assert state.values[0][1, 0] == 0.0

    def test_pi_pulse_inverts_vacuum_sector(self):
        omega = 40.0
        dt = math.pi / omega / 50
        p = SimulationParams(gamma=1.0, dt=dt, n_steps=100, omega_rabi=omega)
        state = strong_drive_state(50 * dt, p)  # Omega t = pi
        damp = math.exp(-50 * dt / 4)
        assert abs(state.values[0][0, 0]) < 1e-12
        assert abs(state.values[0][1, 0]) == pytest.approx(damp, rel=1e-12)

    def test_regime_guard_warns(self):
        p = SimulationParams(gamma=1.0, dt=1e-3, n_steps=100, omega_rabi=2.0)
        with pytest.warns(ValidityWarning):
            strong_drive_state(0.05, p)

    def test_vacuum_sector_matches_full_assembly(self):
        p = SimulationParams(gamma=1.0, dt=2.5e-4, n_steps=3200, omega_rabi=40.0)
        sd = analytic.strong_drive_weights(p)
        full = coherent_qubit_trajectory(p, 1, "g").weights
        assert np.abs(sd[0] - full[0]).max() < 5e-2

    def test_one_photon_sector_close_to_full_assembly(self):
        # the simplified one-photon density carries extra damping; agreement
        # is qualitative at gamma*t ~ 1
        p = SimulationParams(gamma=1.0, dt=2.5e-4, n_steps=3200, omega_rabi=40.0)
        sd = analytic.strong_drive_weights(p)
        full = coherent_qubit_trajectory(p, 1, "g").weights
        assert np.abs(sd[1] - full[1]).max() < 1e-1

    @pytest.mark.parametrize("n_steps", [1, 2, 300])
    def test_weights_match_direct_sums_over_past_bins(self, n_steps):
        p = SimulationParams(gamma=1.0, dt=1e-3, n_steps=n_steps, omega_rabi=40.0)
        weights = analytic.strong_drive_weights(p)
        t = p.grid.times()
        src = np.sin(20.0 * t) ** 2 * np.exp(-t)
        for s in range(n_steps + 1):
            lag = t[s] - t[:s]
            for col, ker in ((0, np.cos(20.0 * lag) ** 2), (1, np.sin(20.0 * lag) ** 2)):
                want = p.dt * math.exp(-0.5 * t[s]) * np.sum(ker * src[:s])
                assert weights[1, s, col] == pytest.approx(want, rel=1e-12, abs=1e-15)

    def test_weights_match_state_at_grid_point(self):
        p = SimulationParams(gamma=1.0, dt=1e-3, n_steps=500, omega_rabi=40.0)
        weights = analytic.strong_drive_weights(p)
        state = strong_drive_state(0.4, p)
        assert weights[:, 400, :] == pytest.approx(state.sector_weights(), abs=1e-12)


class TestSpontaneousEmission:
    def test_survival_probability(self):
        p = SimulationParams(gamma=1.0, dt=1e-3, n_steps=3000)
        state = spontaneous_emission_state(1.0, p)
        assert state.p_excited() == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_photon_density_profile(self):
        p = SimulationParams(gamma=1.0, dt=1e-3, n_steps=3000)
        state = spontaneous_emission_state(2.0, p)
        dens = np.abs(state.g / math.sqrt(p.dt)) ** 2
        tp = np.arange(2000) * p.dt
        assert np.allclose(dens[:2000], p.gamma * np.exp(-p.gamma * tp), rtol=1e-12)
        assert np.all(dens[2000:] == 0)

    def test_discrete_norm_deficit_bounded(self):
        gamma, dt = 1.0, 1e-3
        p = SimulationParams(gamma=gamma, dt=dt, n_steps=3000)
        for t in (0.5, 1.0, 2.9):
            state = spontaneous_emission_state(t, p)
            assert abs(state.norm_squared() - 1.0) <= gamma * dt

    def test_norm_ledger_matches_geometric_sum(self):
        # e^{-gamma t} plus the left-Riemann emitted weight sum_{j<n} gamma dt e^{-gamma t_j}
        for gamma, dt in ((1.0, 1e-3), (2.5, 4e-3)):
            p = SimulationParams(gamma=gamma, dt=dt, n_steps=2000)
            for step in (0, 1, 250, 2000):
                t = step * dt
                summed = (math.exp(-gamma * t)
                          + gamma * dt * math.expm1(-gamma * t) / math.expm1(-gamma * dt))
                assert abs(spontaneous_emission_state(t, p).norm_squared() - summed) <= 1e-12


class TestSinglePhotonClosedForm:
    def setup_method(self):
        self.params = SimulationParams(gamma=1.0, dt=1e-3, n_steps=16000)
        self.packet = make_exponential_wavepacket(1.0, 0.0, self.params.grid)

    def test_xi_tilde_resonant_closed_form(self):
        # the integrand is the constant samples[0], the normalized sqrt(gamma)
        # since the packet's rate is gamma, so the left-Riemann sum is exact:
        # xi~(t) = samples[0] * t * e^{-gamma t/2}
        gamma = self.params.gamma
        for t in (0.5, 2.0, 5.0):
            expected = self.packet.samples[0] * t * math.exp(-gamma * t / 2)
            xi_t = xi_tilde_trajectory(self.packet, self.params)[self.params.grid.index_of(t)]
            assert xi_t == pytest.approx(expected, rel=1e-12)

    def test_xi_tilde_zero_at_origin(self):
        assert xi_tilde_trajectory(self.packet, self.params)[0] == 0.0

    def test_initial_state_unscattered(self):
        state = single_photon_state(self.packet, 0.0, self.params)
        assert state.c_e == 0.0
        assert np.array_equal(state.g, self.packet.mode_amplitudes())

    def test_peak_excitation_probability(self):
        pe = analytic.single_photon_p_excited(self.packet, self.params)
        k = int(np.argmax(pe))
        assert pe[k] == pytest.approx(4 * math.exp(-2.0), abs=2e-3)
        assert abs(k * self.params.dt - 2.0) <= 2 * self.params.dt

    def test_gaussian_norm_near_unity(self):
        # the left-Riemann half-bin bias caps the deficit at O(gamma*dt)
        params = SimulationParams(gamma=1.0, dt=1e-3, n_steps=12000)
        packet = make_gaussian_wavepacket(1.0, 5.0, 0.0, params.grid)
        worst = max(abs(single_photon_state(packet, t, params).norm_squared() - 1.0)
                    for t in (3.0, 5.0, 6.0, 8.0, 11.0))
        assert worst < 1e-3

    def test_gaussian_norm_deficit_first_order_in_dt(self):
        deficits = []
        for dt in (1e-3, 5e-4):
            params = SimulationParams(gamma=1.0, dt=dt, n_steps=int(12.0 / dt))
            packet = make_gaussian_wavepacket(1.0, 5.0, 0.0, params.grid)
            state = single_photon_state(packet, 8.0, params)
            deficits.append(abs(state.norm_squared() - 1.0))
        assert deficits[0] / deficits[1] == pytest.approx(2.0, rel=0.2)
