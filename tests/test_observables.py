import math

import numpy as np
import pytest

from collide1d import (DenseJointState, SimulationParams, SinglePhotonState, TimeGrid,
                       entanglement_entropy, io_residual, make_exponential_wavepacket,
                       photon_density, reduced_qubit, run_dense, run_displaced_sectors,
                       run_single_excitation, state_fidelity)
from collide1d import analytic, observables


class TestReducedQubit:
    def test_excited_vacuum(self):
        p = SimulationParams(gamma=1.0, dt=1e-2, n_steps=4)
        rho = run_dense(p, DenseJointState.product_state("e", 4, 2)).qubit_matrices[0]
        assert np.allclose(reduced_qubit(rho), np.diag([0.0, 1.0]))

    def test_spontaneous_emission_population(self):
        p = SimulationParams(gamma=1.0, dt=1e-3, n_steps=2000)
        rho = reduced_qubit(analytic.spontaneous_emission_state(1.0, p))
        assert rho[1, 1].real == pytest.approx(math.exp(-1.0), abs=1e-3)
        assert abs(rho[0, 1]) == 0.0

    def test_dense_and_sector_agree(self):
        p = SimulationParams(gamma=1.0, dt=1e-2, n_steps=7, omega_rabi=2.0,
                             delta=0.3, omega_q=1.0)
        dense = run_dense(p, DenseJointState.product_state("g", 7, 2,
                                                           frame="displaced"),
                          frame="displaced").qubit_matrices[7]
        sector = run_displaced_sectors(p, 7, "g").state_at(7)
        assert np.abs(reduced_qubit(dense) - reduced_qubit(sector)).max() < 1e-10

    def test_rejects_deep_deficit(self):
        with pytest.raises(ValueError):
            reduced_qubit(np.diag([0.2, 0.2]).astype(complex))

    def test_trace_normalized(self):
        p = SimulationParams(gamma=1.0, dt=1e-3, n_steps=1000, omega_rabi=20.0)
        state = run_displaced_sectors(p, 1, "g").qubit_trajectory()[1000]
        rho = reduced_qubit(state)
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)


class TestEntropy:
    def test_product_state_zero(self):
        p = SimulationParams(gamma=1.0, dt=1e-2, n_steps=3)
        rho = run_dense(p, DenseJointState.product_state("e", 3, 2)).qubit_matrices[0]
        assert entanglement_entropy(rho) == 0.0

    def test_half_decayed_is_one_bit(self):
        dt = math.log(2.0) / 800
        p = SimulationParams(gamma=1.0, dt=dt, n_steps=1000)
        state = analytic.spontaneous_emission_state(800 * dt, p)
        assert entanglement_entropy(state) == pytest.approx(1.0, abs=5e-3)

    def test_bounded_by_one_bit(self):
        p = SimulationParams(gamma=1.0, dt=1e-3, n_steps=1500, omega_rabi=5.0)
        rho_traj = run_displaced_sectors(p, 2, "g").qubit_trajectory()
        for step in range(0, 1501, 125):
            s = entanglement_entropy(rho_traj[step])
            assert 0.0 <= s <= 1.0


def random_density_matrices(rng, count):
    """Mixed, pure and zero-eigenvalue diagonal states, traces within 5% of 1."""
    a = rng.normal(size=(count, 2, 2)) + 1j * rng.normal(size=(count, 2, 2))
    mixed = a @ a.conj().transpose(0, 2, 1)
    psi = a[:, :, 0]
    pure = np.einsum("na,nb->nab", psi, psi.conj())
    diagonal = np.zeros((count, 2, 2), complex)
    occupied = rng.integers(0, 2, count)
    diagonal[np.arange(count), occupied, occupied] = 1.0
    stack = np.concatenate((mixed, pure, diagonal))
    stack /= np.einsum("naa->n", stack).real[:, None, None]
    return stack * rng.uniform(0.95, 1.05, len(stack))[:, None, None]


class TestStackedEntropy:
    def test_stack_equals_per_matrix_call(self):
        stack = random_density_matrices(np.random.default_rng(7), 300)
        per_matrix = np.array([entanglement_entropy(rho) for rho in stack])
        assert np.array_equal(entanglement_entropy(stack), per_matrix)
        assert np.array_equal(reduced_qubit(stack),
                              np.array([reduced_qubit(rho) for rho in stack]))

    @pytest.mark.parametrize("bad, message", [
        (np.diag([0.5, 0.3]), "norm deficit"),
        (np.array([[0.5, 0.6], [0.6, 0.5]]), "not a density matrix"),
    ])
    def test_bad_row_is_named(self, bad, message):
        stack = random_density_matrices(np.random.default_rng(8), 4)
        stack[5] = bad
        with pytest.raises(ValueError, match=f"{message}.* in row 5 "):
            entanglement_entropy(stack)


class TestPhotonDensity:
    def test_vacuum_is_zero(self):
        p = SimulationParams(gamma=1.0, dt=1e-2, n_steps=5, omega_q=1.0)
        traj = run_dense(p, DenseJointState.product_state("g", 5, 2), frame="lab")
        flux = traj.photons / p.dt  # the path of the CSV's flux column
        assert np.all(flux == 0)

    def test_spontaneous_emission_integral(self):
        p = SimulationParams(gamma=1.0, dt=1e-3, n_steps=15000)
        state = analytic.spontaneous_emission_state(15.0, p)
        flux = photon_density(state)
        assert flux.sum() * p.dt == pytest.approx(1.0, abs=1e-3)
        tp = np.arange(100) * p.dt
        assert np.allclose(flux[:100], p.gamma * np.exp(-p.gamma * tp), rtol=1e-10)

    def test_strong_drive_completeness(self):
        # total one-photon weight is exactly the norm minus the vacuum weight
        p = SimulationParams(gamma=1.0, dt=1e-3, n_steps=800, omega_rabi=40.0)
        state = analytic.strong_drive_state(0.8, p)
        flux = photon_density(state)
        vacuum = state.sector_weights()[0].sum()
        assert flux.sum() * p.dt == pytest.approx(state.norm_squared() - vacuum,
                                                  abs=1e-12)

    def test_dense_mode_occupation(self):
        p = SimulationParams(gamma=1.0, dt=1e-2, n_steps=6)
        traj = run_dense(p, DenseJointState.product_state("e", 6, 2), frame="lab")
        flux = traj.photons / p.dt
        total = flux.sum() * p.dt + traj.record().p_excited()[-1]
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_dense_state_refused(self):
        # a dense run's flux is its trajectory's photons, not a pass over its state
        with pytest.raises(TypeError, match="DenseJointState"):
            photon_density(DenseJointState.product_state("e", 4, 2))


class TestIoResidual:
    def test_vacuum_and_spont_are_exactly_zero(self):
        p = SimulationParams(gamma=1.0, dt=1e-2, n_steps=8, omega_q=1.0)
        for phi0 in ("g", "e"):
            traj = run_dense(p, DenseJointState.product_state(phi0, 8, 2), frame="lab")
            assert io_residual(traj).max() <= 1e-12

    def test_driven_first_order_bound_and_scaling(self):
        residuals = []
        dts = [1e-2, 5e-3]
        for dt in dts:
            p = SimulationParams(gamma=1.0, dt=dt, n_steps=8, omega_rabi=2.0,
                                 omega_q=1.0, fock_dim=3)
            traj = run_dense(p, DenseJointState.product_state("g", 8, 3,
                                                              frame="displaced"),
                             frame="displaced")
            residuals.append(io_residual(traj).max())
        assert residuals[0] <= 5 * dts[0]
        assert residuals[0] / residuals[1] == pytest.approx(2.0, rel=0.2)


class TestFidelity:
    def _states(self):
        p = SimulationParams(gamma=1.0, dt=1e-3, n_steps=16000)
        packet = make_exponential_wavepacket(1.0, 0.0, p.grid)
        run = run_single_excitation(p, packet)
        return p, packet, run

    def test_self_fidelity_is_one(self):
        p, packet, run = self._states()
        state = run.state_at(2000)
        assert state_fidelity(state, state) == pytest.approx(1.0, abs=1e-12)

    def test_global_phase_invariance(self):
        p, packet, run = self._states()
        a = run.state_at(2000)
        b = run.state_at(2000)
        b.c_e *= np.exp(0.7j)
        b.g = b.g * np.exp(0.7j)
        assert state_fidelity(a, b) == pytest.approx(1.0, abs=1e-12)

    def test_recursion_vs_closed_form(self):
        p, packet, run = self._states()
        fid = state_fidelity(run.state_at(p.grid.index_of(2.0)),
                             analytic.single_photon_state(packet, 2.0, p))
        assert fid >= 1 - 1e-3

    def test_type_mismatch_rejected(self):
        p, packet, run = self._states()
        with pytest.raises(TypeError):
            state_fidelity(run.state_at(0), DenseJointState.product_state("g", 4, 2))

    def test_dense_states_refused(self):
        state = DenseJointState.product_state("g", 4, 2)
        with pytest.raises(TypeError, match="unsupported state type DenseJointState"):
            state_fidelity(state, state)

    def test_states_on_other_grids_or_times_refused(self):
        a, b = (SinglePhotonState(1.0, np.zeros(4), TimeGrid(dt, 4)) for dt in (1e-2, 2e-2))
        with pytest.raises(ValueError, match="states live on different grids"):
            state_fidelity(a, b)
        run = run_displaced_sectors(SimulationParams(gamma=1.0, dt=1e-2, n_steps=6,
                                                     omega_rabi=2.0), 2, "g")
        other = run_displaced_sectors(SimulationParams(gamma=1.0, dt=1e-2, n_steps=8,
                                                       omega_rabi=2.0), 2, "g")
        for c, d in [(run.state_at(4), run.state_at(6)), (run.state_at(6), other.state_at(6))]:
            with pytest.raises(ValueError, match="states live on different grids or times"):
                state_fidelity(c, d)

    def test_sector_fidelity(self):
        p = SimulationParams(gamma=1.0, dt=1e-2, n_steps=6, omega_rabi=2.0)
        a = run_displaced_sectors(p, 6, "g").state_at(6)
        b = run_displaced_sectors(p, 6, "g").state_at(6)
        assert state_fidelity(a, b) == pytest.approx(1.0, abs=1e-12)

    def test_sector_state_against_closed_form(self):
        # the closed-form assembly has the sector-state layout, so the two compare
        p = SimulationParams(gamma=1.0, dt=1e-2, n_steps=40, omega_rabi=2.0)
        fid = state_fidelity(run_displaced_sectors(p, 2).state_at(40),
                             analytic.assemble_coherent(p, 0.4, 2))
        assert fid >= 1 - 1e-4


class TestAnalysisHelpers:
    def test_dominant_frequency_of_pure_tone(self):
        t = np.arange(8000) * 5e-4
        sig = 0.3 + 0.2 * np.cos(17.0 * t) * np.exp(-0.2 * t)
        est = observables.dominant_angular_frequency(sig, 5e-4)
        assert est == pytest.approx(17.0, rel=5e-3)

    def test_power_law_exponent(self):
        xs = np.array([1e-2, 5e-3, 2.5e-3])
        assert observables.power_law_exponent(xs, 3.0 * xs) == pytest.approx(1.0)
        assert observables.power_law_exponent(xs, xs**2) == pytest.approx(2.0)
        with pytest.raises(ValueError):
            observables.power_law_exponent(xs, 0.0 * xs)
