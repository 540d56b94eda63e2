import math

import numpy as np
import pytest

from collide1d import (DenseJointState, MemoryGuardError, SimulationParams,
                       assemble_coherent, run_dense, run_displaced_sectors)


def dense_amplitudes(params, phi0):
    """Final displaced dense amplitudes as a (2, 2^N) array."""
    initial = DenseJointState.product_state(phi0, params.n_steps, 2, frame="displaced")
    final = run_dense(params, initial, frame="displaced").snapshot(params.n_steps)
    return final.amplitudes.reshape(2, -1)


class TestSectorRun:
    def test_undriven_excited_vacuum_amplitude(self):
        # A_e^(0)(t_n) = cos(sqrt(gamma dt))^n, within O(dt) of e^{-gamma t/2}
        p = SimulationParams(gamma=1.0, dt=1e-2, n_steps=100)
        run = run_displaced_sectors(p, 0, "e")
        amp = np.einsum("nab,b->na", run.powers, np.array([0, 1.0 + 0j]))[:, 1]
        target = np.exp(-0.5 * p.grid.times())
        assert np.abs(amp - target).max() < 1e-3

    def test_undriven_ground_is_stationary(self):
        p = SimulationParams(gamma=1.0, dt=1e-2, n_steps=50)
        run = run_displaced_sectors(p, 2, "g")
        weights = run.record().weights
        assert np.abs(weights[0, :, 0] - 1.0).max() < 1e-14
        assert weights[1:].max() < 1e-28

    def test_equals_dense_oracle_when_untruncated(self):
        p = SimulationParams(gamma=1.0, dt=1e-2, n_steps=6, omega_q=2.0, delta=0.4,
                             omega_rabi=1.5)
        psi = dense_amplitudes(p, "g")
        state = run_displaced_sectors(p, 6, "g").state_at(6)
        worst = max(float(np.abs(psi[:, state.dense_index(m)] - state.values[m]).max())
                    for m in range(7))
        assert worst < 1e-12

    def test_dense_index_places_photons_by_mode(self):
        p = SimulationParams(gamma=1.0, dt=1e-2, n_steps=4, omega_rabi=1.0)
        state = run_displaced_sectors(p, 2, "g").state_at(3)
        # mode 0 is the slowest axis: a photon in mode k adds d^(N-1-k)
        assert state.dense_index(0).tolist() == [0]
        assert state.dense_index(1).tolist() == [8, 4, 2]
        assert state.dense_index(2, fock_dim=3).tolist() == [27 + 9, 27 + 3, 9 + 3]

    def test_lazy_amplitude_matches_materialized(self):
        p = SimulationParams(gamma=1.0, dt=1e-2, n_steps=7, omega_rabi=2.0,
                             delta=0.3, omega_q=1.0)
        run = run_displaced_sectors(p, 3, "g")
        state = run.state_at(7)
        for m in range(4):
            for row, modes in enumerate(state.tuples[m]):
                assert run.amplitude(tuple(modes), 7) == pytest.approx(
                    state.values[m][:, row], abs=1e-14)

    def test_moment_chain_matches_materialized_reduction(self):
        p = SimulationParams(gamma=1.0, dt=1e-2, n_steps=8, omega_rabi=3.0)
        run = run_displaced_sectors(p, 8, "g")
        rho_chain = run.qubit_trajectory()[8]
        rho_mat = run.state_at(8).qubit_matrix()
        assert np.abs(rho_chain - rho_mat).max() < 1e-12

    def test_norm_monotone_in_m_max(self):
        p = SimulationParams(gamma=1.0, dt=1e-3, n_steps=500, omega_rabi=20.0)
        norms = [np.trace(run_displaced_sectors(p, m, "g").record().rho[-1]).real
                 for m in (0, 1, 2)]
        assert norms[0] <= norms[1] <= norms[2] <= 1 + 1e-9

    def test_tuples_strictly_increasing(self):
        p = SimulationParams(gamma=1.0, dt=1e-2, n_steps=6, omega_rabi=2.0)
        state = run_displaced_sectors(p, 3, "g").state_at(6)
        for m in range(2, 4):
            diffs = np.diff(state.tuples[m], axis=1)
            assert (diffs > 0).all()

    def test_future_modes_rejected(self):
        p = SimulationParams(gamma=1.0, dt=1e-2, n_steps=6, omega_rabi=2.0)
        run = run_displaced_sectors(p, 2, "g")
        with pytest.raises(ValueError):
            run.amplitude((4,), 3)

    @pytest.mark.parametrize("modes", [(2, 2), (3, 1)], ids=["repeated", "decreasing"])
    def test_non_increasing_modes_rejected(self, modes):
        p = SimulationParams(gamma=1.0, dt=1e-2, n_steps=6, omega_rabi=2.0)
        run = run_displaced_sectors(p, 2, "g")
        with pytest.raises(ValueError, match="mode tuple must be strictly increasing"):
            run.amplitude(modes, 4)

    def test_negative_modes_rejected(self):
        # mode -1 would wrap to the last row of the power and phase tables
        p = SimulationParams(gamma=1.0, dt=1e-2, n_steps=8, omega_rabi=2.0)
        run = run_displaced_sectors(p, 2, "g")
        for modes in [(-1,), (-1, 2)]:
            with pytest.raises(ValueError, match="only past modes"):
                run.amplitude(modes, 4)

    def test_negative_step_rejected(self):
        # step -1 would wrap to the last row of the power table: the amplitude at N
        p = SimulationParams(gamma=1.0, dt=1e-2, n_steps=10, omega_rabi=2.0)
        run = run_displaced_sectors(p, 2, "g")
        with pytest.raises(ValueError, match=r"step -1 outside 0\.\.10"):
            run.amplitude((), -1)
        with pytest.raises(ValueError, match=r"step -1 outside 0\.\.10"):
            run.state_at(-1)

    def test_step_past_the_grid_rejected(self):
        # without photons the power table has no row 11; with one, a row of it is
        # read as if the grid went on
        p = SimulationParams(gamma=1.0, dt=1e-2, n_steps=10, omega_rabi=2.0)
        run = run_displaced_sectors(p, 2, "g")
        for modes in [(), (3,)]:
            with pytest.raises(ValueError, match=r"step 11 outside 0\.\.10"):
                run.amplitude(modes, 11)
        with pytest.raises(ValueError, match=r"step 11 outside 0\.\.10"):
            run.state_at(11)

    def test_materialization_guard(self):
        # the sector and closed-form tuples meet one guard, before any is built
        p = SimulationParams(gamma=1.0, dt=1e-4, n_steps=5000, omega_rabi=2.0)
        run = run_displaced_sectors(p, 2, "g")
        for materialize in (run.state_at, lambda step: assemble_coherent(p, step * p.dt, 2)):
            with pytest.raises(MemoryGuardError, match="materializing 12502501 tuple"):
                materialize(5000)

    def test_emission_weights_conserve_norm(self):
        # weight lost by the tracked sectors equals nothing at m_max = N:
        # emitted weight + final qubit norm must add to one
        p = SimulationParams(gamma=1.0, dt=1e-2, n_steps=8, omega_rabi=2.0)
        run = run_displaced_sectors(p, 8, "g")
        record = run.record()
        assert np.trace(record.rho[-1]).real == pytest.approx(1.0, abs=1e-12)
        total_flux = run.emission_weights().sum()
        weights = record.weights[:, -1, :].sum(axis=1)
        mean_photons = sum(m * w for m, w in enumerate(weights))
        assert total_flux == pytest.approx(mean_photons, abs=1e-12)

    def test_amplitudes_match_closed_form_densities(self):
        # strong resonant drive, half a lifetime: products of exact collision
        # blocks track the closed-form coefficient densities to O(dt)
        from collide1d.analytic import f0_matrix
        p = SimulationParams(gamma=1.0, dt=1e-4, n_steps=5000, omega_rabi=20.0)
        run = run_displaced_sectors(p, 2, "g")
        mats = f0_matrix(p.grid.times(), p)
        phi = np.array([1.0, 0.0], complex)
        n = p.n_steps
        worst = float(np.abs(run.powers[n] @ phi - mats[n] @ phi).max())
        root_g, root_dt = math.sqrt(p.gamma), math.sqrt(p.dt)
        for n1 in range(0, n, 517):
            sec = run.amplitude((n1,), n) / root_dt
            ana = -root_g * mats[n - n1][:, 0] * mats[n1][1, 0]
            worst = max(worst, float(np.abs(sec - ana).max()))
        for n1 in range(0, n, 1243):
            for n2 in range(n1 + 307, n, 1151):
                sec = run.amplitude((n1, n2), n) / p.dt
                ana = p.gamma * mats[n - n2][:, 0] * mats[n2 - n1][1, 0] * mats[n1][1, 0]
                worst = max(worst, float(np.abs(sec - ana).max()))
        assert worst < 1e-3

    def test_superposition_initial_state(self):
        p = SimulationParams(gamma=1.0, dt=1e-2, n_steps=5, omega_rabi=1.0)
        phi0 = np.array([1.0, 1.0]) / math.sqrt(2)
        psi = None
        initial = DenseJointState.product_state(phi0, 5, 2, frame="displaced")
        psi = run_dense(p, initial, frame="displaced").snapshot(5).amplitudes.reshape((2,) * 6)
        state = run_displaced_sectors(p, 5, phi0).state_at(5)
        vac = psi[(slice(None),) + (0,) * 5]
        assert np.abs(vac - state.values[0][:, 0]).max() < 1e-13
