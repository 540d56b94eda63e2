import math

import numpy as np
import pytest

from collide1d import (SimulationParams, TimeGrid, make_exponential_wavepacket,
                       make_gaussian_wavepacket, run_single_excitation)
from collide1d import analytic


@pytest.fixture(scope="module")
def resonant_run():
    params = SimulationParams(gamma=1.0, dt=1e-3, n_steps=16000)
    packet = make_exponential_wavepacket(1.0, 0.0, params.grid)
    return params, packet, run_single_excitation(params, packet)


class TestRecursion:
    def test_norm_exactly_preserved(self, resonant_run):
        _, _, run = resonant_run
        assert np.abs(run.norm_trajectory - 1.0).max() < 1e-12

    def test_peak_excitation(self, resonant_run):
        params, _, run = resonant_run
        pe = run.record().p_excited()
        k = int(np.argmax(pe))
        assert pe[k] == pytest.approx(4 * math.exp(-2.0), abs=2e-3)
        assert abs(k * params.dt - 2.0) <= 2 * params.dt

    def test_pointwise_agreement_with_closed_form(self, resonant_run):
        params, packet, run = resonant_run
        pe_analytic = analytic.single_photon_p_excited(packet, params)
        bound = 5 * params.gamma * params.dt
        assert np.abs(run.record().p_excited() - pe_analytic).max() < bound

    def test_state_reconstruction_consistency(self, resonant_run):
        params, packet, run = resonant_run
        early = run.state_at(0)
        assert early.c_e == 0.0
        assert np.array_equal(early.g, packet.mode_amplitudes())
        mid = run.state_at(5000)
        assert np.array_equal(mid.g[5000:], packet.mode_amplitudes()[5000:])
        assert mid.norm_squared() == pytest.approx(1.0, abs=1e-12)

    def test_state_outside_the_grid_rejected(self, resonant_run):
        _, _, run = resonant_run
        for step in (-1, 16001):
            with pytest.raises(ValueError, match=rf"step {step} outside 0\.\.16000"):
                run.state_at(step)

    def test_grid_shift_covariance(self):
        # with omega_q = 0, delaying the input by k bins delays c_e by k bins,
        # bit for bit
        from collide1d import Wavepacket
        params = SimulationParams(gamma=1.0, dt=1e-2, n_steps=1400)
        shift = 100
        a = make_gaussian_wavepacket(1.0, 5.0, 0.0, params.grid)
        delayed = np.concatenate((np.zeros(shift, complex), a.samples[:-shift]))
        b = Wavepacket(samples=delayed, grid=params.grid)
        ce_a = run_single_excitation(params, a).c_e_trajectory
        ce_b = run_single_excitation(params, b).c_e_trajectory
        assert np.array_equal(ce_a[:-shift], ce_b[shift:])
        assert np.all(ce_b[:shift] == 0)

    def test_short_wavepacket_rejected(self):
        params = SimulationParams(gamma=1.0, dt=1e-3, n_steps=20000)
        short = make_exponential_wavepacket(1.0, 0.0, TimeGrid(1e-3, 16000))
        with pytest.raises(ValueError):
            run_single_excitation(params, short)

    def test_dt_mismatch_rejected(self):
        params = SimulationParams(gamma=1.0, dt=1e-3, n_steps=1000)
        packet = make_exponential_wavepacket(1.0, 0.0, TimeGrid(2e-3, 8000))
        with pytest.raises(ValueError):
            run_single_excitation(params, packet)

    def test_longer_packet_grid_refused_by_both_tiers(self):
        # the closed forms and the recursion share one rule: the packet lies on
        # params.grid, so neither cuts a longer packet nor broadcasts against it
        params = SimulationParams(gamma=1.0, dt=1e-3, n_steps=15000)
        packet = make_exponential_wavepacket(1.0, 0.0, TimeGrid(1e-3, 16000))
        for solve in (analytic.single_photon_record, analytic.single_photon_p_excited,
                      lambda packet, params: run_single_excitation(params, packet)):
            with pytest.raises(ValueError, match=r"n_steps=16000\).*n_steps=15000\)"):
                solve(packet, params)

    def test_detuned_packet_excites_less(self):
        params = SimulationParams(gamma=1.0, dt=1e-3, n_steps=16000)
        resonant = make_exponential_wavepacket(1.0, 0.0, params.grid)
        detuned = make_exponential_wavepacket(1.0, 5.0, params.grid)
        pe_res = run_single_excitation(params, resonant).record().p_excited().max()
        pe_det = run_single_excitation(params, detuned).record().p_excited().max()
        assert pe_det < pe_res


class TestMapFromExcitedQubit:
    def test_map_reproduces_spontaneous_emission(self):
        # the same per-collision map, started from |e> over vacuum, recovers
        # the Wigner-Weisskopf state
        params = SimulationParams(gamma=1.0, dt=1e-3, n_steps=4000, omega_q=2.0)
        run = run_single_excitation(params, None)
        times = params.grid.times()
        assert np.abs(run.c_e_trajectory
                      - np.exp(-0.5 * params.gamma * times)).max() < 1e-12
        from collide1d import state_fidelity
        from collide1d.analytic import spontaneous_emission_state
        fid = state_fidelity(run.state_at(2000),
                             spontaneous_emission_state(2.0, params))
        assert fid >= 1 - 5 * params.gamma * params.dt
