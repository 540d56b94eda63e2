import ast
import math
from pathlib import Path

import numpy as np
import pytest

from collide1d import SimulationParams, obe, obe_integrate, run_displaced_sectors
from collide1d.obe import (_initial_bloch, _rk4_step_matrix, bloch_generator,
                           bloch_steady_state, obe_steady_state_p_excited,
                           rk_step_limit)
from collide1d.observables import dominant_angular_frequency


def loop_obe(params, t_final, phi0="g"):
    """(last + 1, 3) Bloch vectors by the sequential RK4 loop, step by step."""
    last = params.grid.index_of(t_final)
    n_sub = max(1, math.ceil(params.dt / rk_step_limit(params)))
    step = _rk4_step_matrix(*bloch_generator(params), params.dt / n_sub)
    x = np.append(_initial_bloch(phi0), 1.0)
    out = np.empty((last + 1, 3))
    out[0] = x[:3]
    for n in range(last):
        for _ in range(n_sub):
            x = step @ x
        out[n + 1] = x[:3]
    return out


@pytest.mark.parametrize("last", [0, 1, 2, 3, 4, 7, 8, 9])
def test_scan_edges_match_rk4_loop(last):
    # the doubling passes cover 1, 2, 4, 8 rows: none, whole passes and a short last one;
    # dt is three RK4 substeps, so the per-collision map is a matrix power too
    p = SimulationParams(gamma=1.0, dt=1e-3, n_steps=9, omega_rabi=3.0, delta=-0.5)
    traj = obe_integrate(p, last * p.dt, "e")
    scan = np.stack([traj.sx, traj.sy, traj.sz], axis=1)
    assert np.abs(scan - loop_obe(p, last * p.dt, "e")).max() <= 1e-12


def test_obe_shares_no_code_with_the_other_scans():
    # the Bloch oracle is criterion 3's independent leg: the sector and
    # closed-form tiers run on _conv's scans, so obe.py imports neither
    imported = set()
    for node in ast.walk(ast.parse(Path(obe.__file__).read_text())):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ("collide1d" if node.level else "", node.module)))
            imported.update(f"{module}.{alias.name}" for alias in node.names)
    assert "collide1d.core.SimulationParams" in imported
    for name in imported:
        assert not name.startswith(("collide1d._conv", "collide1d.analytic")), name


class TestIntegration:
    def test_pure_decay_solution(self):
        p = SimulationParams(gamma=1.0, dt=1e-3, n_steps=3000)
        traj = obe_integrate(p, 3.0, "e")
        expected = 2 * np.exp(-traj.times) - 1
        assert np.abs(traj.sz - expected).max() < 1e-10

    def test_steady_state_population(self):
        p = SimulationParams(gamma=1.0, dt=1e-3, n_steps=40000, omega_rabi=1.0)
        traj = obe_integrate(p, 40.0, "g")
        assert obe_steady_state_p_excited(p) == pytest.approx(1 / 3)
        assert traj.p_excited()[-1] == pytest.approx(1 / 3, abs=1e-6)

    def test_detuned_steady_state(self):
        p = SimulationParams(gamma=1.0, dt=1e-3, n_steps=40000, omega_rabi=2.0,
                             delta=1.5)
        traj = obe_integrate(p, 40.0, "g")
        assert traj.p_excited()[-1] == pytest.approx(obe_steady_state_p_excited(p),
                                                     abs=1e-6)

    def test_strong_drive_oscillates_at_rabi_frequency(self):
        p = SimulationParams(gamma=1.0, dt=2.5e-4, n_steps=16000, omega_rabi=20.0)
        traj = obe_integrate(p, 4.0, "g")
        est = dominant_angular_frequency(traj.p_excited(), p.dt)
        assert abs(est - 20.0) / 20.0 < 1e-2

    def test_rk4_self_convergence_order(self):
        p = SimulationParams(gamma=1.0, dt=1e-2, n_steps=10, omega_rabi=3.0,
                             delta=1.0)
        A, b = bloch_generator(p)

        def endpoint(h, t=2.0):
            step = _rk4_step_matrix(A, b, h)
            x = np.append(_initial_bloch("g"), 1.0)
            for _ in range(int(round(t / h))):
                x = step @ x
            return x[:3]

        e1 = np.linalg.norm(endpoint(0.02) - endpoint(0.01))
        e2 = np.linalg.norm(endpoint(0.01) - endpoint(0.005))
        assert math.log2(e1 / e2) == pytest.approx(4.0, abs=0.2)

    def test_contraction_toward_steady_state(self):
        # trace-distance contraction: distance to the fixed point never grows
        # (the raw Bloch length does grow for a decaying qubit)
        for kwargs, phi0 in [(dict(omega_rabi=3.0, delta=1.0), "g"),
                             (dict(), "e"),
                             (dict(omega_rabi=20.0), "g")]:
            p = SimulationParams(gamma=1.0, dt=1e-3, n_steps=5000, **kwargs)
            traj = obe_integrate(p, 5.0, phi0)
            s = np.stack([traj.sx, traj.sy, traj.sz], axis=1)
            dist = np.linalg.norm(s - bloch_steady_state(p), axis=1)
            assert np.max(np.diff(dist)) <= 1e-9

    def test_bloch_length_bounded(self):
        p = SimulationParams(gamma=1.0, dt=1e-3, n_steps=3000, omega_rabi=10.0)
        traj = obe_integrate(p, 3.0, "g")
        lengths = np.sqrt(traj.sx**2 + traj.sy**2 + traj.sz**2)
        assert lengths.max() <= 1 + 1e-9


def sector_obe_error(params, t_final, m_max, phi0="g"):
    """Max |P_e^sectors - P_e^OBE| over the collision grid up to t_final, and the run."""
    last = params.grid.index_of(t_final)
    run = run_displaced_sectors(params, m_max, phi0)
    pe_obe = obe_integrate(params, t_final, phi0).p_excited()
    return float(np.abs(run.p_excited()[:last + 1] - pe_obe).max()), run


class TestCompareWithCm:
    def test_undriven_decay(self):
        p = SimulationParams(gamma=1.0, dt=1e-3, n_steps=1000)
        error, _ = sector_obe_error(p, 1.0, m_max=1, phi0="e")
        assert error <= 2 * p.gamma * p.dt

    def test_resonant_strong_drive(self):
        p = SimulationParams(gamma=1.0, dt=1e-4, n_steps=10000, omega_rabi=20.0)
        error, run = sector_obe_error(p, 1.0, m_max=2)
        assert error <= 1e-2
        assert run.truncation_deficit() < 0.05

    def test_off_resonant_drive(self):
        p = SimulationParams(gamma=1.0, dt=1e-4, n_steps=10000, omega_rabi=2.0,
                             delta=4.0)
        error, _ = sector_obe_error(p, 1.0, m_max=2)
        assert error <= 1e-2

    def test_error_decreases_with_m_max_and_dt(self):
        coarse = SimulationParams(gamma=1.0, dt=2e-4, n_steps=5000, omega_rabi=20.0)
        fine = SimulationParams(gamma=1.0, dt=1e-4, n_steps=10000, omega_rabi=20.0)
        e_m1, _ = sector_obe_error(coarse, 1.0, m_max=1)
        e_m2, _ = sector_obe_error(coarse, 1.0, m_max=2)
        e_m2_fine, _ = sector_obe_error(fine, 1.0, m_max=2)
        assert e_m2 < e_m1
        assert e_m2_fine <= e_m2 * 1.05
