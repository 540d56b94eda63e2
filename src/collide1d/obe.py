"""Markovian oracle: optical Bloch equations for the driven, damped qubit.

Integrates d(rho)/dt = -i[H, rho] + gamma*(sm rho sp - {sp sm, rho}/2) with
H = delta*|e><e| - (Omega/2)*sigma_y, i.e. exactly the qubit part of the
displaced-frame collision generator, by classic fourth-order Runge-Kutta on
the Bloch vector.  The RK4 step is one fixed affine map, so the samples on the
collision grid come from a doubling scan of its powers, O(N) in all, not a
step-by-step loop.  The collision-model reduced dynamics must reproduce this
for coherent and vacuum inputs (acceptance criterion 3).
"""

from __future__ import annotations

import math

import numpy as np

from .core import RunRecord, SimulationParams, qubit_vector
from .engine import PROJ_E, SIGMA_MINUS, SIGMA_PLUS, SIGMA_X, SIGMA_Y, SIGMA_Z

_PAULIS = (SIGMA_X, SIGMA_Y, SIGMA_Z)


def _bloch(rho) -> np.ndarray:
    """The Bloch vector (tr(sigma_x rho), tr(sigma_y rho), tr(sigma_z rho))."""
    return np.array([np.trace(p @ rho).real for p in _PAULIS])


def bloch_generator(params: SimulationParams):
    """Affine generator (A, b) with ds/dt = A s + b, built from the master equation."""
    H = params.delta * PROJ_E - 0.5 * params.omega_rabi * SIGMA_Y
    gamma = params.gamma

    def rho_dot(rho):
        comm = H @ rho - rho @ H
        damp = (SIGMA_MINUS @ rho @ SIGMA_PLUS
                - 0.5 * (PROJ_E @ rho + rho @ PROJ_E))
        return -1j * comm + gamma * damp

    base = _bloch(rho_dot(0.5 * np.eye(2, dtype=complex)))
    return np.column_stack([_bloch(rho_dot(0.5 * p)) for p in _PAULIS]), base


def rk_step_limit(params: SimulationParams) -> float:
    """Largest admissible RK4 step, 1e-3 of the fastest dynamical timescale."""
    scales = [1.0 / params.gamma, 1.0 / max(abs(params.delta), params.gamma)]
    if params.omega_rabi > 0:
        scales.append(1.0 / params.omega_rabi)
    return 1e-3 * min(scales)


def _rk4_step_matrix(A: np.ndarray, b: np.ndarray, h: float) -> np.ndarray:
    """One classic RK4 step of the affine system as a 4x4 matrix on (s, 1).

    For a time-independent affine right-hand side the four stages collapse to
    fixed matrices: the result is one RK4 step in exact arithmetic, and differs
    from stage-by-stage evaluation only by rounding.
    """
    aug = np.zeros((4, 4))
    aug[:3, :3] = A
    aug[:3, 3] = b
    eye = np.eye(4)
    k1 = aug
    k2 = aug @ (eye + 0.5 * h * k1)
    k3 = aug @ (eye + 0.5 * h * k2)
    k4 = aug @ (eye + h * k3)
    return eye + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


def _initial_bloch(phi0) -> np.ndarray:
    v = qubit_vector(phi0)
    return _bloch(np.outer(v, v.conj()))


def obe_integrate(params: SimulationParams, t_final: float, phi0="g") -> RunRecord:
    """RK4 integration sampled on the collision grid up to t_final, with
    ceil(dt / rk_step_limit) equal substeps (at least one) per collision; the
    record's rho = (1 + s.sigma)/2 has one row per step 0..index_of(t_final)."""
    last = params.grid.index_of(t_final)
    n_sub = max(1, math.ceil(params.dt / rk_step_limit(params)))
    h = params.dt / n_sub
    A, b = bloch_generator(params)
    # rows (s[n], 1) obey (s[n+1], 1) = (s[n], 1) @ J^T for the per-collision map J;
    # with s[:k] known, (s[k:2k], 1) = (s[:k], 1) @ (J^T)^k: log2(last) passes,
    # O(last) rows.  Row 3 of (J^T)^k is (its translation, 1).
    power = np.linalg.matrix_power(_rk4_step_matrix(A, b, h), n_sub).T
    out = np.empty((last + 1, 3))
    out[0] = _initial_bloch(phi0)
    done = 1
    while done <= last:
        take = min(done, last + 1 - done)
        block = out[done:done + take]
        np.matmul(out[:take], power[:3, :3], out=block)
        block += power[3, :3]
        power = power @ power
        done += take
    sx, sy, sz = out.T
    rho = np.empty((last + 1, 2, 2), dtype=complex)
    rho[:, 0, 0] = 0.5 * (1.0 - sz)
    rho[:, 1, 1] = 0.5 * (1.0 + sz)
    rho[:, 1, 0] = 0.5 * (sx + 1j * sy)
    rho[:, 0, 1] = rho[:, 1, 0].conj()
    return RunRecord(params, rho)


def obe_steady_state_p_excited(params: SimulationParams) -> float:
    """(Omega^2/4) / (delta^2 + gamma^2/4 + Omega^2/2)."""
    omega, delta, gamma = params.omega_rabi, params.delta, params.gamma
    return (omega**2 / 4) / (delta**2 + gamma**2 / 4 + omega**2 / 2)


def bloch_steady_state(params: SimulationParams) -> np.ndarray:
    """Fixed point of the affine Bloch flow.  The Euclidean distance of any
    trajectory to this point is non-increasing (trace-distance contraction);
    the raw Bloch length is not monotone for a decaying qubit."""
    A, b = bloch_generator(params)
    return np.linalg.solve(A, -b)
