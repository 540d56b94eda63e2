"""Closed-form joint-wavefunction coefficients, evaluated on simulation grids.

Displaced-frame coherent drive: the no-emission propagator is

    M(t) = e^{-gamma t/4 - i delta t/2} exp{-(i t/2)[(delta - i gamma/2) sigma_z
                                                     - Omega sigma_y]}

whose entries are the four amplitudes f_{eps,phi0}(t); every m-photon
coefficient is a time-ordered product of M segments joined by -sqrt(gamma)
emission factors.  Vacuum and single-photon inputs have their own closed
forms, stored here with the same left-Riemann discrete conventions as the
collision engine so all tiers can be compared amplitude by amplitude.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import _conv
from .core import (MemoryGuardError, SimulationParams, ValidityWarning,
                   Wavepacket, complex_rabi, qubit_index, qubit_vector)
from .engine import (DISPLACED, MAX_SECTOR_AMPLITUDES, SIGMA_MINUS,
                     SectorState, SinglePhotonState)

#: below this |Omega' * t| the removable singularity sin(x/2)/Omega' is
#: evaluated by series to avoid cancellation
_SMALL_PHASE = 1e-6


def f0_matrix(t, params: SimulationParams) -> np.ndarray:
    """No-emission propagator M(t) with entries f_{eps,phi0}(t); t may be an array."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("t must be non-negative")
    gamma, delta, omega = params.gamma, params.delta, params.omega_rabi
    opr = complex_rabi(params)
    half = 0.5 * opr * t
    cos_half = np.cos(half)
    # sin(Omega' t/2)/Omega', analytic limit t/2 - Omega'^2 t^3/48 near zero
    small = np.abs(opr * t) < _SMALL_PHASE
    safe = opr if opr != 0 else 1.0
    sin_over = np.where(small, t / 2 - opr**2 * t**3 / 48, np.sin(half) / safe)
    pref = np.exp(-0.25 * gamma * t - 0.5j * delta * t)
    diag = sin_over * (0.5 * gamma + 1j * delta)
    out = np.empty(t.shape + (2, 2), dtype=complex)
    out[..., 0, 0] = pref * (cos_half + diag)
    out[..., 0, 1] = pref * sin_over * omega
    out[..., 1, 0] = -pref * sin_over * omega
    out[..., 1, 1] = pref * (cos_half - diag)
    return out


def f0(eps: str, phi0: str, t: float, params: SimulationParams) -> complex:
    """Amplitude to find the qubit in eps with no photon emitted, starting from phi0."""
    return complex(f0_matrix(t, params)[qubit_index(eps), qubit_index(phi0)])


def f1(eps: str, phi0: str, t: float, t1: float, params: SimulationParams) -> complex:
    """One-photon coefficient density (units 1/sqrt(time)) at emission time t1."""
    if not 0 <= t1 <= t:
        raise ValueError(f"need 0 <= t1 <= t, got t1 = {t1}, t = {t}")
    return (-math.sqrt(params.gamma)
            * f0(eps, "g", t - t1, params)
            * complex(np.exp(-1j * params.omega_p * t1))
            * f0("e", phi0, t1, params))


def f2(eps: str, phi0: str, t: float, t1: float, t2: float,
       params: SimulationParams) -> complex:
    """Two-photon coefficient density (units 1/time) at ordered emission times."""
    if not 0 <= t1 <= t2 <= t:
        raise ValueError(f"need 0 <= t1 <= t2 <= t, got ({t1}, {t2}, {t})")
    return (params.gamma
            * f0(eps, "g", t - t2, params) * complex(np.exp(-1j * params.omega_p * t2))
            * f0("e", "g", t2 - t1, params) * complex(np.exp(-1j * params.omega_p * t1))
            * f0("e", phi0, t1, params))


def fm(eps: str, phi0: str, t: float, times, params: SimulationParams) -> complex:
    """m-photon coefficient density for sorted emission times (m = len(times))."""
    times = list(times)
    if not times:
        return f0(eps, phi0, t, params)
    if any(b < a for a, b in zip(times, times[1:])):
        raise ValueError("emission times must be sorted ascending")
    if times[0] < 0 or times[-1] > t:
        raise ValueError("emission times must lie in [0, t]")
    omega_p = params.omega_p
    value = f0("e", phi0, times[0], params)
    for prev, cur in zip(times, times[1:]):
        value *= f0("e", "g", cur - prev, params) * complex(np.exp(-1j * omega_p * prev))
    value *= complex(np.exp(-1j * omega_p * times[-1])) * f0(eps, "g", t - times[-1], params)
    return (-math.sqrt(params.gamma)) ** len(times) * value


@dataclass
class CoefficientSet(SectorState):
    """Analytic coefficients assembled into the sector-state layout.

    Discrete amplitudes are (sqrt(dt))^m times the continuum densities.
    """


def assemble_coherent(params: SimulationParams, t: float, m_max: int, phi0="g",
                      max_amplitudes: int = MAX_SECTOR_AMPLITUDES) -> CoefficientSet:
    """Evaluate the closed-form coefficients over all ordered tuples up to m_max."""
    if m_max > 3:
        raise ValueError("analytic assembly is limited to m_max <= 3 (cost guard)")
    grid = params.grid
    step = grid.index_of(t)
    total = sum(math.comb(step, m) for m in range(m_max + 1))
    if total > max_amplitudes:
        raise MemoryGuardError(
            f"assembling {total} tuple amplitudes exceeds the guard ({max_amplitudes})")
    mats = f0_matrix(np.arange(step + 1) * params.dt, params)  # M(t_j) for lags j
    emit = -math.sqrt(params.gamma * params.dt) * SIGMA_MINUS
    phases = np.exp(-1j * params.omega_p * params.dt * np.arange(step))
    # continuum lags measure from the emission time itself: offset 0
    tuples, values = _conv.materialize_tuples(mats, emit, phases, qubit_vector(phi0), step,
                                              m_max, offset=0)
    return CoefficientSet(step=step, m_max=m_max, grid=grid, frame=DISPLACED,
                          tuples=tuples, values=values)


def coherent_qubit_trajectory(params: SimulationParams, m_max: int, phi0="g"):
    """Reduced-qubit and sector-weight trajectories of the closed-form state.

    Returns (rho, weights): rho is (N+1, 2, 2); weights is (m_max+1, N+1, 2)
    per photon count and qubit label.  Costs O(m_max * N log N) by convolving
    per-sector qubit moments instead of enumerating tuples.
    """
    grid = params.grid
    mats = f0_matrix(grid.times(), params)
    emit = -math.sqrt(params.gamma * params.dt) * SIGMA_MINUS
    q, sectors, _ = _conv.moment_chain(mats, emit, qubit_vector(phi0), m_max, offset=0)
    rho = _conv.reduced_qubit_trajectory(q, sectors)
    weights = np.empty((m_max + 1, q.shape[0], 2))
    weights[0] = np.abs(q) ** 2
    for m, S in enumerate(sectors, start=1):
        weights[m, :, 0] = S[:, 0, 0].real
        weights[m, :, 1] = S[:, 1, 1].real
    return rho, weights


# ---------------------------------------------------------------------------
# strong-drive limit
# ---------------------------------------------------------------------------

def _strong_drive_guard(params: SimulationParams):
    if params.omega_rabi < 20 * params.gamma or params.delta != 0:
        warnings.warn(
            "strong-drive closed form assumes Omega >= 20*gamma and delta = 0 "
            f"(got Omega = {params.omega_rabi}, delta = {params.delta})",
            ValidityWarning, stacklevel=3)


def strong_drive_state(t: float, params: SimulationParams) -> CoefficientSet:
    """Resonant strong-drive state from the ground state, sectors m <= 1.

    Vacuum amplitudes e^{-gamma t/4} (cos, sin)(Omega t/2); one-photon
    densities -sqrt(gamma) e^{-gamma t/4} {cos, sin}(Omega (t-t')/2)
    sin(Omega t'/2) e^{-(gamma/2 + i omega_q) t'}.
    """
    _strong_drive_guard(params)
    grid = params.grid
    step = grid.index_of(t)
    gamma, omega = params.gamma, params.omega_rabi
    envelope = math.exp(-0.25 * gamma * t)
    vac = np.array([[envelope * math.cos(0.5 * omega * t)],
                    [envelope * math.sin(0.5 * omega * t)]], dtype=complex)
    tp = np.arange(step) * params.dt
    common = (-math.sqrt(gamma) * envelope * np.sin(0.5 * omega * tp)
              * np.exp(-(0.5 * gamma + 1j * params.omega_q) * tp))
    one = np.empty((2, step), dtype=complex)
    one[0] = np.cos(0.5 * omega * (t - tp)) * common
    one[1] = np.sin(0.5 * omega * (t - tp)) * common
    one *= math.sqrt(params.dt)  # discrete amplitude = sqrt(dt) * density
    return CoefficientSet(step=step, m_max=1, grid=grid, frame=DISPLACED,
                          tuples=[np.zeros((1, 0), dtype=int),
                                  np.arange(step, dtype=int).reshape(step, 1)],
                          values=[vac, one])


def strong_drive_weights(params: SimulationParams):
    """Sector weights (2, N+1, 2) of the strong-drive state over the whole grid.

    Index order: photon count (0, 1), step, qubit label.  Evaluated by a
    causal convolution so the full trajectory costs O(N log N).
    """
    _strong_drive_guard(params)
    grid = params.grid
    t = grid.times()
    gamma, omega = params.gamma, params.omega_rabi
    damp = np.exp(-0.5 * gamma * t)
    sin2 = np.sin(0.5 * omega * t) ** 2
    cos2 = np.cos(0.5 * omega * t) ** 2
    n = grid.n_steps
    src = sin2[:n] * np.exp(-gamma * t[:n])
    w1 = np.zeros((n + 1, 2))
    for col, ker in ((0, cos2[:n]), (1, sin2[:n])):
        conv = _conv.causal_convolve(ker, src)
        acc = np.zeros(n + 1)
        acc[1:] = conv[1:n + 1]
        # strictly past bins: drop the same-step (lag-0) term
        acc[1:n] -= ker[0] * src[1:n]
        w1[:, col] = gamma * params.dt * damp * acc
    weights = np.empty((2, n + 1, 2))
    weights[0, :, 0] = damp * cos2
    weights[0, :, 1] = damp * sin2
    weights[1] = w1
    return weights


# ---------------------------------------------------------------------------
# vacuum and single-photon inputs
# ---------------------------------------------------------------------------

def spontaneous_emission_state(t: float, params: SimulationParams) -> SinglePhotonState:
    """Wigner-Weisskopf state at time t: c_e = e^{-gamma t/2}, photon density
    -sqrt(gamma) e^{-gamma t'/2 - i omega_q t'} over past bins."""
    grid = params.grid
    step = grid.index_of(t)
    tp = np.arange(grid.n_steps) * params.dt
    dens = np.where(np.arange(grid.n_steps) < step,
                    -np.sqrt(params.gamma)
                    * np.exp((-0.5 * params.gamma - 1j * params.omega_q) * tp),
                    0.0)
    return SinglePhotonState(c_e=complex(math.exp(-0.5 * params.gamma * t)),
                             g=np.sqrt(params.dt) * dens, grid=grid)


def spontaneous_emission_norm_closed_form(gamma: float, t: float) -> float:
    """Continuum norm e^{-gamma t} + gamma * int_0^t e^{-gamma t'} dt', summed exactly."""
    decayed = math.exp(-gamma * t)
    return math.fsum((decayed, 1.0, -decayed))


def xi_tilde_trajectory(wavepacket: Wavepacket, params: SimulationParams) -> np.ndarray:
    """Filtered envelope e^{-gamma t/2} int_0^t e^{gamma t'/2 + i w_q t'} xi(t') dt'
    on every grid point (left-Riemann, cumulative, O(N))."""
    grid = wavepacket.grid
    tp = np.arange(grid.n_steps) * grid.dt
    integrand = (np.exp((0.5 * params.gamma + 1j * params.omega_q) * tp)
                 * wavepacket.samples * grid.dt)
    cum = np.concatenate(([0.0], np.cumsum(integrand)))
    return np.exp(-0.5 * params.gamma * grid.times()) * cum


def xi_tilde(wavepacket: Wavepacket, t: float, params: SimulationParams) -> complex:
    return complex(xi_tilde_trajectory(wavepacket, params)[wavepacket.grid.index_of(t)])


def single_photon_state(wavepacket: Wavepacket, t: float,
                        params: SimulationParams) -> SinglePhotonState:
    """Closed-form joint state under single-photon driving at time t.

    c_e = sqrt(gamma) xi~(t); the photon amplitude density is xi(t') for bins
    not yet collided and xi(t') - gamma xi~(t') e^{-i w_q t'} for past bins.
    """
    grid = wavepacket.grid
    step = grid.index_of(t)
    xt = xi_tilde_trajectory(wavepacket, params)
    tp = np.arange(grid.n_steps) * grid.dt
    dens = wavepacket.samples.astype(complex).copy()
    past = np.arange(grid.n_steps) < step
    dens[past] -= (params.gamma * xt[:grid.n_steps]
                   * np.exp(-1j * params.omega_q * tp))[past]
    return SinglePhotonState(c_e=complex(np.sqrt(params.gamma) * xt[step]),
                             g=np.sqrt(grid.dt) * dens, grid=grid)


def single_photon_p_excited(wavepacket: Wavepacket, params: SimulationParams) -> np.ndarray:
    """P_e(t) = gamma |xi~(t)|^2 over the whole grid."""
    return params.gamma * np.abs(xi_tilde_trajectory(wavepacket, params)) ** 2
