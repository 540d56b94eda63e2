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

import numpy as np

from . import _conv
from .core import (RunRecord, SimulationParams, ValidityWarning, Wavepacket, complex_rabi,
                   grid_exp, populations, qubit_index, qubit_vector)
from .engine import MAX_SECTOR_AMPLITUDES, SIGMA_MINUS, SectorState, SinglePhotonState


def f0_matrix(t, params: SimulationParams) -> np.ndarray:
    """No-emission propagator M(t) with entries f_{eps,phi0}(t); t may be an array."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("t must be non-negative")
    gamma, delta, omega = params.gamma, params.delta, params.omega_rabi
    opr = complex_rabi(params)
    # M is even in Omega', and 0 <= Im Omega' keeps |e^{i Omega' t}| <= 1.  The
    # prefactor shares one exponent with e^{-i Omega' t/2}; its real part
    # -gamma t/4 + Im(Omega') t/2 is <= 0 since Im Omega' <= gamma/2, which the
    # clamp keeps true after rounding, so no factor overflows however long t is
    opr = complex(math.copysign(opr.real, opr.imag), min(abs(opr.imag), 0.5 * gamma))
    down = np.exp(-0.5j * (delta + opr - 0.5j * gamma) * t)
    turn = np.expm1(1j * opr * t)  # e^{i Omega' t} - 1, accurate near t = 0
    cos_half = down * (1 + 0.5 * turn)
    # prefactor times sin(Omega' t/2)/Omega', whose limit at Omega' = 0 is t/2
    sin_over = down * (turn / (2j * opr) if opr else 0.5 * t)
    diag = sin_over * (0.5 * gamma + 1j * delta)
    out = np.empty(t.shape + (2, 2), dtype=complex)
    out[..., 0, 0] = cos_half + diag
    out[..., 0, 1] = sin_over * omega
    out[..., 1, 0] = -sin_over * omega
    out[..., 1, 1] = cos_half - diag
    return out


def fm(phi0: str, t: float, times, params: SimulationParams) -> np.ndarray:
    """(2,) m-photon coefficient densities, eps = g, e, for sorted emission times
    (m = len(times))."""
    times = list(times)
    if any(b < a for a, b in zip(times, times[1:])):
        raise ValueError("emission times must be sorted ascending")
    if times and (times[0] < 0 or times[-1] > t):
        raise ValueError("emission times must lie in [0, t]")
    m = len(times)
    # the m + 1 no-emission segments: from phi0, or from g after an emission, to e; the
    # last to both labels
    segments = f0_matrix(np.diff([0.0, *times, t]), params)
    starts = [qubit_index(q) for q in [phi0] + ["g"] * m]
    value = np.prod(segments[np.arange(m), 1, starts[:-1]]) * segments[m, :, starts[-1]]
    return (-math.sqrt(params.gamma)) ** m * value * np.exp(-1j * params.omega_p * sum(times))


def _emission_block(params: SimulationParams) -> np.ndarray:
    """-sqrt(gamma dt) sigma_- propagated over its own bin by M(dt) (see _conv)."""
    return f0_matrix(params.dt, params) @ (-math.sqrt(params.gamma * params.dt) * SIGMA_MINUS)


#: highest photon sector whose tuples assemble_coherent enumerates (a cost guard)
ASSEMBLY_M_MAX = 3


def assemble_coherent(params: SimulationParams, t: float, m_max: int, phi0="g") -> SectorState:
    """Evaluate the closed-form coefficients over all ordered tuples up to m_max.

    The result has the sector-state layout; its discrete amplitudes are
    (sqrt(dt))^m times the continuum densities.
    """
    if m_max < 0:
        raise ValueError("m_max must be >= 0")
    if m_max > ASSEMBLY_M_MAX:
        raise ValueError(f"analytic assembly is limited to m_max <= {ASSEMBLY_M_MAX} (cost guard)")
    grid = params.grid
    step = grid.index_of(t)
    mats = f0_matrix(np.arange(step + 1) * params.dt, params)  # M(t_j) for lags j
    phases = np.exp(-1j * params.omega_p * params.dt * np.arange(step))
    tuples, values = _conv.materialize_tuples(mats, _emission_block(params), phases,
                                              qubit_vector(phi0), step, m_max,
                                              MAX_SECTOR_AMPLITUDES)
    return SectorState(step=step, m_max=m_max, grid=grid, tuples=tuples, values=values)


def coherent_qubit_trajectory(params: SimulationParams, m_max: int, phi0="g") -> RunRecord:
    """Record of the closed-form state: reduced-qubit and sector-weight trajectories.

    The per-sector qubit moments follow a linear recurrence in the one-step map M(dt),
    run by log-depth doubling (``_conv.moment_chain``), instead of an enumeration of
    tuples: O(N * m_max) time and memory.  The record carries no flux; its norm is rho's trace.
    """
    if m_max < 0:
        raise ValueError("m_max must be >= 0")
    mats = f0_matrix(params.grid.times(), params)
    rho, weights, _ = _conv.moment_chain(mats, _emission_block(params), qubit_vector(phi0), m_max,
                                         params.gamma * params.dt)
    return RunRecord(params, rho, weights=weights)


# ---------------------------------------------------------------------------
# strong-drive limit
# ---------------------------------------------------------------------------

def _strong_drive_guard(params: SimulationParams):
    if params.omega_rabi < 20 * params.gamma or params.delta != 0:
        warnings.warn(
            "strong-drive closed form assumes Omega >= 20*gamma and delta = 0 "
            f"(got Omega = {params.omega_rabi}, delta = {params.delta})",
            ValidityWarning, stacklevel=3)


def strong_drive_state(t: float, params: SimulationParams) -> SectorState:
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
    return SectorState(step=step, m_max=1, grid=grid,
                       tuples=[np.zeros((1, 0), dtype=int),
                               np.arange(step, dtype=int).reshape(step, 1)],
                       values=[vac, one])


def strong_drive_weights(params: SimulationParams):
    """Sector weights (2, N+1, 2) of the strong-drive state over the whole grid.

    Index order: photon count (0, 1), step, qubit label.  The one-photon
    kernels cos^2 and sin^2 of Omega (t - t')/2 are (1 +- cos Omega (t - t'))/2,
    which separate in t and t', so cumulative sums over past bins give the
    whole trajectory in O(N).
    """
    _strong_drive_guard(params)
    t = params.grid.times()
    gamma, omega, n = params.gamma, params.omega_rabi, params.n_steps
    damp = np.exp(-0.5 * gamma * t)
    sin2 = np.sin(0.5 * omega * t) ** 2
    src = sin2[:n] * np.exp(-gamma * t[:n])
    # sums over strictly past bins t' < t of src(t') and of cos(Omega (t - t')) src(t')
    flat = np.concatenate(([0.0], np.cumsum(src)))
    turn = np.concatenate(([0.0], np.cumsum(np.exp(-1j * omega * t[:n]) * src)))
    rot = (np.exp(1j * omega * t) * turn).real
    weights = np.empty((2, n + 1, 2))
    weights[0, :, 0] = damp * np.cos(0.5 * omega * t) ** 2
    weights[0, :, 1] = damp * sin2
    weights[1] = 0.5 * gamma * params.dt * damp[:, None] * np.stack((flat + rot, flat - rot), 1)
    return weights


# ---------------------------------------------------------------------------
# vacuum and single-photon inputs
# ---------------------------------------------------------------------------

def spontaneous_emission_state(t: float, params: SimulationParams) -> SinglePhotonState:
    """Wigner-Weisskopf state at time t: c_e = e^{-gamma t/2}, photon density
    -sqrt(gamma) e^{-gamma t'/2 - i omega_q t'} over past bins."""
    grid = params.grid
    step = grid.index_of(t)
    dens = np.zeros(grid.n_steps, dtype=complex)
    dens[:step] = -np.sqrt(params.gamma) * grid_exp(-0.5 * params.gamma - 1j * params.omega_q,
                                                    params.dt, step)
    return SinglePhotonState(c_e=complex(math.exp(-0.5 * params.gamma * t)),
                             g=np.sqrt(params.dt) * dens, grid=grid)


def spontaneous_emission_record(params: SimulationParams) -> RunRecord:
    """Populations e^{-gamma t} over the discrete norm ledger, and the final flux
    gamma e^{-gamma t'}."""
    gamma = params.gamma
    p_e = np.exp(-gamma * params.grid.times())
    # discrete norm: survival + left-Riemann photon weight over past bins
    past = np.concatenate(([0.0], np.cumsum(params.dt * gamma * p_e[:-1])))
    return RunRecord(params, populations(p_e, p_e + past), gamma * p_e[:-1])


def xi_tilde_trajectory(wavepacket: Wavepacket, params: SimulationParams) -> np.ndarray:
    """Filtered envelope e^{-gamma t/2} int_0^t e^{gamma t'/2 + i w_q t'} xi(t') dt'
    on every point of params.grid, the packet's grid (left-Riemann, cumulative, O(N)).

    The growing exponent restarts every block of gamma*t/2 <= 300, and the
    damped running sum is carried from block to block, so no factor overflows
    however long the run; a run that fits in one block is a single pass.
    """
    if wavepacket.grid != params.grid:
        raise ValueError(f"wavepacket grid {wavepacket.grid} is not the run's {params.grid}")
    grid = wavepacket.grid
    n, t = grid.n_steps, grid.times()
    half_rate = 0.5 * params.gamma * grid.dt
    block = n if half_rate * n <= 300 else max(1, int(300 / half_rate))
    parts, carry = [], np.zeros(1, dtype=complex)
    for s in range(0, n, block):
        e = min(s + block, n)
        # block-local times t_k - t_s = t_(k-s), so the exponent stays below 300
        integrand = (grid_exp(0.5 * params.gamma + 1j * params.omega_q, grid.dt, e - s)
                     * wavepacket.samples[s:e] * grid.dt)
        if s:  # the phase e^{i w_q t_s} that the block-local exponent leaves out
            integrand *= np.exp(1j * params.omega_q * t[s])
        part = (np.exp(-0.5 * params.gamma * t[:e - s + 1])
                * np.cumsum(np.concatenate((carry, integrand))))
        carry = part[-1:]
        parts.append(part[1:] if s else part)
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def single_photon_state(wavepacket: Wavepacket, t: float,
                        params: SimulationParams) -> SinglePhotonState:
    """Closed-form joint state under single-photon driving at time t.

    c_e = sqrt(gamma) xi~(t); the photon amplitude density is xi(t') for bins
    not yet collided and xi(t') - gamma xi~(t') e^{-i w_q t'} for past bins.
    """
    grid = wavepacket.grid
    step = grid.index_of(t)
    xt = xi_tilde_trajectory(wavepacket, params)
    dens = wavepacket.samples.astype(complex)
    dens[:step] -= params.gamma * xt[:step] * grid_exp(-1j * params.omega_q, grid.dt, step)
    return SinglePhotonState(c_e=complex(np.sqrt(params.gamma) * xt[step]),
                             g=np.sqrt(grid.dt) * dens, grid=grid)


def single_photon_p_excited(wavepacket: Wavepacket, params: SimulationParams) -> np.ndarray:
    """P_e(t) = gamma |xi~(t)|^2 over the whole grid."""
    return params.gamma * np.abs(xi_tilde_trajectory(wavepacket, params)) ** 2


def single_photon_record(wavepacket: Wavepacket, params: SimulationParams) -> RunRecord:
    """Populations over the norm ledger, and the final flux: the scattered density
    |xi(t') - gamma xi~(t') e^{-i w_q t'}|^2 of every bin."""
    xt = xi_tilde_trajectory(wavepacket, params)
    flux = np.abs(wavepacket.samples - params.gamma * xt[:params.n_steps]
                  * grid_exp(-1j * params.omega_q, params.dt, params.n_steps)) ** 2
    # photon weight: past bins carry the scattered density, future the input
    incoming = np.abs(wavepacket.samples) ** 2 * params.dt
    p_e = single_photon_p_excited(wavepacket, params)
    norm = (p_e
            + np.concatenate(([0.0], np.cumsum(flux * params.dt)))
            + (np.sum(incoming) - np.concatenate(([0.0], np.cumsum(incoming)))))
    return RunRecord(params, populations(p_e, norm), flux)
