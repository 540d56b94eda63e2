"""Time grids, simulation parameters, and wavepacket construction.

Everything downstream works on a uniform grid t_n = n*dt, with one bosonic
temporal mode per bin [t_n, t_{n+1}).  Discrete norms use the left-Riemann
convention sum_n dt*|xi(t_n)|^2, matching the collision model's own
discretization, so discrete-vs-continuum comparisons converge at one rate.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

GROUND = "g"
EXCITED = "e"
QUBIT_INDEX = {GROUND: 0, EXCITED: 1}

#: largest joint-state exponent the dense oracle will allocate: 2 * d^N <= 2^24
DENSE_SIZE_BITS = 24

#: dimensionless first-order validity bound for gamma*dt, Omega*dt, |delta|*dt
VALIDITY_BOUND = 0.1

#: largest |trace - 1| of a reduced qubit state that is still renormalized
MAX_NORM_DEFICIT = 0.1


class ValidityWarning(UserWarning):
    """A rate times dt is too large for the first-order collision picture."""


class MemoryGuardError(RuntimeError):
    """A requested state or tensor would exceed the configured memory budget."""


def qubit_index(label: str) -> int:
    try:
        return QUBIT_INDEX[label]
    except KeyError:
        raise ValueError(f"qubit label must be 'g' or 'e', got {label!r}") from None


def qubit_vector(phi0) -> np.ndarray:
    """Normalize a qubit specification ('g', 'e', or a length-2 vector) to a vector."""
    if isinstance(phi0, str):
        v = np.zeros(2, dtype=complex)
        v[qubit_index(phi0)] = 1.0
        return v
    v = np.asarray(phi0, dtype=complex)
    if v.shape != (2,):
        raise ValueError("qubit state must be 'g', 'e', or a length-2 amplitude vector")
    n = np.linalg.norm(v)
    if not math.isclose(n, 1.0, rel_tol=0, abs_tol=1e-9):
        raise ValueError(f"qubit state vector must be normalized, |v| = {n}")
    return v


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_n = n*dt for n = 0..n_steps."""

    dt: float
    n_steps: int

    def __post_init__(self):
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if self.n_steps < 1 or int(self.n_steps) != self.n_steps:
            raise ValueError(f"n_steps must be a positive integer, got {self.n_steps}")

    @property
    def total_time(self) -> float:
        return self.n_steps * self.dt

    def times(self) -> np.ndarray:
        """All grid times, including both endpoints (length n_steps + 1)."""
        return np.arange(self.n_steps + 1) * self.dt

    def index_of(self, t: float) -> int:
        """Grid index of a time that lies on the grid (within 1e-9 * dt)."""
        steps = t / self.dt
        n = int(round(steps)) if math.isfinite(steps) else -1
        if not 0 <= n <= self.n_steps or abs(n * self.dt - t) > 1e-9 * self.dt:
            raise ValueError(f"t = {t} is not on the grid (dt = {self.dt}, T = {self.total_time})")
        return n


@dataclass(frozen=True)
class SimulationParams:
    """Physical and numerical knobs for one run.

    gamma      : qubit decay rate into the waveguide (> 0)
    omega_q    : qubit angular frequency (>= 0)
    delta      : drive detuning omega_q - omega_p
    omega_rabi : classical Rabi frequency of the displaced-frame drive (>= 0)
    dt         : collision duration
    n_steps    : number of collisions
    fock_dim   : per-mode Fock truncation of the dense oracle (>= 2)
    A rate times dt >= VALIDITY_BOUND issues a ValidityWarning; a caller refuses
    such a run with warnings.simplefilter("error", ValidityWarning).
    """

    gamma: float
    dt: float
    n_steps: int
    omega_q: float = 0.0
    delta: float = 0.0
    omega_rabi: float = 0.0
    fock_dim: int = 2

    def __post_init__(self):
        for name in ("gamma", "dt", "omega_q", "delta", "omega_rabi"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.gamma <= 0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")
        if self.omega_q < 0:
            raise ValueError(f"omega_q must be non-negative, got {self.omega_q}")
        if self.omega_rabi < 0:
            # The drive amplitude is treated as real and non-negative; a complex
            # or negative amplitude is not covered by the closed forms.
            raise ValueError(f"omega_rabi must be non-negative, got {self.omega_rabi}")
        if self.dt <= 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.n_steps < 1 or int(self.n_steps) != self.n_steps:
            raise ValueError(f"n_steps must be a positive integer, got {self.n_steps}")
        if self.fock_dim < 2 or int(self.fock_dim) != self.fock_dim:
            raise ValueError(f"fock_dim must be an integer >= 2, got {self.fock_dim}")
        self._check_validity()

    def _check_validity(self):
        checks = [
            ("gamma*dt", self.gamma * self.dt),
            ("omega_rabi*dt", self.omega_rabi * self.dt),
            ("|delta|*dt", abs(self.delta) * self.dt),
        ]
        for name, value in checks:
            if value >= VALIDITY_BOUND:
                msg = (f"{name} = {value:.3g} >= {VALIDITY_BOUND}; the collision picture "
                       f"is only first order in dt")
                # past __post_init__ and the generated __init__ to the caller
                warnings.warn(msg, ValidityWarning, stacklevel=4)

    @property
    def omega_p(self) -> float:
        """Drive frequency, always derived as omega_q - delta."""
        return self.omega_q - self.delta

    @property
    def grid(self) -> TimeGrid:
        return TimeGrid(dt=self.dt, n_steps=self.n_steps)


def complex_rabi(params: SimulationParams) -> complex:
    """Complex Rabi frequency sqrt(Omega^2 + (delta - i*gamma/2)^2), principal branch.

    Downstream no-emission amplitudes are even in this quantity, so the branch
    choice is observationally irrelevant.
    """
    return complex(np.sqrt(params.omega_rabi**2 + (params.delta - 0.5j * params.gamma) ** 2 + 0j))


class RunRecord(NamedTuple):
    """What every solver and oracle produces over a run of N collisions.

    rho     : (N+1, 2, 2) reduced qubit matrices after each collision; their trace
              is the norm ledger.  The Bloch oracle's rows run to t_final's step.
    flux    : (N,) photon flux density per bin of the final state, or None
    weights : (m_max+1, N+1, 2) sector weights per photon count and qubit label, or None
    P_e per row is p_excited().
    """

    params: SimulationParams
    rho: np.ndarray
    flux: np.ndarray | None = None
    weights: np.ndarray | None = None

    def p_excited(self) -> np.ndarray:
        return self.rho[:, 1, 1].real


def populations(p_e: np.ndarray, norm: np.ndarray) -> np.ndarray:
    """Qubit matrices without coherence: P_e in e, the rest of the norm in g.

    Real, since there is no coherence to hold: half the memory of complex rows.
    """
    rho = np.zeros((len(p_e), 2, 2))
    rho[:, 1, 1] = p_e
    np.subtract(norm, p_e, out=rho[:, 0, 0])
    return rho


@dataclass(frozen=True)
class Wavepacket:
    """Sampled complex envelope xi(t_n), one sample per temporal mode.

    samples[n] is the envelope at the left endpoint of bin n, n = 0..n_steps-1,
    normalized so that sum_n dt*|samples[n]|^2 = 1.
    """

    samples: np.ndarray = field(repr=False)
    grid: TimeGrid

    def __post_init__(self):
        if len(self.samples) != self.grid.n_steps:
            raise ValueError(
                f"wavepacket has {len(self.samples)} samples for a grid of "
                f"{self.grid.n_steps} bins")

    def discrete_norm(self) -> float:
        return float(self.grid.dt * np.sum(np.abs(self.samples) ** 2))

    def mode_amplitudes(self) -> np.ndarray:
        """Discrete one-photon amplitudes sqrt(dt)*xi(t_n) (unit l2 norm)."""
        return np.sqrt(self.grid.dt) * self.samples


def grid_exp(rate: complex, dt: float, n: int) -> np.ndarray:
    """exp(rate*k*dt) for k = 0..n-1, from two tables of about sqrt(n) exponentials.

    exp(rate*dt*(w*j + i)) = exp(rate*w*dt*j) * exp(rate*dt*i) with w = isqrt(n): about
    2*sqrt(n) complex exps and n products, where np.exp would take n complex exps.
    """
    w = max(1, math.isqrt(n))
    coarse = np.exp(rate * w * dt * np.arange(-(-n // w)))
    return (coarse[:, None] * np.exp(rate * dt * np.arange(w))).ravel()[:n]


def _normalized(raw: np.ndarray, grid: TimeGrid) -> Wavepacket:
    norm = math.sqrt(grid.dt * float(np.sum(np.abs(raw) ** 2)))
    if norm == 0:
        raise ValueError("wavepacket envelope is identically zero")
    factor = 1.0 / norm
    pkt = Wavepacket(samples=raw * factor, grid=grid)
    if not abs(pkt.discrete_norm() - 1.0) < 1e-9:
        raise ValueError(f"wavepacket envelope cannot be normalized: discrete norm "
                         f"{pkt.discrete_norm()} after rescaling")
    return pkt


def make_exponential_wavepacket(big_gamma: float, omega: float, grid: TimeGrid) -> Wavepacket:
    """Decaying exponential envelope sqrt(G)*exp(-G*t/2)*exp(-i*omega*t).

    The grid must hold essentially all of the packet: a grid with
    exp(-G*T) >= 1e-6 is refused.
    """
    if big_gamma <= 0:
        raise ValueError(f"envelope decay rate must be positive, got {big_gamma}")
    tail = math.exp(-big_gamma * grid.total_time)
    if tail >= 1e-6:
        raise ValueError(
            f"grid too short for the exponential packet: exp(-G*T) = {tail:.3g} >= 1e-6; "
            f"extend the grid")
    raw = math.sqrt(big_gamma) * grid_exp(-0.5 * big_gamma - 1j * omega, grid.dt, grid.n_steps)
    return _normalized(raw, grid)


def make_gaussian_wavepacket(sigma: float, t0: float, omega: float,
                             grid: TimeGrid) -> Wavepacket:
    """Gaussian envelope peaked at t0 with intensity width sigma.

    Requires 5-sigma support inside the grid so the sampled packet is whole.
    """
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    if t0 - 5 * sigma < 0 or t0 + 5 * sigma > grid.total_time:
        raise ValueError(
            f"gaussian support [t0 - 5s, t0 + 5s] = [{t0 - 5 * sigma:.3g}, "
            f"{t0 + 5 * sigma:.3g}] must lie inside [0, {grid.total_time:.3g}]")
    t = np.arange(grid.n_steps) * grid.dt
    raw = ((2 * math.pi * sigma**2) ** -0.25
           * np.exp(-((t - t0) ** 2) / (4 * sigma**2))
           * grid_exp(-1j * omega, grid.dt, grid.n_steps))
    return _normalized(raw, grid)
