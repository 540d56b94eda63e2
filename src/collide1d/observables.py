"""Observables read off a run: the reduced qubit state and its entanglement
entropy from qubit matrices (``RunRecord.rho``), the flux and fidelity of
single-photon states, and the input-output residual of a dense trajectory."""

from __future__ import annotations

import numpy as np

from .core import MAX_NORM_DEFICIT
from .engine import LAB, DenseTrajectory, SinglePhotonState


def _reject_rows(bad: np.ndarray, message: str, values: np.ndarray):
    """Raise ValueError for the first flagged matrix, naming its row in a stack."""
    if bad.any():
        row = np.unravel_index(np.argmax(bad), bad.shape)
        where = f" in row {', '.join(map(str, row))}" if row else ""
        raise ValueError(f"{message}{where} = {values[row]}")


def reduced_qubit(rho: np.ndarray) -> np.ndarray:
    """2x2 reduced qubit density matrix from a qubit matrix or a (..., 2, 2) stack
    of them, such as a run's ``RunRecord.rho``.

    Matrices with a norm deficit (sector truncation, discretization) are
    renormalized to unit trace; a deficit above 0.1 is rejected.
    """
    if not (isinstance(rho, np.ndarray) and rho.shape[-2:] == (2, 2)):
        raise TypeError(f"cannot reduce a {type(rho).__name__}: want a (..., 2, 2) array")
    trace = rho[..., 0, 0].real + rho[..., 1, 1].real
    # written as "not within", so a nan trace is rejected too
    _reject_rows(~(np.abs(trace - 1.0) <= MAX_NORM_DEFICIT),
                 "state norm deficit too large to interpret: trace", trace)
    return rho.astype(complex) / trace[..., None, None]


def entanglement_entropy(rho: np.ndarray):
    """Von Neumann entropy, in bits, of a qubit matrix or of each matrix of a
    (..., 2, 2) stack (an array then): the light-matter entanglement of a pure
    joint state."""
    evals = np.linalg.eigvalsh(reduced_qubit(rho))
    _reject_rows(~((evals[..., 0] >= -1e-10) & (evals[..., 1] <= 1 + 1e-10)),
                 "reduced state not a density matrix: eigenvalues", evals)
    evals = np.clip(evals, 0.0, 1.0)
    terms = evals * np.log2(evals, out=np.zeros_like(evals), where=evals > 0)
    return -(terms[..., 0] + terms[..., 1]) + 0.0


def photon_density(state: SinglePhotonState) -> np.ndarray:
    """Flux density <a_n^dag a_n>/dt per time bin of a single-photon state; integrates
    (x dt) to the mean emitted photon number.  Sector and dense runs record their
    flux: read ``SectorRun.record().flux`` or ``DenseTrajectory.photons``."""
    if not isinstance(state, SinglePhotonState):
        raise TypeError(f"cannot compute photon density of a {type(state).__name__}")
    return np.abs(state.g) ** 2 / state.grid.dt


def io_residual(trajectory: DenseTrajectory) -> np.ndarray:
    """|<a_out(t_n)> + sqrt(gamma) <sigma_-(t_{n-1})>| per step.

    a_out is <a_{n-1}>/sqrt(dt) right after collision n = 1..N, the only one on
    mode n - 1, which ``run_dense`` records on the light cone.  a_in, the same
    before it, is 0: ``run_dense`` starts from the vacuum field.  <sigma_-> is the
    interaction-picture rho_eg before it, from the recorded qubit matrices.
    O(N) in all.  Zero to machine precision for vacuum and spontaneous
    emission; first order in dt for driven runs (the remainder of the
    per-collision expansion).
    """
    params = trajectory.params
    n = params.n_steps
    omega = params.omega_q if trajectory.frame == LAB else params.omega_p
    root_dt = np.sqrt(params.dt)
    field = trajectory.a_out / root_dt
    sigma_minus = (trajectory.qubit_matrices[:n, 1, 0]
                   * np.exp(-1j * omega * np.arange(n) * params.dt))
    return np.abs(field + np.sqrt(params.gamma) * sigma_minus)


def state_fidelity(a: SinglePhotonState, b: SinglePhotonState) -> float:
    """|<a|b>|^2 of two single-photon states on one grid, normalized into [0, 1]."""
    for state in (a, b):
        if not isinstance(state, SinglePhotonState):
            raise TypeError(f"unsupported state type {type(state).__name__}")
    if a.grid != b.grid:
        raise ValueError("states live on different grids")
    overlap = np.conj(a.c_e) * b.c_e + np.vdot(a.g, b.g)
    return float(abs(overlap) ** 2 / (a.norm_squared() * b.norm_squared()))


def dominant_angular_frequency(signal: np.ndarray, dt: float) -> float:
    """Angular frequency of the strongest non-DC spectral peak (parabolic refine)."""
    sig = np.asarray(signal, dtype=float)
    sig = sig - sig.mean()
    spec = np.abs(np.fft.rfft(sig * np.hanning(len(sig)))) ** 2
    if len(spec) < 4:
        raise ValueError("signal too short for frequency extraction")
    k = int(np.argmax(spec[1:]) + 1)
    step = 2 * np.pi / (len(sig) * dt)
    if 1 <= k < len(spec) - 1 and spec[k - 1] > 0 and spec[k + 1] > 0:
        la, lb, lc = np.log(spec[k - 1]), np.log(spec[k]), np.log(spec[k + 1])
        denom = la - 2 * lb + lc
        if denom != 0:
            return (k + 0.5 * (la - lc) / denom) * step
    return k * step


def power_law_exponent(xs, ys) -> float:
    """Least-squares slope of log(y) against log(x)."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if np.any(xs <= 0) or np.any(ys <= 0):
        raise ValueError("power-law fit needs positive data")
    return float(np.polyfit(np.log(xs), np.log(ys), 1)[0])
