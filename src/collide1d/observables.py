"""Reduced states, entanglement, photon statistics, and cross-tier checks."""

from __future__ import annotations

import numpy as np

from .core import MAX_NORM_DEFICIT
from .engine import LAB, DenseJointState, DenseTrajectory, SectorState, SinglePhotonState


def _reject_rows(bad: np.ndarray, message: str, values: np.ndarray):
    """Raise ValueError for the first flagged matrix, naming its row in a stack."""
    if bad.any():
        row = np.unravel_index(np.argmax(bad), bad.shape)
        where = f" in row {', '.join(map(str, row))}" if row else ""
        raise ValueError(f"{message}{where} = {values[row]}")


def reduced_qubit(state) -> np.ndarray:
    """2x2 reduced qubit density matrix of any state, or a (..., 2, 2) stack of them.

    States with a norm deficit (sector truncation, discretization) are
    renormalized to unit trace; a deficit above 0.1 is rejected.
    """
    if isinstance(state, np.ndarray) and state.shape[-2:] == (2, 2):
        rho = state.astype(complex)
    elif isinstance(state, (DenseJointState, SectorState)):
        rho = state.qubit_matrix()
    elif isinstance(state, SinglePhotonState):
        rho = np.diag([float(np.sum(np.abs(state.g) ** 2)),
                       abs(state.c_e) ** 2]).astype(complex)
    else:
        raise TypeError(f"cannot reduce a {type(state).__name__}")
    trace = rho[..., 0, 0].real + rho[..., 1, 1].real
    # written as "not within", so a nan trace is rejected too
    _reject_rows(~(np.abs(trace - 1.0) <= MAX_NORM_DEFICIT),
                 "state norm deficit too large to interpret: trace", trace)
    return rho / trace[..., None, None]


def entanglement_entropy(state):
    """Von Neumann entropy of the reduced qubit, in bits; an array for a stack."""
    evals = np.linalg.eigvalsh(reduced_qubit(state))
    _reject_rows(~((evals[..., 0] >= -1e-10) & (evals[..., 1] <= 1 + 1e-10)),
                 "reduced state not a density matrix: eigenvalues", evals)
    evals = np.clip(evals, 0.0, 1.0)
    terms = evals * np.log2(evals, out=np.zeros_like(evals), where=evals > 0)
    return -(terms[..., 0] + terms[..., 1]) + 0.0


def photon_density(state, dt: float | None = None) -> np.ndarray:
    """Flux density <a_n^dag a_n>/dt per time bin; integrates (x dt) to the
    mean emitted photon number.  Dense states carry no grid, so dt is required
    for them."""
    if isinstance(state, SinglePhotonState):
        return np.abs(state.g) ** 2 / state.grid.dt
    if isinstance(state, SectorState):
        out = np.zeros(state.grid.n_steps)
        for m in range(1, state.m_max + 1):
            if state.tuples[m].size == 0:
                continue
            weight = np.sum(np.abs(state.values[m]) ** 2, axis=0)
            for col in range(m):
                np.add.at(out, state.tuples[m][:, col], weight)
        return out / state.grid.dt
    if isinstance(state, DenseJointState):
        if dt is None:
            raise ValueError("photon_density of a dense state needs the bin duration dt")
        d = state.fock_dim
        # sum out the qubit, then peel off the slowest mode at each pass: O(d^N) in all
        probs = (np.abs(state.amplitudes) ** 2).reshape(2, -1).sum(axis=0)
        out = np.empty(state.n_modes)
        for n in range(state.n_modes):
            probs = probs.reshape(d, -1)
            out[n] = float(probs.sum(axis=1) @ np.arange(d))
            probs = probs.sum(axis=0)
        return out / dt
    raise TypeError(f"cannot compute photon density of a {type(state).__name__}")


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


def state_fidelity(a, b) -> float:
    """|<a|b>|^2 between two same-representation states, normalized into [0, 1]."""
    if type(a) is not type(b):
        raise TypeError(f"cannot compare {type(a).__name__} with {type(b).__name__}")
    if isinstance(a, SinglePhotonState):
        if a.grid != b.grid:
            raise ValueError("states live on different grids")
        overlap = np.conj(a.c_e) * b.c_e + np.vdot(a.g, b.g)
        na, nb = a.norm_squared(), b.norm_squared()
    elif isinstance(a, SectorState):
        if a.grid != b.grid or a.step != b.step:
            raise ValueError("states live on different grids or times")
        shared = min(a.m_max, b.m_max)
        overlap = sum(np.vdot(a.values[m], b.values[m]) for m in range(shared + 1))
        na, nb = a.norm_squared(), b.norm_squared()
    elif isinstance(a, DenseJointState):
        if (a.n_modes, a.fock_dim, a.frame) != (b.n_modes, b.fock_dim, b.frame):
            raise ValueError("states live on different spaces or frames")
        overlap = np.vdot(a.amplitudes, b.amplitudes)
        na, nb = a.norm**2, b.norm**2
    else:
        raise TypeError(f"unsupported state type {type(a).__name__}")
    return float(abs(overlap) ** 2 / (na * nb))


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
