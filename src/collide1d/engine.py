"""Collision-by-collision propagation of the joint qubit-field state.

Three tiers share the same per-collision unitaries:

* a dense brute-force oracle over the qubit x (d-level)^N state from a qubit state over
  the vacuum field, on a light cone grown by one vacuum mode per collision, recording <a_n>,
* a recursion for a single excitation shared between qubit and field,
* an excitation-sector propagator in the displaced frame, where each temporal
  mode interacts exactly once, so the joint state decomposes into ordered
  emitted-photon tuples carrying qubit 2-vectors.

The qubit basis order is (g, e) everywhere; mode occupation indices run
0..d-1.  A dense state is a (2, d^N) array: one row per qubit label, its columns
running with mode 0 slowest and mode N-1 fastest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from . import _conv
from .core import (DENSE_SIZE_BITS, MemoryGuardError, RunRecord, SimulationParams,
                   TimeGrid, Wavepacket, grid_exp, populations, qubit_vector)

# Pauli and ladder operators in the (g, e) ordered basis.  sigma_y carries the
# sign that makes exp{-(i t/2)[(delta - i gamma/2) sigma_z - Omega sigma_y]}
# reproduce the closed-form no-emission amplitudes (f_ge > 0, f_eg < 0 for
# small positive Omega*t); equivalently it fixes the drive amplitude phase.
SIGMA_MINUS = np.array([[0, 1], [0, 0]], dtype=complex)
SIGMA_PLUS = np.array([[0, 0], [1, 0]], dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[-1, 0], [0, 1]], dtype=complex)
PROJ_E = np.array([[0, 0], [0, 1]], dtype=complex)

LAB = "lab"
DISPLACED = "displaced"

#: refuse sector materializations above this many stored amplitudes
MAX_SECTOR_AMPLITUDES = 1 << 21

#: run_dense's copied bottom block; blocks of a few rows cost more and may round differently
_BOTTOM_ROWS = 1024


def annihilation(d: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1, d)), 1).astype(complex)


def check_dense_size(n_modes: int, fock_dim: int) -> tuple[int, int]:
    """Validate the 2*d^N state size against the memory guard; return its (2, d^N) shape."""
    bits = n_modes * math.log2(fock_dim) + 1
    if bits > DENSE_SIZE_BITS:
        need = 2 * fock_dim**n_modes * 16
        raise MemoryGuardError(
            f"dense state needs {need / 1e6:.0f} MB ({n_modes} modes at fock_dim "
            f"{fock_dim}, 2^{bits:.1f} amplitudes > 2^{DENSE_SIZE_BITS})")
    return 2, fock_dim**n_modes


@dataclass
class DenseJointState:
    """Full joint state over qubit x (d-level)^N as a (2, d^N) array.

    Row q is the qubit label; the columns run with mode 0 slowest and mode N-1
    fastest.  `run_dense`'s snapshot is a transposed view of its final light cone.
    """

    amplitudes: np.ndarray = field(repr=False)
    n_modes: int
    fock_dim: int
    frame: str = LAB

    def __post_init__(self):
        expected = check_dense_size(self.n_modes, self.fock_dim)
        if self.amplitudes.shape != expected:
            raise ValueError(
                f"amplitude array has shape {self.amplitudes.shape}, expected {expected}")

    @classmethod
    def product_state(cls, qubit, n_modes: int, fock_dim: int,
                      frame: str = LAB) -> "DenseJointState":
        """|qubit> x |vacuum>, or a qubit superposition over the vacuum field."""
        amps = np.zeros(check_dense_size(n_modes, fock_dim), dtype=complex)
        amps[:, 0] = qubit_vector(qubit)
        return cls(amplitudes=amps, n_modes=n_modes, fock_dim=fock_dim, frame=frame)


@dataclass(frozen=True)
class CollisionUnitary:
    """Unitary on the (qubit x mode-n) factor; index (q, k) -> q*d + k."""

    matrix: np.ndarray = field(repr=False)

    def unitarity_defect(self) -> float:
        d2 = self.matrix.shape[0]
        return float(np.abs(self.matrix.conj().T @ self.matrix - np.eye(d2)).max())


def lab_collision_unitary(n, params: SimulationParams, fock_dim: int) -> CollisionUnitary:
    """Exact exponential of the bare qubit-mode coupling at collision n, an int, or a
    (..., 2d, 2d) stack of them for an int array n.

    The generator sqrt(gamma*dt)*(e^{i w_q t_n} sigma_+ a - h.c.) splits into
    invariant 2x2 blocks: |g,0> is untouched, each pair {|e,k>, |g,k+1>}
    rotates by sqrt(k+1)*sqrt(gamma*dt), and the truncation-frozen top level
    |e,d-1> is left alone so the matrix stays exactly unitary.
    """
    if fock_dim < 2:
        raise ValueError("fock_dim must be >= 2")
    phase = np.exp(1j * params.omega_q * n * params.dt)
    U = np.zeros(phase.shape + (2 * fock_dim,) * 2, dtype=complex)
    U[..., 0, 0] = U[..., -1, -1] = 1  # |g,0> and |e,d-1>; the loop sets the rest
    theta0 = math.sqrt(params.gamma * params.dt)
    for k in range(fock_dim - 1):
        theta = math.sqrt(k + 1) * theta0
        ie = fock_dim + k  # |e, k>
        ig = k + 1         # |g, k+1>
        c, s = math.cos(theta), math.sin(theta)
        U[..., ie, ie] = c
        U[..., ig, ig] = c
        U[..., ie, ig] = phase * s
        U[..., ig, ie] = -np.conj(phase) * s
    return CollisionUnitary(matrix=U)


@lru_cache
def _displaced_operators(d: int) -> tuple:
    """The step-independent Kronecker products of the displaced generator, read-only:
    |e><e| x 1, sigma_y x 1, sigma_+ x a and sigma_- x a^dag."""
    a, eye_d = annihilation(d), np.eye(d)
    ops = (np.kron(PROJ_E, eye_d), np.kron(SIGMA_Y, eye_d), np.kron(SIGMA_PLUS, a),
           np.kron(SIGMA_MINUS, a.conj().T))
    for op in ops:
        op.setflags(write=False)
    return ops


def displaced_hamiltonian(n, params: SimulationParams, fock_dim: int) -> np.ndarray:
    """Collision generator in the displaced frame (drive as a classical term); a
    (..., 2d, 2d) stack for an int array n."""
    proj_e, sigma_y, absorb, emit = _displaced_operators(fock_dim)
    phase = np.exp(1j * params.omega_p * n * params.dt)[..., None, None]
    return (params.delta * proj_e - 0.5 * params.omega_rabi * sigma_y
            + 1j * math.sqrt(params.gamma / params.dt) * (phase * absorb - np.conj(phase) * emit))


def displaced_collision_unitary(n, params: SimulationParams,
                                fock_dim: int) -> CollisionUnitary:
    """exp(-i*dt*H_n) with the drive and detuning included, via eigendecomposition;
    a (..., 2d, 2d) stack for an int array n."""
    if fock_dim < 2:
        raise ValueError("fock_dim must be >= 2")
    w, V = np.linalg.eigh(displaced_hamiltonian(n, params, fock_dim))
    U = (V * np.exp(-1j * params.dt * w)[..., None, :]) @ V.conj().swapaxes(-1, -2)
    return CollisionUnitary(matrix=U)


@dataclass
class DenseTrajectory:
    """Per-step qubit matrices, whose trace is the norm; <a_n> and <a_n^dag a_n> of each
    mode once it is final; the final state, a view of the final light cone."""

    params: SimulationParams
    frame: str
    qubit_matrices: np.ndarray = field(repr=False)   # (N+1, 2, 2)
    a_out: np.ndarray = field(repr=False)            # (N,)
    photons: np.ndarray = field(repr=False)          # (N,)
    snapshots: dict[int, DenseJointState] = field(repr=False)  # step N only

    def snapshot(self, step: int) -> DenseJointState:
        try:
            return self.snapshots[step]
        except KeyError:
            raise KeyError(f"no snapshot stored for step {step}") from None

    def record(self, flux: np.ndarray | None = None) -> RunRecord:
        """The run's qubit matrices, whose trace is its norm, and `flux` as given."""
        return RunRecord(self.params, self.qubit_matrices, flux)


def _real_columns(unitary: np.ndarray, d: int) -> np.ndarray:
    """(..., d, 2, 2, 4) real form T[k', q', r', (q, r)] of the columns U[(q',k'), (q,0)] of a
    (..., 2d, 2d) stack, r = re/im: a real cone row (re c_g, im c_g, re c_e, im c_e) times
    T.reshape(4d, 4).T is its growth."""
    u = unitary[..., ::d].reshape(unitary.shape[:-2] + (2, d, 2)).swapaxes(-3, -2)  # [k', q', q]
    return np.stack([np.stack([u.real, -u.imag], -1), np.stack([u.imag, u.real], -1)], -3
                    ).reshape(u.shape[:-3] + (d, 2, 2, 4))


def _reduce_gram(gram: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """rho, <a> and <a^dag a> of the newest mode from a (..., 4d, 4d) stack of real Grams
    gram[(k, q, r), (k', q', r')] of grown cones, each summed over its old modes.

    h[k, q, k', q'] = sum psi[.., k, q] conj(psi[.., k', q']); with psi = re + i im,
    Re h = G[re, re] + G[im, im] and Im h = G[im, re] - G[re, im].  rho is the trace of
    h over k, <a> = sum_k sqrt(k+1) sum_q h[k+1, q, k, q] and <a^dag a> =
    sum_k k sum_q h[k, q, k, q].
    """
    g = gram.reshape(gram.shape[:-2] + (d, 2, 2, d, 2, 2))
    h = g[..., 0, :, :, 0] + g[..., 1, :, :, 1] + 1j * (g[..., 1, :, :, 0] - g[..., 0, :, :, 1])
    return (np.trace(h, axis1=-4, axis2=-2),
            np.einsum("...kqkq->...k", h[..., 1:, :, :-1, :]) @ np.sqrt(np.arange(1, d)),
            np.einsum("...kqkq->...k", h).real @ np.arange(d))


def run_dense(params: SimulationParams, initial: DenseJointState,
              frame: str = LAB) -> DenseTrajectory:
    """Apply collisions n = 0..N-1 in order to a qubit state over the vacuum field.

    The input must be (c_g|g> + c_e|e>) x |vacuum> at params.fock_dim, labelled
    `frame`; an input with any photon amplitude, nan included, is refused before a
    unitary is built.  Light cone: collision n mixes only (qubit, mode n), so the
    state before it lives on the d^n configurations x of modes < n, the rest in
    vacuum.  Mode n enters in vacuum, so only the columns (g,0) and (e,0) of U act:
    new[x, k', q'] = sum_q U[(q',k'), (q,0)] cone[x, q].

    All N unitaries are built at once, as one stack, and so are their columns.  The
    cone is a real (d^n, 4) array, one row per x and the columns (q, re/im), so the
    qubit is the fastest axis and a collision is one real product with
    `_real_columns`, whose (d^n, 4d) result is the next cone.  Every cone is a prefix of
    one buffer of the final size, and the product writes the next cone over it in row
    blocks from the top down: rows [lo, hi), lo = ceil(hi/d), land past every row not
    yet read, and the last `_BOTTOM_ROWS` grow from a copy; each row rounds as in one
    product over the whole cone.  One Gram of that result, summed over x, holds rho,
    <a_n> and <a_n^dag a_n>, all read off the grown amplitudes; the Grams are kept and
    reduced together after the loop (`_reduce_gram`).  BLAS threads split the output of
    each product and each Gram, never the sum over x, so the bits do not depend on the
    thread count.  Recorded: the qubit matrix per step; <a_n> and <a_n^dag a_n> right
    after collision n, the only one on mode n (a_out, photons); and snapshot N, the final
    (d^N, 2) complex cone transposed: a (2, d^N) view, not a copy.
    """
    n = params.n_steps
    if initial.n_modes != n:
        raise ValueError(f"initial state has {initial.n_modes} modes, params want {n}")
    if frame not in (LAB, DISPLACED):
        raise ValueError(f"frame must be 'lab' or 'displaced', got {frame!r}")
    if (initial.fock_dim, initial.frame) != (params.fock_dim, frame):
        raise ValueError(f"initial state is at fock_dim {initial.fock_dim} in the {initial.frame} "
                         f"frame, the run at {params.fock_dim} in the {frame} frame")
    amps = np.ascontiguousarray(initial.amplitudes, complex)  # column 0: vacuum
    if amps.view(float)[:, 2:].any():  # re and im of every photon amplitude; nan is nonzero
        raise ValueError("initial state has photon amplitudes: run_dense starts from a "
                         "qubit state over the vacuum field")

    build = lab_collision_unitary if frame == LAB else displaced_collision_unitary
    d = params.fock_dim
    vacuum = amps[:, 0].copy()
    qubit = np.empty((n + 1, 2, 2), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):  # an inf or huge amplitude: refused below
        qubit[0] = np.outer(vacuum, vacuum.conj())
    norm = math.sqrt(qubit[0, 0, 0].real + qubit[0, 1, 1].real)
    if not abs(norm - 1.0) <= 1e-9:  # "not within": a nan norm is refused too
        raise ValueError(f"initial state not normalized: |psi| = {norm}")
    flat = np.empty(4 * d**n)  # the final cone; every cone before it is a prefix
    flat[:4] = vacuum.view(float)
    columns = _real_columns(build(np.arange(n), params, d).matrix, d)
    grams = np.empty((n, 4 * d, 4 * d))
    for step in range(n):
        growth, hi = columns[step].reshape(4 * d, 4).T, d**step
        cone, grown = flat[:4 * hi].reshape(hi, 4), flat[:4 * d * hi].reshape(hi, 4 * d)
        while hi > _BOTTOM_ROWS:  # rows [lo, hi) grow into floats past every unread row
            lo = -(-hi // d)
            np.matmul(cone[lo:hi], growth, out=grown[lo:hi])
            hi = lo
        np.matmul(cone[:hi].copy(), growth, out=grown[:hi])  # [x, (k', q', r')]
        np.matmul(grown.T, grown, out=grams[step])
    qubit[1:], a_out, photons = _reduce_gram(grams, d)
    return DenseTrajectory(params, frame, qubit, a_out, photons,
                           {n: DenseJointState(flat.view(complex).reshape(-1, 2).T, n, d,
                                               frame)})


# ---------------------------------------------------------------------------
# single-excitation recursion
# ---------------------------------------------------------------------------

@dataclass
class SinglePhotonState:
    """One shared excitation: qubit-excited amplitude plus one-photon amplitudes.

    g[n] is the discrete amplitude of a photon in mode n with the qubit in the
    ground state (sqrt(dt) times the envelope density).
    """

    c_e: complex
    g: np.ndarray = field(repr=False)
    grid: TimeGrid

    def norm_squared(self) -> float:
        return abs(self.c_e) ** 2 + float(np.sum(np.abs(self.g) ** 2))


class SinglePhotonRun:
    """Trajectory of the single-excitation collision recursion.

    Mode n is touched only at collision n, so any intermediate state is the
    final amplitudes for past modes glued to the input for future ones; only
    the O(N) qubit amplitude history needs storing.
    """

    def __init__(self, params: SimulationParams, c_e_trajectory: np.ndarray,
                 b_initial: np.ndarray, b_final: np.ndarray, norm_trajectory: np.ndarray):
        self.params = params
        self.grid = params.grid
        self.c_e_trajectory = c_e_trajectory
        self.norm_trajectory = norm_trajectory
        self._b_initial = b_initial
        self._b_final = b_final

    def state_at(self, step: int) -> SinglePhotonState:
        if not 0 <= step <= self.params.n_steps:
            raise ValueError(f"step {step} outside 0..{self.params.n_steps}")
        g = np.concatenate((self._b_final[:step], self._b_initial[step:]))
        return SinglePhotonState(c_e=complex(self.c_e_trajectory[step]), g=g,
                                 grid=self.grid)

    def final_state(self) -> SinglePhotonState:
        return self.state_at(self.params.n_steps)

    def record(self) -> RunRecord:
        """Populations over the norm ledger and the final state's photon flux."""
        return RunRecord(self.params,
                         populations(np.abs(self.c_e_trajectory) ** 2, self.norm_trajectory),
                         np.abs(self._b_final) ** 2 / self.params.dt)


def run_single_excitation(params: SimulationParams,
                          wavepacket: Wavepacket | None) -> SinglePhotonRun:
    """Propagate a shared single excitation with the effective per-collision map.

    Each collision applies the exactly unitary 2x2 map on (c_e, b_n):

        c_e  <-  e^{-gamma dt/2} c_e + sqrt(1 - e^{-gamma dt}) e^{+i w_q t_n} b_n
        b_n  <-  e^{-gamma dt/2} b_n - sqrt(1 - e^{-gamma dt}) e^{-i w_q t_n} c_e

    touching only mode n, so c_e obeys a first-order linear recurrence, run as a
    doubling scan (log2 N vectorized passes, O(N log N) work).  The standard
    input is the ground-state qubit with a single-photon wavepacket on
    ``params.grid``; ``wavepacket=None`` instead starts from the excited qubit
    over vacuum (the same map then reproduces spontaneous emission).
    """
    n = params.n_steps
    if wavepacket is not None and wavepacket.grid != params.grid:
        raise ValueError(f"wavepacket grid {wavepacket.grid} is not the run's {params.grid}")
    b0 = (np.zeros(n, dtype=complex) if wavepacket is None
          else wavepacket.mode_amplitudes().astype(complex))
    damp = math.exp(-0.5 * params.gamma * params.dt)
    kick = math.sqrt(1.0 - math.exp(-params.gamma * params.dt))
    phase = grid_exp(1j * params.omega_q, params.dt, n)
    # c_e[s] = sum_k damp^(s-k) v[k], v = (c_e[0], kick e^{i w_q t} b0); unlike a
    # blocked scan this treats every entry alike, so delaying the input is exact
    ce_traj = np.concatenate(([complex(wavepacket is None)], kick * phase * b0))
    for lag in (1 << k for k in range(n.bit_length())):  # 1, 2, 4, ... <= n
        ce_traj[lag:] += damp ** lag * ce_traj[:-lag]
    b = damp * b0 - kick * phase.conj() * ce_traj[:n]
    # norm ledger: the initial norm plus each collision's change
    p_b0, p_ce = np.abs(b0) ** 2, np.abs(ce_traj) ** 2
    change = (p_ce[1:] + np.abs(b) ** 2) - (p_ce[:-1] + p_b0)
    norm_traj = np.cumsum(np.concatenate(([np.sum(p_b0) + p_ce[0]], change)))
    return SinglePhotonRun(params, ce_traj, b0, b, norm_traj)


# ---------------------------------------------------------------------------
# displaced-frame sector propagator
# ---------------------------------------------------------------------------

@dataclass
class SectorState:
    """Joint state restricted to photon sectors m = 0..m_max.

    values[m] has shape (2, K_m) over the lexicographically ordered strictly
    increasing mode tuples tuples[m] (shape (K_m, m)); row 0/1 is the qubit
    g/e amplitude.  Only past modes carry photons.
    """

    step: int
    m_max: int
    grid: TimeGrid
    tuples: list = field(repr=False)
    values: list = field(repr=False)

    def norm_squared(self) -> float:
        return float(sum(np.sum(np.abs(v) ** 2) for v in self.values))

    def sector_weights(self) -> np.ndarray:
        """(m_max+1, 2) weights per photon count and qubit label."""
        return np.array([np.sum(np.abs(v) ** 2, axis=1) for v in self.values])

    def qubit_matrix(self) -> np.ndarray:
        rho = np.zeros((2, 2), dtype=complex)
        for v in self.values:
            rho += v @ v.conj().T
        return rho

    def dense_index(self, m: int, fock_dim: int = 2) -> np.ndarray:
        """Flat index of each m-photon tuple in a (2, d^N) dense amplitude array.

        The dense layout puts mode 0 slowest, so a photon in mode k adds
        d^(N-1-k); N is the number of modes on the grid.
        """
        return (fock_dim ** (self.grid.n_steps - 1 - self.tuples[m])).sum(axis=1)


class SectorRun:
    """Displaced-frame propagation organized by emitted-photon tuples.

    In the displaced frame every temporal mode starts in vacuum and interacts
    exactly once, so the collision unitary contributes one no-emission block
    K = <0|U|0> and one emission block E = <1|U|0> per step; the step index
    enters only through the phase e^{-i w_p t_n} attached at emission.  Tuple
    amplitudes are products of K powers and E blocks, evaluated lazily from a
    precomputed power table, so norms and reduced states stay cheap at large N
    while materialization remains available (and memory-guarded) at small N.
    """

    def __init__(self, params: SimulationParams, m_max: int, phi0="g"):
        if m_max < 0:
            raise ValueError("m_max must be >= 0")
        self.params = params
        self.grid = params.grid
        self.m_max = m_max
        self.phi0 = qubit_vector(phi0)
        unit = displaced_collision_unitary(0, params, 2).matrix  # t_0 = 0: phase-free
        # index (q, k) = 2q + k
        self.no_jump_block = unit[np.ix_([0, 2], [0, 2])]
        self.emission_block = unit[np.ix_([1, 3], [0, 2])]
        n = params.n_steps
        # K^j for j = 0..N, on row-major vec: vec(K X) = (K x 1) vec(X)
        self.powers = np.broadcast_to(np.eye(2, dtype=complex), (n + 1, 2, 2)).copy()
        _conv.linear_recurrence(np.kron(self.no_jump_block, np.eye(2)).T,
                                self.powers.reshape(n + 1, 4))
        self.emission_phases = grid_exp(-1j * params.omega_p, params.dt, n)

    # -- aggregate trajectories ------------------------------------------------

    @cached_property
    def _moments(self):
        return _conv.moment_chain(self.powers, self.emission_block, self.phi0, self.m_max,
                                  self.params.gamma * self.params.dt)

    def qubit_trajectory(self) -> np.ndarray:
        """(N+1, 2, 2) reduced qubit matrices (trace < 1 by the truncated weight)."""
        return self._moments[0].copy()

    def truncation_deficit(self) -> float:
        """Weight outside the tracked sectors at the end of the run."""
        return float(1.0 - np.trace(self._moments[0][-1]).real)

    def emission_weights(self) -> np.ndarray:
        """Weight emitted into each time bin, summed over tracked sectors.

        Within the tracked bookkeeping this equals the mode-marginal photon
        weight at any later time: K and E together preserve the norm of every
        tuple's qubit vector, and children keep their parent's indices.
        """
        return self._moments[2].copy()

    def record(self) -> RunRecord:
        """Qubit trajectory, emitted flux per bin and sector weights of the run."""
        return RunRecord(self.params, self.qubit_trajectory(),
                         self.emission_weights() / self.params.dt, self._moments[1].copy())

    # -- amplitudes --------------------------------------------------------------

    def amplitude(self, modes, step: int) -> np.ndarray:
        """(2,) amplitudes, eps = g, e, of photons in `modes` after `step` collisions."""
        if not 0 <= step <= self.params.n_steps:
            raise ValueError(f"step {step} outside 0..{self.params.n_steps}")
        modes = tuple(int(m) for m in modes)
        if any(b <= a for a, b in zip(modes, modes[1:])):
            raise ValueError("mode tuple must be strictly increasing")
        if modes and not 0 <= modes[0] <= modes[-1] < step:
            raise ValueError(f"modes must lie in 0..{step - 1}: only past modes carry photons")
        v = self.phi0
        prev = None
        for n in modes:
            lag = n if prev is None else n - prev - 1
            v = self.emission_phases[n] * (self.emission_block @ (self.powers[lag] @ v))
            prev = n
        lag = step if prev is None else step - prev - 1
        return self.powers[lag] @ v

    def state_at(self, step: int) -> SectorState:
        """Materialize every tracked tuple amplitude after `step` collisions."""
        if not 0 <= step <= self.params.n_steps:
            raise ValueError(f"step {step} outside 0..{self.params.n_steps}")
        tuples, values = _conv.materialize_tuples(self.powers, self.emission_block,
                                                  self.emission_phases, self.phi0, step,
                                                  self.m_max, MAX_SECTOR_AMPLITUDES)
        return SectorState(step=step, m_max=self.m_max, grid=self.grid, tuples=tuples,
                           values=values)


def run_displaced_sectors(params: SimulationParams, m_max: int,
                          phi0="g") -> SectorRun:
    """Sector-restricted displaced-frame propagation (see SectorRun)."""
    return SectorRun(params, m_max, phi0)
