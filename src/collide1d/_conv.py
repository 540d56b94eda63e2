"""Tuple bookkeeping shared by the sector propagator and the closed forms.

Emitted photons are never revisited, so the qubit 2-vector attached to a
photon tuple depends only on the lag since its last emission: every tuple
amplitude is a chain of no-emission propagators joined by emission blocks, and
an emission consumes its bin (see ``moment_chain``).  ``materialize_tuples``
evaluates that chain for every tuple from a tier's propagator at each lag; each
m-photon tuple is an (m-1)-photon parent followed by one later mode, and children
appended in parent order stay lexicographic, at O(total amplitudes) cost.
Summing |amplitude|^2 over all tuples with the same photon count instead
collapses each sector into one 2x2 moment matrix per step, and one collision maps
the moments of every sector by one constant linear map, built from the tier's
one-step map K and emission block E alone (the Kraus map X -> K X K^dag + E X E^dag,
split by photon count).  ``linear_recurrence`` evaluates such a recurrence by
log-depth doubling: reduced-qubit trajectories in O(N * m_max) time and memory.
"""

from __future__ import annotations

import math

import numpy as np

from .core import DENSE_SIZE_BITS, MAX_NORM_DEFICIT, VALIDITY_BOUND, MemoryGuardError


#: most real moments of one chain: 256 MiB, the size of the largest dense state
MAX_CHAIN_MOMENTS = 1 << (DENSE_SIZE_BITS + 1)

#: vec(X) = HERMITIAN @ (X00, X11, Re X01, Im X01) for a Hermitian 2x2 X, row-major vec
HERMITIAN = np.array([[1, 0, 0, 0], [0, 0, 1, 1j], [0, 0, 1, -1j], [0, 1, 0, 0]])


def _square(power: np.ndarray) -> np.ndarray:
    """power @ power for a block upper-triangular Toeplitz matrix of 4x4 blocks, built
    from its first block row power[:4] @ power: 8 D^2 flops, not 2 D^3."""
    size = len(power) // 4
    row = np.zeros((4, 2 * size - 1, 4), dtype=power.dtype)
    row[:, size - 1:] = (power[:4] @ power).reshape(4, size, 4)
    # block (a, b) of the square is row[:, size - 1 + b - a]: a strides back along row
    blocks = np.lib.stride_tricks.as_strided(row[:, size - 1:], (size, 4, size, 4),
                                             (-row.strides[1],) + row.strides)
    return blocks.reshape(4 * size, 4 * size)


def linear_recurrence(step: np.ndarray, x: np.ndarray) -> None:
    """Fill x[1:] in place with x[s] = x[0] @ step^s by log-depth doubling.

    x[b:2b] = x[:b] @ step^b: about 2 log2(len(x)) matrix products and no per-step
    loop (Blelloch 1990).  Each x[s] is a row vector or a stack of them.  step must
    be block upper-triangular Toeplitz in 4x4 blocks (one 4x4 block is): ``_square``
    builds each power from its first block row, so any other step gives wrong powers.
    """
    b = 1
    while b < len(x):
        np.matmul(x[:min(b, len(x) - b)], step, out=x[b:2 * b])
        step, b = _square(step), 2 * b


def moment_chain(step: np.ndarray, emit: np.ndarray, phi0: np.ndarray, m_max: int,
                 n_steps: int, gamma_dt: float):
    """Reduced-qubit, sector-weight and emission trajectories of one tier.

    step is the tier's (2, 2) one-step no-emission map K, emit its (2, 2) emission
    block E and phi0 the initial qubit state.  An emission consumes its collision, so
    after an emission at step n an amplitude advances by K^(s - n - 1) up to step s;
    the closed form, whose continuum lags run from the emission time itself, passes
    emit = M(dt) @ (-sqrt(gamma dt) sigma_-).

    A chain of more than MAX_CHAIN_MOMENTS real moments (N+1)(m_max+1)4 raises
    MemoryGuardError before anything is composed or allocated.

    Returns read-only (rho, weights, emitted) for steps 0..N = n_steps.  S_m[s][a, b]
    sums A_a conj(A_b) over the m-photon tuples at step s (S_0 the vacuum's outer
    product); rho (N+1, 2, 2) is S_0 + .. + S_m_max (trace <= 1 by the weight beyond
    m_max), and weights (m_max+1, N+1, 2) holds the diagonals of the S_m.  emitted
    (N,) is the weight deposited into bin n by the births of sectors 1..m_max, the
    trace of E S_(m-1)[n] E^dag summed over m: the photon flux times dt for a bare
    emission block.  The closed form's block moves it by O(gamma dt), and
    ``analytic.coherent_qubit_trajectory`` discards it.

    One collision multiplies the tracked weight by up to the largest eigenvalue
    of K^dag K + E^dag E.  Above 1 + MAX_NORM_DEFICIT, if the vacuum ever emits
    before step N (else no sector is fed), this raises ValueError naming gamma_dt
    before anything is composed.  It emits iff E phi0 != 0, or N > 1 and
    E K phi0 != 0: each K^s phi0 lies in the span of phi0 and K phi0.
    """
    moments = (n_steps + 1) * (m_max + 1) * 4
    if moments > MAX_CHAIN_MOMENTS:
        raise MemoryGuardError(f"the moment chain of {n_steps} steps and {m_max + 1} sectors "
                               f"holds {moments} real moments, above the guard "
                               f"({MAX_CHAIN_MOMENTS}); lower m_max or n_steps")
    gain = np.linalg.eigvalsh(step.conj().T @ step + emit.conj().T @ emit)[-1]
    emits = np.any(emit @ phi0) or n_steps > 1 and np.any(emit @ step @ phi0)
    if not gain <= 1.0 + MAX_NORM_DEFICIT and emits:  # nan gain too
        raise ValueError(f"one collision multiplies the tracked weight by up to {gain:.4g}, "
                         f"above {1 + MAX_NORM_DEFICIT:g}: emissions outweigh the state "
                         f"(gamma*dt = {gamma_dt:.4g}, bound {VALIDITY_BOUND:g})")
    # S_m[s+1] = K S_m[s] K^dag + E S_{m-1}[s] E^dag.  Both maps keep S_m Hermitian:
    # act on its real coordinates, as row vectors.
    keep, feed = (np.linalg.solve(HERMITIAN, np.kron(a, a.conj()) @ HERMITIAN).real.T.copy()
                  for a in (step, emit))
    size = m_max + 1
    # x[k, i, m] holds S_m at step k * block + i: block starts by the doubling scan of the
    # one-collision map A, then structured steps.  Blocks of about size / 4 steps measured
    # fastest; one block where A's powers would outweigh half the moments (N < 16 size) or
    # cost more than the steps they save (N < size^2 / 4).
    block = 1 << max(size.bit_length() - 3, 0)
    if n_steps + 1 < max(16 * size, size * size // 4):
        block = n_steps + 1
    x = np.zeros((-(-(n_steps + 1) // block), block, size, 4))
    x[0, 0, 0] = np.linalg.solve(HERMITIAN, np.outer(phi0, phi0.conj()).ravel()).real
    if len(x) > 1:  # A: keep on the diagonal blocks, feed one sector up; A^block
        jump = np.kron(np.eye(size), keep) + np.kron(np.eye(size, k=1), feed)
        for _ in range(block.bit_length() - 1):
            jump = _square(jump)
        linear_recurrence(jump, x[:, 0].reshape(len(x), 4 * size))
        del jump  # freed before the moments are read out
    for i in range(1, block):
        np.matmul(x[:, i - 1], keep, out=x[:, i])
        x[:, i, 1:] += x[:, i - 1, :-1] @ feed
    x = x.reshape(-1, size, 4)[:n_steps + 1]
    # the diagonals (X00, X11) of each S_m, copied as one complex number into one
    # contiguous array: the truncation guard's sums over a strided view run 6x slower
    weights = np.empty((size, n_steps + 1, 2))
    weights.view(complex)[:, :, 0] = x.view(complex)[:, :, 0].T
    # per step, S_0 + .. + S_m_max as rho's (Re, Im) parts by one GEMM, and the weight that
    # S_0..S_(m_max-1) emit, tr(E X E^dag) = sum_cd (E^T conj(E))[c, d] X[c, d], by one GEMV
    moments, rho = x.reshape(-1, 4 * size), np.empty((n_steps + 1, 2, 2), complex)
    np.matmul(moments, np.tile(HERMITIAN.T.copy().view(float), (size, 1)),
              out=rho.view(float).reshape(-1, 8))
    emitted = moments[:-1, :-4] @ np.tile(((emit.T @ emit.conj()).ravel() @ HERMITIAN).real,
                                          m_max)
    rho.flags.writeable = weights.flags.writeable = emitted.flags.writeable = False
    return rho, weights, emitted


def materialize_tuples(props: np.ndarray, emit: np.ndarray, phases: np.ndarray,
                       phi0: np.ndarray, step: int, m_max: int, max_amplitudes: int):
    """Every tuple amplitude with up to m_max photons after `step` collisions.

    props and emit follow ``moment_chain``; phases[n] is the phase
    attached to an emission into bin n.  Returns (tuples, values) in the
    ``SectorState`` layout: tuples[m] lists the m-photon mode tuples, values[m]
    their (2, K_m) qubit amplitudes.  Each sector is its parents' children in
    parent order, hence lexicographic, built in O(total amplitudes).  Raises
    MemoryGuardError, before building any tuple, when there would be more
    than max_amplitudes of them.
    """
    total = sum(math.comb(step, m) for m in range(m_max + 1))
    if total > max_amplitudes:
        raise MemoryGuardError(f"materializing {total} tuple amplitudes exceeds the guard "
                               f"({max_amplitudes}); lower m_max")
    tuples: list[np.ndarray] = [np.zeros((1, 0), dtype=int)]
    values: list[np.ndarray] = [(props[step] @ phi0).reshape(2, 1)]
    # birth vectors of the previous sector, indexed like tuples[m-1]
    births = phi0.reshape(2, 1)
    # the vacuum counts as emitted at step -1, so its first lag is the emission step
    prev_last = np.full(1, -1)
    first = np.zeros(1, dtype=int)  # a tuple's children append one of modes first..step-1
    for m in range(1, m_max + 1):
        counts = step - first
        parent_idx = np.repeat(np.arange(len(counts)), counts)
        # a parent's children count up to mode step - 1, where its segment ends
        last = step + np.arange(len(parent_idx)) - np.cumsum(counts)[parent_idx]
        combos = np.column_stack((tuples[-1][parent_idx], last))
        lag = last - prev_last[parent_idx] - 1
        parent_now = np.einsum("kab,bk->ak", props[lag], births[:, parent_idx])
        births = phases[last] * (emit @ parent_now)
        values.append(np.einsum("kab,bk->ak", props[step - 1 - last], births))
        tuples.append(combos)
        prev_last, first = last, last + 1
    return tuples, values
