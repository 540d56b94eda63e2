"""Tuple bookkeeping shared by the sector propagator and the closed forms.

Emitted photons are never revisited, so the qubit 2-vector attached to a
photon tuple depends only on the lag since its last emission: every tuple
amplitude is a chain of no-emission propagators joined by emission blocks.
Both tiers supply their own propagator and emission block, and an emission
consumes its bin (see ``moment_chain``).  ``materialize_tuples`` evaluates that chain for every
tuple; each m-photon tuple is an (m-1)-photon parent followed by one later
mode, and children appended in parent order stay lexicographic, at
O(total amplitudes) cost.  Summing |amplitude|^2 over all tuples with the same
photon count instead collapses each sector into one 2x2 moment matrix per
step, and one collision maps the moments of every sector by one constant
linear map (the Kraus map X -> K X K^dag + E X E^dag, split by photon count).
``linear_recurrence`` evaluates such a recurrence in blocks, which gives
reduced-qubit trajectories in O(N * m_max) time and memory instead of O(N^(m+1)).
"""

from __future__ import annotations

import math

import numpy as np

from .core import MemoryGuardError


#: vec(X) = HERMITIAN @ (X00, X11, Re X01, Im X01) for a Hermitian 2x2 X, row-major vec
HERMITIAN = np.array([[1, 0, 0, 0], [0, 0, 1, 1j], [0, 0, 1, -1j], [0, 1, 0, 0]])


def linear_recurrence(advance, jump, x0: np.ndarray, n: int, block: int) -> np.ndarray:
    """x[s] for s = 0..n of the linear recurrence x[s+1] = advance(x[s]).

    advance acts on the trailing axes of a stack of states, and jump(y) must
    equal `block` calls of advance on one state.  A blocked scan (Blelloch
    1990): the block starts y[k+1] = jump(y[k]) run one after another, then
    block - 1 calls of advance fill every block at once.  Returns an
    (n+1, *x0.shape) array.
    """
    x = np.empty((-(-(n + 1) // block), block) + x0.shape, dtype=x0.dtype)
    x[0, 0] = x0
    for k in range(1, len(x)):
        x[k, 0] = jump(x[k - 1, 0])
    for i in range(1, block):
        x[:, i] = advance(x[:, i - 1])
    return x.reshape((-1,) + x0.shape)[:n + 1]


def moment_chain(props: np.ndarray, emit: np.ndarray, phi0: np.ndarray, m_max: int):
    """Reduced-qubit, sector-weight and emission trajectories of one tier.

    props is the (N+1, 2, 2) no-emission propagator at integer lag j.  It must
    be the semigroup props[j] = props[1]^j, because the moments advance by the
    one-step map props[1].  emit is the (2, 2) per-collision emission block and
    phi0 the initial qubit state.  The emitting collision is consumed, so after
    an emission at step n the propagator up to step s is props[s - n - 1]; the
    closed form, whose continuum lags run from the emission time itself,
    passes emit = M(dt) @ (-sqrt(gamma dt) sigma_-).

    Returns (rho, weights, emitted).  rho (N+1, 2, 2) is outer(q, q*) for the
    vacuum amplitudes q[s] = props[s] @ phi0 plus the moments S_1..S_m_max,
    where S_m[s][a, b] sums A_a conj(A_b) over the m-photon tuples at step s
    (trace <= 1 by the weight beyond m_max).  weights (m_max+1, N+1, 2) holds
    |q|^2 and the diagonals of the S_m.  emitted (N,) is the weight deposited
    into bin n by the births of sectors 1..m_max, the trace of
    E S_(m-1)[n] E^dag summed over m: the photon flux times dt for a bare
    emission block.  The closed form's block moves it by O(gamma dt), and
    ``analytic.coherent_qubit_trajectory`` discards it.
    """
    n_steps = props.shape[0] - 1
    q = np.einsum("nab,b->na", props, phi0)
    # X -> K X K^dag and X -> E X E^dag on row-major vec(X)
    keep = np.kron(props[1], props[1].conj())
    birth = np.kron(emit, emit.conj())
    # S_m[s+1] = K S_m[s] K^dag + E S_{m-1}[s] E^dag.  Both maps keep S_m
    # Hermitian: act on its real coordinates, as row vectors.
    keep, feed = (np.linalg.solve(HERMITIAN, a @ HERMITIAN).real.T for a in (keep, birth))
    size = m_max + 1

    def advance(x):  # one collision of every sector; x[..., m, :] holds S_m
        flat = x.reshape(-1, 4)
        out = (flat @ keep).reshape(x.shape)
        out[..., 1:, :] += (flat @ feed).reshape(x.shape)[..., :-1, :]
        return out

    def compose(y, t):  # A^b y, for t[:, j] the blocks of A^b from sector m to m + j
        out = np.zeros_like(y)
        for j in range(size):
            out[..., j:, :] += y[..., :size - j, :] @ t[:, j]
        return out

    # A^B is block-Toeplitz, so its first block column t is all of it.  Doubling
    # B up to ~sqrt(N * size) gives both loops of linear_recurrence about as many steps.
    t, block = advance(np.eye(4, 4 * size).reshape(4, size, 4)), 1
    while 4 * block * block <= (n_steps + 1) * min(size, n_steps + 1):
        t, block = compose(t, t), 2 * block
    x0 = np.zeros((size, 4))
    x0[0] = np.linalg.solve(HERMITIAN, np.outer(phi0, phi0.conj()).ravel()).real
    x = linear_recurrence(advance, lambda y: compose(y, t), x0, n_steps, block)
    # tr(E X E^dag) = sum_cd (E^T conj(E))[c, d] X[c, d]
    emitted = np.einsum("nmd->nd", x[:-1, :-1]) @ (
        (emit.T @ emit.conj()).ravel() @ HERMITIAN).real
    rho = (np.einsum("na,nb->nab", q, q.conj())
           + (np.einsum("nmd->nd", x[:, 1:]) @ HERMITIAN.T).reshape(n_steps + 1, 2, 2))
    weights = np.concatenate(((np.abs(q) ** 2)[None], np.moveaxis(x[:, 1:, :2], 1, 0)))
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
