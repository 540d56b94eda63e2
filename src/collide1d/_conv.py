"""Tuple bookkeeping shared by the sector propagator and the closed forms.

Emitted photons are never revisited, so the qubit 2-vector attached to a
photon tuple depends only on the lag since its last emission: every tuple
amplitude is a chain of no-emission propagators joined by emission blocks.
Both tiers supply their own propagators and differ only in the lag offset
(see ``moment_chain``).  ``materialize_tuples`` evaluates that chain for every
tuple.  Summing |amplitude|^2 over all tuples with the same last emission step
instead collapses each sector into one 2x2 moment matrix per step, and
propagating those moments is a causal convolution against the lag family of
no-emission propagators.  This gives reduced-qubit trajectories in
O(m_max * N log N) instead of O(N^(m+1)).
"""

from __future__ import annotations

import itertools

import numpy as np


def causal_convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Full linear convolution c[k] = sum_j a[k-j] b[j] of 1-d sequences via FFT."""
    n = len(a) + len(b) - 1
    n_fft = 1
    while n_fft < n:
        n_fft *= 2
    c = np.fft.ifft(np.fft.fft(a, n_fft) * np.fft.fft(b, n_fft))[:n]
    if np.isrealobj(a) and np.isrealobj(b):
        return c.real
    return c


def moment_chain(props: np.ndarray, emit: np.ndarray, phi0: np.ndarray,
                 m_max: int, offset: int):
    """Sector-by-sector qubit moment trajectories.

    Parameters
    ----------
    props : (N+1, 2, 2) complex
        No-emission propagator at integer lag j; props[0] must be the identity
        for a discrete propagator (offset 1) or the t=0 closed form (offset 0).
    emit : (2, 2) complex
        Per-collision emission block mapping the parent qubit vector to the
        qubit vector attached to the newborn photon tuple.
    phi0 : (2,) complex
        Initial qubit state.
    m_max : int
        Highest photon sector tracked.
    offset : int
        Lag convention after an emission at step n: the propagator applied up
        to step s is props[s - n - offset].  A discrete collision product uses
        offset 1 (the emitting collision itself is consumed); closed-form
        continuum coefficients use offset 0.

    Returns
    -------
    q : (N+1, 2) complex
        Vacuum-sector qubit amplitudes.
    sector_moments : list of (N+1, 2, 2) complex
        For m = 1..m_max, S_m[s][a, b] = sum over m-photon tuples of
        A_a * conj(A_b) at step s.  The reduced qubit matrix at step s is
        outer(q[s]) + sum_m S_m[s].
    births : list of (N, 2, 2) complex
        Per-step newborn moment of each sector; its trace is the emission
        weight deposited into bin n (the photon flux times dt).
    """
    if offset not in (0, 1):
        raise ValueError("offset must be 0 or 1")
    n_steps = props.shape[0] - 1
    q = np.einsum("nab,b->na", props, phi0)

    # lag kernel G[j][(a,b),(c,d)] = props[j][a,c] * conj(props[j][b,d])
    G = np.einsum("nac,nbd->nabcd", props[:n_steps], props[:n_steps].conj())
    if offset == 0:
        G = G.copy()
        G[0] = 0.0  # births propagate over lag >= 1 in the closed-form convention
    G = G.reshape(n_steps, 4, 4)

    n_fft = 1
    while n_fft < 2 * n_steps:
        n_fft *= 2
    G_hat = np.fft.fft(G, n=n_fft, axis=0)

    def propagate(D):
        """S[s] = sum_{n < s} G[s - n - offset] D[n] for s = 0..n_steps."""
        D_hat = np.fft.fft(D.reshape(n_steps, 4), n=n_fft, axis=0)
        flat = np.fft.ifft(np.einsum("lab,lb->la", G_hat, D_hat), axis=0)
        S = np.zeros((n_steps + 1, 2, 2), complex)
        k = np.arange(n_steps + 1) - offset
        ok = k >= 0
        S[ok] = flat[k[ok]].reshape(-1, 2, 2)
        return S

    sector_moments: list[np.ndarray] = []
    births: list[np.ndarray] = []
    # births out of the vacuum sector (pre-collision parent amplitudes)
    parent = np.einsum("na,nb->nab", q[:n_steps], q[:n_steps].conj())
    for m in range(1, m_max + 1):
        D = np.einsum("ac,ncd,bd->nab", emit, parent, emit.conj())
        births.append(D)
        S = propagate(D)
        sector_moments.append(S)
        parent = S[:n_steps]
    return q, sector_moments, births


def reduced_qubit_trajectory(q: np.ndarray, sector_moments) -> np.ndarray:
    """(N+1, 2, 2) reduced qubit matrices from a moment chain (trace <= 1)."""
    rho = np.einsum("na,nb->nab", q, q.conj())
    for S in sector_moments:
        rho = rho + S
    return rho


def materialize_tuples(props: np.ndarray, emit: np.ndarray, phases: np.ndarray,
                       phi0: np.ndarray, step: int, m_max: int, offset: int):
    """Every tuple amplitude with up to m_max photons after `step` collisions.

    props, emit and offset follow ``moment_chain``; phases[n] is the phase
    attached to an emission into bin n.  Returns (tuples, values) in the
    ``SectorState`` layout: tuples[m] lists the lexicographically ordered
    m-photon mode tuples, values[m] their (2, K_m) qubit amplitudes.
    """
    tuples: list[np.ndarray] = [np.zeros((1, 0), dtype=int)]
    values: list[np.ndarray] = [(props[step] @ phi0).reshape(2, 1)]
    # birth vectors of the previous sector, indexed like tuples[m-1]
    births = phi0.reshape(2, 1)
    # the vacuum counts as emitted at step -offset, so its first lag is the emission step
    prev_last = np.full(1, -offset)
    for m in range(1, m_max + 1):
        combos = np.array(list(itertools.combinations(range(step), m)),
                          dtype=int).reshape(-1, m)
        # locate each combo's parent (its prefix) in the previous sector
        order = {tuple(t): i for i, t in enumerate(tuples[-1].tolist())}
        parent_idx = np.fromiter((order[tuple(c[:-1])] for c in combos.tolist()),
                                 dtype=int, count=len(combos))
        last = combos[:, -1]
        lag = last - prev_last[parent_idx] - offset
        parent_now = np.einsum("kab,bk->ak", props[lag], births[:, parent_idx])
        births = phases[last] * (emit @ parent_now)
        values.append(np.einsum("kab,bk->ak", props[step - offset - last], births))
        tuples.append(combos)
        prev_last = last
    return tuples, values
