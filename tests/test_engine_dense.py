import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from collide1d import (CollisionUnitary, DenseJointState, MemoryGuardError,
                       SimulationParams, displaced_collision_unitary, engine,
                       lab_collision_unitary, run_dense)
from collide1d.engine import (DISPLACED, LAB, PROJ_E, SIGMA_MINUS, SIGMA_PLUS, SIGMA_Y,
                              _displaced_operators, annihilation, displaced_hamiltonian)
from test_materializer_properties import drives


def expm_via_eigh(H, dt):
    w, V = np.linalg.eigh(H)
    return (V * np.exp(-1j * dt * w)) @ V.conj().T


def coupling_hamiltonian(n, params, d):
    """Bare interaction-picture generator, built naively as an oracle."""
    a = annihilation(d)
    phase = np.exp(1j * params.omega_q * n * params.dt)
    return 1j * math.sqrt(params.gamma / params.dt) * (
        phase * np.kron(SIGMA_PLUS, a) - np.conj(phase) * np.kron(SIGMA_MINUS, a.conj().T))


class TestLabUnitary:
    def test_ground_vacuum_invariant(self):
        p = SimulationParams(gamma=1.0, dt=1e-3, n_steps=4, omega_q=2.0)
        U = lab_collision_unitary(1, p, 4).matrix
        e0 = np.zeros(8)
        e0[0] = 1.0
        assert np.allclose(U @ e0, e0, atol=1e-15)

    def test_two_level_block_values(self):
        p = SimulationParams(gamma=1.0, dt=1e-3, n_steps=4)
        theta = math.sqrt(p.gamma * p.dt)
        U = lab_collision_unitary(0, p, 2).matrix
        # index (q, k) = 2q + k: |e,0> = 2, |g,1> = 1
        assert abs(U[1, 2]) == pytest.approx(math.sin(theta), abs=1e-15)
        assert abs(U[2, 2]) == pytest.approx(math.cos(theta), abs=1e-15)

    def test_unitarity(self):
        p = SimulationParams(gamma=1.0, dt=1e-3, n_steps=4)
        assert lab_collision_unitary(0, p, 4).unitarity_defect() < 1e-12

    @pytest.mark.parametrize("n,d", [(0, 2), (3, 3), (5, 4)])
    def test_matches_naive_exponential(self, n, d):
        p = SimulationParams(gamma=0.7, dt=2e-3, n_steps=8, omega_q=3.0)
        built = lab_collision_unitary(n, p, d).matrix
        # oracle: eigendecompose the explicitly assembled generator; the
        # truncation-frozen |e, d-1> level is restored by hand
        H = coupling_hamiltonian(n, p, d)
        frozen = d + (d - 1)
        H[frozen, :] = 0.0
        H[:, frozen] = 0.0
        oracle = expm_via_eigh(H, p.dt)
        assert np.abs(built - oracle).max() < 1e-12


class TestDisplacedUnitary:
    def test_reduces_to_lab_without_drive(self):
        p = SimulationParams(gamma=1.0, dt=1e-3, n_steps=5, omega_q=2.0)
        for n in range(3):
            dU = displaced_collision_unitary(n, p, 3).matrix
            lU = lab_collision_unitary(n, p, 3).matrix
            assert np.abs(dU - lU).max() < 1e-12

    def test_unitarity(self):
        p = SimulationParams(gamma=1.0, dt=1e-3, n_steps=4, delta=0.5, omega_rabi=2.0)
        assert displaced_collision_unitary(0, p, 3).unitarity_defect() < 1e-12

    @given(drive=drives(), d=st.integers(2, 4), n=st.integers(0, 10**6))
    def test_hamiltonian_matches_kronecker_construction(self, drive, d, n):
        # the cached operators give the same bits as building every product anew
        p = SimulationParams(**drive)
        a = annihilation(d)
        phase = np.exp(1j * p.omega_p * n * p.dt)
        built = (p.delta * np.kron(PROJ_E, np.eye(d))
                 - 0.5 * p.omega_rabi * np.kron(SIGMA_Y, np.eye(d))
                 + 1j * math.sqrt(p.gamma / p.dt)
                 * (phase * np.kron(SIGMA_PLUS, a)
                    - np.conj(phase) * np.kron(SIGMA_MINUS, a.conj().T)))
        assert np.array_equal(displaced_hamiltonian(n, p, d), built)
        for op in _displaced_operators(d):
            assert not op.flags.writeable

    def test_vacuum_block_first_order_expansion(self):
        # remainder against 1 - i*delta*dt*Pe + i*(Omega dt/2)*sigma_y
        # - (gamma dt/2)*Pe must shrink quadratically in dt
        remainders = []
        for dt in (1e-3, 5e-4):
            p = SimulationParams(gamma=1.0, dt=dt, n_steps=4, delta=0.5,
                                 omega_rabi=2.0)
            U = displaced_collision_unitary(0, p, 2).matrix
            block = U[np.ix_([0, 2], [0, 2])]
            first = (np.eye(2) - 1j * p.delta * dt * PROJ_E
                     + 0.5j * p.omega_rabi * dt * SIGMA_Y - 0.5 * p.gamma * dt * PROJ_E)
            remainders.append(np.abs(block - first).max())
        assert remainders[0] < 1e-6
        assert remainders[0] / remainders[1] == pytest.approx(4.0, rel=0.1)


def tensordot_collision(amplitudes, matrix, n, n_modes, d):
    """One collision over the whole state: np.tensordot of U on (qubit, mode n)."""
    psi = amplitudes.reshape((2,) + (d,) * n_modes)
    out = np.tensordot(matrix.reshape(2, d, 2, d), psi, axes=[(2, 3), (0, n + 1)])
    return np.moveaxis(out, (0, 1), (0, n + 1)).reshape(-1)


class TestApplyCollision:
    """One collision by ``engine._collide_in_place`` on a copy of the state."""

    @staticmethod
    def _collide(state, n, unitary):
        out = state.amplitudes.copy()
        engine._collide_in_place(out, unitary, n, state.n_modes)
        return out

    def test_identity_leaves_state_unchanged(self):
        state = DenseJointState.product_state("e", 4, 2)
        ident = CollisionUnitary(matrix=np.eye(4, dtype=complex), fock_dim=2)
        assert np.array_equal(self._collide(state, 1, ident), state.amplitudes)

    def test_norm_preserved_per_collision(self):
        p = SimulationParams(gamma=1.0, dt=1e-3, n_steps=4)
        state = DenseJointState.product_state("e", 4, 2)
        out = self._collide(state, 0, lab_collision_unitary(0, p, 2))
        assert abs(np.linalg.norm(out) - 1.0) < 1e-12

    def test_inverse_restores_state(self):
        rng = np.random.default_rng(7)
        p = SimulationParams(gamma=1.0, dt=1e-2, n_steps=4, omega_q=1.0)
        amps = rng.normal(size=2 * 2**4) + 1j * rng.normal(size=2 * 2**4)
        amps /= np.linalg.norm(amps)
        state = DenseJointState(amps, n_modes=4, fock_dim=2)
        U = lab_collision_unitary(2, p, 2)
        U_inv = CollisionUnitary(matrix=U.matrix.conj().T, fock_dim=2)
        forth = DenseJointState(self._collide(state, 2, U), n_modes=4, fock_dim=2)
        assert np.abs(self._collide(forth, 2, U_inv) - state.amplitudes).max() < 1e-12

    def test_matches_full_tensordot(self):
        rng = np.random.default_rng(3)
        p = SimulationParams(gamma=1.0, dt=5e-3, n_steps=3, omega_q=2.0,
                             omega_rabi=1.5, delta=0.2)
        d = 3
        amps = rng.normal(size=2 * d**3) + 1j * rng.normal(size=2 * d**3)
        amps /= np.linalg.norm(amps)
        state = DenseJointState(amps, n_modes=3, fock_dim=d, frame="displaced")
        U = displaced_collision_unitary(1, p, d)
        slow = tensordot_collision(amps, U.matrix, 1, 3, d)
        assert np.abs(self._collide(state, 1, U) - slow).max() < 1e-13


class TestRunDense:
    def test_memory_guard(self):
        with pytest.raises(MemoryGuardError):
            DenseJointState.product_state("g", 30, 2)

    def test_ground_vacuum_stationary(self):
        p = SimulationParams(gamma=1.0, dt=1e-2, n_steps=6, omega_q=1.0)
        traj = run_dense(p, DenseJointState.product_state("g", 6, 2), frame="lab")
        final = traj.snapshot(6)
        assert abs(final.amplitudes[0] - 1.0) < 1e-14
        assert np.abs(traj.p_excited()).max() < 1e-28

    def test_spontaneous_decay_matches_rotation_law(self):
        # each collision multiplies c_e by cos(sqrt(gamma dt)) exactly
        p = SimulationParams(gamma=1.0, dt=1e-2, n_steps=8)
        traj = run_dense(p, DenseJointState.product_state("e", 8, 2), frame="lab")
        n = np.arange(9)
        law = np.cos(math.sqrt(p.gamma * p.dt)) ** (2 * n)
        assert np.abs(traj.p_excited() - law).max() < 1e-12

    def test_spontaneous_decay_near_exponential(self):
        p = SimulationParams(gamma=1.0, dt=1e-2, n_steps=8)
        traj = run_dense(p, DenseJointState.product_state("e", 8, 2), frame="lab")
        target = np.exp(-p.gamma * p.grid.times())
        assert np.abs(traj.p_excited() - target).max() < 2e-4

    def test_excitation_number_conserved_block_sparsity(self):
        # undriven lab evolution never leaves the total-excitation-1 sector
        p = SimulationParams(gamma=1.0, dt=1e-2, n_steps=8, omega_q=1.0)
        traj = run_dense(p, DenseJointState.product_state("e", 8, 2), frame="lab")
        psi = traj.snapshot(8).amplitudes.reshape((2,) * 9)
        qubit_exc = np.array([0, 1]).reshape(2, *(1,) * 8)
        photons = sum(np.arange(2).reshape(*(1,) * (1 + ax), 2, *(1,) * (7 - ax))
                      for ax in range(8))
        excitation = qubit_exc + photons
        assert np.abs(psi[excitation != 1]).max() == 0.0

    def test_truncation_invariance_single_excitation(self):
        results = []
        for d in (2, 3):
            p = SimulationParams(gamma=1.0, dt=1e-2, n_steps=8, omega_q=1.0,
                                 fock_dim=d)
            traj = run_dense(p, DenseJointState.product_state("e", 8, d), frame="lab")
            results.append(traj.p_excited())
        assert np.abs(results[0] - results[1]).max() < 1e-12

    def test_norm_conserved_across_run(self):
        p = SimulationParams(gamma=1.0, dt=1e-2, n_steps=12, omega_rabi=2.0,
                             delta=0.5, omega_q=1.0, fock_dim=3)
        traj = run_dense(p, DenseJointState.product_state("g", 12, 3,
                                                          frame="displaced"),
                         frame="displaced")
        trace = np.einsum("naa->n", traj.qubit_matrices).real
        assert np.abs(trace - 1.0).max() < 1e-10

    def test_keeps_only_the_output_snapshot(self):
        p = SimulationParams(gamma=1.0, dt=1e-2, n_steps=6, omega_rabi=1.0)
        initial = DenseJointState.product_state("e", 6, 2)
        given_amplitudes = initial.amplitudes.copy()
        traj = run_dense(p, initial, frame=DISPLACED)
        assert list(traj.snapshots) == [6]
        assert traj.snapshot(6).frame == DISPLACED
        assert np.array_equal(initial.amplitudes, given_amplitudes)
        for step in range(6):
            with pytest.raises(KeyError, match=f"no snapshot stored for step {step}"):
                traj.snapshot(step)

    @pytest.mark.parametrize("frame", [LAB, DISPLACED])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_refused_before_any_collision(self, bad, frame, monkeypatch):
        built = []
        for name in ("lab_collision_unitary", "displaced_collision_unitary"):
            monkeypatch.setattr(engine, name, lambda *args: built.append(args))
        initial = DenseJointState.product_state("e", 6, 2)
        initial.amplitudes[5] = bad   # photons in modes 3 and 5, inside the input's cone
        p = SimulationParams(gamma=1.0, dt=1e-2, n_steps=6)
        with pytest.raises(ValueError, match="initial state not normalized"):
            run_dense(p, initial, frame=frame)
        assert built == []


@pytest.mark.parametrize("frame,qubit,last_photon", [(LAB, "e", False), (DISPLACED, "g", False),
                                                    (LAB, "e", True), (DISPLACED, "e", True)],
                         ids=["lab-e", "displaced-g", "lab-reach-N", "displaced-reach-N"])
def test_peak_memory_is_at_most_two_states(frame, qubit, last_photon):
    # a product state: the final cone and the cone before it, 1.5 states at d = 2;
    # (|e, vac> + |g, photon in the last mode>)/sqrt(2) reaches mode N, so its cone
    # is the whole input, collided in place by column blocks
    p = SimulationParams(gamma=1.0, dt=1e-2, n_steps=16, omega_q=1.0, omega_rabi=2.0)
    initial = DenseJointState.product_state(qubit, 16, 2, frame=frame)
    if last_photon:
        initial.amplitudes[[1, 2**16]] = 2 ** -0.5
    tracemalloc.start()
    try:
        run_dense(p, initial, frame=frame)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * initial.amplitudes.nbytes


def expectation(state, op, axis):
    """<psi| op on tensor axis `axis` |psi> by a full-state contraction."""
    psi = state.amplitudes.reshape((2,) + (state.fock_dim,) * state.n_modes)
    lowered = np.moveaxis(np.tensordot(op, psi, axes=[(1,), (axis,)]), 0, axis)
    return complex(np.vdot(psi.reshape(-1), lowered.reshape(-1)))


def full_contraction(params, initial, frame):
    """Reference loop: every collision over the whole state by tensordot_collision.

    Returns the qubit matrices and norms after each step, and the N+1 states.
    """
    build = lab_collision_unitary if frame == LAB else displaced_collision_unitary
    n_modes, d = initial.n_modes, initial.fock_dim
    states = [DenseJointState(initial.amplitudes.copy(), n_modes, d, frame)]
    for step in range(params.n_steps):
        amps = tensordot_collision(states[-1].amplitudes, build(step, params, d).matrix,
                                   step, n_modes, d)
        states.append(DenseJointState(amps, n_modes, d, frame))
    rows = [s.amplitudes.reshape(2, -1) for s in states]
    qubit = np.array([m @ m.conj().T for m in rows])
    norms = np.array([np.linalg.norm(s.amplitudes) for s in states])
    return qubit, norms, states


def light_cone_state(n, d, reach, seed, density):
    """Random amplitudes on a random support of the states whose photons all
    sit in modes < reach, with a photon in mode reach - 1 (reach 0: vacuum field)."""
    rng = np.random.default_rng(seed)
    cone = rng.normal(size=(2, d**reach)) + 1j * rng.normal(size=(2, d**reach))
    cone[rng.random(cone.shape) > density] = 0.0
    cone[rng.integers(2), -1] = 1.0   # d - 1 photons in every mode below reach
    amps = np.zeros((2, d**reach, d ** (n - reach)), dtype=complex)
    amps[:, :, 0] = cone / np.linalg.norm(cone)
    return DenseJointState(amps.ravel(), n, d)


@st.composite
def light_cone_cases(draw):
    d = draw(st.sampled_from((2, 3)))
    params = SimulationParams(fock_dim=d, **draw(drives(n_steps=st.integers(1, 10))))
    n = params.n_steps
    initial = light_cone_state(n, d, draw(st.integers(0, n)),
                               draw(st.integers(0, 2**32 - 1)), draw(st.floats(0.05, 1.0)))
    return params, initial, draw(st.sampled_from((LAB, DISPLACED)))


LARGEST = (SimulationParams(gamma=1.0, dt=0.01, n_steps=10, omega_q=1.0, omega_rabi=2.0,
                            delta=0.3, fock_dim=3),
           light_cone_state(10, 3, 10, seed=5, density=0.5), DISPLACED)


@settings(max_examples=60)
@given(case=light_cone_cases())
@example(case=LARGEST)
def test_light_cone_matches_full_contraction(case):
    # largest difference found over these cases: 1.1e-15, on LARGEST
    params, initial, frame = case
    traj = run_dense(params, initial, frame=frame)
    qubit, norms, states = full_contraction(params, initial, frame)
    assert np.abs(traj.qubit_matrices - qubit).max() <= 1e-12
    # the trace is the squared norm; full_contraction's norms are |psi|
    assert np.abs(np.einsum("naa->n", traj.qubit_matrices).real - norms**2).max() <= 1e-12
    final = traj.snapshot(params.n_steps).amplitudes
    assert np.abs(final - states[-1].amplitudes).max() <= 1e-12
    assert final.flags.c_contiguous
    assert not np.shares_memory(final, initial.amplitudes)
    # <a_n> before and after collision n, the only one acting on mode n (tensor axis n + 1)
    a = annihilation(initial.fock_dim)
    for mode in range(params.n_steps):
        assert abs(traj.a_in[mode] - expectation(states[mode], a, mode + 1)) <= 1e-12
        assert abs(traj.a_out[mode] - expectation(states[mode + 1], a, mode + 1)) <= 1e-12
