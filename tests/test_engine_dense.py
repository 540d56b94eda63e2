import math
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from collide1d import (DenseJointState, MemoryGuardError, SimulationParams,
                       displaced_collision_unitary, engine, lab_collision_unitary, run_dense)
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


@pytest.mark.parametrize("frame", [LAB, DISPLACED])
@pytest.mark.parametrize("d", [2, 3])
def test_stacked_builders_match_the_int_calls_bit_for_bit(frame, d):
    # run_dense builds every collision of a run in one call on np.arange(N)
    p = SimulationParams(gamma=0.7, dt=2e-3, n_steps=12, omega_q=3.0, omega_rabi=2.5,
                         delta=-0.4)
    build = lab_collision_unitary if frame == LAB else displaced_collision_unitary
    stack = build(np.arange(12), p, d).matrix
    assert stack.shape == (12, 2 * d, 2 * d)
    for n in range(12):
        assert stack[n].tobytes() == build(n, p, d).matrix.tobytes(), n
    if frame == DISPLACED:
        hamiltonians = displaced_hamiltonian(np.arange(12), p, d)
        for n in range(12):
            assert hamiltonians[n].tobytes() == displaced_hamiltonian(n, p, d).tobytes(), n


def tensordot_collision(amplitudes, matrix, n, n_modes, d):
    """One collision over the whole state: np.tensordot of U on (qubit, mode n)."""
    psi = amplitudes.reshape((2,) + (d,) * n_modes)
    out = np.tensordot(matrix.reshape(2, d, 2, d), psi, axes=[(2, 3), (0, n + 1)])
    return np.moveaxis(out, (0, 1), (0, n + 1)).reshape(2, -1)


class TestRunDense:
    def test_memory_guard(self):
        with pytest.raises(MemoryGuardError):
            DenseJointState.product_state("g", 30, 2)

    def test_ground_vacuum_stationary(self):
        p = SimulationParams(gamma=1.0, dt=1e-2, n_steps=6, omega_q=1.0)
        traj = run_dense(p, DenseJointState.product_state("g", 6, 2), frame="lab")
        final = traj.snapshot(6)
        assert abs(final.amplitudes[0, 0] - 1.0) < 1e-14
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
        initial = DenseJointState.product_state("e", 6, 2, frame=DISPLACED)
        given_amplitudes = initial.amplitudes.copy()
        traj = run_dense(p, initial, frame=DISPLACED)
        assert list(traj.snapshots) == [6]
        assert traj.snapshot(6).frame == DISPLACED
        assert np.array_equal(initial.amplitudes, given_amplitudes)
        for step in range(6):
            with pytest.raises(KeyError, match=f"no snapshot stored for step {step}"):
                traj.snapshot(step)

    @staticmethod
    def _refused_before_any_unitary(monkeypatch, params, initial, frame, match):
        built = []
        for name in ("lab_collision_unitary", "displaced_collision_unitary"):
            monkeypatch.setattr(engine, name, lambda *args: built.append(args))
        with pytest.raises(ValueError, match=match):
            run_dense(params, initial, frame=frame)
        assert built == []

    @pytest.mark.parametrize("frame", [LAB, DISPLACED])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_refused_before_any_collision(self, bad, frame, monkeypatch):
        initial = DenseJointState.product_state("e", 6, 2, frame=frame)
        initial.amplitudes[0, 0] = bad   # |g, vacuum>: a qubit amplitude
        p = SimulationParams(gamma=1.0, dt=1e-2, n_steps=6)
        self._refused_before_any_unitary(monkeypatch, p, initial, frame,
                                         "initial state not normalized")

    @pytest.mark.parametrize("frame", [LAB, DISPLACED])
    @pytest.mark.parametrize("index,value", [(5, 0.6j), (1, 0.6), (5, np.nan)],
                             ids=["photon", "last-mode", "nan-photon"])
    def test_photon_input_refused_before_any_unitary(self, index, value, frame, monkeypatch):
        # column 5 holds photons in modes 3 and 5, column 1 one in the last mode; the
        # finite ones keep the norm 1, so only the photon check refuses them
        initial = DenseJointState.product_state("e", 6, 2, frame=frame)
        initial.amplitudes[1, 0] = 0.8
        initial.amplitudes[0, index] = value
        p = SimulationParams(gamma=1.0, dt=1e-2, n_steps=6)
        self._refused_before_any_unitary(monkeypatch, p, initial, frame,
                                         "initial state has photon amplitudes")

    def test_real_photon_amplitude_refused(self, monkeypatch):
        # a float array has no imaginary parts: column 1, the last mode, is still checked
        amps = np.zeros((2, 2**6))
        amps[[0, 1], [1, 0]] = 0.6, 0.8
        p = SimulationParams(gamma=1.0, dt=1e-2, n_steps=6)
        self._refused_before_any_unitary(monkeypatch, p, DenseJointState(amps, 6, 2), LAB,
                                         "initial state has photon amplitudes")

    @pytest.mark.parametrize("shape", [(2 * 2**6,), (2, 2**6 + 1)], ids=["flat", "wide"])
    def test_amplitudes_of_another_shape_refused(self, shape):
        # a flat vector of the right size is refused too: only (2, d^N) is a dense state
        with pytest.raises(ValueError, match=re.escape(
                f"amplitude array has shape {shape}, expected (2, 64)")):
            DenseJointState(np.zeros(shape, dtype=complex), 6, 2)

    @pytest.mark.parametrize("n_modes,fock_dim,label,frame,match", [
        (6, 3, LAB, LAB, "initial state is at fock_dim 3 in the lab"),
        (6, 2, DISPLACED, LAB, "initial state is at fock_dim 2 in the displaced"),
        (5, 2, LAB, LAB, "initial state has 5 modes, params want 6"),
        (6, 2, LAB, "rotating", "frame must be 'lab' or 'displaced', got 'rotating'"),
    ], ids=["fock-dim", "frame", "mode-count", "frame-value"])
    def test_input_of_another_space_refused(self, n_modes, fock_dim, label, frame, match,
                                            monkeypatch):
        # params want 6 modes at fock_dim 2
        initial = DenseJointState.product_state("e", n_modes, fock_dim, frame=label)
        p = SimulationParams(gamma=1.0, dt=1e-2, n_steps=6)
        self._refused_before_any_unitary(monkeypatch, p, initial, frame, match)


@pytest.mark.parametrize("frame,qubit", [(LAB, "e"), (DISPLACED, "g")],
                         ids=["lab-e", "displaced-g"])
def test_peak_memory_is_at_most_two_states(frame, qubit):
    # the final cone and the cone before it, 1.5 states at d = 2
    p = SimulationParams(gamma=1.0, dt=1e-2, n_steps=16, omega_q=1.0, omega_rabi=2.0)
    initial = DenseJointState.product_state(qubit, 16, 2, frame=frame)
    tracemalloc.start()
    try:
        run_dense(p, initial, frame=frame)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * initial.amplitudes.nbytes


# One run at 18 displaced modes and one at 20 lab modes; writes each run's qubit
# matrices, a_out, photons and the SHA-256 digest of its snapshot to the .npz named by
# argv[1].
THREAD_PROBE = """
import hashlib, sys
import numpy as np
from collide1d import DenseJointState, SimulationParams, run_dense
out = {}
for frame, n, drive in (("displaced", 18, dict(omega_rabi=2.0, delta=0.3)), ("lab", 20, {})):
    p = SimulationParams(gamma=1.0, dt=1e-2, n_steps=n, omega_q=1.0, **drive)
    initial = DenseJointState.product_state(np.array([0.6, 0.8j]), n, 2, frame=frame)
    traj = run_dense(p, initial, frame=frame)
    out[frame + "-qubit"], out[frame + "-a_out"] = traj.qubit_matrices, traj.a_out
    out[frame + "-photons"] = traj.photons
    final = np.ascontiguousarray(traj.snapshot(n).amplitudes)
    out[frame + "-snapshot"] = hashlib.sha256(final).hexdigest()
np.savez(sys.argv[1], **out)
"""


def test_bits_do_not_depend_on_the_blas_thread_count(tmp_path):
    # the golden configs' cones are too small for BLAS to split work between threads;
    # these reach 2^17 and 2^19 rows, and a second thread must not change a bit
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    path = os.pathsep.join([src] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    runs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads-{threads}.npz"
        result = subprocess.run([sys.executable, "-c", THREAD_PROBE, str(out)],
                                capture_output=True, text=True,
                                env=dict(os.environ, PYTHONPATH=path,
                                         OPENBLAS_NUM_THREADS=threads))
        assert result.returncode == 0, result.stderr
        runs.append(dict(np.load(out)))
    one, two = runs
    assert sorted(one) == sorted(two) and len(one) == 8
    for key in one:
        assert one[key].tobytes() == two[key].tobytes(), key
    for frame in (LAB, DISPLACED):
        trace = np.einsum("naa->n", one[frame + "-qubit"]).real
        assert np.abs(trace - 1.0).max() <= 1e-12


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
    qubit = np.array([s.amplitudes @ s.amplitudes.conj().T for s in states])
    norms = np.array([np.linalg.norm(s.amplitudes) for s in states])
    return qubit, norms, states


def qubit_over_vacuum(n, d, seed, frame):
    """A random normalized complex qubit vector over the vacuum field."""
    rng = np.random.default_rng(seed)
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    return DenseJointState.product_state(v / np.linalg.norm(v), n, d, frame=frame)


@st.composite
def light_cone_cases(draw):
    d = draw(st.sampled_from((2, 3)))
    params = SimulationParams(fock_dim=d, **draw(drives(n_steps=st.integers(1, 10))))
    frame = draw(st.sampled_from((LAB, DISPLACED)))
    initial = qubit_over_vacuum(params.n_steps, d, draw(st.integers(0, 2**32 - 1)), frame)
    return params, initial, frame


LARGEST = (SimulationParams(gamma=1.0, dt=0.01, n_steps=10, omega_q=1.0, omega_rabi=2.0,
                            delta=0.3, fock_dim=3),
           qubit_over_vacuum(10, 3, seed=5, frame=DISPLACED), DISPLACED)


@settings(max_examples=60)
@given(case=light_cone_cases())
@example(case=LARGEST)
def test_light_cone_matches_full_contraction(case):
    # largest difference over 300 drawn cases: 2.7e-15, the trace against |psi|^2
    # (8.9e-16 on LARGEST)
    params, initial, frame = case
    traj = run_dense(params, initial, frame=frame)
    qubit, norms, states = full_contraction(params, initial, frame)
    assert np.abs(traj.qubit_matrices - qubit).max() <= 1e-12
    # the trace is the squared norm; full_contraction's norms are |psi|
    assert np.abs(np.einsum("naa->n", traj.qubit_matrices).real - norms**2).max() <= 1e-12
    final = traj.snapshot(params.n_steps).amplitudes
    assert np.abs(final - states[-1].amplitudes).max() <= 1e-12
    # a (2, d^N) view of the final (d^N, 2) cone: no copy of the final state is made
    assert final.T.flags.c_contiguous and not final.flags.owndata
    assert not np.shares_memory(final, initial.amplitudes)
    # <a_n> and <a_n^dag a_n> after collision n, the only one acting on mode n (tensor
    # axis n + 1); before it mode n is in vacuum, the zero that io_residual takes for a_in
    a = annihilation(initial.fock_dim)
    for mode in range(params.n_steps):
        assert expectation(states[mode], a, mode + 1) == 0
        assert abs(traj.a_out[mode] - expectation(states[mode + 1], a, mode + 1)) <= 1e-12
        number = expectation(states[mode + 1], a.conj().T @ a, mode + 1)
        assert abs(traj.photons[mode] - number) <= 1e-12
