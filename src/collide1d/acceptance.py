"""Executable acceptance suite: one function per criterion, each timed and
reporting a single pass/fail line.  Exposed through ``collide1d check`` and
mirrored by the pytest module of the same name."""

from __future__ import annotations

import contextlib
import functools
import io
import math
import os
import tempfile
import time
from dataclasses import dataclass

import numpy as np

from . import analytic, cli, observables
from .core import SimulationParams, make_exponential_wavepacket
from .engine import DISPLACED, LAB, run_displaced_sectors, run_single_excitation
from .obe import obe_integrate


@dataclass
class CriterionResult:
    name: str
    passed: bool
    detail: str
    runtime_s: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.name} [{self.runtime_s:.2f}s] {self.detail}"


def _criterion(name: str, gate: float | None = None):
    """Turn a body returning (passed, detail) into a timed criterion.

    With a `gate`, a run that takes `gate` seconds or longer fails, and the
    detail states the runtime against it.
    """
    def decorate(body):
        @functools.wraps(body)
        def criterion() -> CriterionResult:
            start = time.perf_counter()
            passed, detail = body()
            runtime = time.perf_counter() - start
            if gate is not None:
                passed = passed and runtime < gate
                detail += f"; runtime {runtime:.2f}s < {gate:g}s"
            return CriterionResult(name, passed, detail, runtime)
        return criterion
    return decorate


@_criterion("criterion-1 spontaneous-emission-convergence", gate=1.0)
def criterion_1():
    """Spontaneous emission: dense-oracle error vs e^{-gamma t} is O(dt)."""
    # gamma*dt = 0.04, 0.02, 0.01 at fixed final time t = 0.2/gamma
    config = cli.ScenarioConfig("convergence", gamma=1.0, dt=0.04, n_steps=5)
    _, metrics = cli.sweep(config)
    return metrics["threshold_ok"], (
        f"convergence sweep: fit exponent {metrics['fit_exponent']:.3f}, max error at "
        f"gamma*dt=0.01: {metrics['max_p_e_error_dt_0.01']:.2e}")


@_criterion("criterion-2 norm-ledger", gate=1.0)
def criterion_2():
    """Norm ledger: analytic deficit <= gamma*dt and its geometric sum to 1e-12, dense 1e-10."""
    gamma, dt, n = 1.0, 1e-3, 3000
    params = SimulationParams(gamma=gamma, dt=dt, n_steps=n)
    worst_analytic = worst_sum = 0.0
    for step in range(0, n + 1, 50):
        t = step * dt
        ledger = analytic.spontaneous_emission_state(t, params).norm_squared()
        worst_analytic = max(worst_analytic, abs(ledger - 1.0))
        # e^{-gamma t} plus the left-Riemann emitted weight, summed as a geometric series
        summed = (math.exp(-gamma * t)
                  + gamma * dt * math.expm1(-gamma * t) / math.expm1(-gamma * dt))
        worst_sum = max(worst_sum, abs(ledger - summed))
    lab = SimulationParams(gamma=1.0, dt=0.02, n_steps=10)
    drv = SimulationParams(gamma=1.0, dt=0.01, n_steps=8, omega_rabi=2.0,
                           omega_q=1.0, fock_dim=3)
    worst_dense = 0.0
    for p, phi0, frame in ((lab, "e", LAB), (drv, "g", DISPLACED)):
        trace = np.einsum("naa->n", cli._dense_run(p, phi0, frame).qubit_matrices).real
        worst_dense = max(worst_dense, float(np.abs(trace - 1.0).max()))
    ok = worst_analytic <= gamma * dt and worst_sum <= 1e-12 and worst_dense <= 1e-10
    return ok, (f"analytic deficit {worst_analytic:.2e} <= {gamma * dt:.0e}, "
                f"ledger vs geometric sum {worst_sum:.1e} <= 1e-12, "
                f"dense |tr rho - 1| {worst_dense:.2e} <= 1e-10")


@_criterion("criterion-3 coherent-three-way", gate=30.0)
def criterion_3():
    """Coherent drive: analytic, sector propagator, and Bloch oracle agree."""
    params = SimulationParams(gamma=1.0, dt=1e-4, n_steps=10000, omega_rabi=20.0)
    m_max, t_final = 2, 1.0
    run = run_displaced_sectors(params, m_max, "g")
    pe_sec = run.record().p_excited()
    pe_ana = analytic.coherent_qubit_trajectory(params, m_max, "g").p_excited()
    pe_obe = obe_integrate(params, t_final, "g").p_excited()
    pe_err = max(float(np.abs(pe_sec - pe_ana).max()),
                 float(np.abs(pe_sec - pe_obe).max()),
                 float(np.abs(pe_ana - pe_obe).max()))

    # amplitude densities at t = 1 on subsampled vacuum, one- and two-photon tuples
    n, dt = params.n_steps, params.dt
    tuples = [()] + [(n1,) for n1 in range(0, n, 379)] + [
        (n1, n2) for n1 in range(0, n, 1531) for n2 in range(n1 + 211, n, 1373)]
    amp_err = float(max(np.abs(run.amplitude(modes, n) / math.sqrt(dt) ** len(modes)
                               - analytic.fm("g", n * dt, [m * dt for m in modes], params)).max()
                        for modes in tuples))
    ok = pe_err <= 1e-2 and amp_err <= 2e-3
    return ok, (f"max pairwise P_e error {pe_err:.2e} <= 1e-2, "
                f"max amplitude error {amp_err:.2e} <= 2e-3")


@_criterion("criterion-4 strong-drive-limit", gate=10.0)
def criterion_4():
    """Strong-drive closed form vs full assembly; Rabi frequency from P_e."""
    gamma, omega = 1.0, 40.0
    params = SimulationParams(gamma=gamma, dt=2.5e-4, n_steps=3200,
                              omega_rabi=omega)
    sd = analytic.strong_drive_weights(params)            # (2, N+1, 2)
    full = analytic.coherent_qubit_trajectory(params, 2, "g").weights
    # the Omega' ~ Omega replacement bounds the no-emission amplitudes;
    # the one-photon sector of the simplified form carries its own extra
    # damping and is only reported, not gated
    pop_err = float(np.abs(sd[0] - full[0]).max())
    photon_dev = float(np.abs(sd[1] - full[1]).max())

    freq_params = SimulationParams(gamma=gamma, dt=5e-4, n_steps=8000,
                                   omega_rabi=omega)
    weights = analytic.strong_drive_weights(freq_params)
    pe = weights[0, :, 1] + weights[1, :, 1]
    om_est = observables.dominant_angular_frequency(pe, freq_params.dt)
    freq_err = abs(om_est - omega) / omega
    ok = pop_err <= 5e-2 and freq_err <= 1e-2
    return ok, (f"max vacuum-sector population error {pop_err:.2e} <= 5e-2 "
                f"(one-photon deviation {photon_dev:.2e}), "
                f"Rabi frequency {om_est:.3f} vs {omega} ({freq_err:.2%} <= 1%)")


@_criterion("criterion-5 single-photon-excitation", gate=5.0)
def criterion_5():
    """Resonant exponential single photon: P_e max 4/e^2 from both tiers."""
    gamma, dt = 1.0, 1e-3
    params = SimulationParams(gamma=gamma, dt=dt, n_steps=16000)
    packet = make_exponential_wavepacket(gamma, 0.0, params.grid)
    target = 4 * math.exp(-2.0)

    run = run_single_excitation(params, packet)
    pe_r = run.record().p_excited()
    k_r = int(np.argmax(pe_r))
    pe_a = analytic.single_photon_p_excited(packet, params)
    k_a = int(np.argmax(pe_a))
    max_ok = (abs(pe_r[k_r] - target) <= 2e-3 and abs(pe_a[k_a] - target) <= 2e-3)
    t_ok = (abs(k_r * dt - 2.0) <= 2 * dt + 1e-12
            and abs(k_a * dt - 2.0) <= 2 * dt + 1e-12)
    fid = observables.state_fidelity(run.state_at(params.grid.index_of(2.0)),
                                     analytic.single_photon_state(packet, 2.0, params))
    ok = max_ok and t_ok and fid >= 1 - 1e-3
    return ok, (f"P_e max {pe_r[k_r]:.6f}/{pe_a[k_a]:.6f} vs {target:.6f} (+-2e-3) "
                f"at t = {k_r * dt:.3f}/{k_a * dt:.3f} (want 2 +- 2dt), "
                f"fidelity {fid:.6f} >= {1 - 1e-3}")


@_criterion("criterion-6 input-output-relation", gate=5.0)
def criterion_6():
    """Input-output residual: exact zero undriven from |g> and |e>, first order in dt
    driven and undriven from (|g> + |e>)/sqrt(2), where <sigma_-> and <a_n> are not zero."""
    lab = SimulationParams(gamma=1.0, dt=0.01, n_steps=8, omega_q=1.0)
    from_g, from_e, coherent = (float(observables.io_residual(cli._dense_run(
        lab, phi0, LAB)).max()) for phi0 in ("g", "e", np.array([1.0, 1.0]) / math.sqrt(2)))
    quiet = max(from_g, from_e)
    config = cli.ScenarioConfig("io-check", gamma=1.0, dt=1e-2, n_steps=8,
                                omega_rabi=2.0, omega_q=1.0, fock_dim=3)
    _, metrics = cli.sweep(config)
    return quiet <= 1e-12 and coherent <= 0.2 * lab.dt and metrics["threshold_ok"], (
        f"undriven residual {quiet:.1e} <= 1e-12 from g and e, {coherent:.2e} <= "
        f"{0.2 * lab.dt:g} from (g+e)/sqrt2, io-check sweep: driven max "
        f"{metrics['max_io_residual_dt_0.01']:.2e}, "
        f"fit exponent {metrics['fit_exponent']:.3f}")


@_criterion("criterion-7 representation-equivalence", gate=10.0)
def criterion_7():
    """Sector propagator with m_max = N equals the dense displaced oracle."""
    params = SimulationParams(gamma=1.0, dt=1e-2, n_steps=8, omega_q=3.0,
                              delta=0.5, omega_rabi=2.0, fock_dim=2)
    worst = 0.0
    for phi0 in ("g", "e"):
        psi = cli._dense_run(params, phi0, DISPLACED).snapshot(8).amplitudes
        state = run_displaced_sectors(params, 8, phi0).state_at(8)
        for m in range(9):
            diff = psi[:, state.dense_index(m)] - state.values[m]
            worst = max(worst, float(np.abs(diff).max()))
    return worst <= 1e-10, f"max amplitude difference {worst:.2e} <= 1e-10"


@_criterion("criterion-8 entanglement-entropy", gate=1.0)
def criterion_8():
    """Entanglement entropy: zero at t=0, one bit at t = ln2/gamma."""
    dt = math.log(2.0) / 693
    params = SimulationParams(gamma=1.0, dt=dt, n_steps=800)
    decay = analytic.spontaneous_emission_record(params).rho
    packet_params = SimulationParams(gamma=1.0, dt=1e-3, n_steps=16000)
    packet = make_exponential_wavepacket(1.0, 0.0, packet_params.grid)
    at_zero = [observables.entanglement_entropy(rho) for rho in (
        decay[0], run_displaced_sectors(params, 1, "g").record().rho[0],
        run_single_excitation(packet_params, packet).record().rho[0])]
    bit = observables.entanglement_entropy(decay[693])
    ok = max(at_zero) <= 1e-12 and abs(bit - 1.0) <= 5e-3
    return ok, (f"entropy(t=0) max {max(at_zero):.1e} <= 1e-12, "
                f"entropy(ln2/gamma) = {bit:.4f} bits (want 1.000 +- 0.005)")


@_criterion("criterion-9 determinism")
def criterion_9():
    """Determinism: every preset yields byte-identical CSV on repeated runs."""
    mismatched = []
    with tempfile.TemporaryDirectory() as tmp:
        for name in cli.PRESETS:
            payloads = []
            for attempt in ("a", "b"):
                out = os.path.join(tmp, f"{name}-{attempt}")
                with contextlib.redirect_stdout(io.StringIO()) as printed:
                    code = cli.main(["run", name, "--out", out])
                if code != 0:
                    mismatched.append(f"{name}: exit {code}")
                    break
                # the first line `collide1d run` prints is the CSV path
                with open(printed.getvalue().splitlines()[0], "rb") as fh:
                    payloads.append(fh.read())
            if len(payloads) == 2 and payloads[0] != payloads[1]:
                mismatched.append(name)
    ok = not mismatched
    return ok, ("all presets byte-identical on rerun" if ok
                else f"mismatches: {mismatched}")


ALL_CRITERIA = (criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
                criterion_6, criterion_7, criterion_8, criterion_9)


def run_all() -> int:
    """Run every criterion, print one line each to stdout; exit code 0 or 3."""
    failures = 0
    for fn in ALL_CRITERIA:
        result = fn()
        print(result.line())
        if not result.passed:
            failures += 1
    print(f"{len(ALL_CRITERIA) - failures}/{len(ALL_CRITERIA)} acceptance criteria passed")
    return 0 if failures == 0 else 3
