"""The benchmark's workloads: seeded configs, one unit of work, output checks.

Each workload draws only physical parameters from its seed, always inside the
program's 0.1 validity bound, and hands the program nothing but the generated
config texts.  ``run`` is the timed unit; ``check`` is applied to its outputs
afterwards, with the acceptance suite's own thresholds.  Sizes are chosen so
that one unit takes a fraction of a second on a 2-vCPU machine, which gives
each run enough units for a median and a tail.
"""

from __future__ import annotations

import contextlib
import io
import random
import re
import warnings

import numpy as np

from collide1d import analytic, cli, core, engine, obe, observables


def _config(**values) -> str:
    # repr keeps every digit, so the program parses back exactly the drawn value
    return "".join(f"{key} = {value if isinstance(value, str) else repr(value)}\n"
                   for key, value in values.items())


class Workload:
    name = ""
    why = ""
    ranges: dict = {}
    #: True when the timed unit is a fresh ``collide1d check`` process; ``run`` is
    #: then the same work in this process, used for tracing and counting
    fresh_process = False

    def __init__(self, seed: int, smoke: bool = False):
        self.seed = seed
        self.smoke = smoke
        self.rng = random.Random(f"{self.name}:{seed}")
        self.drawn: dict = {}
        self.configs: dict[str, str] = {}

    def draw(self, key: str, lo: float, hi: float) -> float:
        self.drawn[key] = value = self.rng.uniform(lo, hi)
        return value

    def run(self, out_dir: str):
        """One unit of work in this process; returns what ``check`` inspects."""
        raise NotImplementedError

    def check(self, outputs) -> list[str]:
        raise NotImplementedError

    def _run_configs(self, out_dir: str) -> dict:
        results = {}
        for stem, text in self.configs.items():
            config = cli.parse_config(text)
            table, metrics, _, code = cli.run_scenario(config, out_dir=out_dir)
            results[stem] = (table, metrics, code)
        return results

    def _codes(self, outputs) -> list[str]:
        return [f"{stem}: exit code {res[2]} (metrics {res[1]})"
                for stem, res in outputs.items() if stem in self.configs and res[2] != 0]


class DrivenSectors(Workload):
    name = "driven-sectors"
    why = ("coherent drive through sectors and analytic solvers plus the OBE oracle, "
           "Omega in [10,30], delta in [-1,1]: power table, FFT moment chain and RK4 "
           "loop dominate, few CSV rows")
    ranges = {"omega_rabi": [10.0, 30.0], "delta": [-1.0, 1.0]}

    def __init__(self, seed, smoke=False):
        super().__init__(seed, smoke)
        omega = self.draw("omega_rabi", 10.0, 30.0)
        delta = self.draw("delta", -1.0, 1.0)
        n = 2000 if smoke else 20000
        # Omega*dt < 1e-3 keeps obe_integrate at one RK4 substep per collision
        # for every drawn Omega, so every seed does the same work (t = 0.6/gamma)
        self.params = dict(gamma=1.0, omega_rabi=omega, delta=delta, dt=3e-5,
                           n_steps=n, m_max=4, snapshot_stride=n // 1000)
        for solver in ("sectors", "analytic"):
            self.configs[f"coherent-{solver}"] = _config(
                scenario="coherent", solver=solver, output=f"coherent-{solver}",
                **self.params)

    def run(self, out_dir):
        results = self._run_configs(out_dir)
        params = cli.parse_config(self.configs["coherent-sectors"]).params()
        results["obe"] = obe.obe_integrate(params, params.grid.total_time, "g")
        return results

    def check(self, outputs):
        problems = self._codes(outputs)
        stride, n = self.params["snapshot_stride"], self.params["n_steps"]
        pe_sec = outputs["coherent-sectors"][0].p_e
        pe_ana = outputs["coherent-analytic"][0].p_e
        pe_obe = outputs["obe"].p_excited()[np.arange(0, n + 1, stride)]
        worst = max(float(np.abs(pe_sec - pe_ana).max()),
                    float(np.abs(pe_sec - pe_obe).max()),
                    float(np.abs(pe_ana - pe_obe).max()))
        if not worst <= 1e-2:
            problems.append(f"sectors/analytic/OBE P_e differ by {worst:.3e} > 1e-2")
        return problems


class DenseOracle(Workload):
    name = "dense-oracle"
    why = ("five dense-oracle configs and a sector-vs-dense amplitude check, omega_q in "
           "[0.5,3], Omega in [1,4], delta in [-1,1]: state-vector contraction, "
           "photon density, io residual, materializers")
    ranges = {"omega_q": [0.5, 3.0], "omega_rabi": [1.0, 4.0], "delta": [-1.0, 1.0]}

    def __init__(self, seed, smoke=False):
        super().__init__(seed, smoke)
        wq = self.draw("omega_q", 0.5, 3.0)
        omega = self.draw("omega_rabi", 1.0, 4.0)
        delta = self.draw("delta", -1.0, 1.0)
        # mode counts; the largest dt any sweep reaches keeps every rate*dt <= 0.08
        spont, coh, io_modes, oracle, self.state_modes = (
            (8, 8, 4, 8, 6) if smoke else (18, 18, 9, 16, 14))
        drive = dict(gamma=1.0, omega_q=wq, omega_rabi=omega, delta=delta)
        self.configs = {
            "convergence": _config(scenario="convergence", output="convergence",
                                   gamma=1.0, omega_q=wq, dt=0.05, n_steps=4),
            "spont-dense": _config(scenario="spont", solver="dense", output="spont-dense",
                                   gamma=1.0, omega_q=wq, dt=0.05, n_steps=spont),
            "coherent-dense": _config(scenario="coherent", solver="dense",
                                      output="coherent-dense", dt=0.02, n_steps=coh,
                                      **drive),
            "io-check": _config(scenario="io-check", output="io-check", fock_dim=3,
                                dt=0.01, n_steps=io_modes, **drive),
            "oracle-compare": _config(scenario="oracle-compare", output="oracle-compare",
                                      m_max=3, dt=0.005, n_steps=oracle, **drive),
        }
        self.drive = drive

    def run(self, out_dir):
        results = self._run_configs(out_dir)
        n = self.state_modes
        params = core.SimulationParams(dt=0.02, n_steps=n, **self.drive)
        for phi0 in ("g", "e"):
            initial = engine.DenseJointState.product_state(phi0, n, 2,
                                                           frame=engine.DISPLACED)
            dense = engine.run_dense(params, initial, frame=engine.DISPLACED)
            sectors = engine.run_displaced_sectors(params, n, phi0).state_at(n)
            results[f"state-{phi0}"] = (dense.snapshot(n).amplitudes, sectors)
        return results

    def check(self, outputs):
        problems = self._codes(outputs)
        n = self.state_modes
        worst = 0.0
        for phi0 in ("g", "e"):
            dense, sectors = outputs[f"state-{phi0}"]
            dense = dense.reshape(2, -1)
            for m in range(n + 1):
                tuples = sectors.tuples[m]
                # occupation index of each tuple: mode k is bit N-1-k
                idx = (np.left_shift(1, n - 1 - tuples).sum(axis=1) if m
                       else np.zeros(1, dtype=int))
                worst = max(worst, float(np.abs(dense[:, idx] - sectors.values[m]).max()))
        if not worst <= 1e-10:
            problems.append(f"state_at vs dense amplitudes differ by {worst:.3e} > 1e-10")
        return problems


class SinglePhoton(Workload):
    name = "single-photon"
    why = ("single-photon scattering by recursion and closed form, exponential or gaussian "
           "packet, detuning in [-1,1], omega_q in [0,5]: Python recursion loop, per-row "
           "entropy and CSV output dominate")
    ranges = {"wavepacket": ["exponential", "gaussian"], "detuning": [-1.0, 1.0],
              "omega_q": [0.0, 5.0], "wavepacket_gamma": [1.0, 2.0],
              "wavepacket_sigma": [0.8, 1.2]}

    def __init__(self, seed, smoke=False):
        super().__init__(seed, smoke)
        shape = self.rng.choice(["exponential", "gaussian"])
        self.drawn["wavepacket"] = shape
        wq = self.draw("omega_q", 0.0, 5.0)
        detuning = self.draw("detuning", -1.0, 1.0)
        n = 6000 if smoke else 60000
        # t = 15/gamma keeps exp(-G*T) under the 1e-6 tail guard and 5 sigma inside
        packet = (dict(wavepacket_gamma=self.draw("wavepacket_gamma", 1.0, 2.0))
                  if shape == "exponential" else
                  dict(wavepacket_sigma=self.draw("wavepacket_sigma", 0.8, 1.2),
                       wavepacket_t0=6.0))
        base = dict(scenario="single-photon", gamma=1.0, omega_q=wq, dt=15.0 / n,
                    n_steps=n, wavepacket=shape, wavepacket_omega=wq + detuning,
                    snapshot_stride=12, **packet)
        for solver in ("recursion", "analytic"):
            self.configs[f"single-photon-{solver}"] = _config(
                solver=solver, output=f"single-photon-{solver}", **base)

    def run(self, out_dir):
        results = self._run_configs(out_dir)
        config = cli.parse_config(self.configs["single-photon-recursion"])
        params = config.params()
        packet = config.build_wavepacket(params)
        final = engine.run_single_excitation(params, packet).final_state()
        closed = analytic.single_photon_state(packet, params.grid.total_time, params)
        results["fidelity"] = observables.state_fidelity(final, closed)
        return results

    def check(self, outputs):
        problems = self._codes(outputs)
        err = float(np.abs(outputs["single-photon-recursion"][0].p_e
                           - outputs["single-photon-analytic"][0].p_e).max())
        if not err <= 2e-3:
            problems.append(f"recursion vs analytic P_e differ by {err:.3e} > 2e-3")
        if not outputs["fidelity"] >= 1 - 1e-3:
            problems.append(f"final-state fidelity {outputs['fidelity']:.6f} < {1 - 1e-3}")
        return problems


class Acceptance(Workload):
    name = "acceptance"
    why = ("one fresh 'collide1d check' process running the 9 criteria on fixed inputs, "
           "seed unused: acceptance layer, cold-process start and first-call costs")
    fresh_process = True

    def run(self, out_dir):
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = cli.main(["check"])
        return code, out.getvalue()

    def check(self, outputs):
        code, text = outputs
        summary = re.search(r"^(\d+)/(\d+) acceptance criteria passed$", text, re.M)
        if code != 0 or not summary or summary[1] != summary[2]:
            return [f"check exit code {code}: " + " | ".join(
                line for line in text.splitlines() if not line.startswith("PASS"))]
        return []


WORKLOADS = {w.name: w for w in (DrivenSectors, DenseOracle, SinglePhoton, Acceptance)}


def run_checked(workload: Workload, out_dir: str):
    """``workload.run`` with validity warnings raised as errors."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", core.ValidityWarning)
        return workload.run(out_dir)
