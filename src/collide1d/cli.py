"""Configuration ingestion, scenario presets, and machine-readable output.

Configs are flat ``key = value`` text with ``#`` comments.  Every run writes
one CSV with the fixed header ``t,p_e,re_coh,im_coh,entropy_bits,norm,
photon_flux,io_residual`` (absent quantities left empty) plus a sidecar
manifest in the same key-value format; neither file contains timestamps, so
identical configs produce byte-identical output.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace

import numpy as np

from . import __version__
from . import analytic, observables
from .core import (MemoryGuardError, SimulationParams, Wavepacket,
                   make_exponential_wavepacket, make_gaussian_wavepacket)
from .engine import (DISPLACED, LAB, DenseJointState, run_dense,
                     run_displaced_sectors, run_single_excitation)

CSV_HEADER = "t,p_e,re_coh,im_coh,entropy_bits,norm,photon_flux,io_residual"

SCENARIOS = ("spont", "coherent", "single-photon", "oracle-compare", "io-check",
             "convergence")
SOLVERS = ("dense", "sectors", "recursion", "analytic")

#: solvers allowed per scenario; empty set = scenario picks its own solvers
COMPATIBLE = {
    "spont": {"analytic", "dense", "sectors"},
    "coherent": {"analytic", "dense", "sectors"},
    "single-photon": {"analytic", "recursion"},
    "oracle-compare": set(),
    "io-check": set(),
    "convergence": set(),
}

DEFAULT_PHI0 = {"spont": "e", "coherent": "g", "single-photon": "g",
                "oracle-compare": "g", "io-check": "g", "convergence": "e"}

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_THRESHOLD = 3


class ConfigError(ValueError):
    """All validation problems of a config, each tagged with a line number."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


@dataclass
class ScenarioConfig:
    scenario: str
    solver: str | None = None
    gamma: float = 1.0
    omega_q: float = 0.0
    delta: float = 0.0
    omega_rabi: float = 0.0
    dt: float = 0.0
    n_steps: int = 0
    fock_dim: int = 2
    m_max: int = 2
    phi0: str | None = None
    wavepacket: str = "exponential"
    wavepacket_gamma: float | None = None
    wavepacket_sigma: float = 1.0
    wavepacket_t0: float | None = None
    wavepacket_omega: float | None = None
    snapshot_stride: int = 1
    output: str | None = None

    def resolved_phi0(self) -> str:
        return self.phi0 if self.phi0 is not None else DEFAULT_PHI0[self.scenario]

    def params(self, strict: bool = False) -> SimulationParams:
        return SimulationParams(gamma=self.gamma, dt=self.dt, n_steps=self.n_steps,
                                omega_q=self.omega_q, delta=self.delta,
                                omega_rabi=self.omega_rabi, fock_dim=self.fock_dim,
                                strict=strict)

    def build_wavepacket(self, params: SimulationParams) -> Wavepacket:
        omega = self.wavepacket_omega if self.wavepacket_omega is not None else self.omega_q
        if self.wavepacket == "exponential":
            big_gamma = self.wavepacket_gamma if self.wavepacket_gamma is not None else self.gamma
            return make_exponential_wavepacket(big_gamma, omega, params.grid)
        t0 = self.wavepacket_t0 if self.wavepacket_t0 is not None else 5 * self.wavepacket_sigma
        return make_gaussian_wavepacket(self.wavepacket_sigma, t0, omega, params.grid)

    def stem(self) -> str:
        return self.output if self.output else self.scenario


_KNOWN_KEYS = {f.name for f in fields(ScenarioConfig)}
_FLOAT_KEYS = {"gamma", "omega_q", "delta", "omega_rabi", "dt", "wavepacket_gamma",
               "wavepacket_sigma", "wavepacket_t0", "wavepacket_omega"}
_INT_KEYS = {"n_steps", "fock_dim", "m_max", "snapshot_stride"}


def parse_config(text: str) -> ScenarioConfig:
    """Parse and validate, collecting every violation (not just the first)."""
    problems: list[str] = []
    values: dict[str, object] = {}
    lines_of: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            problems.append(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
            continue
        key, _, val = (part.strip() for part in line.partition("="))
        if key not in _KNOWN_KEYS:
            problems.append(f"line {lineno}: unknown key {key!r}")
            continue
        if key in values:
            problems.append(f"line {lineno}: duplicate key {key!r}")
            continue
        lines_of[key] = lineno
        if key in _FLOAT_KEYS:
            try:
                values[key] = float(val)
            except ValueError:
                problems.append(f"line {lineno}: {key} expects a number, got {val!r}")
                continue
            if not math.isfinite(values[key]):
                problems.append(f"line {lineno}: {key} must be finite, got {val!r}")
        elif key in _INT_KEYS:
            try:
                values[key] = int(val)
            except ValueError:
                problems.append(f"line {lineno}: {key} expects an integer, got {val!r}")
        else:
            values[key] = val

    def where(key: str) -> str:
        return f"line {lines_of[key]}" if key in lines_of else "config"

    scenario = values.get("scenario")
    if scenario is None:
        problems.append("config: missing required key 'scenario'")
    elif scenario not in SCENARIOS:
        problems.append(f"{where('scenario')}: unknown scenario {scenario!r} "
                        f"(choose from {', '.join(SCENARIOS)})")
    solver = values.get("solver")
    if solver is not None and solver not in SOLVERS:
        problems.append(f"{where('solver')}: unknown solver {solver!r} "
                        f"(choose from {', '.join(SOLVERS)})")
    for key in ("dt", "n_steps"):
        if key not in values:
            problems.append(f"config: missing required key {key!r}")
    positive = {"gamma", "dt", "wavepacket_gamma", "wavepacket_sigma"}
    for key in positive & values.keys():
        if isinstance(values[key], (int, float)) and values[key] <= 0:
            problems.append(f"{where(key)}: {key} must be positive, got {values[key]}")
    if isinstance(values.get("omega_rabi"), float) and values["omega_rabi"] < 0:
        problems.append(f"{where('omega_rabi')}: omega_rabi must be non-negative")
    if isinstance(values.get("n_steps"), int) and values.get("n_steps", 1) < 1:
        problems.append(f"{where('n_steps')}: n_steps must be >= 1")
    if isinstance(values.get("fock_dim"), int) and values.get("fock_dim", 2) < 2:
        problems.append(f"{where('fock_dim')}: fock_dim must be >= 2")
    if isinstance(values.get("m_max"), int) and values.get("m_max", 0) < 0:
        problems.append(f"{where('m_max')}: m_max must be >= 0")
    if isinstance(values.get("snapshot_stride"), int) and values.get("snapshot_stride", 1) < 1:
        problems.append(f"{where('snapshot_stride')}: snapshot_stride must be >= 1")
    if values.get("phi0") not in (None, "g", "e"):
        problems.append(f"{where('phi0')}: phi0 must be 'g' or 'e'")
    if values.get("wavepacket") not in (None, "exponential", "gaussian"):
        problems.append(f"{where('wavepacket')}: wavepacket must be 'exponential' or 'gaussian'")

    if scenario in COMPATIBLE:
        allowed = COMPATIBLE[scenario]
        if allowed:
            if solver is None:
                problems.append(f"config: scenario {scenario!r} needs a solver "
                                f"(one of {', '.join(sorted(allowed))})")
            elif solver in SOLVERS and solver not in allowed:
                problems.append(f"{where('solver')}: solver {solver!r} is incompatible "
                                f"with scenario {scenario!r} "
                                f"(allowed: {', '.join(sorted(allowed))})")
        elif solver is not None:
            problems.append(f"{where('solver')}: scenario {scenario!r} chooses its own "
                            f"solvers; remove the solver key")
    if scenario == "single-photon" and values.get("phi0") == "e":
        problems.append(f"{where('phi0')}: the single-photon recursion starts from the "
                        f"ground state; phi0 = e is not supported")
    if scenario in ("spont", "single-photon", "convergence") and values.get("omega_rabi"):
        problems.append(f"{where('omega_rabi')}: scenario {scenario!r} has no coherent "
                        f"drive; omega_rabi must be 0")

    if problems:
        raise ConfigError(problems)
    return ScenarioConfig(**values)  # type: ignore[arg-type]


# ---------------------------------------------------------------------------
# result table and manifest
# ---------------------------------------------------------------------------

def _fmt(x) -> str:
    if x is None:
        return ""
    return format(float(x), ".17g")


@dataclass
class ResultTable:
    """Columnar records with the fixed CSV schema; None marks an absent column."""

    t: np.ndarray
    p_e: np.ndarray | None = None
    re_coh: np.ndarray | None = None
    im_coh: np.ndarray | None = None
    entropy_bits: np.ndarray | None = None
    norm: np.ndarray | None = None
    photon_flux: list | None = None      # may contain None entries (edge bins)
    io_residual: list | None = None

    def rows(self):
        n = len(self.t)
        cols = [self.t, self.p_e, self.re_coh, self.im_coh, self.entropy_bits,
                self.norm, self.photon_flux, self.io_residual]
        for i in range(n):
            yield [None if c is None else c[i] for c in cols]

    def write_csv(self, path: str):
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(CSV_HEADER + "\n")
            for row in self.rows():
                fh.write(",".join(_fmt(v) for v in row) + "\n")


def write_manifest(path: str, config: ScenarioConfig, metrics: dict):
    entries = {"version": __version__}
    for f in fields(ScenarioConfig):
        value = getattr(config, f.name)
        if value is not None:
            entries[f"config.{f.name}"] = value
    entries.update(metrics)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for key in sorted(entries):
            value = entries[key]
            if isinstance(value, float):
                value = _fmt(value)
            fh.write(f"{key} = {value}\n")


def _sample_steps(n_steps: int, stride: int) -> np.ndarray:
    steps = np.arange(0, n_steps + 1, stride)
    if steps[-1] != n_steps:
        steps = np.append(steps, n_steps)
    return steps


def _table(params: SimulationParams, steps: np.ndarray, rho: np.ndarray, norm=None,
           flux=None, io_residual=None) -> ResultTable:
    """The CSV rows of every solver, from reduced qubit matrices sampled at `steps`.

    norm defaults to the trace of rho; solvers that keep a norm ledger of their
    own pass it instead.  flux[n] is the final-state flux density of bin n and
    io_residual[n] the input-output residual after collision n; both columns
    stay empty where a row has no such bin.
    """
    n = params.n_steps
    coh = rho[:, 0, 1]
    return ResultTable(
        t=steps * params.dt, p_e=rho[:, 1, 1].real, re_coh=coh.real, im_coh=coh.imag,
        entropy_bits=np.array([observables.entanglement_entropy(r) for r in rho]),
        norm=np.einsum("naa->n", rho).real if norm is None else norm,
        photon_flux=(None if flux is None
                     else [float(flux[s]) if s < n else None for s in steps]),
        io_residual=(None if io_residual is None
                     else [float(io_residual[s - 1]) if s >= 1 else None for s in steps]))


def _populations(p_e: np.ndarray, norm: np.ndarray) -> np.ndarray:
    """Qubit matrices without coherence: P_e in e, the rest of the norm in g."""
    rho = np.zeros((len(p_e), 2, 2), complex)
    rho[:, 1, 1] = p_e
    rho[:, 0, 0] = norm - p_e
    return rho


def _dense_table(traj, stride: int, **columns) -> ResultTable:
    """Table of a dense trajectory, whose norm is that of the state vector."""
    steps = _sample_steps(traj.params.n_steps, stride)
    return _table(traj.params, steps, traj.qubit_matrices[steps],
                  norm=traj.norms[steps] ** 2, **columns)


def _dense_flux(traj) -> np.ndarray:
    n = traj.params.n_steps
    return observables.photon_density(traj.snapshot(n), dt=traj.params.dt)


# ---------------------------------------------------------------------------
# scenario runners
# ---------------------------------------------------------------------------

def _solve(config: ScenarioConfig, params: SimulationParams) -> ResultTable:
    """Run a spont, coherent or single-photon config with its solver."""
    steps = _sample_steps(params.n_steps, config.snapshot_stride)
    phi0 = config.resolved_phi0()
    if config.solver == "dense":
        # the undriven qubit runs in the lab frame, the driven one displaced
        frame = LAB if config.scenario == "spont" else DISPLACED
        initial = DenseJointState.product_state(phi0, params.n_steps, params.fock_dim,
                                                frame=frame)
        traj = run_dense(params, initial, frame=frame)
        return _dense_table(traj, config.snapshot_stride, flux=_dense_flux(traj))
    if config.solver == "sectors":
        # spont is the undriven displaced run from |e>
        run = run_displaced_sectors(params, config.m_max, phi0)
        return _table(params, steps, run.qubit_trajectory()[steps],
                      flux=run.emission_weights() / params.dt)
    if config.scenario == "coherent":
        rho, _ = analytic.coherent_qubit_trajectory(params, config.m_max, phi0)
        return _table(params, steps, rho[steps])
    if config.scenario == "spont":
        gamma = params.gamma
        p_e = np.exp(-gamma * (steps * params.dt))
        # discrete norm: survival + left-Riemann photon weight over past bins
        past = np.concatenate(([0.0], np.cumsum(
            params.dt * gamma * np.exp(-gamma * np.arange(params.n_steps) * params.dt))))
        norm = p_e + past[steps]
        final = analytic.spontaneous_emission_state(params.grid.total_time, params)
        return _table(params, steps, _populations(p_e, norm), norm=norm,
                      flux=observables.photon_density(final))
    packet = config.build_wavepacket(params)
    if config.solver == "recursion":
        run = run_single_excitation(params, packet)
        p_e, norm = run.p_excited()[steps], run.norm_trajectory[steps]
        final = run.final_state()
    else:
        # photon weight: past bins carry the scattered density, future the input
        xt = analytic.xi_tilde_trajectory(packet, params)
        tp = np.arange(params.n_steps) * params.dt
        scattered = np.abs(packet.samples - params.gamma * xt[:params.n_steps]
                           * np.exp(-1j * params.omega_q * tp)) ** 2 * params.dt
        incoming = np.abs(packet.samples) ** 2 * params.dt
        pe_all = analytic.single_photon_p_excited(packet, params)
        norm_all = (pe_all
                    + np.concatenate(([0.0], np.cumsum(scattered)))
                    + (np.sum(incoming) - np.concatenate(([0.0], np.cumsum(incoming)))))
        p_e, norm = pe_all[steps], norm_all[steps]
        final = analytic.single_photon_state(packet, params.grid.total_time, params)
    return _table(params, steps, _populations(p_e, norm), norm=norm,
                  flux=observables.photon_density(final))


# -- sweeps: one error per step size, fitted to a power law in dt -------------

def _displaced_dense_run(params: SimulationParams, phi0, **kwargs):
    initial = DenseJointState.product_state(phi0, params.n_steps, params.fock_dim,
                                            frame=DISPLACED)
    return run_dense(params, initial, frame=DISPLACED, **kwargs)


def oracle_amplitude_error(config: ScenarioConfig, scale: int):
    """Largest |dense - closed form| tuple amplitude density at step dt*scale.

    The final time stays fixed.  Returns (error, dense trajectory).
    """
    params = replace(config, dt=config.dt * scale, n_steps=config.n_steps // scale).params()
    phi0 = config.resolved_phi0()
    traj = _displaced_dense_run(params, phi0)
    psi = traj.snapshot(params.n_steps).amplitudes.reshape(2, -1)
    m_max = min(3, config.m_max, params.n_steps)
    coeffs = analytic.assemble_coherent(params, params.grid.total_time, m_max, phi0)
    worst = 0.0
    for m in range(m_max + 1):
        diff = psi[:, coeffs.dense_index(m, params.fock_dim)] - coeffs.values[m]
        # hypot rounds like abs() of one complex number; np.abs of a complex
        # array may not, and the error is written to the manifest
        err = float(np.hypot(diff.real, diff.imag).max())
        worst = max(worst, err / params.dt ** (m / 2))  # densities: every sector O(1)
    return worst, traj


def io_residual_max(config: ScenarioConfig, scale: int):
    """Largest input-output residual of the displaced dense run at step dt/scale.

    The number of collisions stays fixed.  Returns (residual, dense trajectory).
    """
    params = replace(config, dt=config.dt / scale).params()
    traj = _displaced_dense_run(params, config.resolved_phi0(), snapshot_steps="all")
    return float(observables.io_residual(traj).max()), traj


def convergence_error(config: ScenarioConfig, scale: int):
    """Largest |P_e - e^{-gamma t}| of the lab-frame dense run from |e> at step dt/scale.

    The final time stays fixed.  Returns (error, dense trajectory).
    """
    params = replace(config, dt=config.dt / scale, n_steps=config.n_steps * scale).params()
    initial = DenseJointState.product_state("e", params.n_steps, params.fock_dim)
    traj = run_dense(params, initial, frame=LAB)
    expected = np.exp(-params.gamma * params.grid.times())
    return float(np.abs(traj.p_excited() - expected).max()), traj


def _sweep(config: ScenarioConfig, jobs: int, measure, scales, keep: int, dts, name: str):
    """Run measure(config, scale) at every scale, in order, on `jobs` workers.

    Returns the trajectory measured at scale `keep` (the one the CSV shows),
    the errors, and the metrics: the fitted power of dt and one
    `<name>_dt_<dt>` entry per scale.
    """
    with ProcessPoolExecutor(jobs) if jobs > 1 else contextlib.nullcontext() as pool:
        results = (pool.map if pool else map)(measure, [config] * len(scales), scales)
        errors = []
        for scale in scales:
            error, traj = next(results)
            errors.append(error)
            if scale == keep:
                kept = traj
            del traj  # free each other trajectory before the next scale runs
    metrics = {"fit_exponent": observables.power_law_exponent(dts, errors)}
    metrics.update((f"{name}_dt_{_fmt(dt)}", err) for dt, err in zip(dts, errors))
    return kept, errors, metrics


def _run_oracle_compare(config: ScenarioConfig, jobs: int):
    if config.n_steps % 4 != 0:
        raise ConfigError(["config: oracle-compare needs n_steps divisible by 4 "
                           "(it compares dt, 2*dt and 4*dt at fixed final time)"])
    scales = [4, 2, 1]
    traj, _, metrics = _sweep(config, jobs, oracle_amplitude_error, scales, 1,
                              [config.dt * s for s in scales], "max_amp_error")
    metrics["threshold_ok"] = 0.7 <= metrics["fit_exponent"] <= 1.3
    return _dense_table(traj, config.snapshot_stride), metrics


def _run_io_check(config: ScenarioConfig, jobs: int):
    scales = [1, 2, 4]
    dts = [config.dt / s for s in scales]
    traj, residuals, metrics = _sweep(config, jobs, io_residual_max, scales, 1, dts,
                                      "max_io_residual")
    bound_ok = all(r <= 5 * dt_v for r, dt_v in zip(residuals, dts))
    metrics["threshold_ok"] = bound_ok and 0.8 <= metrics["fit_exponent"] <= 1.2
    return _dense_table(traj, config.snapshot_stride,
                        io_residual=observables.io_residual(traj)), metrics


def _run_convergence(config: ScenarioConfig, jobs: int):
    scales = [1, 2, 4]
    traj, errors, metrics = _sweep(config, jobs, convergence_error, scales, 4,
                                   [config.dt / s for s in scales], "max_p_e_error")
    metrics["threshold_ok"] = 0.85 <= metrics["fit_exponent"] <= 1.15 and errors[-1] <= 0.02
    return _dense_table(traj, config.snapshot_stride, flux=_dense_flux(traj)), metrics


_SWEEPS = {"oracle-compare": _run_oracle_compare, "io-check": _run_io_check,
           "convergence": _run_convergence}


def run_scenario(config: ScenarioConfig, out_dir: str = ".", jobs: int = 1,
                 strict: bool = False):
    """Execute a validated config; returns (table, metrics, csv_path, exit_code)."""
    params = config.params(strict=strict)
    if config.scenario in _SWEEPS:
        table, metrics = _SWEEPS[config.scenario](config, jobs)
    else:
        table, metrics = _solve(config, params), {}
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, config.stem())
    csv_path = stem + ".csv"
    table.write_csv(csv_path)
    metrics["norm_deficit"] = float(1.0 - table.norm[-1])
    write_manifest(stem + ".manifest", config, metrics)
    code = EXIT_OK if metrics.get("threshold_ok", True) else EXIT_THRESHOLD
    return table, metrics, csv_path, code


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

PRESETS = {
    "spont": """\
# spontaneous emission of an initially excited qubit, closed-form solver
scenario = spont
solver = analytic
gamma = 1.0
dt = 1e-3
n_steps = 5000
snapshot_stride = 5
""",
    "rabi-strong": """\
# resonant coherent drive at Omega = 20*gamma, sector propagator
scenario = coherent
solver = sectors
gamma = 1.0
omega_rabi = 20.0
dt = 1e-3
n_steps = 1000
m_max = 3
snapshot_stride = 2
""",
    "single-photon-exp": """\
# resonant exponential single-photon wavepacket (bandwidth-matched)
scenario = single-photon
solver = recursion
gamma = 1.0
dt = 1e-3
n_steps = 15000
wavepacket = exponential
wavepacket_gamma = 1.0
snapshot_stride = 15
""",
    "single-photon-gauss": """\
# gaussian single-photon wavepacket arriving at t0 = 5/gamma
scenario = single-photon
solver = recursion
gamma = 1.0
dt = 1e-3
n_steps = 12000
wavepacket = gaussian
wavepacket_sigma = 1.0
wavepacket_t0 = 5.0
snapshot_stride = 12
""",
}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _load_config_text(target: str) -> str:
    if os.path.exists(target):
        with open(target, "r", encoding="utf-8") as fh:
            return fh.read()
    if target in PRESETS:
        return PRESETS[target]
    raise FileNotFoundError(f"no config file or preset named {target!r}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="collide1d",
                                     description="1D-atom collision-model simulator")
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="execute a config file or preset")
    run_p.add_argument("config", help="path to a config file, or a preset name")
    run_p.add_argument("--jobs", type=int, default=1, metavar="K",
                       help="worker processes for sweep scenarios")
    run_p.add_argument("--strict", action="store_true",
                       help="turn validity-guard warnings into errors")
    run_p.add_argument("--out", default=None, metavar="DIR",
                       help="output directory (default $COLLIDE1D_OUT or .)")
    pre_p = sub.add_parser("presets", help="list or show shipped presets")
    pre_p.add_argument("action", choices=("list", "show"))
    pre_p.add_argument("name", nargs="?", help="preset name for 'show'")
    sub.add_parser("check", help="run the acceptance suite (exit 0/3)")
    args = parser.parse_args(argv)

    if args.command == "presets":
        if args.action == "list":
            for name in PRESETS:
                print(name)
            return EXIT_OK
        if args.name not in PRESETS:
            print(f"unknown preset {args.name!r}", file=sys.stderr)
            return EXIT_INVALID
        print(PRESETS[args.name], end="")
        return EXIT_OK

    if args.command == "check":
        from . import acceptance
        return acceptance.run_all()

    out_dir = args.out or os.environ.get("COLLIDE1D_OUT") or "."
    try:
        text = _load_config_text(args.config)
    except FileNotFoundError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_INVALID
    try:
        config = parse_config(text)
    except ConfigError as exc:
        for line in exc.violations:
            print(f"config error: {line}", file=sys.stderr)
        return EXIT_INVALID
    try:
        _, metrics, csv_path, code = run_scenario(config, out_dir=out_dir,
                                                  jobs=args.jobs, strict=args.strict)
    except (ValueError, MemoryGuardError, ConfigError) as exc:
        print(f"invalid run: {exc}", file=sys.stderr)
        return EXIT_INVALID
    print(csv_path)
    for key in sorted(metrics):
        print(f"{key} = {metrics[key]}")
    return code


if __name__ == "__main__":
    sys.exit(main())
