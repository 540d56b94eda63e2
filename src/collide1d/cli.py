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
from dataclasses import KW_ONLY, MISSING, dataclass, field, fields, replace
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from . import analytic, observables
from .core import (MAX_NORM_DEFICIT, VALIDITY_BOUND, MemoryGuardError, RunRecord,
                   SimulationParams, Wavepacket, make_exponential_wavepacket,
                   make_gaussian_wavepacket)
from .engine import (DISPLACED, LAB, MAX_SECTOR_AMPLITUDES, DenseJointState,
                     check_dense_size, run_dense, run_displaced_sectors,
                     run_single_excitation)

CSV_HEADER = "t,p_e,re_coh,im_coh,entropy_bits,norm,photon_flux,io_residual"


class _Scenario(NamedTuple):
    solvers: dict    # solver -> (config, params) -> RunRecord; empty: picks its own
    phi0: str        # initial qubit state when the config sets none
    driven: bool     # takes a coherent drive; otherwise omega_rabi must be 0
    start: str = ""  # the solver or sweep that always starts from phi0, fixing it


def _dense_run(params: SimulationParams, phi0, frame: str):
    """The dense oracle in `frame` from phi0 over the vacuum."""
    initial = DenseJointState.product_state(phi0, params.n_steps, params.fock_dim,
                                            frame=frame)
    return run_dense(params, initial, frame=frame)


def _dense_record(traj) -> RunRecord:
    """A dense run's record, with the photon flux of its final state."""
    params = traj.params
    return traj.record(observables.photon_density(traj.snapshot(params.n_steps), dt=params.dt))


def _dense(frame: str):
    return lambda config, params: _dense_record(
        _dense_run(params, config.resolved_phi0(), frame))


def _sectors(config, params) -> RunRecord:
    # spont is the undriven displaced run from |e>
    return run_displaced_sectors(params, config.m_max, config.resolved_phi0()).record()


SCENARIOS = {
    # the undriven qubit runs in the lab frame, the driven one displaced
    "spont": _Scenario({
        "analytic": lambda config, params: analytic.spontaneous_emission_record(params),
        "dense": _dense(LAB),
        "sectors": _sectors}, "e", False),
    "coherent": _Scenario({
        "analytic": lambda config, params: analytic.coherent_qubit_trajectory(
            params, config.m_max, config.resolved_phi0()),
        "dense": _dense(DISPLACED),
        "sectors": _sectors}, "g", True),
    "single-photon": _Scenario({
        "analytic": lambda config, params: analytic.single_photon_record(
            config.build_wavepacket(params), params),
        "recursion": lambda config, params: run_single_excitation(
            params, config.build_wavepacket(params)).record()}, "g", False, "recursion"),
    "oracle-compare": _Scenario({}, "g", True),
    "io-check": _Scenario({}, "g", True),
    "convergence": _Scenario({}, "e", False, "sweep"),
}
SOLVERS = ("dense", "sectors", "recursion", "analytic")

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_THRESHOLD = 3


class ConfigError(ValueError):
    """All validation problems of a config, each tagged with a line number."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


def _key(default=MISSING, kind=str, low=None, strict=False, choices=()):
    """A config key: parse type, default (none: the key is required), lower
    bound (exclusive if strict; float bounds are 0) and allowed values."""
    return field(default=default,
                 metadata={"kind": kind, "low": low, "strict": strict, "choices": choices})


@dataclass
class ScenarioConfig:
    """One run, as a config file states it: each field declares its key."""

    scenario: str = _key(choices=tuple(SCENARIOS))
    _: KW_ONLY
    solver: str | None = _key(None, choices=SOLVERS)
    gamma: float = _key(1.0, float, low=0, strict=True)
    omega_q: float = _key(0.0, float, low=0)
    delta: float = _key(0.0, float)
    omega_rabi: float = _key(0.0, float, low=0)
    dt: float = _key(kind=float, low=0, strict=True)
    n_steps: int = _key(kind=int, low=1)
    fock_dim: int = _key(2, int, low=2)
    m_max: int = _key(2, int, low=0)
    phi0: str | None = _key(None, choices=("g", "e"))
    wavepacket: str = _key("exponential", choices=("exponential", "gaussian"))
    wavepacket_gamma: float | None = _key(None, float, low=0, strict=True)
    wavepacket_sigma: float = _key(1.0, float, low=0, strict=True)
    wavepacket_t0: float | None = _key(None, float)
    wavepacket_omega: float | None = _key(None, float)
    snapshot_stride: int = _key(1, int, low=1)
    output: str | None = _key(None)

    def resolved_phi0(self) -> str:
        return self.phi0 if self.phi0 is not None else SCENARIOS[self.scenario].phi0

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


#: largest magnitude of a float key: the closed forms square rates and widths
#: (sums of two such squares stay finite), and divide by wavepacket_sigma^2
_MAX_MAGNITUDE = 1e150


def parse_config(text: str) -> ScenarioConfig:
    """Parse and validate, collecting every violation (not just the first)."""
    problems: list[str] = []
    lines: dict[str, tuple[int, str]] = {}
    declared = {f.name: f for f in fields(ScenarioConfig)}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            problems.append(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
            continue
        key, _, val = (part.strip() for part in line.partition("="))
        if key not in declared:
            problems.append(f"line {lineno}: unknown key {key!r}")
        elif key in lines:
            problems.append(f"line {lineno}: duplicate key {key!r}")
        else:
            lines[key] = lineno, val

    values: dict[str, object] = {}
    for key, declaration in declared.items():
        if key not in lines:
            if declaration.default is MISSING:
                problems.append(f"config: missing required key {key!r}")
            continue
        meta, (lineno, val) = declaration.metadata, lines[key]
        kind, low, choices, at = meta["kind"], meta["low"], meta["choices"], f"line {lineno}: "
        try:
            values[key] = value = kind(val)
        except ValueError:
            problems.append(f"{at}{key} expects {'a number' if kind is float else 'an integer'}, "
                            f"got {val!r}")
            continue
        if kind is float and not math.isfinite(value):
            problems.append(f"{at}{key} must be finite, got {val!r}")
        elif kind is float and abs(value) > _MAX_MAGNITUDE:
            problems.append(f"{at}|{key}| must be <= {_MAX_MAGNITUDE:g}, got {value:g}")
        if low is not None and (value <= low if meta["strict"] else value < low):
            problems.append(at + (f"{key} must be positive, got {value}" if meta["strict"]
                                  else f"{key} must be non-negative" if kind is float
                                  else f"{key} must be >= {low}"))
        if choices and value not in choices:
            # a two-way choice names both values; a longer one lists them
            problems.append(at + (f"{key} must be {choices[0]!r} or {choices[1]!r}"
                                  if len(choices) == 2 else f"unknown {key} {value!r} "
                                  f"(choose from {', '.join(choices)})"))

    def where(key: str) -> str:
        return f"line {lines[key][0]}"

    if 0 < values.get("wavepacket_sigma", 1.0) < 1 / _MAX_MAGNITUDE:
        problems.append(f"{where('wavepacket_sigma')}: wavepacket_sigma must be >= "
                        f"{1 / _MAX_MAGNITUDE:g}, got {values['wavepacket_sigma']:g}")
    scenario, solver = values.get("scenario"), values.get("solver")
    row = SCENARIOS.get(scenario)
    if row and row.solvers:
        if solver is None:
            problems.append(f"config: scenario {scenario!r} needs a solver "
                            f"(one of {', '.join(row.solvers)})")
        elif solver in SOLVERS and solver not in row.solvers:
            problems.append(f"{where('solver')}: solver {solver!r} is incompatible with "
                            f"scenario {scenario!r} (allowed: {', '.join(row.solvers)})")
    elif row and solver is not None:
        problems.append(f"{where('solver')}: scenario {scenario!r} chooses its own "
                        f"solvers; remove the solver key")
    if row and row.start and values.get("phi0") in {"g", "e"} - {row.phi0}:
        problems.append(f"{where('phi0')}: the {scenario} {row.start} starts from the "
                        f"{dict(g='ground', e='excited')[row.phi0]} state; "
                        f"phi0 = {values['phi0']} is not supported")
    if row and not row.driven and values.get("omega_rabi"):
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

    def write_csv(self, path: str):
        """One %.17g template per table, absent columns left empty; None cells
        (edge bins) may sit only in the first and last rows, which go through _fmt."""
        cols = [getattr(self, f.name) for f in fields(self)]
        tmpl = ",".join("" if c is None else "%.17g" for c in cols) + "\n"
        rows = list(zip(*(c.tolist() if isinstance(c, np.ndarray) else c
                          for c in cols if c is not None)))
        edge = tmpl.replace("%.17g", "%s")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(CSV_HEADER + "\n")
            fh.writelines([edge % tuple(map(_fmt, rows[0]))]
                          + [tmpl % row for row in rows[1:-1]]
                          + [edge % tuple(map(_fmt, row)) for row in rows[1:][-1:]])


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


def _table(record: RunRecord, stride: int, io_residual=None) -> ResultTable:
    """The CSV rows of every solver: its record sampled every `stride` steps and at N.

    The norm column is the record's norm ledger, or the trace of rho where it
    keeps none.  flux[n] is the final-state flux density of bin n and
    io_residual[n] the input-output residual after collision n; both columns
    stay empty where a row has no such bin.
    """
    params = record.params
    n = params.n_steps
    steps = np.arange(0, n + 1, stride)
    if steps[-1] != n:
        steps = np.append(steps, n)
    rho = record.rho[steps]
    coh = rho[:, 0, 1]
    return ResultTable(
        t=steps * params.dt, p_e=rho[:, 1, 1].real, re_coh=coh.real, im_coh=coh.imag,
        entropy_bits=observables.entanglement_entropy(rho),
        norm=np.einsum("naa->n", rho).real if record.norm is None else record.norm[steps],
        photon_flux=(None if record.flux is None
                     else [float(record.flux[s]) if s < n else None for s in steps]),
        io_residual=(None if io_residual is None
                     else [float(io_residual[s - 1]) if s >= 1 else None for s in steps]))


def _check_tracked_weight(record: RunRecord, rerun):
    """Refuse a sector-truncated run whose entropy column cannot be interpreted.

    record.weights are the run's (m_max+1, N+1, 2) sector weights and
    rerun(m) its solver's record at m sectors; a weight above
    1 + MAX_NORM_DEFICIT, or nan, is refused as well.  A sector's weight does
    not depend on the sectors above it, so one run at the most sectors the
    sector memory guard admits (at most N) gives the tracked weight of every
    smaller m_max.
    """
    weights, params = record.weights, record.params
    n, m_max, deficit = params.n_steps, len(weights) - 1, MAX_NORM_DEFICIT
    floor, tracked = 1.0 - deficit, weights.sum(axis=(0, 2))
    above = ~(tracked <= 1.0 + deficit)  # nan too
    if above.any():
        step = int(above.argmax())
        raise ValueError(f"tracked weight grows to {tracked[step]:.4g} above {1 + deficit:g} at "
                         f"step {step} (t = {step * params.dt:.6g}): emissions outweigh the state "
                         f"(gamma*dt = {params.gamma * params.dt:.4g}, bound {VALIDITY_BOUND:g})")
    if tracked.min() < floor:
        wide = rerun(max(m_max, min(n, MAX_SECTOR_AMPLITUDES // (4 * n + 4) - 1))).weights
        reached = np.cumsum(wide.sum(axis=2), axis=0).min(axis=1) >= floor
        hint = (f"m_max = {reached.argmax()} keeps it" if reached.any()
                else f"no m_max up to {len(wide) - 1} keeps it")
        step = int((tracked < floor).argmax())
        raise ValueError(f"sector truncation: tracked weight falls to {tracked.min():.4g} "
                         f"at m_max = {m_max}, below {floor:g} from step {step} "
                         f"(t = {step * params.dt:.6g}); {hint} >= {floor:g}")


# ---------------------------------------------------------------------------
# scenario runners
# ---------------------------------------------------------------------------

def _solve(config: ScenarioConfig, params: SimulationParams) -> ResultTable:
    """Run a spont, coherent or single-photon config with its solver."""
    produce = SCENARIOS[config.scenario].solvers[config.solver]
    record = produce(config, params)
    if record.weights is not None:
        _check_tracked_weight(record, lambda m: produce(replace(config, m_max=m), params))
    return _table(record, config.snapshot_stride)


# -- sweeps: one error per step size, fitted to a power law in dt -------------

def _oracle_amplitude_error(params: SimulationParams, config: ScenarioConfig):
    """Per sector, the largest |dense - closed form| tuple amplitude density; and the run."""
    phi0 = config.resolved_phi0()
    traj = _dense_run(params, phi0, DISPLACED)
    psi = traj.snapshot(params.n_steps).amplitudes.reshape(2, -1)
    m_max = min(3, config.m_max, params.n_steps)
    coeffs = analytic.assemble_coherent(params, params.grid.total_time, m_max, phi0)
    errors = np.empty(m_max + 1)
    for m in range(m_max + 1):
        diff = psi[:, coeffs.dense_index(m, params.fock_dim)] - coeffs.values[m]
        # densities, every sector O(1); hypot rounds like abs() of one complex
        # number, np.abs of a complex array may not, and the error is written
        # to the manifest
        errors[m] = np.hypot(diff.real, diff.imag).max() / params.dt ** (m / 2)
    return errors, traj


def _io_residuals(params: SimulationParams, config: ScenarioConfig):
    """Input-output residual per collision of the displaced dense run, and the run."""
    traj = _dense_run(params, config.resolved_phi0(), DISPLACED)
    return observables.io_residual(traj), traj


def _convergence_error(params: SimulationParams, config: ScenarioConfig):
    """|P_e - e^{-gamma t}| per step of the lab-frame dense run from |e>, and the run."""
    traj = _dense_run(params, config.resolved_phi0(), LAB)
    return np.abs(traj.p_excited() - np.exp(-params.gamma * params.grid.times())), traj


class _Sweep(NamedTuple):
    measure: Callable   # (params, config) -> (errors, dense trajectory); metric: max
    factors: tuple      # dt multipliers, in run order
    keep: float         # the factor whose trajectory the CSV shows
    fixed_time: bool    # n_steps scales as 1/factor; otherwise it stays fixed
    name: str           # metric prefix: <name>_dt_<dt>
    passes: Callable    # (fit exponent, dts, errors) -> threshold_ok
    columns: Callable   # (kept trajectory, its errors) -> (record, io residuals or None)


_SWEEPS = {
    "oracle-compare": _Sweep(
        _oracle_amplitude_error, (4.0, 2.0, 1.0), 1.0, True, "max_amp_error",
        lambda fit, dts, errors: 0.7 <= fit <= 1.3, lambda traj, errors: (traj.record(), None)),
    "io-check": _Sweep(
        _io_residuals, (1.0, 0.5, 0.25), 1.0, False, "max_io_residual",
        lambda fit, dts, errors: (abs(fit - 1.0) <= 0.2
                                  and all(e <= 5 * dt for e, dt in zip(errors, dts))),
        lambda traj, residuals: (traj.record(), residuals)),
    "convergence": _Sweep(
        _convergence_error, (1.0, 0.5, 0.25), 0.25, True, "max_p_e_error",
        lambda fit, dts, errors: abs(fit - 1.0) <= 0.15 and errors[-1] <= 0.02,
        lambda traj, errors: (_dense_record(traj), None)),
}


def sweep(config: ScenarioConfig, jobs: int = 1, strict: bool = False):
    """Measure a check scenario's error at every step size, on up to `jobs` workers.

    Every step size's parameters pass the validity and dense memory guards
    before the first run.  Returns the measurement (errors, trajectory) at the
    kept step size (the one the CSV shows) and the metrics: the fitted power of
    dt, one `<name>_dt_<dt>` entry (the largest error) per step size, and the
    sweep's `threshold_ok`.
    """
    spec = _SWEEPS[config.scenario]
    coarsest = max(spec.factors)
    if spec.fixed_time and config.n_steps % coarsest:
        raise ConfigError([f"config: {config.scenario} needs n_steps divisible by "
                           f"{coarsest:g} (it runs {coarsest:g}*dt at fixed final time)"])
    runs = []
    for factor in spec.factors:
        n_steps = int(config.n_steps / factor) if spec.fixed_time else config.n_steps
        params = replace(config, dt=config.dt * factor, n_steps=n_steps).params(strict)
        check_dense_size(params.n_steps, params.fock_dim)
        runs.append(params)
    # a fork-started pool starts every worker at the first submit: one per step size
    workers = min(jobs, len(spec.factors))
    with ProcessPoolExecutor(workers) if workers > 1 else contextlib.nullcontext() as pool:
        results = (pool.map if pool else map)(spec.measure, runs, [config] * len(runs))
        dts, errors = [], []
        for factor in spec.factors:
            run_errors, traj = next(results)
            dts.append(traj.params.dt)
            errors.append(float(run_errors.max()))
            if factor == spec.keep:
                kept = run_errors, traj
            del traj  # free each other trajectory before the next step size runs
    fit = observables.power_law_exponent(dts, errors)
    metrics = {"fit_exponent": fit}
    metrics.update((f"{spec.name}_dt_{_fmt(dt)}", err) for dt, err in zip(dts, errors))
    metrics["threshold_ok"] = spec.passes(fit, dts, errors)
    return kept, metrics


def run_scenario(config: ScenarioConfig, out_dir: str = ".", jobs: int = 1,
                 strict: bool = False):
    """Execute a validated config; returns (table, metrics, csv_path, exit_code)."""
    if config.scenario in _SWEEPS:
        (errors, traj), metrics = sweep(config, jobs, strict)
        record, residuals = _SWEEPS[config.scenario].columns(traj, errors)
        table = _table(record, config.snapshot_stride, residuals)
    else:
        table, metrics = _solve(config, config.params(strict=strict)), {}
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
                       help="worker processes for sweep scenarios (at most one per step size)")
    run_p.add_argument("--strict", action="store_true",
                       help="turn validity-guard warnings into errors")
    run_p.add_argument("--out", default=None, metavar="DIR",
                       help="output directory (default $COLLIDE1D_OUT or .)")
    pre_p = sub.add_parser("presets", help="list or show shipped presets")
    pre_p.add_argument("action", choices=("list", "show"))
    pre_p.add_argument("name", nargs="?", help="preset name for 'show'")
    sub.add_parser("check", help="run the acceptance suite (exit 0/3)")
    args = parser.parse_args(argv)
    if args.command == "run" and args.jobs < 1:
        run_p.error(f"argument --jobs: must be >= 1, got {args.jobs}")

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
    except (ValueError, MemoryGuardError, OSError) as exc:  # OSError: output not writable
        print(f"invalid run: {exc}", file=sys.stderr)
        return EXIT_INVALID
    print(csv_path)
    for key in sorted(metrics):
        print(f"{key} = {metrics[key]}")
    return code


if __name__ == "__main__":
    sys.exit(main())
