"""Configuration ingestion, scenario presets, and machine-readable output.

Configs are flat ``key = value`` text with ``#`` comments.  Every run writes
one CSV with the fixed header ``t,p_e,re_coh,im_coh,entropy_bits,norm,
photon_flux,io_residual`` (absent quantities left empty) plus a sidecar
manifest in the same key-value format; neither file contains timestamps, so
identical configs produce byte-identical output.  Every number is the text of
``format(x, ".17g")``; the CSV writer computes those digits exactly with numpy
array operations for a block of rows at a time, and calls format() only for
the cells it cannot decide that way.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import warnings
from dataclasses import KW_ONLY, MISSING, dataclass, fields, replace
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from . import analytic, observables
from .core import (BOOL_TYPES, MAX_MAGNITUDE, MAX_NORM_DEFICIT, VALIDITY_BOUND,
                   MemoryGuardError, RunRecord, SimulationParams, ValidityWarning, Wavepacket,
                   declare, field_violations, make_exponential_wavepacket,
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
    """A dense run's record, with the photon flux <a_n^dag a_n>/dt it recorded per mode."""
    return traj.record(traj.photons / traj.params.dt)


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


def _unread(scenario: str, solver, shape: str, key: str) -> bool:
    """Whether a run of scenario and solver (None: a sweep) with packet shape ignores key."""
    if key.startswith("wavepacket"):  # each packet shape reads only its own envelope
        return scenario != "single-photon" or key in {
            "exponential": ("wavepacket_sigma", "wavepacket_t0"),
            "gaussian": ("wavepacket_gamma",)}.get(shape, ())
    if key == "delta":  # an undriven run has no drive to detune from
        return not SCENARIOS[scenario].driven
    if key == "fock_dim":  # only the dense oracle truncates a mode's Fock space
        return solver in ("sectors", "analytic", "recursion")
    # the moment chains and the oracle comparison's closed form count sectors
    return key == "m_max" and solver != "sectors" and (scenario, solver) not in (
        ("coherent", "analytic"), ("oracle-compare", None))


EXIT_OK = 0
EXIT_INVALID = 2
EXIT_THRESHOLD = 3


class ConfigError(ValueError):
    """All validation problems of a config, each tagged with its line or `config:`."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


@dataclass
class ScenarioConfig:
    """One run, as a config file states it: each field declares its key.  Building
    one refuses the fields that differ from their defaults by `_violations`."""

    scenario: str = declare(choices=tuple(SCENARIOS))
    _: KW_ONLY
    solver: str | None = declare(None, choices=SOLVERS)
    gamma: float = declare(1.0, float, low=0, strict=True)
    omega_q: float = declare(0.0, float, low=0)
    delta: float = declare(0.0, float)
    omega_rabi: float = declare(0.0, float, low=0)
    dt: float = declare(kind=float, low=0, strict=True)
    n_steps: int = declare(kind=int, low=1)
    fock_dim: int = declare(2, int, low=2)
    m_max: int = declare(2, int, low=0)
    phi0: str | None = declare(None, choices=("g", "e"))
    wavepacket: str = declare("exponential", choices=("exponential", "gaussian"))
    wavepacket_gamma: float | None = declare(None, float, low=0, strict=True)
    wavepacket_sigma: float = declare(1.0, float, low=0, strict=True)
    wavepacket_t0: float | None = declare(None, float)
    wavepacket_omega: float | None = declare(None, float)
    snapshot_stride: int = declare(1, int, low=1)
    output: str | None = declare(None)

    def __post_init__(self):
        # a bool equals the number defaults 1.0, 0.0 and 1, yet is none of them
        problems = [f"config: {message}" for _, message in _violations(
            {f.name: getattr(self, f.name) for f in fields(self)
             if f.default is MISSING or getattr(self, f.name) != f.default
             or isinstance(getattr(self, f.name), BOOL_TYPES)})]
        if problems:
            raise ConfigError(problems)

    def resolved_phi0(self) -> str:
        return self.phi0 if self.phi0 is not None else SCENARIOS[self.scenario].phi0

    def params(self) -> SimulationParams:
        return SimulationParams(**{f.name: getattr(self, f.name)
                                   for f in fields(SimulationParams)})

    def build_wavepacket(self, params: SimulationParams) -> Wavepacket:
        omega = self.wavepacket_omega if self.wavepacket_omega is not None else self.omega_q
        if self.wavepacket == "exponential":
            big_gamma = self.wavepacket_gamma if self.wavepacket_gamma is not None else self.gamma
            return make_exponential_wavepacket(big_gamma, omega, params.grid)
        t0 = self.wavepacket_t0 if self.wavepacket_t0 is not None else 5 * self.wavepacket_sigma
        return make_gaussian_wavepacket(self.wavepacket_sigma, t0, omega, params.grid)

    def stem(self) -> str:
        return self.output if self.output else self.scenario


def _violations(values: dict):
    """Yield (key or None, message) for every rule that `values`, the keys set, break:
    each key's own checks by `field_violations` first, then the `wavepacket_sigma` floor
    and the rules across keys.  Unset keys take their defaults; mistyped ones, none."""
    floor = 1 / MAX_MAGNITUDE
    typed = yield from field_violations(ScenarioConfig, values)
    sigma = typed.get("wavepacket_sigma", 1.0)
    if 0 < sigma < floor:
        yield "wavepacket_sigma", f"wavepacket_sigma must be >= {floor:g}, got {sigma:g}"
    scenario, solver, phi0 = typed.get("scenario"), typed.get("solver"), typed.get("phi0")
    row = SCENARIOS.get(scenario)
    if row is None:  # every rule below is one of the scenario's
        return
    if row.solvers and solver is None:
        yield None, f"scenario {scenario!r} needs a solver (one of {', '.join(row.solvers)})"
    elif row.solvers and solver in SOLVERS and solver not in row.solvers:
        yield "solver", (f"solver {solver!r} is incompatible with scenario {scenario!r} "
                         f"(allowed: {', '.join(row.solvers)})")
    elif not row.solvers and solver is not None:
        yield "solver", f"scenario {scenario!r} chooses its own solvers; remove the solver key"
    if row.start and phi0 in {"g", "e"} - {row.phi0}:
        yield "phi0", (f"the {scenario} {row.start} starts from the "
                       f"{dict(g='ground', e='excited')[row.phi0]} state; "
                       f"phi0 = {phi0} is not supported")
    omega = typed.get("omega_rabi", 0.0)
    if not row.driven and omega:
        yield "omega_rabi", f"scenario {scenario!r} has no coherent drive; omega_rabi must be 0"
    # undriven or below the floor, these sweeps measure only zeros, which no power law fits
    fits_nothing = scenario == "io-check" or scenario == "oracle-compare" and phi0 != "e"
    known = "omega_rabi" in typed or "omega_rabi" not in values  # unset: 0; mistyped: unknown
    if fits_nothing and known and 0 <= omega < floor:
        yield ("omega_rabi" if "omega_rabi" in values else None), (
            f"the {scenario} sweep has nothing to fit " + (
                "without a drive; omega_rabi must be positive" if omega == 0 else
                f"at omega_rabi = {omega:g}; omega_rabi must be >= {floor:g}")
            + (" or phi0 = e" if scenario != "io-check" else ""))
    spec = _SWEEPS.get(scenario)
    coarsest = max(spec.factors) if spec and spec.fixed_time else 1
    if typed.get("n_steps", 0) % coarsest:
        yield "n_steps", (f"the {scenario} sweep runs {coarsest:g}*dt at fixed final time; "
                          f"n_steps must be divisible by {coarsest:g}")
    cap = analytic.ASSEMBLY_M_MAX  # the sweep assembles the closed form up to it
    if scenario == "oracle-compare" and typed.get("m_max", 0) > cap:
        yield "m_max", (f"the oracle-compare sweep compares the sectors m <= {cap} only; "
                        f"m_max must be <= {cap}, got {typed['m_max']}")
    run = f"scenario {scenario!r}" + (f" with solver {solver!r}" if solver else "")
    yield from ((key, f"{run} does not read {key}; remove it") for key in values
                if _unread(scenario, solver, typed.get("wavepacket", "exponential"), key))


def parse_config(text: str) -> ScenarioConfig:
    """Parse and validate, collecting every violation (not just the first): each line's
    syntax and key, the missing keys, then `_violations` of the keys set, at their lines."""
    problems: list[str] = []
    lines: dict[str, int] = {}
    values: dict[str, object] = {}
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
            lines[key] = lineno
            try:
                values[key] = declared[key].metadata["kind"](val)
            except ValueError:  # the text, which _violations reports as not of the kind
                values[key] = val
    problems += [f"config: missing required key {key!r}" for key, declaration in declared.items()
                 if declaration.default is MISSING and key not in lines]
    problems += [f"line {lines[key]}: {message}" if key else f"config: {message}"
                 for key, message in _violations(values)]
    if problems:
        raise ConfigError(problems)
    return ScenarioConfig(**values)  # type: ignore[arg-type]


# ---------------------------------------------------------------------------
# result table and manifest
# ---------------------------------------------------------------------------

def _fmt(x) -> str:
    return format(float(x), ".17g")


# -- %.17g in numpy: exact digits from a double-double product ----------------
#
# For 1e-250 < |x| < 1e250 with k = floor(log10|x|), the 17 significant digits
# are D = round(|x| * 10^(16-k)).  The product is hi + lo: a Dekker two-product
# of |x| with the double nearest 10^(16-k), plus |x| times that double's
# remainder, within 1e-14 of a unit.  A cell keeps D only when its fraction
# is more than 1e-6 from a tie and 10^16 <= floor < 10^17 - 1 (which also
# catches a log10 one off and a carry to 10^17); zero is written directly and
# every other cell (inf, nan, the extremes, near-ties) goes through format().
#
# A cell is five words, NUL where it has no character, and the NULs are
# dropped.  Words 0-3 hold the text: the sign and any "0.000" prefix ending
# at byte 6, the `lead` digits before the dot from byte 7 (digit i at 7 + i),
# the dot, the digits after it without trailing zeros (digit i at 8 + i, up
# to byte 24) and any exponent from byte 25.  Word 4 holds the separators.

_K_LOW = -260           # lowest decimal exponent of the tables; they reach -_K_LOW
_BLOCK_CELLS = 4096     # cells laid out per pass, which bounds the layout's memory
_DIGIT_BYTES = np.frombuffer(b"\0" * 7 + b"0" * 17 + b"\0" * 8, np.uint64)


def _words(texts) -> np.ndarray:
    """Each ASCII text of at most 8 characters as one NUL-padded word."""
    return np.frombuffer(b"".join(t.encode().ljust(8, b"\0") for t in texts), np.uint64)


@functools.cache
def _format_tables():
    """By exponent k: the powers 10^(16-k) as double pairs, the sign and
    prefix word, the masks of the digits before and after the dot, the
    exponent word, the count of digits before the dot and the dot; and the
    4-digit ASCII words of 0-9999 without, then with, their trailing zeros."""
    split, tens, powers = 134217729.0, [1], []
    while len(tens) <= 16 - _K_LOW:
        tens.append(tens[-1] * 10)
    for k in range(_K_LOW, -_K_LOW + 1):
        j = 16 - k
        if j >= 0:
            p = float(tens[j])
            rest = float(tens[j] - int(p))
        else:
            p = 1 / tens[-j]
            num, den = p.as_integer_ratio()
            rest = (den - num * tens[-j]) / (den * tens[-j])
        big = p * split
        high = big - (big - p)  # p = high + (p - high), each half 26 bits
        powers.append((p, high, p - high, rest))
    k = np.arange(_K_LOW, -_K_LOW + 1)
    small = (k >= -4) & (k < 0)
    lead = np.where(small, 0, np.where((k >= 0) & (k <= 16), k + 1, 1))[:, None]
    # "", "-", "0.", "-0.", ..., "-0.000", ending at byte 6
    prefix = _words((sign + "0." + "0" * (zeros - 1) if zeros else sign).rjust(7, "\0")
                    for zeros in range(5) for sign in ("", "-")).reshape(5, 2)
    byte = np.arange(32)
    digits = np.indices((10,) * 4, np.uint8).reshape(4, -1).T.copy()
    significant = np.logical_or.accumulate(digits[:, ::-1] != 0, axis=1)[:, ::-1]
    digits = digits + np.uint8(ord("0"))
    exponent = _words("" if -4 <= e <= 16 else f"\0e{e:+03d}" for e in k.tolist())
    tables = (*np.array(powers).T, prefix[np.where(small, -k, 0)].ravel(),
              (((byte >= 7) & (byte < 7 + lead)) * np.uint8(255)).view(np.uint64),
              (((byte >= 8 + lead) & (byte < 25)) * np.uint8(255)).view(np.uint64),
              exponent, lead[:, 0], np.where(small, 0, ord(".")).astype(np.uint8),
              np.concatenate([digits * significant, digits]).view(np.uint32)[:, 0])
    for table in tables:
        table.flags.writeable = False
    return tables


def _csv_block(x: np.ndarray, absent: np.ndarray, separators: list) -> bytes:
    """The %.17g CSV text of whole rows of cells x, row by row: absent cells
    empty, and each cell followed by its column's separators (a comma per
    column up to the next present one, or the newline)."""
    p, p_high, p_low, rest, prefix, before, after, exponent, leads, dots, four = _format_tables()
    n = len(x)
    size = np.abs(x)
    exact = (size > 1e-250) & (size < 1e250)
    size[~exact] = 3.0  # whose log10 is 0 even a few ulps off
    k = np.floor(np.log10(size)).astype(np.intp) - _K_LOW  # table row of the exponent
    p, p_high, p_low, rest = p[k], p_high[k], p_low[k], rest[k]
    # Dekker: size * p = hi + err exactly
    hi = size * p
    big = size * 134217729.0
    s_high = big - (big - size)
    s_low = size - s_high
    err = ((s_high * p_high - hi) + s_high * p_low + s_low * p_high) + s_low * p_low
    lo = err + size * rest
    whole = np.floor(lo)
    frac = lo - whole
    digits = hi.astype(np.int64) + whole.astype(np.int64)
    exact &= (digits >= 10**16) & (digits < 10**17 - 1) & (np.abs(frac - 0.5) > 1e-6)
    digits += frac > 0.5
    zero = x == 0
    digits[zero] = 0  # with k = 0: one digit, "0"
    # the digits as 1 + 4 x 4 ASCII digits ending at byte 23, trailing zeros NUL
    chunks = np.empty((5, n), np.uint32)
    top, bottom = np.divmod(digits, 10**8)
    upper, chunks[2] = np.divmod(top.astype(np.uint32), 10**4)
    chunks[0], chunks[1] = np.divmod(upper, 10**4)
    chunks[3], chunks[4] = np.divmod(bottom.astype(np.uint32), 10**4)
    later = np.zeros((5, n), dtype=bool)  # a nonzero chunk follows
    for j in range(3, -1, -1):
        later[j] = later[j + 1] | (chunks[j + 1] != 0)
    stripped = np.zeros((n, 8), np.uint32)
    stripped[:, 1:6] = four[chunks + 10000 * later].T
    # the digits after the dot come from the same text one byte on
    shifted = np.zeros((n, 32), np.uint8)
    shifted[:, 1:] = stripped.view(np.uint8)[:, :31]
    stripped, shifted = stripped.view(np.uint64), shifted.view(np.uint64)
    # before the dot every digit is written: a NUL there reads "0"
    text = (stripped | _DIGIT_BYTES) & np.take(before, k, axis=0)
    text |= shifted & np.take(after, k, axis=0)
    text[:, 0] |= prefix[2 * k + np.signbit(x)]
    text[:, 3] |= exponent[k]
    # the dot, where a digit follows it
    at = np.arange(7, 32 * n, 32) + leads[k]
    text.view(np.uint8).ravel()[at] = dots[k] * (stripped.view(np.uint8).ravel()[at] != 0)
    cells = np.empty((n, 5), np.uint64)
    cells[:, :4] = text
    cells[:, 4] = np.tile(_words(separators), n // len(separators))
    raw = cells.view(np.uint8)
    for cell in np.flatnonzero(~exact & ~zero & ~absent):
        formatted = format(float(x[cell]), ".17g").encode()
        raw[cell, :32] = 0
        raw[cell, :len(formatted)] = np.frombuffer(formatted, np.uint8)
    raw[absent, :32] = 0
    return raw.tobytes().translate(None, b"\0")


#: the rows of the columns one row short: no flux bin at the last, no residual at the first
_EDGE_ROWS = {"photon_flux": slice(None, -1), "io_residual": slice(1, None)}


@dataclass
class ResultTable:
    """Columnar records with the fixed CSV schema; None marks an absent column."""

    t: np.ndarray
    p_e: np.ndarray | None = None
    re_coh: np.ndarray | None = None
    im_coh: np.ndarray | None = None
    entropy_bits: np.ndarray | None = None
    norm: np.ndarray | None = None
    photon_flux: np.ndarray | None = None  # rows 0..R-2
    io_residual: np.ndarray | None = None  # rows 1..R-1

    def write_csv(self, path: str):
        """Write the rows as %.17g text, a block of rows per write, each block
        formatted in numpy; absent columns and the edge cells that the flux and
        io residual lack are left empty."""
        columns = fields(self)
        present = [i for i, f in enumerate(columns) if getattr(self, f.name) is not None]
        values = np.zeros((len(self.t), len(present)))
        absent = np.ones(values.shape, dtype=bool)
        for j, i in enumerate(present):
            rows = _EDGE_ROWS.get(columns[i].name, slice(None))
            values[rows, j] = getattr(self, columns[i].name)
            absent[rows, j] = False
        # after each present column, a comma per column up to the next present
        # one; the row's last comma is its newline
        separators = ["," * (end - i) for i, end in zip(present, present[1:] + [len(columns)])]
        separators[-1] = separators[-1][:-1] + "\n"
        values, absent = values.ravel(), absent.ravel()
        step = max(1, _BLOCK_CELLS // len(present)) * len(present)
        with open(path, "wb") as fh:
            fh.write(CSV_HEADER.encode() + b"\n")
            for start in range(0, len(values), step):
                block = slice(start, start + step)
                fh.write(_csv_block(values[block], absent[block], separators))


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

    The norm column is the trace of rho.  flux[n] is the final-state flux
    density of bin n and io_residual[n] the input-output residual after
    collision n; each column is one row short, as the row at N has no flux bin
    and the row at 0 no residual.
    """
    params = record.params
    n = params.n_steps
    steps = np.arange(0, n + 1, stride)
    if steps[-1] != n:
        steps = np.append(steps, n)
    rho = record.rho[steps]
    coh = rho[:, 0, 1]
    return ResultTable(
        t=steps * params.dt, p_e=record.p_excited()[steps], re_coh=coh.real, im_coh=coh.imag,
        entropy_bits=observables.entanglement_entropy(rho),
        norm=np.einsum("naa->n", rho).real,
        photon_flux=None if record.flux is None else record.flux[steps[:-1]],
        io_residual=None if io_residual is None else io_residual[steps[1:] - 1])


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
    floor, tracked = 1.0 - deficit, weights.sum(axis=0).sum(axis=1)
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

def _solve(config: ScenarioConfig, params: SimulationParams) -> RunRecord:
    """Run a spont, coherent or single-photon config with its solver."""
    produce = SCENARIOS[config.scenario].solvers[config.solver]
    record = produce(config, params)
    if record.weights is not None:
        _check_tracked_weight(record, lambda m: produce(replace(config, m_max=m), params))
    return record


# -- sweeps: one error per step size, fitted to a power law in dt -------------

def _oracle_amplitude_error(params: SimulationParams, config: ScenarioConfig):
    """Per sector, the largest |dense - closed form| tuple amplitude density; the record."""
    phi0 = config.resolved_phi0()
    traj = _dense_run(params, phi0, DISPLACED)
    psi = traj.snapshot(params.n_steps).amplitudes
    m_max = min(config.m_max, params.n_steps)
    coeffs = analytic.assemble_coherent(params, params.grid.total_time, m_max, phi0)
    errors = np.empty(m_max + 1)
    for m in range(m_max + 1):
        diff = psi[:, coeffs.dense_index(m, params.fock_dim)] - coeffs.values[m]
        # densities, every sector O(1); hypot rounds like abs() of one complex
        # number, np.abs of a complex array may not, and the error is written
        # to the manifest
        errors[m] = np.hypot(diff.real, diff.imag).max() / params.dt ** (m / 2)
    return errors, traj.record(), None


def _io_residuals(params: SimulationParams, config: ScenarioConfig):
    """Input-output residual per collision of the displaced dense run; the record."""
    traj = _dense_run(params, config.resolved_phi0(), DISPLACED)
    residuals = observables.io_residual(traj)
    return residuals, traj.record(), residuals


def _convergence_error(params: SimulationParams, config: ScenarioConfig):
    """|P_e - e^{-gamma t}| per step of the lab-frame dense run from |e>; the record."""
    record = _dense_record(_dense_run(params, config.resolved_phi0(), LAB))
    return (np.abs(record.p_excited() - np.exp(-params.gamma * params.grid.times())),
            record, None)


class _Sweep(NamedTuple):
    measure: Callable   # (params, config) -> (errors, record, residuals or None); metric: max
    factors: tuple      # dt multipliers, in run order
    keep: float         # the factor whose record the CSV shows
    fixed_time: bool    # n_steps scales as 1/factor; otherwise it stays fixed
    name: str           # metric prefix: <name>_dt_<dt>
    passes: Callable    # (fit exponent, dts, errors) -> threshold_ok


_SWEEPS = {
    "oracle-compare": _Sweep(
        _oracle_amplitude_error, (4.0, 2.0, 1.0), 1.0, True, "max_amp_error",
        lambda fit, dts, errors: 0.7 <= fit <= 1.3),
    "io-check": _Sweep(
        _io_residuals, (1.0, 0.5, 0.25), 1.0, False, "max_io_residual",
        lambda fit, dts, errors: (abs(fit - 1.0) <= 0.2
                                  and all(e <= 5 * dt for e, dt in zip(errors, dts)))),
    "convergence": _Sweep(
        _convergence_error, (1.0, 0.5, 0.25), 0.25, True, "max_p_e_error",
        lambda fit, dts, errors: abs(fit - 1.0) <= 0.15 and errors[-1] <= 0.02),
}


def sweep(config: ScenarioConfig):
    """Measure a check scenario's error at every step size, in run order.

    Every step size's parameters pass the validity and dense memory guards
    before the first run.  Returns the (record, residuals or None) of the kept
    step size, the one the CSV shows, and the metrics: the fitted power of dt,
    one `<name>_dt_<dt>` entry (the largest error) per step size, and the
    sweep's `threshold_ok`.  Each dense run is freed when its measure returns.
    """
    spec = _SWEEPS[config.scenario]
    physics = {f.name: getattr(config, f.name) for f in fields(SimulationParams)}
    runs = []
    for factor in spec.factors:
        n_steps = int(config.n_steps / factor) if spec.fixed_time else config.n_steps
        params = SimulationParams(**physics | dict(dt=config.dt * factor, n_steps=n_steps))
        check_dense_size(params.n_steps, params.fock_dim)
        runs.append(params)
    dts, errors = [], []
    for factor, params in zip(spec.factors, runs):
        run_errors, record, residuals = spec.measure(params, config)
        dts.append(params.dt)
        errors.append(float(run_errors.max()))
        if factor == spec.keep:
            kept = record, residuals
    fit = observables.power_law_exponent(dts, errors)
    metrics = {"fit_exponent": fit}
    metrics.update((f"{spec.name}_dt_{_fmt(dt)}", err) for dt, err in zip(dts, errors))
    metrics["threshold_ok"] = spec.passes(fit, dts, errors)
    return kept, metrics


def run_scenario(config: ScenarioConfig, out_dir: str = "."):
    """Execute a validated config; returns (table, metrics, csv_path, exit_code)."""
    if config.scenario in _SWEEPS:
        (record, residuals), metrics = sweep(config)
    else:
        record, residuals, metrics = _solve(config, config.params()), None, {}
    table = _table(record, config.snapshot_stride, residuals)
    del record, residuals  # every step's rows: freed before the CSV is written
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
output = single-photon-exp
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
output = single-photon-gauss
""",
}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _load_config_text(target: str) -> str:
    if os.path.isfile(target):  # a directory named like a preset is not a config
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
            if args.name is not None:
                print(f"presets list takes no name, got {args.name!r}", file=sys.stderr)
                return EXIT_INVALID
            for name in PRESETS:
                print(name)
            return EXIT_OK
        if args.name not in PRESETS:
            print(f"presets show needs a preset name: {', '.join(PRESETS)}"
                  if args.name is None else f"unknown preset {args.name!r}", file=sys.stderr)
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
    except (OSError, UnicodeDecodeError) as exc:
        print(f"invalid config file: {exc}", file=sys.stderr)
        return EXIT_INVALID
    try:
        config = parse_config(text)
    except ConfigError as exc:
        for line in exc.violations:
            print(f"config error: {line}", file=sys.stderr)
        return EXIT_INVALID
    try:
        with warnings.catch_warnings():
            if args.strict:
                warnings.simplefilter("error", ValidityWarning)
            _, metrics, csv_path, code = run_scenario(config, out_dir=out_dir)
    # OSError: output not writable
    except (ValueError, ValidityWarning, MemoryGuardError, OSError) as exc:
        print(f"invalid run: {exc}", file=sys.stderr)
        return EXIT_INVALID
    print(csv_path)
    for key in sorted(metrics):
        print(f"{key} = {metrics[key]}")
    return code


if __name__ == "__main__":
    sys.exit(main())
