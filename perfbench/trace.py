"""In-memory span tracer installed around the public calls into collide1d.

The tracer lives in the benchmark, not in the program: ``install`` replaces
each traced function or method with a wrapper that records a span (name,
start, end, parent span, unit id) and keeps the call's arguments so that work
counts can be derived after the unit has finished, outside every timed
interval.  ``uninstall`` puts the originals back.

Self time of a span is its duration minus the durations of its direct
children; the self times of one unit therefore sum to the time covered by its
top-level spans, and whatever the unit's wall time leaves over is reported as
unattributed.
"""

from __future__ import annotations

import math
import os
import sys
import time
import tracemalloc
from typing import NamedTuple

#: spans whose peak traced allocation is measured in the tracemalloc pass
PEAK_SPANS = ("engine.SectorRun.qubit_trajectory", "analytic.coherent_qubit_trajectory")

#: spans whose counts are too costly to take inline; derived when the unit ends
DEFERRED = ("engine.run_dense", "engine.SectorRun.init")

#: count keys aggregated per unit with something other than a sum
AGGREGATE = {"tracked_weight": min, "substeps_per_collision": max}


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int
    unit: int


class Tracer:
    """Records spans while a unit is open; passes calls straight through otherwise."""

    def __init__(self):
        self.spans: list[Span | None] = []  # None only while a span is open
        self.counted: list[tuple] = []   # (span index, counter, args, kwargs, result)
        self.counts: dict[int, dict] = {}
        self.peaks: dict[int, float] = {}
        self.unit_walls: dict[int, tuple[float, float]] = {}
        self.unit = -1
        self.active = False
        self.measure_peaks = False
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    # -- units -----------------------------------------------------------------

    def run_unit(self, unit: int, fn, start: float | None = None):
        """Run ``fn()`` as traced unit ``unit``; ``start`` may predate the call."""
        self.unit, self.active = unit, True
        begin = time.perf_counter() if start is None else start
        try:
            return fn()
        finally:
            self.unit_walls[unit] = (begin, time.perf_counter())
            self.active = False
            self._finish_counts()

    def record(self, name: str, start: float, end: float, unit: int):
        """Add a span measured by hand (process start-up, imports)."""
        self.spans.append(Span(name, start, end, -1, unit))

    def _finish_counts(self):
        # after the unit closed, so costly counting never lands inside the unit
        for idx, counter, args, kwargs, result in self.counted:
            self.counts[idx] = counter(args, kwargs, result)
        self.counted.clear()

    # -- wrapping --------------------------------------------------------------

    def wrap(self, name: str, fn, counter=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            # allocations are traced only inside the outermost span of a peak name,
            # so the rest of the unit runs at full speed in the peak pass
            peak = (self.measure_peaks and name in PEAK_SPANS
                    and not tracemalloc.is_tracing())
            if peak:
                tracemalloc.start()
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = Span(name, start, end, parent, self.unit)
            if peak:
                self.peaks[idx] = tracemalloc.get_traced_memory()[1] / 1e6
                tracemalloc.stop()
            if counter is None:
                pass
            elif name in DEFERRED:
                self.counted.append((idx, counter, args, kwargs, result))
            else:
                self.counts[idx] = counter(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every traced call in every loaded collide1d module."""
        from collide1d import acceptance, analytic, cli, core, engine, obe, observables

        for module, attr, name, counter in _function_targets(
                core, engine, analytic, obe, observables, cli, acceptance):
            original = getattr(module, attr)
            wrapper = self.wrap(name, original, counter)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "collide1d" and not mod_name.startswith("collide1d."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)
        for owner, attr, name, counter in _method_targets(core, engine, cli):
            self._patch(owner, attr, self.wrap(name, owner.__dict__[attr], counter))
        # run_all iterates this tuple, which holds the original functions
        self._patch(acceptance, "ALL_CRITERIA", tuple(
            self.wrap(f"acceptance.{fn.__name__}", fn) for fn in acceptance.ALL_CRITERIA))

    def _patch(self, owner, attr, value):
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- export ----------------------------------------------------------------

    def export(self) -> dict:
        return {"spans": [list(s) for s in self.spans],
                "counts": {str(k): v for k, v in self.counts.items()},
                "peaks": {str(k): v for k, v in self.peaks.items()},
                "unit_walls": {str(k): list(v) for k, v in self.unit_walls.items()}}


# ---------------------------------------------------------------------------
# what is traced, and what each call counts
# ---------------------------------------------------------------------------

def _arg(args, kwargs, pos: int, key: str, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(key, default)


def _count_dense(args, kwargs, result):
    """Collisions, and rows of U actually contracted, from the public builders."""
    import numpy as np
    from collide1d import engine
    params, initial = args[0], args[1]
    frame = _arg(args, kwargs, 2, "frame", engine.LAB)
    build = (engine.lab_collision_unitary if frame == engine.LAB
             else engine.displaced_collision_unitary)
    d, n = initial.fock_dim, params.n_steps
    active_rows = 0
    for step in range(n):
        matrix = build(step, params, d).matrix
        active_rows += int(((matrix - np.eye(2 * d)) != 0).any(axis=1).sum())
    # each active row is read and written once over the d^(N-1) other-mode slice
    return {"collisions": n, "rows": 2 * d * n, "active_rows": active_rows,
            "bytes_computed": 2 * active_rows * d ** (n - 1) * 16}


def _count_steps(args, kwargs, result):
    return {"collisions": args[0].n_steps}


def _count_sector_run(args, kwargs, result):
    run = args[0]
    return {"collisions": run.params.n_steps,
            "tracked_weight": 1.0 - run.truncation_deficit()}


def _count_amplitudes(args, kwargs, result):
    return {"amplitudes": int(sum(v.size for v in result.values))}


def _count_assembly(args, kwargs, result):
    return {"collisions": int(result.step), **_count_amplitudes(args, kwargs, result)}


def _count_packet_steps(args, kwargs, result):
    return {"collisions": args[1].n_steps}


def _count_obe(args, kwargs, result):
    """RK4 steps, by the same substep rule obe_integrate applies."""
    from collide1d import obe
    params, t_final = args[0], args[1]
    dt_rk = _arg(args, kwargs, 3, "dt_rk")
    n_sub = max(1, math.ceil(params.dt / (dt_rk if dt_rk is not None
                                          else obe.rk_step_limit(params))))
    last = params.grid.index_of(t_final)
    return {"collisions": last, "rk4_steps": last * n_sub, "substeps_per_collision": n_sub}


def _count_row(args, kwargs, result):
    return {"rows": 1}


def _count_snapshots(args, kwargs, result):
    return {"snapshots": len(args[0].snapshots)}


def _count_csv(args, kwargs, result):
    table, path = args[0], _arg(args, kwargs, 1, "path")
    return {"rows": len(table.t), "bytes": os.path.getsize(path)}


def _function_targets(core, engine, analytic, obe, observables, cli, acceptance):
    return [
        (core, "make_exponential_wavepacket", "core.build", None),
        (core, "make_gaussian_wavepacket", "core.build", None),
        (engine, "run_dense", "engine.run_dense", _count_dense),
        (engine, "run_single_excitation", "engine.run_single_excitation", _count_steps),
        (analytic, "coherent_qubit_trajectory", "analytic.coherent_qubit_trajectory",
         _count_steps),
        (analytic, "assemble_coherent", "analytic.assemble_coherent", _count_assembly),
        (analytic, "xi_tilde_trajectory", "analytic.single_photon", None),
        (analytic, "single_photon_p_excited", "analytic.single_photon",
         _count_packet_steps),
        (analytic, "single_photon_state", "analytic.single_photon", None),
        (analytic, "spontaneous_emission_state", "analytic.spontaneous_emission_state",
         None),
        (analytic, "strong_drive_weights", "analytic.strong_drive_weights", None),
        (analytic, "f0_matrix", "analytic.f0_matrix", None),
        (obe, "obe_integrate", "obe.obe_integrate", _count_obe),
        (observables, "entanglement_entropy", "observables.entanglement_entropy",
         _count_row),
        (observables, "photon_density", "observables.photon_density", None),
        (observables, "io_residual", "observables.io_residual", _count_snapshots),
        (observables, "state_fidelity", "observables.state_fidelity", None),
        (observables, "power_law_exponent", "observables.power_law_exponent", None),
        (observables, "dominant_angular_frequency",
         "observables.dominant_angular_frequency", None),
        (cli, "parse_config", "cli.parse_config", None),
        (cli, "run_scenario", "cli.run_scenario", None),
        (cli, "write_manifest", "cli.write_manifest", None),
        (cli, "main", "cli.main", None),
        (acceptance, "run_all", "acceptance.run_all", None),
    ]


def _method_targets(core, engine, cli):
    return [
        (core.SimulationParams, "__post_init__", "core.build", None),
        (engine.SectorRun, "__init__", "engine.SectorRun.init", _count_sector_run),
        (engine.SectorRun, "qubit_trajectory", "engine.SectorRun.qubit_trajectory", None),
        (engine.SectorRun, "emission_weights", "engine.SectorRun.emission_weights", None),
        (engine.SectorRun, "state_at", "engine.SectorRun.state_at", _count_amplitudes),
        (cli.ResultTable, "write_csv", "cli.write_csv", _count_csv),
    ]


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------

class UnitProfile(NamedTuple):
    wall: float
    self_s: dict        # span name -> summed self time
    total_s: dict       # span name -> summed duration, nested repeats of a name once
    counts: dict        # count key "span.key" -> aggregated value
    first: dict         # span name -> duration of its first span
    unattributed: float


def profile_units(export: dict) -> dict[int, UnitProfile]:
    """Per-unit self times, counts and unattributed time from one export."""
    spans = [Span(*s) for s in export["spans"]]
    counts = {int(k): v for k, v in export["counts"].items()}
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] += s.end - s.start
    out = {}
    for unit, (begin, end) in ((int(k), v) for k, v in export["unit_walls"].items()):
        scale = export.get("scale", {}).get(str(unit), 1.0)
        self_s: dict[str, float] = {}
        total_s: dict[str, float] = {}
        first: dict[str, float] = {}
        agg: dict[str, list] = {}
        covered = 0.0
        for idx, s in enumerate(spans):
            if s.unit != unit:
                continue
            dur = s.end - s.start
            self_s[s.name] = self_s.get(s.name, 0.0) + (dur - child_time[idx]) * scale
            first.setdefault(s.name, dur * scale)
            if s.parent < 0:
                covered += dur
            if s.parent < 0 or spans[s.parent].name != s.name:
                total_s[s.name] = total_s.get(s.name, 0.0) + dur * scale
            for key, value in counts.get(idx, {}).items():
                agg.setdefault(f"{s.name}.{key}", []).append(value)
        merged = {k: AGGREGATE.get(k.rsplit(".", 1)[1], sum)(v) for k, v in agg.items()}
        out[unit] = UnitProfile((end - begin) * scale, self_s, total_s, merged, first,
                                (end - begin - covered) * scale)
    return out
