#!/usr/bin/env python3
"""collide1d benchmark: one closed-loop client, one process, seeded workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from anywhere; the program is imported from ``src/`` next to this
directory, and every file the run writes goes under ``perfbench/.out/``.

``--trace 0`` measures the end-to-end metrics with no tracing installed:

* ``run_s.p50`` / ``run_s.tail``: wall time of one unit in a warm process (for
  ``acceptance`` a unit is a fresh ``collide1d check`` process); the tail is
  the highest percentile with at least ten samples beyond it.
* ``collisions_per_s``: collisions of every solver call in the unit (each
  sweep step size included), divided by ``run_s.p50``.
* ``cold_run_s``: sum over the unit's configs of the median wall time of a
  fresh ``python -m collide1d run <config>`` process (for ``acceptance``, the
  unit itself, so it equals ``run_s.p50``).
* ``setup_s``: median over fresh processes of importing collide1d, parsing
  the configs and building parameters and wavepackets.
* ``peak_rss_mb``: median over repeats of the largest peak RSS (the process's
  own VmHWM) among the fresh unit processes.

Failed units (exception, nonzero exit, failed output check, CSV bytes that
differ from the first run of the same seed) are counted in ``failed``; the
failed ratio is ``failed / attempted``.

``--trace 1`` repeats a short untraced measurement, then runs traced units in
fresh processes (perfbench/child.py) and reports the per-layer metrics.

Every time is in reference-speed seconds (see calibrate.py).  The BLAS thread
count is pinned to ``BLAS_THREADS`` before numpy is imported, and the run and
all its children are pinned to one CPU.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)
from perfbench import calibrate  # noqa: E402  (stdlib only until a kernel runs)

SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", ".out")
CHILD = os.path.join(ROOT, "perfbench", "child.py")

END_TO_END = [("run_s.p50", "s"), ("run_s.tail", "s"), ("collisions_per_s", "1/s"),
              ("cold_run_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]


class Plan:
    """How many repeats each phase of a run makes."""

    def __init__(self, smoke: bool):
        self.setup_probes = 1 if smoke else 7
        self.cold_repeats = 1 if smoke else 5
        # 21 units put the tail (10 samples above it) at or above the median
        self.min_units = 2 if smoke else 21
        self.max_units = 4 if smoke else 400
        self.traced_warm_units = 1 if smoke else 6
        self.fresh_traced_processes = 1 if smoke else 3


# ---------------------------------------------------------------------------
# facts about the machine and the run
# ---------------------------------------------------------------------------

def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return ""


def git_commit() -> str:
    head = _read(os.path.join(ROOT, ".git", "HEAD"))
    if not head.startswith("ref: "):
        return head or "unknown"
    ref = head[5:]
    commit = _read(os.path.join(ROOT, ".git", ref))
    if commit:
        return commit
    for line in _read(os.path.join(ROOT, ".git", "packed-refs")).splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def machine_facts() -> dict:
    import numpy as np
    import collide1d

    cpu = next((line.split(":", 1)[1].strip()
                for line in _read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), platform.processor() or "unknown")
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for entry in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        level = _read(os.path.join(base, entry, "level"))
        kind = _read(os.path.join(base, entry, "type"))
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"l{level}"] = _read(os.path.join(base, entry, "size"))
    mem_kb = next((int(line.split()[1]) for line in _read("/proc/meminfo").splitlines()
                   if line.startswith("MemTotal:")), 0)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "cpu": cpu, "l2": caches.get("l2", "unknown"),
            "l3": caches.get("l3", "unknown"), "ram_gb": round(mem_kb / 2**20, 1),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": BLAS_THREADS, "pinned_cpu": sorted(os.sched_getaffinity(0)),
            "ref_kernel_s": calibrate.REF_KERNEL_S, "collide1d": collide1d.__version__,
            "commit": git_commit()}


# ---------------------------------------------------------------------------
# fresh processes
# ---------------------------------------------------------------------------

class Fresh:
    """One finished child process: wall time, exit code and output."""

    def __init__(self, argv: list[str], env: dict, cwd: str, start: float | None = None):
        with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
            begin = time.perf_counter() if start is None else start
            self.code = subprocess.Popen(argv, env=env, cwd=cwd, stdout=out,
                                         stderr=err).wait()
            self.wall = time.perf_counter() - begin
            out.seek(0)
            err.seek(0)
            self.stdout = out.read().decode()
            self.stderr = err.read().decode()


#: ``python -m collide1d ARGS`` that also writes its own peak RSS (VmHWM, KiB)
#: to a file at exit.  The rusage maxrss of a child cannot be used: exec folds
#: the high-water mark of the parent it was started from into it.
_COLLIDE1D_MAIN = """\
import atexit, runpy, sys
path = sys.argv.pop(1)
def report():
    with open("/proc/self/status", encoding="ascii") as fh:
        hwm = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
    with open(path, "w", encoding="ascii") as out:
        out.write(hwm)
atexit.register(report)
runpy.run_module("collide1d", run_name="__main__", alter_sys=True)
"""


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------

class Run:
    """State of one benchmark invocation: workload, directories, failures."""

    def __init__(self, workload, plan: Plan, seconds: float, work: str):
        self.wl = workload
        self.plan = plan
        self.seconds = seconds
        self.work = work
        self.out_dir = os.path.join(work, "out")
        self.env = dict(os.environ, PYTHONPATH=SRC, TMPDIR=os.path.join(work, "tmp"))
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference_csv: dict[str, bytes] = {}
        #: unscaled seconds and the calibration scale of every timed interval
        self.raw: dict[str, list] = {"run_s": [], "setup_s": [], "cold_run_s": [],
                                     "scale": []}
        self.config_paths = {}
        os.makedirs(os.path.join(work, "configs"))
        for stem, text in workload.configs.items():
            path = os.path.join(work, "configs", stem + ".cfg")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            self.config_paths[stem] = path

    def fail(self, what: str, problems: list[str]) -> bool:
        """Record one attempt's problems; True when it had none."""
        self.problems += [f"{what}: {p}" for p in problems]
        self.failed += bool(problems)
        return not problems

    def compare_csv(self, out_dir: str) -> list[str]:
        """Every CSV must repeat the bytes of the first one written for its stem."""
        problems = []
        for stem in self.wl.configs:
            with open(os.path.join(out_dir, stem + ".csv"), "rb") as fh:
                data = fh.read()
            if self.reference_csv.setdefault(stem, data) != data:
                problems.append(f"{stem}.csv differs from the first run of this seed")
        return problems

    def collide1d(self, *args: str) -> tuple[Fresh, float]:
        """A fresh collide1d process, calibrated; returns it and the scale factor.

        The process's peak RSS in MB is set as ``rss_mb`` (0 if it died early).
        """
        hwm = os.path.join(self.work, "hwm")
        if os.path.exists(hwm):
            os.remove(hwm)
        argv = [sys.executable, "-c", _COLLIDE1D_MAIN, hwm, *args]
        proc, scale = calibrate.scaled(lambda: Fresh(argv, self.env, self.work))
        proc.rss_mb = int(_read(hwm) or 0) / 1024
        return proc, scale

    # -- phases ----------------------------------------------------------------

    def prime(self):
        """Compile bytecode and fill the page cache, so cold runs measure steady state."""
        Fresh([sys.executable, "-c", "import collide1d.cli, collide1d.acceptance"],
              self.env, self.work)

    def setup_times(self) -> list[float]:
        spec = os.path.join(self.work, "setup.json")
        with open(spec, "w", encoding="utf-8") as fh:
            json.dump({"configs": list(self.wl.configs.values()),
                       "modules": ["collide1d.acceptance"] if self.wl.fresh_process else []},
                      fh)
        times = []
        for _ in range(self.plan.setup_probes):
            self.attempted += 1
            probe, scale = calibrate.scaled(
                lambda: Fresh([sys.executable, CHILD, "setup", spec], self.env, self.work))
            if self.fail("setup probe", [] if probe.code == 0 else [probe.stderr[-500:]]):
                raw = json.loads(probe.stdout)["setup_s"]
                self.raw["setup_s"].append(raw)
                times.append(raw * scale)
        return times

    def cold_runs(self) -> tuple[dict[str, list[float]], list[float]]:
        """Each repeat: one fresh 'collide1d run' per config.

        Returns the wall times per config and the largest RSS of each repeat.
        """
        walls: dict[str, list[float]] = {stem: [] for stem in self.config_paths}
        rss = []
        cold_dir = os.path.join(self.work, "cold")
        for _ in range(self.plan.cold_repeats):
            self.attempted += 1
            repeat, peak, problems = {}, 0.0, []
            for stem, path in self.config_paths.items():
                proc, scale = self.collide1d("run", path, "--out", cold_dir)
                repeat[stem] = proc.wall * scale
                self.raw["cold_run_s"].append(proc.wall)
                peak = max(peak, proc.rss_mb)
                if proc.code != 0 or proc.stderr:
                    problems.append(f"{stem}: exit {proc.code} {proc.stderr[-300:]!r}")
            if not problems:
                problems = self.compare_csv(cold_dir)
            self.fail("cold run", problems)
            for stem, wall in repeat.items():
                walls[stem].append(wall)
            rss.append(peak)
        return walls, rss

    def unit(self) -> tuple[float | None, float]:
        """One timed unit, checked afterwards; returns (seconds, RSS MB).

        A unit that fails its checks still ran, so its time counts; one that
        raised has no time (None).
        """
        from perfbench import workloads
        self.attempted += 1
        if self.wl.fresh_process:
            proc, scale = self.collide1d("check")
            self.fail("unit", self.wl.check((proc.code, proc.stdout)))
            elapsed, rss = proc.wall, proc.rss_mb
        else:
            def timed():
                start = time.perf_counter()
                outputs = workloads.run_checked(self.wl, self.out_dir)
                return outputs, time.perf_counter() - start
            try:
                (outputs, elapsed), scale = calibrate.scaled(timed)
            except Exception as exc:  # a unit that raises is a failed unit, not a crash
                self.fail("unit", [f"{type(exc).__name__}: {exc}"])
                return None, 0.0
            self.fail("unit", self.wl.check(outputs) + self.compare_csv(self.out_dir))
            rss = 0.0
        self.raw["run_s"].append(elapsed)
        self.raw["scale"].append(scale)
        return elapsed * scale, rss

    def warm_units(self, until: float) -> tuple[list[float], list[float]]:
        """Closed loop: the next unit starts when the previous one has finished."""
        if not self.wl.fresh_process:
            self.unit()  # lazy set-up and caches; checked, not timed
        times, rss = [], []
        for attempt in range(self.plan.max_units):
            if attempt >= self.plan.min_units and time.perf_counter() >= until:
                break
            elapsed, peak = self.unit()
            if elapsed is not None:
                times.append(elapsed)
                rss.append(peak)
        return times, rss

    def count_collisions(self) -> float:
        """Collisions of one unit, counted by the tracer at the solver calls."""
        from perfbench import trace, workloads
        tracer = trace.Tracer()
        tracer.install()
        try:
            tracer.run_unit(0, lambda: workloads.run_checked(self.wl, self.out_dir))
        finally:
            tracer.uninstall()
        profile = trace.profile_units(tracer.export())[0]
        return sum(v for k, v in profile.counts.items() if k.endswith(".collisions"))

    def traced(self) -> list[dict]:
        """Exports of the traced child processes (the first one also measures peaks)."""
        exports = []
        warm = self.plan.traced_warm_units
        if self.wl.fresh_process:
            # the layers come from every cold unit; two warm repeats give first_call_s
            units_per_child = [1 + min(2, warm)] + [1] * (self.plan.fresh_traced_processes - 1)
        else:
            units_per_child = [1 + warm]
        for i, units in enumerate(units_per_child):
            path = os.path.join(self.work, f"spans-{i}.json")
            spawn_t = time.perf_counter()
            self.attempted += 1
            proc = Fresh([sys.executable, CHILD, "trace", self.wl.name, str(self.wl.seed),
                          "1" if self.wl.smoke else "0", str(units), "1" if i == 0 else "0",
                          repr(spawn_t), path, os.path.join(self.work, "traced")],
                         self.env, self.work, start=spawn_t)
            if not self.fail("traced process", [] if proc.code == 0
                             else [proc.stderr[-800:]]):
                continue
            with open(path, encoding="utf-8") as fh:
                export = json.load(fh)
            self.fail("traced unit", export["problems"])
            exports.append(export)
        return exports


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def tail(samples: list[float]) -> tuple[float, float, int]:
    """Highest order statistic with at least ten samples above it: (value, pct, n)."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def end_to_end(run: Run) -> tuple[dict, dict]:
    plan = run.plan
    start = time.perf_counter()
    run.prime()
    setup = run.setup_times()
    cold, cold_rss = ({}, []) if run.wl.fresh_process else run.cold_runs()
    times, unit_rss = run.warm_units(until=start + run.seconds)
    collisions = run.count_collisions()
    if run.wl.fresh_process:
        # the unit already is a fresh process, so its cold cost is the unit itself
        cold, cold_rss = {"check": times}, unit_rss
    if not times or not setup or not all(cold.values()):
        return {}, {}
    p50 = statistics.median(times)
    tail_value, pct, n = tail(times)
    values = {"run_s.p50": p50, "run_s.tail": tail_value,
              "collisions_per_s": collisions / p50,
              # per-config medians are steadier than the median of per-repeat sums
              "cold_run_s": sum(statistics.median(w) for w in cold.values()),
              "setup_s": statistics.median(setup),
              "peak_rss_mb": statistics.median(cold_rss)}
    detail = {"samples": n, "tail_percentile": pct, "collisions_per_unit": collisions,
              "run_s": times, "setup_s": setup, "cold_run_s": cold,
              "peak_rss_mb": cold_rss, "raw": run.raw, "plan": vars(plan)}
    return values, detail


PER_LAYER = [
    ("engine.run_dense.self_s", "s", "lower"),
    ("engine.run_dense.collisions", "count", "lower"),
    ("engine.run_dense.bytes_computed", "bytes", "lower"),
    ("engine.run_dense.active_row_ratio", "ratio", "lower"),
    ("engine.run_dense.first_call_s", "s", "lower"),
    ("engine.run_single_excitation.self_s", "s", "lower"),
    ("engine.run_single_excitation.collisions", "count", "lower"),
    ("engine.SectorRun.init.self_s", "s", "lower"),
    ("engine.SectorRun.qubit_trajectory.self_s", "s", "lower"),
    ("engine.SectorRun.qubit_trajectory.peak_alloc_mb", "MB", "lower"),
    ("engine.SectorRun.emission_weights.self_s", "s", "lower"),
    ("engine.SectorRun.tracked_weight", "ratio", "higher"),
    ("engine.SectorRun.state_at.self_s", "s", "lower"),
    ("engine.SectorRun.state_at.amplitudes", "count", "lower"),
    ("analytic.coherent_qubit_trajectory.self_s", "s", "lower"),
    ("analytic.coherent_qubit_trajectory.peak_alloc_mb", "MB", "lower"),
    ("analytic.assemble_coherent.self_s", "s", "lower"),
    ("analytic.assemble_coherent.amplitudes", "count", "lower"),
    ("analytic.single_photon.self_s", "s", "lower"),
    ("obe.obe_integrate.self_s", "s", "lower"),
    ("obe.obe_integrate.rk4_steps", "count", "lower"),
    ("obe.obe_integrate.substeps_per_collision", "count", "lower"),
    ("observables.entanglement_entropy.self_s", "s", "lower"),
    ("observables.entanglement_entropy.rows", "count", "lower"),
    ("observables.photon_density.self_s", "s", "lower"),
    ("observables.io_residual.self_s", "s", "lower"),
    ("observables.io_residual.snapshots", "count", "lower"),
    ("cli.write_csv.self_s", "s", "lower"),
    ("cli.write_csv.rows", "count", "lower"),
    ("cli.write_csv.bytes", "bytes", "lower"),
    ("cli.write_manifest.self_s", "s", "lower"),
    ("cli.parse_config.self_s", "s", "lower"),
    ("cli.run_scenario.self_s", "s", "lower"),
    ("core.build.self_s", "s", "lower"),
    *[(f"acceptance.criterion_{k}.s", "s", "lower") for k in range(1, 10)],
    ("acceptance.criterion_1.gate_margin_s", "s", "higher"),
    ("process.startup_s", "s", "lower"),
    ("process.import_s", "s", "lower"),
    ("trace.unattributed_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


def layer_metrics(run: Run, exports: list[dict], untraced_p50: float) -> dict:
    """Per-layer numbers from the traced processes; absent layers read 0.

    For an in-process workload the layers are the median over the warm units
    of the first traced process; for a fresh-process workload, the median
    over the cold first unit of every traced process.
    """
    from perfbench import trace
    per_child = [trace.profile_units(e) for e in exports]
    warm = [per_child[0][u] for u in range(1, exports[0]["timed_units"])]
    cold = per_child[0][0]
    chosen = [p[0] for p in per_child] if run.wl.fresh_process else warm

    def med(pick):
        return statistics.median(pick(p) for p in chosen) if chosen else 0.0

    out = {}
    for name, _, _ in PER_LAYER:
        if name.endswith(".self_s"):
            out[name] = med(lambda p: p.self_s.get(name[:-len(".self_s")], 0.0))
        elif name.startswith("acceptance.criterion_") and name.endswith(".s"):
            out[name] = med(lambda p: p.total_s.get(name[:-len(".s")], 0.0))
        elif name.endswith(".peak_alloc_mb"):
            span = name[:-len(".peak_alloc_mb")]
            spans = exports[0]["spans"]
            out[name] = max((v for k, v in exports[0]["peaks"].items()
                             if spans[int(k)][0] == span), default=0.0)
        else:
            out[name] = med(lambda p: p.counts.get(name, 0))
    rows = med(lambda p: p.counts.get("engine.run_dense.rows", 0))
    out["engine.run_dense.active_row_ratio"] = (
        med(lambda p: p.counts.get("engine.run_dense.active_rows", 0)) / rows if rows else 0.0)
    out["engine.SectorRun.tracked_weight"] = med(
        lambda p: p.counts.get("engine.SectorRun.init.tracked_weight", 0.0))
    dense = "engine.run_dense"
    out["engine.run_dense.first_call_s"] = (
        cold.first[dense] - statistics.median(p.first[dense] for p in warm)
        if dense in cold.first and warm else 0.0)
    c1 = out["acceptance.criterion_1.s"]
    out["acceptance.criterion_1.gate_margin_s"] = 1.0 - c1 if c1 else 0.0
    for name in ("process.startup", "process.import"):
        out[name + "_s"] = statistics.median(
            (s[2] - s[1]) * e["scale"]["0"] for e in exports for s in e["spans"]
            if s[0] == name)
    out["trace.unattributed_s"] = med(lambda p: p.unattributed)
    out["trace.overhead_s"] = med(lambda p: p.wall) - untraced_p50
    return out


def per_layer_run(run: Run) -> tuple[dict, dict]:
    start = time.perf_counter()
    run.prime()
    # a third of the budget re-measures the untraced unit for trace.overhead_s
    times, _ = run.warm_units(until=start + run.seconds / 3)
    exports = run.traced()
    if not times or not exports:
        return {}, {}
    p50 = statistics.median(times)
    values = layer_metrics(run, exports, p50)
    return values, {"untraced_run_s": times, "raw": run.raw, "exports": exports}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes and single repeats, for the benchmark's own test")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "collide1d", "__init__.py")):
        print(f"perfbench: no collide1d sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # the calibration kernel and the measured work, children included, share a core
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    from perfbench import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(choose from {', '.join(workloads.WORKLOADS)})", file=sys.stderr)
        return 2

    os.makedirs(OUT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=OUT)
    os.makedirs(os.path.join(work, "tmp"))
    tempfile.tempdir = os.path.join(work, "tmp")  # criterion 9 writes temp files
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, args.smoke)
        run = Run(wl, Plan(args.smoke), args.seconds, work)
        facts = machine_facts()
        if args.trace:
            values, detail = per_layer_run(run)
            spec = PER_LAYER
        else:
            values, detail = end_to_end(run)
            spec = [(name, unit, "") for name, unit in END_TO_END]
    finally:
        tempfile.tempdir = None
        shutil.rmtree(work, ignore_errors=True)

    if not values:
        print("perfbench: no unit completed; problems:", *run.problems[:20], sep="\n  ",
              file=sys.stderr)
        return 1
    failed = run.failed
    record = {"workload": wl.name, "why": wl.why, "seed": args.seed, "trace": args.trace,
              "smoke": args.smoke, "seconds": args.seconds, "machine": facts,
              "load": "closed loop, 1 client, 1 process, no --jobs workers",
              "ranges": wl.ranges, "drawn": wl.drawn, "configs": wl.configs,
              "metrics": values, "attempted": run.attempted, "failed": failed,
              "problems": run.problems, **detail}
    record_path = os.path.join(
        OUT, f"{wl.name}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}.json")
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}  "
          f"({record['load']}; BLAS threads {BLAS_THREADS})")
    print("machine " + "  ".join(f"{k}={v}" for k, v in facts.items()))
    print("drawn   " + "  ".join(f"{k}={v}" for k, v in wl.drawn.items()))
    if not args.trace:
        print(f"samples {detail['samples']} units; run_s.tail is p{detail['tail_percentile']:.1f}"
              f"; {detail['collisions_per_unit']:.0f} collisions per unit; unscaled "
              f"run_s median {statistics.median(run.raw['run_s']):.4g} s at median scale "
              f"{statistics.median(run.raw['scale']):.3f}")
    for name, unit, _ in spec:
        print(f"  {name:52s} {values[name]:.6g} {unit}")
    print(f"  {'failed_ratio':52s} {failed}/{run.attempted} = {failed / run.attempted:.4g}")
    for problem in run.problems[:10]:
        print(f"  FAILED {problem}")
    print(f"record  {os.path.relpath(record_path, ROOT)}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in spec}
    print(json.dumps({"correct": failed == 0, "attempted": run.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
