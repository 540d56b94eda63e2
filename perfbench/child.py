"""Fresh-process probes started by perfbench/run.py.

    python perfbench/child.py setup SPEC.json
        Import collide1d, parse the configs in SPEC and build their parameters
        and wavepackets, up to the first solver call; print {"setup_s": ...}.

    python perfbench/child.py trace WORKLOAD SEED SMOKE UNITS MEM SPAWN OUT WORK
        Install the tracer, run UNITS units of WORKLOAD in this process (the
        first one cold), optionally one more under tracemalloc, and write the
        spans to OUT.  SPAWN is the parent's perf_counter reading just before
        it started this process (perf_counter is CLOCK_MONOTONIC on Linux, so
        both processes read the same clock).
"""

import json
import os
import sys
import time

START = time.perf_counter()


def setup(spec_path: str) -> dict:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    begin = time.perf_counter()
    import collide1d.cli as cli
    for module in spec["modules"]:
        __import__(module)
    for text in spec["configs"]:
        config = cli.parse_config(text)
        params = config.params()
        if config.scenario == "single-photon":
            config.build_wavepacket(params)
    return {"setup_s": time.perf_counter() - begin}


def trace(workload: str, seed: str, smoke: str, units: str, mem: str, spawn: str,
          out_path: str, work_dir: str) -> dict:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, root)
    from perfbench import calibrate
    from perfbench.trace import Tracer

    tracer = Tracer()
    spawn_t = float(spawn)
    begin = time.perf_counter()
    import collide1d.acceptance  # noqa: F401  (the modules 'collide1d check' loads)
    from perfbench import workloads
    imported = time.perf_counter()
    wl = workloads.WORKLOADS[workload](int(seed), smoke == "1")
    # start-up belongs to a unit only where the unit is the whole process
    process_unit = 0 if wl.fresh_process else -1
    tracer.record("process.startup", spawn_t, START, process_unit)
    tracer.record("process.import", begin, imported, process_unit)
    tracer.install()
    problems = []
    scale = {}
    for unit in range(int(units)):
        cold_process = unit == 0 and wl.fresh_process
        start = spawn_t if cold_process else None

        def traced_unit():
            return tracer.run_unit(unit, lambda: workloads.run_checked(wl, work_dir), start)
        if cold_process:
            # this unit began when the process was spawned, so calibrate after it only
            outputs = traced_unit()
            scale[unit] = calibrate.REF_KERNEL_S / calibrate.kernel_s()
        else:
            outputs, scale[unit] = calibrate.scaled(traced_unit)
        problems += wl.check(outputs)
    if mem == "1":
        tracer.measure_peaks = True
        tracer.run_unit(int(units), lambda: workloads.run_checked(wl, work_dir))
        tracer.measure_peaks = False
    tracer.uninstall()
    export = tracer.export()
    export["problems"] = problems
    export["scale"] = scale
    export["timed_units"] = int(units)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(export, fh)
    return {"problems": len(problems)}


if __name__ == "__main__":
    mode, rest = sys.argv[1], sys.argv[2:]
    result = setup(*rest) if mode == "setup" else trace(*rest)
    print(json.dumps(result))
