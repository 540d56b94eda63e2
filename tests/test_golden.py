"""Regression gate on the CSV and manifest of every solver branch.

``tests/golden/<name>.cfg`` holds one small config per scenario x solver
branch; the ``.csv`` and ``.manifest`` beside it were written by
``collide1d run tests/golden/<name>.cfg --out tests/golden``.  Every branch
must repeat them byte for byte, except those in ``NUMERIC``, which are compared
field by field to an absolute ``NUMERIC_TOL``.  Their goldens were written by
code that rounds differently: an FFT convolution chain for the three whose
sector moments now come from the blocked moment recurrence, a sequential
collision loop for the two recursion branches, which now use a doubling scan,
a full-state <sigma_-> contraction over per-step snapshots for io-check,
whose residual now reads rho_eg from the recorded qubit matrices and each
<a_n> as ``run_dense`` records it on the light cone, and BLAS vdot reductions
over the whole state for the four dense branches, which now reduce only the
light cone of each collision by numpy pairwise sums and write the trace of rho
as the norm column, not the square of its square root.  Largest measured
differences (.csv/.manifest): recursion-exponential 1.3e-15/4.4e-16,
recursion-gaussian 2.3e-15/2.3e-15, io-check 2.2e-16/0, coherent-dense
4.4e-16/0, convergence 4.4e-16/4.4e-16, oracle-compare 5.6e-16/1.1e-16,
spont-dense 2.8e-16/0.
Regenerate the files only for a change that is meant to alter the numbers,
and say so where it is recorded.

Each branch also produces one ``RunRecord`` with the fields its CSV needs, and
each run makes the calls that count collisions (a tier's entry point, read
through its module) exactly once, twice when the truncation guard reruns.
"""

import os
import sys
from collections import defaultdict
from dataclasses import replace

import pytest

from collide1d import RunRecord, analytic, engine, obe, observables
from collide1d.cli import _SWEEPS, SCENARIOS, parse_config, run_scenario, sweep

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
NAMES = sorted(f[:-4] for f in os.listdir(GOLDEN) if f.endswith(".cfg"))
SWEEPS = ("oracle-compare", "io-check", "convergence")
NUMERIC = ("coherent-analytic", "coherent-dense", "coherent-sectors", "convergence",
           "io-check", "oracle-compare", "spont-dense", "spont-sectors",
           "single-photon-recursion-exponential", "single-photon-recursion-gaussian")
NUMERIC_TOL = 1e-12
SEPARATOR = {".csv": ",", ".manifest": " = "}


def load(name):
    with open(os.path.join(GOLDEN, name + ".cfg"), encoding="utf-8") as fh:
        return parse_config(fh.read())


def largest_field_difference(fresh: str, golden: str, sep: str) -> float:
    """Largest |fresh - golden| over numeric fields; other fields must match."""
    fresh_rows, golden_rows = fresh.splitlines(), golden.splitlines()
    assert len(fresh_rows) == len(golden_rows)
    worst = 0.0
    for fresh_row, golden_row in zip(fresh_rows, golden_rows):
        for a, b in zip(fresh_row.split(sep), golden_row.split(sep), strict=True):
            if a != b:
                worst = max(worst, abs(float(a) - float(b)))
    return worst


def run_and_compare(name, out_dir, jobs=1):
    _, _, csv_path, code = run_scenario(load(name), out_dir=str(out_dir), jobs=jobs)
    assert code == 0
    for ext in (".csv", ".manifest"):
        with open(csv_path[:-4] + ext, "rb") as fresh, \
                open(os.path.join(GOLDEN, name + ext), "rb") as golden:
            fresh_bytes, golden_bytes = fresh.read(), golden.read()
        if name in NUMERIC:
            worst = largest_field_difference(fresh_bytes.decode(), golden_bytes.decode(),
                                             SEPARATOR[ext])
            assert worst <= NUMERIC_TOL, f"{name}{ext} differs from golden by {worst:.2e}"
        else:
            assert fresh_bytes == golden_bytes, f"{name}{ext} differs from golden"


def test_every_solver_branch_has_a_golden_config():
    branches = {(config.scenario, config.solver) for config in map(load, NAMES)}
    assert branches == {(scenario, solver) for scenario, row in SCENARIOS.items()
                        for solver in (row.solvers or (None,))}


@pytest.mark.parametrize("name", NAMES)
def test_matches_golden(name, tmp_path):
    run_and_compare(name, tmp_path)


@pytest.mark.parametrize("name", SWEEPS)
def test_sweep_with_workers_matches_golden(name, tmp_path):
    run_and_compare(name, tmp_path, jobs=2)


def test_io_check_computes_each_residual_once(tmp_path, monkeypatch):
    # one residual per step size: the kept run's CSV column reuses its metric's
    calls = []
    io_residual = observables.io_residual

    def counted(traj):
        calls.append(traj.params.dt)
        return io_residual(traj)
    monkeypatch.setattr(observables, "io_residual", counted)
    run_and_compare("io-check", tmp_path)
    assert calls == [0.01, 0.005, 0.0025]


# the fields each (scenario, solver) pair's record sets; the others are None
RECORD_FIELDS = {
    ("spont", "analytic"): {"norm", "flux"},
    ("spont", "dense"): {"flux"},
    ("spont", "sectors"): {"flux", "weights"},
    ("coherent", "analytic"): {"weights"},
    ("coherent", "dense"): {"flux"},
    ("coherent", "sectors"): {"flux", "weights"},
    ("single-photon", "analytic"): {"norm", "flux"},
    ("single-photon", "recursion"): {"norm", "flux"},
    ("oracle-compare", None): set(),
    ("io-check", None): set(),
    ("convergence", None): {"flux"},
}


@pytest.mark.parametrize("name", NAMES)
def test_every_solver_produces_one_record(name):
    config = load(name)
    if config.scenario in SWEEPS:
        (errors, traj), _ = sweep(config)
        record, residuals = _SWEEPS[config.scenario].columns(traj, errors)
        n = traj.params.n_steps
        assert residuals is None or residuals.shape == (n,)
    else:
        record = SCENARIOS[config.scenario].solvers[config.solver](config, config.params())
        n = config.n_steps
    assert isinstance(record, RunRecord) and record.params.n_steps == n
    assert record.rho.shape == (n + 1, 2, 2)
    shapes = {"norm": (n + 1,), "flux": (n,), "weights": (config.m_max + 1, n + 1, 2)}
    assert {key for key in shapes if getattr(record, key) is not None} == \
        RECORD_FIELDS[config.scenario, config.solver]
    for key, shape in shapes.items():
        assert getattr(record, key) is None or getattr(record, key).shape == shape


#: the calls whose count gives collisions per run, with where each reads params
COUNTED = {(engine, "run_dense"): 0, (engine, "run_single_excitation"): 0,
           (analytic, "coherent_qubit_trajectory"): 0, (analytic, "assemble_coherent"): 0,
           (analytic, "single_photon_p_excited"): 1, (obe, "obe_integrate"): 0}


def count_calls(monkeypatch):
    """n_steps of each counted call, patched wherever a collide1d module binds it."""
    calls = defaultdict(list)
    modules = [m for key, m in list(sys.modules.items()) if key.startswith("collide1d")]
    for (owner, name), at in COUNTED.items():
        original = getattr(owner, name)

        def counted(*args, _name=name, _at=at, _original=original, **kwargs):
            calls[_name].append(args[_at].n_steps)
            return _original(*args, **kwargs)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, counted)
    init = engine.SectorRun.__init__

    def counted_init(self, params, *args, **kwargs):
        calls["SectorRun"].append(params.n_steps)
        init(self, params, *args, **kwargs)
    monkeypatch.setattr(engine.SectorRun, "__init__", counted_init)
    return calls


@pytest.mark.parametrize("name,truncated,expected", [
    ("coherent-analytic", None, {"coherent_qubit_trajectory": 1}),
    ("coherent-dense", None, {"run_dense": 1}),
    ("coherent-sectors", None, {"SectorRun": 1}),
    ("single-photon-analytic-exponential", None, {"single_photon_p_excited": 1}),
    ("single-photon-analytic-gaussian", None, {"single_photon_p_excited": 1}),
    ("single-photon-recursion-exponential", None, {"run_single_excitation": 1}),
    ("single-photon-recursion-gaussian", None, {"run_single_excitation": 1}),
    ("spont-analytic", None, {}),
    ("spont-dense", None, {"run_dense": 1}),
    ("spont-sectors", None, {"SectorRun": 1}),
    # the vacuum sector alone tracks too little weight: the truncation guard reruns once
    ("coherent-analytic", dict(m_max=0, phi0="e"), {"coherent_qubit_trajectory": 2}),
    ("coherent-sectors", dict(m_max=0), {"SectorRun": 2}),
])
def test_each_run_makes_the_counted_calls_once(name, truncated, expected, tmp_path,
                                                monkeypatch):
    config = load(name)
    calls = count_calls(monkeypatch)
    if truncated is None:
        run_scenario(config, out_dir=str(tmp_path))
    else:
        with pytest.raises(ValueError, match="sector truncation"):
            run_scenario(replace(config, **truncated), out_dir=str(tmp_path))
    assert calls == {key: [config.n_steps] * count for key, count in expected.items()}
