"""Regression gate on the CSV and manifest of every solver branch.

``tests/golden/<name>.cfg`` holds one small config per scenario x solver
branch; the ``.csv`` and ``.manifest`` beside it were written by
``collide1d run tests/golden/<name>.cfg --out tests/golden``.  Every branch
must repeat them byte for byte, except those in ``NUMERIC``, which are compared
field by field to an absolute ``NUMERIC_TOL``.  Their goldens were written by
code that rounds differently: an FFT convolution chain for the three whose
sector moments now come from the blocked moment recurrence, a sequential
collision loop for the two recursion branches, which now use a doubling scan,
a full-state <sigma_-> contraction for io-check, whose residual now reads
rho_eg from the recorded qubit matrices, and BLAS vdot reductions over the
whole state for the four dense branches, which now reduce only the light cone
of each collision by numpy pairwise sums.  Largest measured differences
(.csv/.manifest): recursion-exponential 1.3e-15/4.4e-16, recursion-gaussian
2.3e-15/2.3e-15, io-check 3.3e-17/0, coherent-dense 4.4e-16/0, convergence
4.4e-16/4.4e-16, oracle-compare 4.4e-16/4.3e-19, spont-dense 2.8e-16/0.
Regenerate the files only for a change that is meant to alter the numbers,
and say so where it is recorded.
"""

import os

import pytest

from collide1d import observables
from collide1d.cli import COMPATIBLE, parse_config, run_scenario

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
    assert branches == {(scenario, solver) for scenario, allowed in COMPATIBLE.items()
                        for solver in (allowed or {None})}


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
