"""Byte-for-byte regression gate on the CSV and manifest of every solver branch.

``tests/golden/<name>.cfg`` holds one small config per scenario x solver
branch; the ``.csv`` and ``.manifest`` beside it were written by
``collide1d run tests/golden/<name>.cfg --out tests/golden``.  A refactor that
changes a single output digit fails here.  Regenerate the files only for a
change that is meant to alter the numbers, and say so where it is recorded.
"""

import os

import pytest

from collide1d.cli import COMPATIBLE, parse_config, run_scenario

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
NAMES = sorted(f[:-4] for f in os.listdir(GOLDEN) if f.endswith(".cfg"))
SWEEPS = ("oracle-compare", "io-check", "convergence")


def load(name):
    with open(os.path.join(GOLDEN, name + ".cfg"), encoding="utf-8") as fh:
        return parse_config(fh.read())


def run_and_compare(name, out_dir, jobs=1):
    _, _, csv_path, code = run_scenario(load(name), out_dir=str(out_dir), jobs=jobs)
    assert code == 0
    for ext in (".csv", ".manifest"):
        with open(csv_path[:-4] + ext, "rb") as fresh, \
                open(os.path.join(GOLDEN, name + ext), "rb") as golden:
            assert fresh.read() == golden.read(), f"{name}{ext} differs from golden"


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
