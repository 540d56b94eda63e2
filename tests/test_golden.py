"""Regression gate on the CSV and manifest of every solver branch.

``tests/golden/<name>.cfg`` holds one small config per scenario x solver
branch; the ``.csv`` and ``.manifest`` beside it were written by
``collide1d run tests/golden/<name>.cfg --out tests/golden``.  A config must
repeat them byte for byte unless it is in ``NUMERIC``; those are compared
field by field to an absolute ``NUMERIC_TOL``.  The configs outside it cover
regimes that a valid config selects and no other golden reaches: the moment
chain at nine sectors, with blocks of structured steps (``*-m8-n200``) and
as one block (``*-m8-n100``), for both the sector and closed-form solvers,
and the closed-form single-photon filter restarting its exponent once
gamma*T/2 > 300 (``single-photon-analytic-restart``).  The ``NUMERIC``
goldens were written by code that rounds differently: an FFT convolution
chain for the three whose sector moments now come from the moment chain
(block starts by a log-depth doubling scan, then structured steps), a
sequential collision loop for the two recursion branches, which now use a
doubling scan, a full-state <sigma_-> contraction over per-step snapshots for
io-check, whose residual now reads rho_eg from the recorded qubit matrices
and each <a_n> as ``run_dense`` records it on the light cone, and BLAS vdot
reductions over the whole state for the four dense branches, which now read
rho and <a_n> off one real Gram per collision of its grown light cone, summed
over the old modes by BLAS, and write the trace of rho as the norm column, not
the square of its square root.  Their
photon_flux column (coherent-dense, convergence, spont-dense) was summed from
the final state's occupations; it is now <a_n^dag a_n>/dt off the same Grams,
which ``run_dense`` reduces in one pass after its loop.  The three
closed-form spont and single-photon branches were written by code that read
their flux from a rebuilt final state, where it is now the density their norm
ledger sums; their norm column, like the recursion's, is now the trace of the
populations, which rounds the ledger once more.  Largest measured differences
(.csv/.manifest): coherent-analytic 1.4e-15/2.2e-16, coherent-sectors
1.05e-14/9.1e-15, spont-sectors 5.6e-16/4.4e-16, recursion-exponential
1.3e-15/4.4e-16, recursion-gaussian 2.4e-15/2.3e-15, io-check 4.4e-16/4.4e-16,
coherent-dense 6.7e-16/4.4e-16, convergence 5.6e-16/4.4e-16, oracle-compare
4.4e-16/6.7e-16, spont-dense 3.3e-16/0, spont-analytic 4.4e-16/0,
single-photon-analytic-exponential 1.1e-16/0, single-photon-analytic-gaussian
1.1e-16/0.  Byte-identical reruns of one tree stay gated elsewhere: by
acceptance criterion 9, by
``test_cli.py::TestMain::test_determinism_on_presets`` and by the CI step
that runs every preset twice and compares its files with ``cmp``.
Regenerate the files only for a change that is meant to alter the numbers,
and say so where it is recorded.

Over these anchors sits a byte layer, ``tests/golden/bytes.sha256``: one
SHA-256 digest of today's output per golden file, with the Python and numpy
versions that wrote it in its header.  A change that moves any byte fails
``test_matches_byte_layer``, which names the file and its largest field
difference from the anchor.  A change meant to move bytes rewrites the layer
(``PYTHONPATH=src python tests/test_golden.py``) in a commit of its own and
records every moved file with that difference.  The dense entries were last
rewritten when ``run_dense``'s last collision became one growth product and one
Gram like the others: coherent-dense.csv moved by 2.0e-16 and oracle-compare.csv
by 1.8e-17 from the layer before (5.6e-16 and 4.4e-16 from their anchors).

Each branch also produces one ``RunRecord`` with the fields its CSV needs, and
each run makes the calls that count collisions (a tier's entry point, read
through its module) exactly once, twice when the truncation guard reruns.
"""

import hashlib
import os
import platform
import sys
from collections import defaultdict
from dataclasses import replace

import numpy as np
import pytest

from collide1d import RunRecord, analytic, engine, obe, observables
from collide1d.cli import _SWEEPS, SCENARIOS, parse_config, run_scenario, sweep

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
NAMES = sorted(f[:-4] for f in os.listdir(GOLDEN) if f.endswith(".cfg"))
SWEEPS = ("oracle-compare", "io-check", "convergence")
NUMERIC = ("coherent-analytic", "coherent-dense", "coherent-sectors", "convergence",
           "io-check", "oracle-compare", "spont-analytic", "spont-dense", "spont-sectors",
           "single-photon-analytic-exponential", "single-photon-analytic-gaussian",
           "single-photon-recursion-exponential", "single-photon-recursion-gaussian")
NUMERIC_TOL = 1e-12
SEPARATOR = {".csv": ",", ".manifest": " = "}
BYTE_LAYER = os.path.join(GOLDEN, "bytes.sha256")


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


def read_golden(name, ext) -> bytes:
    with open(os.path.join(GOLDEN, name + ext), "rb") as fh:
        return fh.read()


def run_golden(name, out_dir) -> dict:
    """The fresh .csv and .manifest bytes of one golden config."""
    _, _, csv_path, code = run_scenario(load(name), out_dir=str(out_dir))
    assert code == 0
    output = {}
    for ext in (".csv", ".manifest"):
        with open(csv_path[:-4] + ext, "rb") as fh:
            output[ext] = fh.read()
    return output


def compare_with_anchor(name, output):
    for ext, fresh_bytes in output.items():
        golden_bytes = read_golden(name, ext)
        if name in NUMERIC:
            worst = largest_field_difference(fresh_bytes.decode(), golden_bytes.decode(),
                                             SEPARATOR[ext])
            assert worst <= NUMERIC_TOL, f"{name}{ext} differs from golden by {worst:.2e}"
        else:
            assert fresh_bytes == golden_bytes, f"{name}{ext} differs from golden"


@pytest.fixture(scope="module")
def golden_output(tmp_path_factory):
    """name -> fresh output; each golden config runs once for the anchor and byte tests."""
    cache = {}

    def output(name):
        if name not in cache:
            cache[name] = run_golden(name, tmp_path_factory.mktemp(name))
        return cache[name]
    return output


def read_byte_layer():
    """(header lines, {file name: sha256 hex digest}) of the byte layer."""
    header, digests = [], {}
    with open(BYTE_LAYER, encoding="utf-8") as fh:
        for line in fh.read().splitlines():
            if line.startswith("#"):
                header.append(line)
            else:
                digest, file_name = line.split()
                digests[file_name] = digest
    return header, digests


def test_every_solver_branch_has_a_golden_config():
    branches = {(config.scenario, config.solver) for config in map(load, NAMES)}
    assert branches == {(scenario, solver) for scenario, row in SCENARIOS.items()
                        for solver in (row.solvers or (None,))}


@pytest.mark.parametrize("name", NAMES)
def test_matches_golden(name, golden_output):
    compare_with_anchor(name, golden_output(name))


def test_byte_layer_covers_every_golden_file():
    header, digests = read_byte_layer()
    assert sorted(digests) == sorted(name + ext for name in NAMES
                                     for ext in (".csv", ".manifest"))
    assert any(line.startswith("# python ") for line in header)
    assert any(line.startswith("# numpy ") for line in header)


@pytest.mark.parametrize("name", NAMES)
def test_matches_byte_layer(name, golden_output):
    header, digests = read_byte_layer()
    for ext, fresh in golden_output(name).items():
        if hashlib.sha256(fresh).hexdigest() != digests[name + ext]:
            worst = largest_field_difference(fresh.decode(), read_golden(name, ext).decode(),
                                             SEPARATOR[ext])
            written_by = ", ".join(line[2:] for line in header
                                   if line.startswith(("# python ", "# numpy ")))
            pytest.fail(f"{name}{ext}: bytes differ from the byte layer (written by "
                        f"{written_by}; running python {platform.python_version()}, "
                        f"numpy {np.__version__}); largest field difference from its "
                        f"anchor {worst:.2e}")


def test_io_check_computes_each_residual_once(tmp_path, monkeypatch):
    # one residual per step size: the kept run's CSV column reuses its metric's
    calls = []
    io_residual = observables.io_residual

    def counted(traj):
        calls.append(traj.params.dt)
        return io_residual(traj)
    monkeypatch.setattr(observables, "io_residual", counted)
    compare_with_anchor("io-check", run_golden("io-check", tmp_path))
    assert calls == [0.01, 0.005, 0.0025]


# the fields each (scenario, solver) pair's record sets; the others are None
RECORD_FIELDS = {
    ("spont", "analytic"): {"flux"},
    ("spont", "dense"): {"flux"},
    ("spont", "sectors"): {"flux", "weights"},
    ("coherent", "analytic"): {"weights"},
    ("coherent", "dense"): {"flux"},
    ("coherent", "sectors"): {"flux", "weights"},
    ("single-photon", "analytic"): {"flux"},
    ("single-photon", "recursion"): {"flux"},
    ("oracle-compare", None): set(),
    ("io-check", None): set(),
    ("convergence", None): {"flux"},
}


@pytest.mark.parametrize("name", NAMES)
def test_every_solver_produces_one_record(name):
    config = load(name)
    if config.scenario in SWEEPS:
        (record, residuals), _ = sweep(config)
        spec = _SWEEPS[config.scenario]  # the CSV shows the kept step size's record
        n = int(config.n_steps / spec.keep) if spec.fixed_time else config.n_steps
        # only io-check has residuals, one per collision
        assert (residuals is not None) == (config.scenario == "io-check")
        assert residuals is None or residuals.shape == (n,)
    else:
        record = SCENARIOS[config.scenario].solvers[config.solver](config, config.params())
        n = config.n_steps
    assert isinstance(record, RunRecord) and record.params.n_steps == n
    assert record.rho.shape == (n + 1, 2, 2)
    shapes = {"flux": (n,), "weights": (config.m_max + 1, n + 1, 2)}
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


def test_closed_form_single_photon_filters_the_packet_twice(tmp_path, monkeypatch):
    # once for the scattered flux and norm ledger, once inside the counted
    # single_photon_p_excited; no final state is rebuilt for the flux
    calls = []
    xi_tilde_trajectory = analytic.xi_tilde_trajectory

    def counted(wavepacket, params):
        calls.append(params.n_steps)
        return xi_tilde_trajectory(wavepacket, params)
    monkeypatch.setattr(analytic, "xi_tilde_trajectory", counted)
    config = load("single-photon-analytic-exponential")
    run_scenario(config, out_dir=str(tmp_path))
    assert calls == [config.n_steps] * 2


def write_byte_layer(out_dir):
    """Rewrite the byte layer from the golden configs' output under this tree."""
    lines = ["# sha256 of `collide1d run tests/golden/<name>.cfg`, one line per golden file",
             f"# python {platform.python_version()}", f"# numpy {np.__version__}"]
    for name in NAMES:
        for ext, output in run_golden(name, os.path.join(out_dir, name)).items():
            lines.append(f"{hashlib.sha256(output).hexdigest()}  {name}{ext}")
    with open(BYTE_LAYER, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as out_dir:
        write_byte_layer(out_dir)
