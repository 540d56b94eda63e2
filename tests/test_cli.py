import math
import os
import re
import subprocess
import sys
import warnings
from dataclasses import fields

import numpy as np
import pytest

from collide1d import cli
from collide1d.cli import (ConfigError, PRESETS, parse_config, run_scenario)
from collide1d.core import _KIND_NAMES, RunRecord, SimulationParams, ValidityWarning
from collide1d.engine import run_dense


def read_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [line.rstrip("\n").split(",") for line in fh]
    cols = {name: [row[i] for row in rows] for i, name in enumerate(header)}
    return cols


GOLDEN = os.path.join(os.path.dirname(__file__), "golden")

MINIMAL_SPONT = """
scenario = spont
solver = analytic
gamma = 1
dt = 1e-3
n_steps = 5000
"""


def spont_config(**overrides):
    """A valid analytic spont config as text, with some values replaced or added."""
    values = {"scenario": "spont", "solver": "analytic", "gamma": "1", "dt": "1e-3",
              "n_steps": "10", **overrides}
    return "".join(f"{key} = {value}\n" for key, value in values.items())


class TestParseConfig:
    def test_minimal_valid(self):
        config = parse_config(MINIMAL_SPONT)
        assert config.scenario == "spont"
        assert config.n_steps == 5000
        assert config.resolved_phi0() == "e"

    def test_comments_and_blank_lines(self):
        text = "# leading comment\n\nscenario = spont # trailing\nsolver = analytic\ngamma = 1\ndt = 1e-3\nn_steps = 10\n"
        assert parse_config(text).scenario == "spont"

    def test_unknown_key_reports_line(self):
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL_SPONT + "bogus = 1\n")
        assert any("line 7" in v and "bogus" in v for v in err.value.violations)

    def test_type_mismatch_reports_line(self):
        with pytest.raises(ConfigError) as err:
            parse_config("scenario = spont\nsolver = analytic\ngamma = fast\ndt = 1e-3\nn_steps = 10\n")
        assert any("line 3" in v and "gamma" in v for v in err.value.violations)

    def test_negative_gamma_names_key(self):
        with pytest.raises(ConfigError) as err:
            parse_config("scenario = spont\nsolver = analytic\ngamma = -1\ndt = 1e-3\nn_steps = 10\n")
        assert any("gamma" in v and "positive" in v for v in err.value.violations)

    def test_incompatible_solver(self):
        text = "scenario = single-photon\nsolver = sectors\ngamma = 1\ndt = 1e-3\nn_steps = 100\n"
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert any("incompatible" in v for v in err.value.violations)

    def test_check_scenarios_refuse_solver(self):
        text = "scenario = convergence\nsolver = dense\ngamma = 1\ndt = 0.04\nn_steps = 5\n"
        with pytest.raises(ConfigError):
            parse_config(text)

    def test_solver_scenario_without_a_solver_refused(self):
        with pytest.raises(ConfigError) as err:
            parse_config("scenario = coherent\ndt = 0.01\nn_steps = 5\n")
        assert err.value.violations == [
            "config: scenario 'coherent' needs a solver (one of analytic, dense, sectors)"]

    def test_convergence_refuses_delta(self):
        # the sweep's lab-frame dense runs wrote the same CSV for delta = 0 and 3, and the
        # validity guard warned about |delta|*dt all the same
        text = "scenario = convergence\ndt = 0.04\nn_steps = 4\ndelta = 3\n"
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert err.value.violations == [
            "line 4: scenario 'convergence' does not read delta; remove it"]

    def test_all_violations_collected(self):
        text = "scenario = nope\ngamma = -2\nwhat = 3\n"
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert len(err.value.violations) >= 4  # scenario, gamma, what, missing dt/n_steps

    @pytest.mark.parametrize("key,value,lineno", [("gamma", "nan", 3), ("dt", "inf", 4),
                                                  ("omega_q", "-inf", 6)])
    def test_non_finite_number_reports_line(self, key, value, lineno):
        with pytest.raises(ConfigError) as err:
            parse_config(spont_config(**{key: value}))
        assert any(f"line {lineno}" in v and "finite" in v for v in err.value.violations)

    @pytest.mark.parametrize("head,phi0,message", [
        ("scenario = single-photon\nsolver = analytic\n", "e", "line 5: the single-photon "
         "recursion starts from the ground state; phi0 = e is not supported"),
        ("scenario = convergence\n", "g", "line 4: the convergence sweep starts from the "
         "excited state; phi0 = g is not supported"),
    ], ids=["single-photon", "convergence"])
    def test_fixed_start_rejects_the_other_phi0(self, tmp_path, capsys, head, phi0, message):
        cfg = tmp_path / "start.cfg"
        cfg.write_text(f"{head}dt = 0.04\nn_steps = 5\nphi0 = {phi0}\n")
        assert cli.main(["run", str(cfg), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not list(tmp_path.glob("*.csv"))
        own = "g" if phi0 == "e" else "e"
        assert parse_config(f"{head}dt = 0.04\nn_steps = 5\nphi0 = {own}\n").phi0 == own

    @pytest.mark.parametrize("text,at", [
        ("scenario = io-check\n", "config"),
        ("scenario = io-check\nphi0 = e\ndelta = 0.5\n", "config"),
        ("scenario = io-check\nomega_rabi = 0\nphi0 = g\n", "line 2"),
        ("scenario = oracle-compare\ndelta = 0.3\nomega_rabi = 0\n", "line 3"),
    ], ids=["io-check-g", "io-check-e-delta", "io-check-zero", "oracle-compare-g-delta"])
    def test_undriven_sweep_with_nothing_to_fit_refused(self, tmp_path, capsys, monkeypatch,
                                                        text, at):
        # every step size ran before the fit found only zero errors and the run exited 2
        monkeypatch.setattr(cli, "_dense_run", lambda *args: pytest.fail("a dense run"))
        cfg = tmp_path / "undriven.cfg"
        cfg.write_text(text + "dt = 0.01\nn_steps = 8\n")
        out = tmp_path / "out"
        assert cli.main(["run", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {at}: the ") and "nothing to fit" in err
        assert "omega_rabi must be positive" in err and not out.exists()

    def test_undriven_oracle_compare_runs_only_from_e(self, tmp_path):
        # from g the qubit never leaves g, so dense and closed form agree exactly
        text = "scenario = oracle-compare\ndt = 0.01\nn_steps = 8\n"
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert err.value.violations == ["config: the oracle-compare sweep has nothing to fit "
                                        "without a drive; omega_rabi must be positive or "
                                        "phi0 = e"]
        _, metrics, _, code = run_scenario(parse_config(text + "phi0 = e\n"),
                                           out_dir=str(tmp_path))
        assert code == 0 and metrics["fit_exponent"] == pytest.approx(1.0, abs=0.01)

    @pytest.mark.parametrize("lines,message", [
        ("n_steps = 6\n", "line 4: the oracle-compare sweep runs 4*dt at fixed final time; "
         "n_steps must be divisible by 4"),
        ("n_steps = 8\nm_max = 4\n", "line 5: the oracle-compare sweep compares the sectors "
         "m <= 3 only; m_max must be <= 3, got 4"),
    ], ids=["uneven-n_steps", "m_max-above-3"])
    def test_oracle_compare_refuses_what_it_cannot_run_at_parse_time(
            self, tmp_path, capsys, monkeypatch, lines, message):
        # an uneven n_steps was refused by the sweep without a line number, and
        # m_max = 4 ran as m_max = 3
        monkeypatch.setattr(cli, "_dense_run", lambda *args: pytest.fail("a dense run"))
        cfg = tmp_path / "oracle.cfg"
        cfg.write_text("scenario = oracle-compare\nomega_rabi = 2\ndt = 0.005\n" + lines)
        out = tmp_path / "out"
        assert cli.main(["run", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("scenario,tail", [("io-check", ""),
                                               ("oracle-compare", " or phi0 = e")])
    def test_drive_below_the_floor_is_refused_naming_it(self, tmp_path, capsys, monkeypatch,
                                                        scenario, tail):
        # every error underflowed to zero: io-check ran all three step sizes and
        # exited 2 at the fit, oracle-compare exited 3 with a fit of about 0
        monkeypatch.setattr(cli, "_dense_run", lambda *args: pytest.fail("a dense run"))
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(f"scenario = {scenario}\nomega_rabi = 1e-300\ndt = 0.005\nn_steps = 12\n")
        out = tmp_path / "out"
        assert cli.main(["run", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"config error: line 2: the {scenario} sweep has nothing to fit at omega_rabi = "
            f"1e-300; omega_rabi must be >= 1e-150{tail}\n")
        assert not out.exists()

    @pytest.mark.parametrize("scenario", ["io-check", "oracle-compare"])
    def test_drive_at_the_floor_fits_first_order(self, tmp_path, scenario):
        text = f"scenario = {scenario}\nomega_rabi = 1e-150\ndt = 0.005\nn_steps = 12\n"
        _, metrics, _, code = run_scenario(parse_config(text), out_dir=str(tmp_path))
        assert code == 0 and metrics["fit_exponent"] == pytest.approx(1.0, abs=0.01)

    def test_duplicate_key(self):
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL_SPONT + "gamma = 2\n")
        assert any("duplicate" in v for v in err.value.violations)


ORACLE = dict(scenario="oracle-compare", omega_rabi=2.0, dt=0.005)


@pytest.mark.parametrize("values,message", [
    (dict(scenario="spont", solver="analytic", gamma="fast", dt=0.01, n_steps=5),
     "gamma expects a number, got 'fast'"),
    (dict(scenario="spont", solver="analytic", gamma=math.nan, dt=0.01, n_steps=5),
     "gamma must be finite, got nan"),
    (dict(scenario="coherent", solver="analytic", delta=1e300, omega_rabi=1.0, dt=0.01,
          n_steps=5), "|delta| must be <= 1e+150, got 1e+300"),
    (dict(scenario="spont", solver="analytic", gamma=-1.0, dt=0.01, n_steps=5),
     "gamma must be positive, got -1.0"),
    (dict(scenario="coherent", solver="dense", omega_q=-1.0, dt=0.01, n_steps=5),
     "omega_q must be non-negative"),
    (dict(scenario="spont", solver="analytic", dt=0.01, n_steps=0), "n_steps must be >= 1"),
    (dict(scenario="spont", solver="analytic", dt=0.01, n_steps=5, phi0="x"),
     "phi0 must be 'g' or 'e'"),
    (dict(scenario="spont", solver="exact", dt=0.01, n_steps=5),
     "unknown solver 'exact' (choose from dense, sectors, recursion, analytic)"),
    (dict(scenario="single-photon", solver="analytic", dt=0.01, n_steps=5,
          wavepacket="gaussian", wavepacket_sigma=1e-300),
     "wavepacket_sigma must be >= 1e-150, got 1e-300"),
    # died in the run with a bare KeyError: None
    (dict(scenario="coherent", dt=0.01, n_steps=5),
     "scenario 'coherent' needs a solver (one of analytic, dense, sectors)"),
    (dict(scenario="single-photon", solver="sectors", dt=0.01, n_steps=5),
     "solver 'sectors' is incompatible with scenario 'single-photon' "
     "(allowed: analytic, recursion)"),
    (dict(scenario="convergence", solver="dense", dt=0.04, n_steps=5),
     "scenario 'convergence' chooses its own solvers; remove the solver key"),
    (dict(scenario="convergence", dt=0.04, n_steps=5, phi0="g"),
     "the convergence sweep starts from the excited state; phi0 = g is not supported"),
    # wrote the bytes of omega_rabi = 0 under a manifest that echoed omega_rabi = 3
    (dict(scenario="spont", solver="analytic", omega_rabi=3.0, dt=0.01, n_steps=5),
     "scenario 'spont' has no coherent drive; omega_rabi must be 0"),
    (dict(scenario="io-check", dt=0.01, n_steps=8),
     "the io-check sweep has nothing to fit without a drive; omega_rabi must be positive"),
    (dict(ORACLE, omega_rabi=1e-300, n_steps=12),
     "the oracle-compare sweep has nothing to fit at omega_rabi = 1e-300; omega_rabi must "
     "be >= 1e-150 or phi0 = e"),
    # ran its 4*dt step for one step and reported threshold_ok = True
    (dict(ORACLE, n_steps=6),
     "the oracle-compare sweep runs 4*dt at fixed final time; n_steps must be divisible by 4"),
    (dict(ORACLE, n_steps=8, m_max=4),
     "the oracle-compare sweep compares the sectors m <= 3 only; m_max must be <= 3, got 4"),
    (dict(scenario="convergence", delta=3.0, dt=0.04, n_steps=5),
     "scenario 'convergence' does not read delta; remove it"),
], ids=["kind", "finite", "magnitude", "positive", "non-negative", "at-least", "two-way-choice",
        "choice", "sigma-floor", "needs-solver", "incompatible-solver", "own-solvers",
        "fixed-start", "undriven", "nothing-to-fit", "drive-floor", "divisible", "sector-cap",
        "unread"])
def test_a_config_built_in_code_gets_the_refusal_of_its_text(values, message):
    text = "".join(f"{key} = {value!r}\n" if isinstance(value, float) else f"{key} = {value}\n"
                   for key, value in values.items())
    with pytest.raises(ConfigError) as parsed:
        parse_config(text)
    with pytest.raises(ConfigError) as built:
        cli.ScenarioConfig(**values)
    assert built.value.violations == [f"config: {message}"]
    assert [re.sub(r"^line \d+: ", "config: ", v) for v in parsed.value.violations] == [
        f"config: {message}"]


@pytest.mark.parametrize("values,message", [
    (dict(n_steps=5.5), "n_steps expects an integer, got 5.5"),
    (dict(dt=None), "dt expects a number, got None"),
    (dict(scenario=None), "scenario expects text, got None"),
], ids=["float-n_steps", "no-dt", "no-scenario"])
def test_a_config_built_in_code_gets_each_key_of_its_kind(values, message):
    # values that no config text yields; unchecked, each failed only inside the run
    with pytest.raises(ConfigError) as built:
        cli.ScenarioConfig(**{"scenario": "spont", "solver": "analytic", "dt": 0.01,
                              "n_steps": 5, **values})
    assert built.value.violations == [f"config: {message}"]


@pytest.mark.parametrize("key,kind", [(f.name, f.metadata["kind"])
                                      for f in fields(cli.ScenarioConfig)
                                      if f.metadata["kind"] in (int, float)])
@pytest.mark.parametrize("flag", [True, np.True_], ids=["bool", "numpy-bool"])
def test_a_config_built_in_code_refuses_a_bool_for_a_number(key, kind, flag):
    # bool is a numbers.Integral, and True equals the default of gamma and
    # wavepacket_sigma (1.0) and of snapshot_stride (1)
    with pytest.raises(ConfigError) as built:
        cli.ScenarioConfig(**{"scenario": "spont", "solver": "analytic", "dt": 0.01,
                              "n_steps": 5, key: flag})
    assert (f"config: {key} expects {_KIND_NAMES[kind]}, got {flag!r}"
            in built.value.violations)


def test_readme_config_table_names_each_declared_key_once():
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md"),
              encoding="utf-8") as fh:
        table = fh.read().split("| key | meaning | default |\n", 1)[1].split("\n\n", 1)[0]
    named = [key for row in table.splitlines()[1:]
             for key in re.findall(r"`(\w+)`", row.split("|")[1])]
    assert sorted(named) == sorted(f.name for f in fields(cli.ScenarioConfig))


class TestRunScenario:
    def test_spont_analytic_matches_exponential(self, tmp_path):
        config = parse_config(MINIMAL_SPONT)
        table, metrics, csv_path, code = run_scenario(config, out_dir=str(tmp_path))
        assert code == 0
        cols = read_csv(csv_path)
        t = np.array([float(v) for v in cols["t"]])
        p_e = np.array([float(v) for v in cols["p_e"]])
        assert np.abs(p_e - np.exp(-t)).max() < 1e-12

    def test_single_photon_analytic_finite_at_long_gamma_t(self, tmp_path):
        # gamma*T/2 = 1000: the filtered envelope's growing exponent e^{gamma t/2}
        # must not overflow; the closed form still tracks the recursion to first
        # order in gamma*dt (1.7e-3 here, 8.5e-4 at dt/2)
        text = ("scenario = single-photon\ngamma = 50\ndt = 1e-3\nn_steps = 40000\n"
                "wavepacket = exponential\nwavepacket_gamma = 1\n")
        p_e = {}
        for solver in ("analytic", "recursion"):
            config = parse_config(f"{text}solver = {solver}\noutput = {solver}\n")
            _, _, csv_path, code = run_scenario(config, out_dir=str(tmp_path))
            assert code == 0
            with open(csv_path) as fh:
                fields = fh.read().replace("\n", ",").split(",")
            assert not {"nan", "inf", "-inf"} & set(fields)
            p_e[solver] = np.array([float(v) for v in read_csv(csv_path)["p_e"]])
        assert np.abs(p_e["analytic"] - p_e["recursion"]).max() < 2e-3

    def test_fixed_header(self, tmp_path):
        config = parse_config(MINIMAL_SPONT)
        _, _, csv_path, _ = run_scenario(config, out_dir=str(tmp_path))
        with open(csv_path) as fh:
            assert fh.readline().strip() == cli.CSV_HEADER

    def test_manifest_written(self, tmp_path):
        config = parse_config(MINIMAL_SPONT)
        _, _, csv_path, _ = run_scenario(config, out_dir=str(tmp_path))
        manifest = csv_path.replace(".csv", ".manifest")
        assert os.path.exists(manifest)
        with open(manifest) as fh:
            content = fh.read()
        assert "version = " in content
        assert "config.scenario = spont" in content
        assert "norm_deficit" in content

    def test_io_check_bound_and_column(self, tmp_path):
        text = ("scenario = io-check\ngamma = 1\nomega_rabi = 2\nomega_q = 1\n"
                "dt = 1e-2\nn_steps = 8\nfock_dim = 3\n")
        table, metrics, csv_path, code = run_scenario(parse_config(text),
                                                      out_dir=str(tmp_path))
        assert code == 0
        cols = read_csv(csv_path)
        assert cols["io_residual"][0] == ""      # undefined at t = 0
        residuals = [float(v) for v in cols["io_residual"][1:]]
        assert max(residuals) <= 5 * 1e-2

    def test_oracle_compare_linear_fit(self, tmp_path):
        text = ("scenario = oracle-compare\ngamma = 1\nomega_rabi = 2\ndelta = 0.3\n"
                "omega_q = 1.5\ndt = 5e-3\nn_steps = 16\nm_max = 3\n")
        _, metrics, _, code = run_scenario(parse_config(text), out_dir=str(tmp_path))
        assert code == 0
        assert 0.7 <= metrics["fit_exponent"] <= 1.3


class TestMain:
    def test_presets_list(self, capsys):
        assert cli.main(["presets", "list"]) == 0
        out = capsys.readouterr().out.split()
        assert out == list(PRESETS)

    def test_presets_write_distinct_files(self):
        # every preset can run into one directory without overwriting another
        stems = [parse_config(text).stem() for text in PRESETS.values()]
        assert len(set(stems)) == len(PRESETS)

    def test_presets_show_round_trips(self, capsys):
        assert cli.main(["presets", "show", "spont"]) == 0
        shown = capsys.readouterr().out
        assert parse_config(shown).scenario == "spont"

    @pytest.mark.parametrize("argv, message", [
        (["presets", "show"], "needs a preset name: " + ", ".join(PRESETS)),
        (["presets", "show", "nope"], "unknown preset 'nope'"),
        (["presets", "list", "spont"], "takes no name, got 'spont'"),
    ])
    def test_presets_refuses_a_missing_or_stray_name(self, capsys, argv, message):
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    def test_run_rejects_bad_config(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("scenario = spont\nsolver = analytic\ngamma = -1\n"
                       "dt = 1e-3\nn_steps = 10\n")
        assert cli.main(["run", str(bad), "--out", str(tmp_path)]) == 2
        assert "gamma" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [("gamma", "nan"), ("dt", "inf")])
    def test_run_rejects_non_finite_number(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(spont_config(**{key: value}))
        assert cli.main(["run", str(cfg), "--out", str(tmp_path)]) == 2
        assert "finite" in capsys.readouterr().err
        assert not (tmp_path / "spont.csv").exists()

    @pytest.mark.parametrize("text,message", [
        # sigma^2 underflows to 0, which make_gaussian_wavepacket divides by
        ("scenario = single-photon\nsolver = analytic\ndt = 1e-3\nn_steps = 100\n"
         "wavepacket = gaussian\nwavepacket_sigma = 1e-300\n",
         "line 6: wavepacket_sigma must be >= 1e-150, got 1e-300"),
        # delta^2 overflows in the complex Rabi frequency of the closed form
        ("scenario = coherent\nsolver = analytic\ndt = 1e-3\nn_steps = 100\n"
         "delta = 1e300\nomega_rabi = 1\n", "line 5: |delta| must be <= 1e+150, got 1e+300"),
    ], ids=["gaussian-sigma-underflow", "delta-overflow"])
    def test_run_rejects_magnitudes_the_closed_forms_cannot_square(self, tmp_path, capsys,
                                                                   text, message):
        cfg = tmp_path / "range.cfg"
        cfg.write_text(text)
        assert cli.main(["run", str(cfg), "--out", str(tmp_path)]) == 2
        assert f"config error: {message}" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("key", ["omega_q", "omega_rabi"])
    def test_run_rejects_negative_frequency_naming_its_line(self, tmp_path, capsys, key):
        cfg = tmp_path / "negative.cfg"
        cfg.write_text(spont_config(solver="dense", scenario="coherent", **{key: "-1"}))
        assert cli.main(["run", str(cfg), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"config error: line 6: {key} must be non-negative\n"
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("overrides,unread", [
        (dict(scenario="coherent", solver="sectors", fock_dim="5", wavepacket_gamma="2"),
         {6: "fock_dim", 7: "wavepacket_gamma"}),
        (dict(scenario="spont", solver="dense", m_max="9"), {6: "m_max"}),
        (dict(fock_dim="3", m_max="1", wavepacket="gaussian"),
         {6: "fock_dim", 7: "m_max", 8: "wavepacket"}),
        # no undriven run has a drive to detune from; of the three spont tiers only the
        # sectors one would read delta, as a frame detuning
        *((dict(solver=solver, delta="3"), {6: "delta"})
          for solver in ("dense", "sectors", "analytic")),
        (dict(scenario="single-photon", solver="recursion", delta="3"), {6: "delta"}),
        # each packet shape reads only its own envelope keys; exponential is the default
        (dict(scenario="single-photon", wavepacket="exponential", wavepacket_sigma="3",
              wavepacket_t0="7"), {7: "wavepacket_sigma", 8: "wavepacket_t0"}),
        (dict(scenario="single-photon", wavepacket_t0="7"), {6: "wavepacket_t0"}),
        (dict(scenario="single-photon", solver="recursion", wavepacket="gaussian",
              wavepacket_gamma="2"), {7: "wavepacket_gamma"}),
    ], ids=["coherent-sectors", "spont-dense", "spont-analytic", "spont-dense-delta",
            "spont-sectors-delta", "spont-analytic-delta", "single-photon-delta",
            "exponential-gaussian-keys", "default-shape-gaussian-key",
            "gaussian-exponential-key"])
    def test_run_refuses_keys_the_run_never_reads(self, tmp_path, capsys, overrides, unread):
        # an ignored key would be echoed into the manifest as if it had shaped the run
        cfg = tmp_path / "unread.cfg"
        cfg.write_text(spont_config(**overrides))
        assert cli.main(["run", str(cfg), "--out", str(tmp_path)]) == 2
        scenario, solver = overrides.get("scenario", "spont"), overrides.get("solver", "analytic")
        assert capsys.readouterr().err == "".join(
            f"config error: line {line}: scenario {scenario!r} with solver {solver!r} "
            f"does not read {key}; remove it\n" for line, key in unread.items())
        assert not list(tmp_path.glob("*.csv")) and not list(tmp_path.glob("*.manifest"))

    @pytest.mark.parametrize("text", [
        "phi0 = e\ndelta = 0.3\ndt = 0.05\nn_steps = 60000\nsnapshot_stride = 6000\n",
        "dt = 1e20\nn_steps = 1\n"], ids=["gamma-t-3000", "dt-1e20"])
    @pytest.mark.filterwarnings("ignore::UserWarning")  # gamma*dt = 1e20
    def test_closed_form_propagator_stays_finite(self, tmp_path, text):
        # e^{-gamma t/4} underflows while cos(Omega' t/2) overflows; their
        # product, the no-emission propagator, must not
        cfg = tmp_path / "long.cfg"
        cfg.write_text("scenario = coherent\nsolver = analytic\n" + text)
        assert cli.main(["run", str(cfg), "--out", str(tmp_path)]) == 0
        cells = (tmp_path / "coherent.csv").read_text().replace("\n", ",").split(",")
        assert not {"nan", "inf", "-inf"} & set(cells)

    @pytest.mark.parametrize("output", ["no-such-dir/run", "x" * 300])
    def test_run_reports_unwritable_output(self, tmp_path, capsys, output):
        cfg = tmp_path / "out.cfg"
        cfg.write_text(spont_config(output=output))
        assert cli.main(["run", str(cfg), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("invalid run: ")

    def test_magnitude_bounds_are_inclusive(self):
        config = parse_config(spont_config(solver="analytic", scenario="single-photon",
                                           wavepacket="gaussian", wavepacket_sigma="1e-150",
                                           omega_q="1e150"))
        assert (config.wavepacket_sigma, config.omega_q) == (1e-150, 1e150)

    @pytest.mark.parametrize("solver,step", [("sectors", 2223), ("analytic", 2221)])
    def test_truncation_guard_names_step_and_m_max(self, tmp_path, capsys, solver, step):
        # Omega = 20 for t = 10/gamma: two tracked sectors keep 12% of the
        # weight, and eight are needed to keep 90%
        cfg = tmp_path / "trunc.cfg"
        cfg.write_text(f"scenario = coherent\nsolver = {solver}\nomega_rabi = 20\n"
                       "dt = 1e-3\nn_steps = 10000\nm_max = 2\n")
        assert cli.main(["run", str(cfg), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "tracked weight falls to 0.124" in err
        assert f"below 0.9 from step {step} " in err
        assert "m_max = 8 keeps it >= 0.9" in err
        assert not (tmp_path / "coherent.csv").exists()

    def test_trace_gain_above_the_bound_is_refused_before_the_chain(self, tmp_path, capsys):
        # gamma*dt = 5e113: one collision would multiply the tracked weight by
        # 5e113 (the chain ran it to 1.09e97, 1.20e194 and then nan), so the run
        # stops before the chain, with no overflow warning from it
        cfg = tmp_path / "overflow.cfg"
        cfg.write_text("scenario = coherent\nsolver = analytic\ngamma = 642023526\n"
                       "omega_rabi = 3\ndt = 7.802253851277129e+104\nn_steps = 4\nm_max = 3\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(["run", str(cfg), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            "invalid run: one collision multiplies the tracked weight by up to 5.009e+113, "
            "above 1.1: emissions outweigh the state (gamma*dt = 5.009e+113, bound 0.1)\n")
        assert [type(w.message) for w in caught] == [ValidityWarning, ValidityWarning]
        assert not (tmp_path / "coherent.csv").exists()

    def test_tracked_weight_above_one_names_step_and_gamma_dt(self):
        # a weight that grows more slowly than the per-collision bound, or turns
        # nan, is refused after the chain at its first step above 1 + 0.1
        params = SimulationParams(gamma=2.0, dt=0.01, n_steps=3)
        weights = np.zeros((2, 4, 2))
        weights[0, :, 0] = [1.0, 0.9, 0.8, 0.7]
        weights[1, :, 1] = [0.0, 0.1, 0.35, np.nan]

        def never(m):
            raise AssertionError("the ceiling needs no wider run")
        with pytest.raises(ValueError) as grown:
            cli._check_tracked_weight(RunRecord(params, None, weights=weights), never)
        assert str(grown.value) == (
            "tracked weight grows to 1.15 above 1.1 at step 2 (t = 0.02): emissions outweigh "
            "the state (gamma*dt = 0.02, bound 0.1)")
        weights[1, 2, 1] = 0.2
        with pytest.raises(ValueError, match=r"grows to nan above 1\.1 at step 3 \(t = 0\.03\)"):
            cli._check_tracked_weight(RunRecord(params, None, weights=weights), never)

    @pytest.mark.parametrize("n_steps,searched", [(4, 4), (10_000, 51), (600_000, 1)])
    def test_truncation_guard_searches_within_the_memory_guard(self, n_steps, searched):
        # the search run tracks min(N, 2^21 // (4(N+1)) - 1) sectors, never
        # fewer than the run itself; here no m_max it reaches keeps 0.9
        params = SimulationParams(gamma=1.0, dt=1e-6, n_steps=n_steps)
        short = np.zeros((2, 3, 2))
        short[0, :, 0] = [1.0, 0.7, 0.5]
        asked = []

        def rerun(m):
            asked.append(m)
            return RunRecord(params, None, weights=np.concatenate((short, np.zeros((m - 1, 3, 2)))))
        with pytest.raises(ValueError, match=f"no m_max up to {searched} keeps it"):
            cli._check_tracked_weight(RunRecord(params, None, weights=short), rerun)
        assert asked == [searched]

    def test_run_missing_target(self, tmp_path, capsys):
        assert cli.main(["run", "no-such-preset", "--out", str(tmp_path)]) == 2

    def test_preset_runs_again_beside_its_output_directory(self, tmp_path, monkeypatch):
        # the first run makes a directory named like the preset; the second
        # still reads the preset and does not try to open that directory
        monkeypatch.chdir(tmp_path)
        for _ in range(2):
            assert cli.main(["run", "spont", "--out", "spont"]) == 0
        assert (tmp_path / "spont" / "spont.csv").is_file()

    def test_run_refuses_a_config_that_is_not_utf8(self, tmp_path, capsys):
        cfg = tmp_path / "latin1.cfg"
        cfg.write_bytes("# Gr\u00fc\u00dfe\n".encode("latin-1") + spont_config().encode())
        assert cli.main(["run", str(cfg), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("invalid config file: ")

    def test_short_grid_for_the_exponential_packet_exits_2(self, tmp_path, capsys):
        # exp(-G*T) = exp(-1) = 0.368: the grid holds too little of the packet
        cfg = tmp_path / "short.cfg"
        cfg.write_text("scenario = single-photon\nsolver = recursion\ngamma = 1.0\n"
                       "dt = 1e-3\nn_steps = 1000\nwavepacket = exponential\n")
        assert cli.main(["run", str(cfg), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "extend the grid" in err and "renormalize" not in err
        assert not list(tmp_path.glob("*.csv"))

    def test_strict_flag_turns_warning_into_exit_2(self, tmp_path, capsys):
        risky = tmp_path / "risky.cfg"
        risky.write_text("scenario = spont\nsolver = analytic\ngamma = 1\n"
                         "dt = 0.2\nn_steps = 10\n")
        with pytest.warns(UserWarning):
            assert cli.main(["run", str(risky), "--out", str(tmp_path)]) == 0
        assert cli.main(["run", str(risky), "--out", str(tmp_path),
                         "--strict"]) == 2

    def test_strict_refusal_writes_nothing_and_restores_the_filters(self, tmp_path, capsys):
        risky = tmp_path / "risky.cfg"
        risky.write_text(spont_config(dt="0.2"))
        out = tmp_path / "out"
        filters = list(warnings.filters)
        assert cli.main(["run", str(risky), "--out", str(out), "--strict"]) == 2
        assert capsys.readouterr().err == (
            "invalid run: gamma*dt = 0.2 >= 0.1; the collision picture is only first "
            "order in dt\n")
        assert not out.exists()
        assert warnings.filters == filters

    def test_moment_chain_above_its_memory_guard_exits_2_and_writes_nothing(self, tmp_path,
                                                                            capsys):
        cfg = tmp_path / "chain.cfg"
        cfg.write_text("scenario = coherent\nsolver = sectors\ndt = 1e-6\n"
                       "n_steps = 1000000\nm_max = 1000000\n")
        out = tmp_path / "out"
        assert cli.main(["run", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(
            "invalid run: the moment chain of 1000000 steps and 1000001 sectors holds")
        assert not out.exists()

    @pytest.mark.parametrize("text,flags", [
        # 6, 12 and 24 modes at fixed final time: 24 exceed the dense memory guard
        ("scenario = convergence\ndt = 0.01\nn_steps = 6\n", []),
        # gamma*dt = omega_rabi*dt = 0.12 at the coarsest step, 4*dt
        ("scenario = oracle-compare\ngamma = 1\nomega_rabi = 1\ndt = 0.03\n"
         "n_steps = 8\n", ["--strict"]),
    ], ids=["convergence-memory-guard", "oracle-compare-strict"])
    def test_sweep_guards_run_before_any_dense_run(self, tmp_path, monkeypatch, text,
                                                   flags):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return run_dense(*args, **kwargs)
        monkeypatch.setattr(cli, "run_dense", counted)
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(text)
        assert cli.main(["run", str(cfg), "--out", str(tmp_path)] + flags) == 2
        assert calls == []

    def test_threshold_failure_exits_3(self, tmp_path):
        # a drive strong enough that the first-order residual bound genuinely
        # fails (the validity guard warns about it, as it should)
        cfg = tmp_path / "hot.cfg"
        cfg.write_text("scenario = io-check\ngamma = 1\nomega_rabi = 25\n"
                       "omega_q = 1\ndt = 1e-2\nn_steps = 8\nfock_dim = 3\n")
        with pytest.warns(UserWarning):
            assert cli.main(["run", str(cfg), "--out", str(tmp_path)]) == 3

    def test_env_var_output_dir(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("COLLIDE1D_OUT", str(tmp_path / "env-out"))
        assert cli.main(["run", "spont"]) == 0
        assert (tmp_path / "env-out" / "spont.csv").exists()

    def test_determinism_on_presets(self, tmp_path):
        # every preset, and the sweeps' golden configs
        sweeps = [os.path.join(GOLDEN, f"{name}.cfg")
                  for name in ("convergence", "io-check", "oracle-compare")]
        for target in [*PRESETS, *sweeps]:
            stem = parse_config(cli._load_config_text(target)).stem()
            blobs = []
            for attempt in ("x", "y"):
                out = tmp_path / f"{stem}-{attempt}"
                assert cli.main(["run", target, "--out", str(out)]) == 0
                blobs.append((out / f"{stem}.csv").read_bytes())
                blobs.append((out / f"{stem}.manifest").read_bytes())
            assert blobs[0] == blobs[2]
            assert blobs[1] == blobs[3]

    def test_import_loads_no_process_pool(self, tmp_path):
        # no command starts worker processes, so none pays to import their
        # machinery; and a run, CSV writer included, never imports numpy.ma
        # (np.unique does, at about 20 ms a fresh process)
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        path = [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        dense = os.path.join(GOLDEN, "spont-dense.cfg")
        probe = ("import sys, collide1d.cli, collide1d.acceptance; "
                 f"[collide1d.cli.main(['run', target, '--out', {str(tmp_path)!r}]) "
                 f"for target in ('spont', {dense!r})]; "
                 "print(sorted(m for m in sys.modules "
                 "if m == 'numpy.ma' "
                 "or m.startswith(('concurrent', 'multiprocessing', 'numpy.ma.'))))")
        result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                                env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)))
        assert result.returncode == 0, result.stderr
        assert sorted(os.listdir(tmp_path)) == ["spont-dense.csv", "spont-dense.manifest",
                                                "spont.csv", "spont.manifest"]
        assert result.stdout.splitlines()[-1] == "[]"
