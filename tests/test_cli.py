import os
import re
import warnings
from dataclasses import fields

import numpy as np
import pytest

from collide1d import cli
from collide1d.cli import (ConfigError, PRESETS, parse_config, run_scenario)
from collide1d.core import RunRecord, ValidityWarning
from collide1d.engine import run_dense


def read_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [line.rstrip("\n").split(",") for line in fh]
    cols = {name: [row[i] for row in rows] for i, name in enumerate(header)}
    return cols


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

    def test_duplicate_key(self):
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL_SPONT + "gamma = 2\n")
        assert any("duplicate" in v for v in err.value.violations)


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

    def test_convergence_scenario_parallel_matches_serial(self, tmp_path):
        text = "scenario = convergence\ngamma = 1\ndt = 0.04\nn_steps = 5\n"
        _, serial, path_a, code_a = run_scenario(parse_config(text),
                                                 out_dir=str(tmp_path / "a"))
        _, parallel, path_b, code_b = run_scenario(parse_config(text),
                                                   out_dir=str(tmp_path / "b"),
                                                   jobs=3)
        assert code_a == code_b == 0
        assert serial == parallel
        with open(path_a, "rb") as fa, open(path_b, "rb") as fb:
            assert fa.read() == fb.read()

    @pytest.mark.parametrize("jobs,workers", [(2, 2), (3, 3), (64, 3)])
    def test_sweep_starts_at_most_one_worker_per_step_size(self, jobs, workers, monkeypatch):
        started = []

        class SerialPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)
        monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
        config = parse_config("scenario = convergence\ngamma = 1\ndt = 0.04\nn_steps = 5\n")
        assert cli.sweep(config, jobs=jobs)[1] == cli.sweep(config)[1]
        assert started == [workers]


class TestMain:
    def test_presets_list(self, capsys):
        assert cli.main(["presets", "list"]) == 0
        out = capsys.readouterr().out.split()
        assert out == list(PRESETS)

    def test_presets_show_round_trips(self, capsys):
        assert cli.main(["presets", "show", "spont"]) == 0
        shown = capsys.readouterr().out
        assert parse_config(shown).scenario == "spont"

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_run_rejects_jobs_below_one(self, jobs, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_:
            cli.main(["run", "spont", "--jobs", jobs, "--out", str(tmp_path)])
        assert exit_.value.code == 2
        assert capsys.readouterr().err.endswith(
            f"collide1d run: error: argument --jobs: must be >= 1, got {jobs}\n")
        assert not os.listdir(tmp_path)

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
        params = cli.ScenarioConfig(scenario="coherent", gamma=2.0, dt=0.01, n_steps=3).params()
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
        params = cli.ScenarioConfig(scenario="coherent", dt=1e-6, n_steps=n_steps).params()
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

    def test_strict_flag_turns_warning_into_exit_2(self, tmp_path, capsys):
        risky = tmp_path / "risky.cfg"
        risky.write_text("scenario = spont\nsolver = analytic\ngamma = 1\n"
                         "dt = 0.2\nn_steps = 10\n")
        with pytest.warns(UserWarning):
            assert cli.main(["run", str(risky), "--out", str(tmp_path)]) == 0
        assert cli.main(["run", str(risky), "--out", str(tmp_path),
                         "--strict"]) == 2

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
        for name in PRESETS:
            stem = parse_config(PRESETS[name]).stem()
            blobs = []
            for attempt in ("x", "y"):
                out = tmp_path / f"{name}-{attempt}"
                assert cli.main(["run", name, "--out", str(out)]) == 0
                blobs.append((out / f"{stem}.csv").read_bytes())
                blobs.append((out / f"{stem}.manifest").read_bytes())
            assert blobs[0] == blobs[2]
            assert blobs[1] == blobs[3]
