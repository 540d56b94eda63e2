"""Property tests drawn from the config schema.

Every strategy here reads the key declarations of ``cli.ScenarioConfig`` and
the ``cli.SCENARIOS`` table, and keeps a config valid only through the rules
of ``cli._violations``, so a key, scenario or rule added there is exercised
without editing this file.  The properties: the text of a valid config parses
back to the same config; every injected violation is reported with its line,
all of them at once; and every accepted config runs through ``cli.main`` to
exit 0, 2 or 3 without raising, never writes ``nan`` or ``inf`` with exit 0,
and writes the same bytes when run again.
"""

import contextlib
import io
import os
import tempfile
import warnings
from dataclasses import MISSING, fields

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st  # noqa: E402

from collide1d import cli  # noqa: E402
from collide1d.cli import SCENARIOS, ConfigError, ScenarioConfig, parse_config  # noqa: E402

KEYS = {f.name: f for f in fields(ScenarioConfig)}
REQUIRED = {key for key, f in KEYS.items() if f.default is MISSING}
BIG = cli._MAX_MAGNITUDE
#: free text: no space at either end, no '#', nothing str.splitlines breaks at
WORDS = st.text(st.characters(min_codepoint=33, max_codepoint=126, exclude_characters="#"),
                min_size=1, max_size=12)


def line_of(key, value) -> str:
    return f"{key} = {value!r}" if isinstance(value, float) else f"{key} = {value}"


def valid_values(key, config=None):
    """Every value the declaration of `key` admits, up to the magnitude bound."""
    meta = KEYS[key].metadata
    if meta["choices"]:
        return st.sampled_from(meta["choices"])
    if meta["kind"] is int:
        return st.integers(meta["low"], 10**6)
    if meta["kind"] is float:
        low = -BIG if meta["low"] is None else meta["low"]
        return st.floats(low, BIG, exclude_min=meta["strict"])
    return WORDS


@st.composite
def configs(draw, values=valid_values):
    """A valid config as a dict: each key is present or not, with a value that its
    declaration admits; every key that a rule of ``cli._violations`` names is then
    dropped.  Where that leaves a rule broken or a required key missing, the other
    keys are drawn again for the same scenario, up to ten times, so that each
    scenario is drawn about as often as the others."""
    scenario = draw(values("scenario", {}))
    for _ in range(10):
        config = {"scenario": scenario}
        for key, declaration in KEYS.items():
            if key != "scenario" and (declaration.default is MISSING or draw(st.booleans())):
                config[key] = draw(values(key, config))
        named = {key for key, _ in cli._violations(config)}
        config = {key: value for key, value in config.items() if key not in named}
        if REQUIRED <= set(config) and not any(cli._violations(config)):
            return config
    assume(False)


@given(config=configs(), data=st.data())
def test_text_of_a_valid_config_parses_back(config, data):
    order = data.draw(st.permutations(list(config)))
    notes = ("", "  # trailing comment", "\n\n# a comment line")
    text = "".join(line_of(key, config[key]) + data.draw(st.sampled_from(notes)) + "\n"
                   for key in order)
    assert parse_config(text) == ScenarioConfig(**config)


def violations(key) -> list[str]:
    """Values that break the declaration of `key` on their own."""
    meta = KEYS[key].metadata
    kind, low = meta["kind"], meta["low"]
    bad = ["zz"] if meta["choices"] else []
    if kind is not str:
        bad += ["x1", "1.5"] if kind is int else ["x1", "nan", "-inf", "1e151"]
    if low is not None:
        bad.append(str(kind(low - 1)))
        if meta["strict"]:
            bad.append(str(kind(low)))
    return bad


@given(config=configs(), data=st.data())
def test_every_violation_is_reported_with_its_line(config, data):
    breakable = [key for key in KEYS if violations(key)]
    broken = data.draw(st.lists(st.sampled_from(breakable), min_size=1, unique=True))
    # (line, what its message must contain); None for a valid line
    lines = [(line_of(key, value), None) for key, value in config.items()
             if key not in broken]
    for key in broken:
        bad = data.draw(st.sampled_from(violations(key)))
        lines.insert(data.draw(st.integers(0, len(lines))), (f"{key} = {bad}", key))
    for extra in data.draw(st.lists(st.sampled_from(("unknown", "syntax", "duplicate")),
                                    max_size=3)):
        lines.append({"unknown": ("bogus = 1", "unknown key 'bogus'"),
                      "syntax": ("no equals sign", "expected 'key = value'"),
                      "duplicate": (lines[0][0], "duplicate key")}[extra])
    with pytest.raises(ConfigError) as err:
        parse_config("".join(line + "\n" for line, _ in lines))
    for lineno, (line, wanted) in enumerate(lines, start=1):
        if wanted is not None:
            assert any(v.startswith(f"line {lineno}: ") and wanted in v
                       for v in err.value.violations), (line, err.value.violations)


def test_missing_required_keys_are_named():
    required = [key for key, f in KEYS.items() if f.default is MISSING]
    with pytest.raises(ConfigError) as err:
        parse_config("# nothing but a comment\n")
    assert err.value.violations == [f"config: missing required key {key!r}"
                                    for key in required]


def run_values(key, config):
    """The schema's values at sizes that keep each run short (dense N <= 6,
    otherwise N <= 300); floats either physical or anywhere the schema admits."""
    sizes = {"fock_dim": st.integers(2, 4), "m_max": st.integers(0, 8),
             "snapshot_stride": st.integers(1, 400),
             # relative stems only, some in a missing directory or past the
             # file system's name length
             "output": st.from_regex(r"[a-z0-9_-][a-z0-9_/-]{0,299}", fullmatch=True)}
    if key == "n_steps":
        dense = config.get("solver") == "dense" or not SCENARIOS[config["scenario"]].solvers
        return st.integers(1, 6 if dense else 300)
    if key in sizes:
        return sizes[key]
    meta = KEYS[key].metadata
    if meta["kind"] is not float:
        return valid_values(key)
    physical = (st.floats(1e-3, 0.1) if key == "dt" else
                st.floats(0.0, 10.0, exclude_min=meta["strict"]) if meta["low"] is not None
                else st.floats(-10.0, 10.0))
    return st.one_of(physical, valid_values(key))


@settings(max_examples=100)
@given(config=configs(run_values))
# both wrote nan rows with exit 0: e^{-gamma t/4} underflowed while
# cos(Omega' t/2) overflowed in the no-emission propagator
@example(config={"scenario": "coherent", "solver": "analytic", "phi0": "e", "delta": 0.3,
                 "dt": 0.05, "n_steps": 60000, "snapshot_stride": 6000})
@example(config={"scenario": "coherent", "solver": "analytic", "dt": 1e20, "n_steps": 1})
# far outside the validity bound the closed form's sector weights overflow to a
# nan qubit trace, which the entropy column's norm guard must reject
@example(config={"scenario": "coherent", "solver": "analytic", "gamma": 642023526.0,
                 "omega_rabi": 3.0, "dt": 7.802253851277129e+104, "n_steps": 4,
                 "m_max": 3, "snapshot_stride": 4})
def test_every_accepted_config_runs_to_a_documented_exit(config):
    with tempfile.TemporaryDirectory() as out:
        path = os.path.join(out, "run.cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("".join(line_of(key, value) + "\n" for key, value in config.items()))

        def run():
            with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                warnings.simplefilter("ignore")
                return cli.main(["run", path, "--out", out])

        code = run()
        assert code in (cli.EXIT_OK, cli.EXIT_INVALID, cli.EXIT_THRESHOLD)
        if code == cli.EXIT_OK:
            stem = os.path.join(out, ScenarioConfig(**config).stem())
            written = {}
            for ext, sep in ((".csv", ","), (".manifest", " = ")):
                with open(stem + ext, "rb") as fh:
                    written[ext] = fh.read()
                cells = {cell for row in written[ext].decode().splitlines()
                         for cell in row.split(sep)}
                assert not {"nan", "inf", "-inf"} & cells, ext
            # a rerun to the same output path writes the same bytes
            assert run() == cli.EXIT_OK
            for ext, first in written.items():
                with open(stem + ext, "rb") as fh:
                    assert fh.read() == first, ext
