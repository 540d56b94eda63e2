"""Acceptance gate: every criterion runs at its stated tolerance and prints
one pass/fail line (run with -s to see them as they complete)."""

import contextlib
import io

import pytest

from collide1d import acceptance


@pytest.mark.parametrize("criterion", acceptance.ALL_CRITERIA,
                         ids=lambda fn: fn.__name__)
def test_criterion(criterion):
    result = criterion()
    print(result.line())
    assert result.passed, result.line()


def passing():
    """A criterion body that passes."""
    return True, "fine"


def test_gate_fails_a_passing_body_and_states_the_runtime():
    result = acceptance._criterion("gated", gate=0)(passing)()
    assert not result.passed
    assert result.detail.startswith("fine; runtime ")
    assert result.detail.endswith("s < 0s")


def test_no_gate_leaves_the_result_unchanged():
    result = acceptance._criterion("ungated")(passing)()
    assert (result.name, result.passed, result.detail) == ("ungated", True, "fine")
    assert result.runtime_s >= 0


def test_decorator_keeps_the_function_name():
    # pytest ids and the benchmark's per-criterion spans read __name__
    assert acceptance._criterion("x")(passing).__name__ == "passing"
    assert [fn.__name__ for fn in acceptance.ALL_CRITERIA] == [
        f"criterion_{k}" for k in range(1, 10)]


def test_run_all_reports_failures_and_exit_code(monkeypatch):
    failing = acceptance._criterion("broken")(lambda: (False, "off by one"))
    good = acceptance._criterion("fine")(passing)
    monkeypatch.setattr(acceptance, "ALL_CRITERIA", (good, failing))
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert acceptance.run_all() == 3
    lines = out.getvalue().splitlines()
    assert lines[1].startswith("FAIL broken [") and lines[1].endswith("] off by one")
    assert lines[-1] == "1/2 acceptance criteria passed"
    monkeypatch.setattr(acceptance, "ALL_CRITERIA", (good, good))
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert acceptance.run_all() == 0
    assert out.getvalue().splitlines()[-1] == "2/2 acceptance criteria passed"
