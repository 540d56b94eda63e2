"""Code lines of src/collide1d that no program input runs.

Runs every preset, every tests/golden/*.cfg and `collide1d check` in one
process under sys.settrace.  Prints, per module, how many of its code lines
(the lines of its code objects' co_lines) never ran, then lists them.  A
report, not a gate: it exits 1 only if a run fails.

    python tools/program_lines.py
"""

import contextlib
import io
import pathlib
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "collide1d"
ran = set()


def _line(frame, event, arg):
    ran.add((frame.f_code.co_filename, frame.f_lineno))
    return _line


def _call(frame, event, arg):
    return _line(frame, event, arg) if frame.f_code.co_filename.startswith(str(PACKAGE)) else None


def code_lines(code):
    """Every line number of `code` and of the code objects nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= code_lines(const)
    return lines


sys.path.insert(0, str(ROOT / "src"))
sys.settrace(_call)  # before the import, so module-level lines count too
from collide1d import cli  # noqa: E402

failed = []
with tempfile.TemporaryDirectory() as out:
    runs = [["run", name, "--out", out] for name in cli.PRESETS]
    runs += [["run", str(cfg), "--out", out] for cfg in sorted(ROOT.glob("tests/golden/*.cfg"))]
    for argv in runs + [["check"]]:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code:
            failed.append(f"{' '.join(argv[:2])} exited {code}")
sys.settrace(None)

unrun = {}
for path in sorted(PACKAGE.glob("*.py")):
    lines = code_lines(compile(path.read_text(), str(path), "exec"))
    unrun[path.name] = lines - {line for name, line in ran if name == str(path)}
    print(f"{path.name}: {len(unrun[path.name])} of {len(lines)} code lines never ran")
for name, lines in unrun.items():
    if lines:
        print(f"\n{name}: {', '.join(map(str, sorted(lines)))}")
for line in failed:
    print(f"run failed: {line}", file=sys.stderr)
sys.exit(1 if failed else 0)
