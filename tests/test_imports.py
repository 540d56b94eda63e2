"""Which package modules each module of collide1d imports, as one table.

The tiers check each other, so each runs on its own code.  The Bloch oracle is
criterion 3's independent leg: the sector and closed-form tiers run on _conv's
scans, so obe imports neither _conv nor analytic.  A new module needs a row,
and a new import between modules needs an entry in its row.
"""

import ast
from pathlib import Path

import collide1d

PACKAGE = Path(collide1d.__file__).parent

IMPORTS = {
    "core": set(),
    "_conv": {"core"},
    "engine": {"_conv", "core"},
    "analytic": {"_conv", "core", "engine"},
    "observables": {"core", "engine"},
    "obe": {"core", "engine"},
    # __init__ for __version__; acceptance only inside the check command
    "cli": {"__init__", "analytic", "observables", "core", "engine", "acceptance"},
    "acceptance": {"analytic", "cli", "observables", "core", "engine", "obe"},
    "__init__": {"core", "engine", "analytic", "observables", "obe"},
    "__main__": {"cli"},
}


def package_imports(path: Path) -> set[str]:
    """Package modules that any Import or ImportFrom node of the file names, nested
    ones included; a name that is no module of the package comes from __init__."""
    names = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ("collide1d" if node.level else "", node.module)))
            names += [f"{module}.{alias.name}" for alias in node.names]
    modules = set()
    for name in names:
        package, _, rest = name.partition(".")
        if package == "collide1d":
            head = rest.partition(".")[0]
            modules.add(head if head in IMPORTS else "__init__")
    return modules


def test_each_module_imports_what_its_row_lists():
    assert {path.stem for path in PACKAGE.glob("*.py")} == set(IMPORTS)
    for module, allowed in IMPORTS.items():
        assert package_imports(PACKAGE / f"{module}.py") == allowed, module
