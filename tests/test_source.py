"""Source hygiene: every import in the package is read, every definition is
reached from outside the tests, and every demo runs."""

import ast
import os
import subprocess
import sys
from collections.abc import Collection
from pathlib import Path

import pytest

import belllab

SRC = Path(belllab.__file__).resolve().parent
ROOT = SRC.parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
MODULES = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]

#: The files that reach the package other than its unit tests: the package
#: itself (the CLI among it), the demos, the benchmark and the acceptance gate.
CALLERS = [*MODULES, *DEMOS, *sorted((ROOT / "perfbench").glob("*.py")),
           ROOT / "tests" / "test_acceptance.py"]

#: Definitions kept though only unit tests reach them, each with its reason.
UNCALLED_ALLOWED = {
    "sample_run": "kept beside joint_outcome_dist by ROADMAP housekeeping",
}


def unused_imports(path: Path) -> list[str]:
    """Names `path` imports but never reads, except those in its `__all__`."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported = set(ast.literal_eval(node.value))
    return sorted(
        f"{name} (line {line})"
        for name, line in imported.items()
        if name not in read and name not in exported
    )


@pytest.mark.parametrize(
    "path",
    [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"],
    ids=lambda p: p.name,
)
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def test_unused_import_check_finds_one(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import csv\nimport os.path\nfrom math import pi, tau\n"
        "__all__ = ['tau']\n"
        "x: os.PathLike = pi\n"
    )
    assert unused_imports(module) == ["csv (line 2)"]


def uncalled_definitions(
    modules: list[Path], callers: list[Path], allowed: Collection[str] = ()
) -> list[str]:
    """Functions, classes and methods defined in `modules` (dunders and
    `allowed` names aside) whose name no file in `callers` reads.

    A name is read where it appears as an ast Name, an Attribute or an import
    alias.  Names are matched by spelling alone, so the check cannot see a
    definition whose name is also read for something else: `JointDist.total`
    passed it because `total` is a local variable elsewhere.
    """
    read = set()
    for path in callers:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name.split(".")[-1])
    definitions = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return sorted(
        f"{path.stem}.{node.name} (line {node.lineno})"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, definitions)
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in read and node.name not in allowed
    )


def test_every_definition_is_reached_outside_the_unit_tests():
    assert uncalled_definitions(MODULES, CALLERS, UNCALLED_ALLOWED) == []


def test_uncalled_definition_check_finds_one(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "class Box:\n"
        "    def __len__(self):\n        return 0\n"
        "    def opened(self):\n        return used()\n"
        "def used():\n    return 1\n"
        "def planted():\n    return 2\n"
    )
    caller = tmp_path / "caller.py"
    caller.write_text("from m import Box\nBox().opened()\n")
    assert uncalled_definitions([module], [module, caller]) == ["m.planted (line 8)"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))}
    # a RuntimeWarning fails a demo as it fails a test (pyproject's filterwarnings)
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(demo)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
