"""Source hygiene: every import in the package is read, and every demo runs."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import belllab

SRC = Path(belllab.__file__).resolve().parent
DEMOS = sorted((SRC.parents[1] / "demos").glob("*.py"))


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
