"""Source hygiene: every import in the package is read, every definition is
reached from outside the tests, every demo runs, and every entry of the
mutant table `tests/mutants.py` and of the line tracer's allowlist
`tests/lines.py` still applies."""

import ast
import importlib.util
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
    """Functions, classes, methods, and names assigned or annotated at module
    level or in a class body (dataclass and NamedTuple fields, class
    attributes), defined in `modules` (dunders and `allowed` names aside),
    whose name no file in `callers` reads.

    A name is read where it appears as an ast Name that is loaded, an
    Attribute or an import alias.  A class-body field is read only where it
    is a loaded Attribute whose receiver is not the Name `args`, the CLI's
    parsed options: a local variable or an option that shares its spelling
    does not read it.  Names are still matched by spelling alone, so the
    check cannot see a definition whose name is also read for something else.
    """
    read, field_read = set(), set()
    for path in callers:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
                options = isinstance(node.value, ast.Name) and node.value.id == "args"
                if isinstance(node.ctx, ast.Load) and not options:
                    field_read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name.split(".")[-1])
    defined = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bodies = [(tree.body, read)]
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((path, node.name, node.lineno, read))
            if isinstance(node, ast.ClassDef):
                bodies.append((node.body, field_read))
        for body, reads in bodies:
            targets = [t for st in body if isinstance(st, ast.Assign) for t in st.targets]
            targets += [st.target for st in body if isinstance(st, ast.AnnAssign)]
            for target in targets:
                for node in ast.walk(target):
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                        defined.append((path, node.id, node.lineno, reads))
    return sorted(
        f"{path.stem}.{name} (line {line})"
        for path, name, line, reads in defined
        if not (name.startswith("__") and name.endswith("__"))
        and name not in reads and name not in allowed
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
        "LIMIT, PLANTED = 3, 4\n"
        "__version__ = '1'\n"
        "class Lid:\n"
        "    __slots__ = ()\n"
        "    size: int\n    colour: str = 'red'\n    SHUT = 0\n"
        "    samples: bool = True\n"
    )
    caller = tmp_path / "caller.py"
    # `samples` is read as an option and as a local, never as Lid's field
    caller.write_text(
        "from m import Box, LIMIT, Lid\nBox().opened()\nLid().size\n"
        "def run(args):\n    samples = args.samples\n    return samples\n"
    )
    assert uncalled_definitions([module], [module, caller]) == [
        "m.PLANTED (line 10)", "m.SHUT (line 16)", "m.colour (line 15)", "m.planted (line 8)",
        "m.samples (line 17)",
    ]


def model_name_tests(path: Path) -> list[str]:
    """Comparisons of a `.model` attribute (`args.model`) with a string
    literal, or a tuple of them, in `path`: the model table in `cli.py`
    says what each model does, so no code asks a model by its name."""

    def is_string(node: ast.AST) -> bool:
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return any(is_string(element) for element in node.elts)
        return isinstance(node, ast.Constant) and isinstance(node.value, str)

    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if any(isinstance(o, ast.Attribute) and o.attr == "model" for o in operands) and any(
                is_string(o) for o in operands
            ):
                found.append(node.lineno)
    return [f"{path.name} line {line}" for line in sorted(found)]


def test_cli_asks_no_model_by_name():
    assert model_name_tests(SRC / "cli.py") == []


def test_model_name_check_finds_them(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "def run(args, entry):\n"
        "    if args.model == 'qm':\n        return 1\n"
        "    if entry.samples and 'hall' != args.model:\n        return 2\n"
        "    if args.model in ('hall', 'pr-box'):\n        return 3\n"
        "    return args.model == args.other or args.command == 'run-chsh'\n"
    )
    assert model_name_tests(module) == ["m.py line 2", "m.py line 4", "m.py line 6"]


def name_sites(path: Path, name: str) -> list[str]:
    """Where `path` names `name`, as "<file>:<function>", or "<file>:<module>"
    outside any function.  A name, an attribute (`futures.ThreadPoolExecutor`,
    `np.errstate`) and an import each count."""
    found = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if name in (
                getattr(child, "id", None),
                getattr(child, "attr", None),
                child.name.split(".")[-1] if isinstance(child, ast.alias) else None,
            ):
                found.append(f"{path.name}:{scope}")
            visit(child, scope)

    visit(ast.parse(path.read_text(encoding="utf-8")), "<module>")
    return found


def test_only_the_cli_thread_pool_builds_threads():
    # the library takes an executor; one CLI helper builds the run's pool
    found = [site for path in sorted(SRC.glob("*.py"))
             for site in name_sites(path, "ThreadPoolExecutor")]
    assert found == ["cli.py:<module>", "cli.py:thread_pool"]


def test_thread_pool_check_finds_them(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "import concurrent.futures as cf\n"
        "from concurrent.futures import Executor, ThreadPoolExecutor as Pool\n"
        "def run(tasks, executor: Executor):\n"
        "    with cf.ThreadPoolExecutor(2) as pool:\n        return list(pool.map(len, tasks))\n"
        "class Runner:\n"
        "    def start(self):\n        return Pool()\n"
        "    pool = cf.ProcessPoolExecutor\n"
    )
    assert name_sites(module, "ThreadPoolExecutor") == ["m.py:<module>", "m.py:run"]


#: The functions that silence floating-point warnings with `np.errstate`,
#: each with the reason its silenced operations are meant.
ERRSTATE_ALLOWED = {
    "schulman.py:endpoint_targets": "a winding's squared rotation in units of the"
    " nearest overflows to inf, whose weight is then exactly 0",
    "schulman.py:dominant_kick_stats": "a zero net rotation divides to inf and"
    " counts as dominant",
    "schulman.py:net_dominance_given_rotation": "the arctan ratios reach +-inf, whose"
    " arctan is exact, at delta = 0 or a tiny b",
}


def test_every_silenced_warning_has_a_stated_reason():
    # a 0/0 or an overflow under errstate is silent; each one here is meant
    found = [site for path in sorted(SRC.glob("*.py")) for site in name_sites(path, "errstate")]
    assert sorted(set(found)) == sorted(ERRSTATE_ALLOWED)
    assert all(ERRSTATE_ALLOWED.values())


def test_errstate_check_finds_them(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "import numpy, numpy as np\n"
        "from numpy import errstate as quiet\n"
        "def ratio(x, y):\n"
        "    with np.errstate(divide='ignore'):\n        return x / y\n"
        "class Scaled:\n"
        "    def scale(self, x):\n"
        "        with np.seterr(over='ignore'):\n            return x * x\n"
        "    def ratio(self, x, y):\n        def inner():\n"
        "            with numpy.errstate(invalid='ignore'):\n                return x / y\n"
        "        return inner()\n"
    )
    assert name_sites(module, "errstate") == ["m.py:<module>", "m.py:ratio", "m.py:inner"]


#: The functions in models.py that draw uniforms, each with what it draws.
#: Every report rests on the order of these draws.
UNIFORM_DRAWS_ALLOWED = {
    "models.py:piece_index": "one uniform per run picks its atom or segment by mass,"
    " unless there is one",
    "models.py:sample": "one uniform per run places its lambda within its segment",
    "models.py:sample_outcomes": "A's uniforms, then B's, unless the outcome rule is"
    " boolean: the outcome draw of sampled runs",
    "models.py:count_disagreements": "a correlator shard reads the uniforms `sample_runs`"
    " draws at their addresses in the stream (`RngStream.generator_at`), chunk by chunk:"
    " piece uniforms, positions where outcomes are drawn per lambda, then A's and B's"
    " unless the rule is boolean",
    "models.py:sample_runs": "the PR box's fair coin for A",
}


def test_every_uniform_draw_in_the_models_has_a_stated_reason():
    found = name_sites(SRC / "models.py", "random")
    assert sorted(set(found)) == sorted(UNIFORM_DRAWS_ALLOWED)
    assert all(UNIFORM_DRAWS_ALLOWED.values())


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


def test_every_mutant_names_its_text_and_tests(monkeypatch):
    # tests/mutants.py: each entry's old text occurs once in its file, and
    # each entry names the tests that kill it, all collected, or is equivalent
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tests" / "mutants.py")
    mutants = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "mutants", mutants)  # dataclasses look it up
    spec.loader.exec_module(mutants)
    for m in mutants.MUTANTS:
        assert (ROOT / m.path).read_text(encoding="utf-8").count(m.old) == 1, (m.path, m.old)
        assert m.old != m.new
        assert bool(m.killed_by) != bool(m.equivalent), (m.path, m.new)
    ids = sorted({t for m in mutants.MUTANTS for t in m.killed_by})
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider", *ids],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert set(ids) <= set(proc.stdout.splitlines())


def test_every_allowed_unrun_statement_names_one_statement():
    # tests/lines.py: each allowlist entry is the text of exactly one statement
    spec = importlib.util.spec_from_file_location("lines", ROOT / "tests" / "lines.py")
    lines = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(lines)
    for (name, text), reason in lines.ALLOWED.items():
        assert list(lines.statements(SRC / name).values()).count(text) == 1, (name, text)
        assert reason
