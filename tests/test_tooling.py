"""The test settings and the package surface.

A failing test is reported, not fatal; the public names are exactly the
listed ones, as many as README says, and so are each CLI verb's options;
the public records are read-only tuples of their fields, with the facts
derived from those fields as read-only properties; no module imports a
name it never uses, the modules import one another at their tops and in no
cycle, every public function or class is exported or used by the package,
the only exported names no module reads are the search and check API,
no function takes a ``bool`` parameter with a default, no module of the
pipeline writes JSON, every module parses at the declared Python floor,
every other Python 3.10 or later found prints a pinned CLI corpus alike,
and importing the CLI loads none of ``dataclasses``, ``inspect``,
``argparse`` and ``gettext``.  Every test runs under a time limit, and
one that overruns it fails alone.
"""

import argparse
import ast
import hashlib
import os
import re
import shutil
import signal
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

import tameorders
from tameorders import (
    Embedding,
    VerificationReport,
    all_labeled_posets,
    cli,
    embeds_r22,
    is_tame,
    pattern_s_n2,
    r_lambda,
    realize,
    reduce,
)

from conftest import TIME_LIMIT_S, assert_order, oracle_inflate, oracle_point

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
PYPROJECT = ROOT / "pyproject.toml"
PACKAGE = ROOT / "src" / "tameorders"

PUBLIC = [
    "BudgetExceeded",
    "CycleDetected",
    "DuplicateElement",
    "Embedding",
    "FormatError",
    "InternalInvariantViolation",
    "InvalidParameter",
    "NotReduced",
    "NotTame",
    "Poset",
    "PosetError",
    "RealizeResult",
    "ReductionResult",
    "SizeLimitExceeded",
    "TameReport",
    "UnknownElement",
    "VerificationReport",
    "all_labeled_posets",
    "build_poset",
    "canonical_embedding",
    "cummings_blocks",
    "d_comparable",
    "embeds_r22",
    "find_embedding",
    "format_poset",
    "is_isomorphic",
    "is_reduced",
    "is_tame",
    "parse_poset",
    "pattern_r22",
    "pattern_s_n2",
    "poset_json",
    "poset_json_text",
    "r_lambda",
    "random_poset",
    "realize",
    "reduce",
    "restrict",
    "tame_rank",
    "u_comparable",
    "verify_embedding",
    "verify_proposition",
    "verify_sampled",
]

FAILING_AND_PASSING = '''
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_fails(x):
    assert x < 5


def test_passes():
    assert True
'''


def test_failing_hypothesis_test_does_not_abort_the_session(tmp_path):
    # with every warning an error, the hypothesis plugin's report hook must
    # still get to show the falsifying example and the later tests must run
    (tmp_path / "test_sample.py").write_text(FAILING_AND_PASSING)
    run = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-p", "no:cacheprovider",
            "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_sample.py",
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
    )
    assert run.returncode == 1, run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
    assert "INTERNALERROR" not in run.stdout + run.stderr


RUNS_ON = """
import time

from hypothesis import given, settings, strategies as st

import conftest

conftest.TIME_LIMIT_S = 1


def test_runs_on():
    time.sleep(60)


@settings(database=None)
@given(st.integers())
def test_runs_on_under_hypothesis(x):
    time.sleep(60)


def test_after():
    assert True
"""


@pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="no SIGALRM")
def test_a_test_past_its_time_limit_fails_and_the_run_goes_on(tmp_path):
    # the suite's own conftest, with the limit lowered to 1 s by the module;
    # hypothesis must not take the overrun for a failing example to shrink
    (tmp_path / "conftest.py").write_text((ROOT / "tests" / "conftest.py").read_text())
    (tmp_path / "test_sample.py").write_text(RUNS_ON)
    started = time.monotonic()
    run = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-p", "no:cacheprovider",
            "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_sample.py",
        ],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
    )
    assert run.returncode == 1, run.stdout + run.stderr
    assert "2 failed, 1 passed" in run.stdout
    assert run.stdout.count("TimeLimitExceeded: test ran past its 1 s limit") == 2
    assert time.monotonic() - started < 50


@pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="no SIGALRM")
def test_every_test_runs_under_the_time_limit():
    remaining, interval = signal.getitimer(signal.ITIMER_REAL)
    assert 0 < remaining <= TIME_LIMIT_S and interval == 0


def test_public_surface_is_the_listed_names():
    names = tameorders.__all__
    assert names == sorted(names) and len(set(names)) == len(names)
    assert names == PUBLIC
    assert all(hasattr(tameorders, name) for name in names)


def test_readme_counts_the_public_names():
    stated = re.search(r"`tameorders\.__all__` \((\d+) of them", README.read_text())
    assert stated is not None, "README no longer states the public-name count"
    assert int(stated.group(1)) == len(tameorders.__all__)


EVERY_VERB = ["-h", "--help", "--json"]

# every verb's options, in declaration order; a new or moved flag edits this
VERB_OPTIONS = {
    "check": EVERY_VERB,
    "rank": EVERY_VERB,
    "embed": EVERY_VERB,
    "reduce": EVERY_VERB,
    "realize": EVERY_VERB,
    "verify": [*EVERY_VERB, "--n", "--budget", "--samples", "--seed"],
    "gen": [*EVERY_VERB, "--r-lambda", "--s-n2", "--r22", "--cummings", "--random"],
}


def test_each_verb_takes_exactly_the_listed_options():
    options = {}
    (sub,) = [
        action for action in cli._build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    for verb in cli._VERBS:
        actions = sub.choices[verb]._actions
        options[verb] = [flag for action in actions for flag in action.option_strings]
    assert options == VERB_OPTIONS


def test_every_record_is_a_read_only_tuple_of_its_fields():
    p = pattern_s_n2(2)
    # record, its fields, the attributes derived from them
    records = [
        (Embedding(p, p, {}), ("source", "target", "mapping"), ()),
        (reduce(p), ("quotient", "class_of"), ("representatives",)),
        (is_tame(p), ("witness", "tame_rank", "coordinates"), ("tame",)),
        (
            VerificationReport(3, 0, 0),
            ("n", "total", "tame_count", "counterexamples"),
            ("ok",),
        ),
        (realize(p), ("iso", "rank"), ("w", "inflated")),
    ]
    for record, fields, derived in records:
        name = type(record).__name__
        assert record._fields == fields, name
        assert tuple(record) == tuple(getattr(record, f) for f in fields), name
        for attr in fields + derived + ("extra",):
            with pytest.raises(AttributeError):
                setattr(record, attr, None)


def test_record_defaults():
    # TameReport's validating constructor is pinned in test_tame
    assert Embedding._field_defaults == {}
    assert VerificationReport(3, 0, 0).counterexamples == ()


def test_realize_inflated_is_the_template_inflated_by_class_sizes():
    # inflated shares _interval_order with w's order, so it is checked
    # against the inflation built pair by pair, sized by the labels of w
    for n in range(6):
        for p in all_labeled_posets(n):
            if embeds_r22(p) is not None:
                continue
            result = realize(p)
            sizes = Counter("%d,%d" % oracle_point(x) for x in result.w)
            assert result.inflated == oracle_inflate(r_lambda(result.rank), sizes)
            if n <= 4:
                assert_order(result.inflated)


# Modules the CLI's import adds to those the interpreter started with, so
# that whatever a site hook loads at start-up does not count.
IMPORT_ADDS = (
    "import sys; start = set(sys.modules); sys.path.insert(0, sys.argv[1]); "
    "import tameorders.cli; print(*sorted(set(sys.modules) - start))"
)


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # each CLI run is a fresh process; dataclasses and inspect alone once
    # took about half of its import time, and argparse (with gettext) is
    # loaded only for help and usage errors; pickle only when a long
    # verify sweep forks its workers
    run = subprocess.run(
        [sys.executable, "-c", IMPORT_ADDS, str(PACKAGE.parent)],
        capture_output=True, text=True, check=True,
    )
    added = set(run.stdout.split())
    assert "tameorders.cli" in added
    unwanted = {"dataclasses", "inspect", "argparse", "gettext", "pickle", "multiprocessing"}
    assert added.isdisjoint(unwanted), sorted(added & unwanted)


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_unused_import_check_flags_only_unread_names():
    source = "from collections.abc import Sequence, Iterable\nimport os.path\nx: Iterable\n"
    assert unused_imports(source) == ["Sequence", "os"]


def unnamed_definitions(sources: dict[str, str], exported: set[str]) -> list[str]:
    """Module-level functions and classes that nothing names, as module.name.

    Private names count too, dunder names do not.  A definition counts as
    named when it is exported or when some code of the package, outside the
    definition itself, reads it as a name or an attribute or imports it.
    """
    found = []
    trees = {module: ast.parse(source) for module, source in sources.items()}
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if name.startswith("__") or name in exported:
                continue
            inside = {id(inner) for inner in ast.walk(node)}
            named = any(
                id(ref) not in inside
                and name in (getattr(ref, "id", None), getattr(ref, "attr", None))
                or isinstance(ref, ast.alias) and ref.name == name
                for other in trees.values()
                for ref in ast.walk(other)
            )
            if not named:
                found.append(f"{module}.{name}")
    return found


def test_unnamed_definition_check_flags_only_unread_names():
    sources = {
        "a": "def used(): pass\ndef stray(): stray()\nclass Kept: pass\ndef _private(): pass\n"
        "def __getattr__(name): pass\n",
        "b": "from .a import used\n",
        "c": "import a\na.Kept\n",
    }
    assert unnamed_definitions(sources, set()) == ["a.stray", "a._private"]
    assert unnamed_definitions(sources, {"stray", "_private"}) == []


def test_every_public_definition_is_exported_or_used():
    # a library function no code calls and __all__ does not list, private
    # or not, is a test oracle or dead code: it belongs in conftest.py or
    # nowhere
    sources = {
        path.stem: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))
    }
    assert unnamed_definitions(sources, set(tameorders.__all__)) == []


def test_only_the_user_api_is_exported_unread():
    # a name exported and read by no library module is kept for users:
    # the search and check API; any other is a test oracle or dead code
    read = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    unread = set(tameorders.__all__) - read
    assert unread == {"find_embedding", "verify_embedding", "is_isomorphic"}


def relative_imports(tree: ast.AST) -> list[ast.ImportFrom]:
    """The package-relative ``from`` imports anywhere inside ``tree``."""
    return [n for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) and n.level]


def test_package_imports_form_no_cycle():
    # every module imports the package at its top, and the modules it
    # imports from form no cycle: poset <- embedding <- tame <- templates
    imports, nested = {}, []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imports[path.stem] = {
            name
            for node in relative_imports(tree)
            for name in ([node.module] if node.module else [a.name for a in node.names])
        }
        nested += [
            f"{path.stem}.{scope.name}"
            for scope in ast.walk(tree)
            if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and relative_imports(scope)
        ]
    assert nested == []
    # strip the modules that import no remaining module until none is left
    while leaves := [m for m, names in imports.items() if not names & imports.keys()]:
        for m in leaves:
            del imports[m]
    assert imports == {}, "on or above an import cycle: " + ", ".join(sorted(imports))


def test_every_module_parses_at_the_declared_python_floor():
    # pyproject's requires-python floor, while the suite may run on a newer
    # interpreter: feature_version rejects later syntax such as except*.
    # Syntax only; a standard-library name added after the floor still passes
    floor = re.search(r'requires-python = ">=(\d+)\.(\d+)"', PYPROJECT.read_text())
    version = (int(floor[1]), int(floor[2]))
    for path in sorted([*PACKAGE.glob("*.py"), *(ROOT / "tests").glob("*.py")]):
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=version)


# a pinned corpus whose stdout every supported interpreter must print alike
CORPUS = [
    ["verify", "--json", "--n", "4"],
    ["gen", "--json", "--r-lambda", "6"],
    ["gen", "--random", "40", "0.3", "7"],
]
PROBE = "import os, sys; print(sys.version_info >= (3, 10), os.path.realpath(sys.executable))"


def corpus_digest(python: str) -> str:
    """SHA-256 of the exit codes and stdout of CORPUS run under ``python``.

    The children import tameorders from this checkout and write no bytecode.
    """
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent), "PYTHONDONTWRITEBYTECODE": "1"}
    digest = hashlib.sha256()
    for argv in CORPUS:
        child = subprocess.run(
            [python, "-m", "tameorders", *argv],
            capture_output=True, text=True, env=env, timeout=60, check=False,
        )
        digest.update(f"{child.returncode}\n{child.stdout}".encode())
    return digest.hexdigest()[:16]


def other_interpreters() -> list[str]:
    """Every Python >= 3.10 found besides this one, each by its real path.

    The candidates are ``python3.1x`` on PATH and each interpreter under
    ``pyenv root``'s ``versions/``; a candidate that fails to start (an
    inactive pyenv shim, say), hangs or is older is skipped.
    """
    candidates = [shutil.which(f"python3.{minor}") for minor in range(10, 20)]
    if shutil.which("pyenv"):
        root = subprocess.run(
            ["pyenv", "root"], capture_output=True, text=True, timeout=30, check=False
        ).stdout.strip()
        if root:
            candidates += sorted(map(str, Path(root).glob("versions/*/bin/python3")))
    found = {os.path.realpath(sys.executable)}
    others = []
    for candidate in filter(None, candidates):
        try:
            probe = subprocess.run(
                [candidate, "-c", PROBE], capture_output=True, text=True, timeout=30,
                check=False,
            )
        except (OSError, subprocess.TimeoutExpired):
            continue
        supported, _, real = probe.stdout.strip().partition(" ")
        if probe.returncode == 0 and supported == "True" and real not in found:
            found.add(real)
            others.append(real)
    return others


def test_every_interpreter_prints_the_same_bytes():
    # the floor is 3.10 while the suite runs on one interpreter; nothing is
    # installed, so the test skips where no other one is found
    others = other_interpreters()
    if not others:
        pytest.skip("no other Python >= 3.10 found")
    expected = corpus_digest(sys.executable)
    assert {python: corpus_digest(python) for python in others} == dict.fromkeys(
        others, expected
    )


def test_the_core_writes_no_json():
    # the pipeline's modules hand records to the edges: only the CLI writes
    # a JSON document, and textfmt turns a poset's labels into ids
    found = {}
    for module in ("poset", "embedding", "tame", "templates", "enumeration", "errors"):
        tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
        nodes = list(ast.walk(tree))
        imported = {
            name
            for node in relative_imports(tree)
            for name in ([node.module] if node.module else [a.name for a in node.names])
        }
        imported |= {a.name for n in nodes if isinstance(n, ast.Import) for a in n.names}
        imported |= {
            n.module for n in nodes if isinstance(n, ast.ImportFrom) and not n.level
        }
        json_modules = {m for m in imported if m == "json" or m.startswith("json.")}
        writers = {n.name for n in nodes if isinstance(n, ast.FunctionDef)} & {"to_json"}
        if bad := (imported & {"textfmt", "cli"}) | json_modules | writers:
            found[module] = sorted(bad)
    assert found == {}


def test_no_module_imports_a_name_it_never_uses():
    found = {
        path.name: unused
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
        and (unused := unused_imports(path.read_text(encoding="utf-8")))
    }
    assert found == {}


def test_only_the_text_edges_import_re():
    # labels and strings are parsed only where text comes in: the poset
    # text format and the command line; the rest computes on coordinates
    importers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module]
            else:
                continue
            if any(m == "re" or m.startswith("re.") for m in modules):
                importers.add(path.stem)
    assert importers <= {"textfmt", "cli"}


def bool_defaults(source: str) -> list[str]:
    """Parameters annotated ``bool`` that have a default, as function(parameter)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        defaulted = positional[len(positional) - len(args.defaults):]
        keywords = zip(args.kwonlyargs, args.kw_defaults)
        defaulted += [arg for arg, default in keywords if default is not None]
        found += [
            f"{node.name}({arg.arg})"
            for arg in defaulted
            if arg.annotation and ast.unparse(arg.annotation).strip("'\"") == "bool"
        ]
    return found


def test_bool_default_check_flags_only_defaulted_bools():
    source = (
        "def f(a: bool, b: bool = True, *, c: bool = False, d: bool, e: int = 0): pass\n"
        "class C:\n    def m(self, x: 'bool' = False, y=True): pass\n"
    )
    assert bool_defaults(source) == ["f(b)", "f(c)", "m(x)"]


def test_no_function_takes_a_bool_knob():
    # a boolean keyword with a default is a second code path chosen per
    # call; each check it would switch on belongs where its result is used
    found = {
        path.name: knobs
        for path in sorted(PACKAGE.glob("*.py"))
        if (knobs := bool_defaults(path.read_text(encoding="utf-8")))
    }
    assert found == {}
