"""The test settings and the package surface.

A failing test is reported, not fatal; the public names are exactly the
listed ones, as many as README says, and so are each CLI verb's options;
the public records are read-only tuples of their fields, with the facts
derived from those fields as read-only properties; no module imports a
name it never uses, the modules import one another at their tops and in no
cycle, every public function or class is exported or used by the package,
and importing the CLI loads none of ``dataclasses``, ``inspect``,
``argparse`` and ``gettext``.
"""

import argparse
import ast
import re
import subprocess
import sys
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

from conftest import assert_order, oracle_inflate, oracle_point

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
    "check_claim_inequalities",
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
