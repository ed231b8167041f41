"""The test settings and the package surface.

A failing test is reported, not fatal; the public names are exactly the
listed ones; no module imports a name it never uses.
"""

import ast
import subprocess
import sys
from pathlib import Path

import tameorders

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"
PACKAGE = ROOT / "src" / "tameorders"

PUBLIC = [
    "BudgetExceeded",
    "CycleDetected",
    "DuplicateElement",
    "Embedding",
    "FormatError",
    "GeneratorConfig",
    "InflatedPoint",
    "InternalInvariantViolation",
    "InvalidMultiplicity",
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
    "inflate",
    "is_isomorphic",
    "is_reduced",
    "is_tame",
    "minimal_rank_bruteforce",
    "order_pair_label",
    "parse_order_pair",
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


def test_no_module_imports_a_name_it_never_uses():
    found = {
        path.name: unused
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
        and (unused := unused_imports(path.read_text(encoding="utf-8")))
    }
    assert found == {}
