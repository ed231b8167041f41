"""The test settings themselves: a failing test is reported, not fatal."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

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
