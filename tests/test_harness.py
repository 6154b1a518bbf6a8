"""The test harness itself: a failing property test reports under the repository's pytest settings."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import hotlane

TESTS = Path(__file__).parent

TWO_TESTS = """
import hypothesis
from hypothesis import strategies as st


@hypothesis.settings(derandomize=True, database=None)
@hypothesis.given(x=st.integers())
def test_fails(x):
    assert x < 10


def test_passes():
    pass
"""


def test_failing_property_test_reports(tmp_path):
    """Under ``filterwarnings = ["error"]`` a failing ``@given`` test is reported and the next
    test still runs. Hypothesis's plugin imports ``libcst`` to suggest an ``@example`` patch,
    whose ``mypy_extensions`` import warns ``DeprecationWarning``; unless ``conftest.py`` has
    imported it already, that warning became an ``INTERNALERROR`` that ended the session."""
    shutil.copy(TESTS / "conftest.py", tmp_path)
    shutil.copy(TESTS.parent / "pyproject.toml", tmp_path)
    (tmp_path / "test_two.py").write_text(TWO_TESTS)
    path = os.pathsep.join(filter(None, [str(Path(hotlane.__file__).parents[1]), os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "test_two.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
    assert "Falsifying example: test_fails(" in run.stdout
