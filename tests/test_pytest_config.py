"""The repository's pytest configuration itself."""

import os
import subprocess
import sys
import textwrap

PYPROJECT = os.path.join(os.path.dirname(__file__), os.pardir, "pyproject.toml")


def test_failing_property_test_does_not_abort_the_session(tmp_path):
    """A failing ``@given`` test is reported as a failure, and the tests
    after it still run, under the repository's warning filters."""
    (tmp_path / "test_two.py").write_text(textwrap.dedent("""
        from hypothesis import given, strategies as st


        @given(st.integers())
        def test_fails(x):
            assert x < 0


        def test_passes():
            assert True
    """))
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", os.path.abspath(PYPROJECT),
         "-p", "no:cacheprovider", str(tmp_path / "test_two.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert result.returncode == 1, result.stdout + result.stderr
    assert "1 failed, 1 passed" in result.stdout
