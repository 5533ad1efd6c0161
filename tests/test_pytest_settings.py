"""The repository's pytest settings, run on a scratch project of their own."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING_TESTS = '''
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_property_fails(x):
    assert x != x


def test_plain_fails():
    assert False
'''


def test_a_failing_property_test_does_not_end_the_session(tmp_path):
    # with every warning an error, the hypothesis plugin's report hook for a
    # failing @given test raised a DeprecationWarning that pytest turned into
    # an INTERNALERROR, and no test after it ran
    text = PYPROJECT.read_text()
    # the section runs up to the next table header, which starts a line
    section = text[text.index("[tool.pytest.ini_options]"):].split("\n[", 1)[0]
    (tmp_path / "pyproject.toml").write_text(section + "\n")
    (tmp_path / "test_failing.py").write_text(FAILING_TESTS)
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "test_failing.py"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=120)
    output = done.stdout + done.stderr
    assert "INTERNALERROR" not in output, output
    assert "2 failed" in output, output
