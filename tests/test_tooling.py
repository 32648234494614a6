"""The test configuration itself: pyproject.toml turns every warning into an
error, and a failing test must still be reported as one failure, with every
other test run, not abort the session."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PROBE = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 0


def test_passes():
    pass
'''


def _pytest(tmp_path, source):
    # the repository's config, run in tmp_path, where Hypothesis keeps its
    # database and writes the patch file of a failing example
    (tmp_path / "test_probe.py").write_text(source)
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )


def test_failing_property_test_is_one_failure(tmp_path):
    # writing the patch file imports libcst, whose DeprecationWarning the
    # "error" filter would raise inside pytest's report hook (INTERNALERROR,
    # exit 3, later tests unrun)
    out = _pytest(tmp_path, PROBE)
    assert out.returncode == 1, out.stdout + out.stderr
    assert "1 failed, 1 passed" in out.stdout
    assert "INTERNALERROR" not in out.stdout + out.stderr


def test_deprecation_warning_of_our_code_still_fails(tmp_path):
    out = _pytest(tmp_path, PROBE + '''

def test_warns():
    import warnings

    warnings.warn("deprecated here", DeprecationWarning)
''')
    assert out.returncode == 1, out.stdout + out.stderr
    assert "FAILED test_probe.py::test_warns" in out.stdout
    assert "2 failed, 1 passed" in out.stdout
