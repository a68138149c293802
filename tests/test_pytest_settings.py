"""The test settings of pyproject.toml, exercised on a scratch test file."""
import subprocess
import sys
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")

ROOT = Path(__file__).resolve().parents[1]

_FAILING_THEN_PASSING = '''
from hypothesis import Phase, given, settings, strategies as st


@settings(database=None, phases=[Phase.generate])
@given(st.just(0))
def test_fails(x):
    assert x > 0


def test_runs_after_the_failure():
    pass
'''


def test_a_failing_hypothesis_test_does_not_abort_the_run(tmp_path):
    # with every DeprecationWarning an error, the plugin's read of
    # mypy_extensions.TypedDict while it reports the failure used to end the
    # run in INTERNALERROR, and the later test never ran
    path = tmp_path / "test_scratch.py"
    path.write_text(_FAILING_THEN_PASSING)
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(ROOT),
                          str(path)], capture_output=True, text=True, cwd=tmp_path)
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
    assert run.returncode == 1
