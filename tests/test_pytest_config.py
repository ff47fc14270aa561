import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_failing_property_test_leaves_the_run_going(tmp_path):
    # under the project's warning filters, a falsified @given test must fail
    # on its own: the tests after it still run, and pytest exits 1, not 3
    (tmp_path / "test_falsified.py").write_text(
        "from hypothesis import given, strategies as st\n\n"
        "@given(st.integers())\n"
        "def test_falsified(n):\n"
        "    assert n < 5\n\n"
        "def test_after():\n"
        "    pass\n")
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_falsified.py"],
                         cwd=tmp_path, capture_output=True, text=True)
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert run.returncode == 1, run.stdout
    assert "1 failed, 1 passed" in run.stdout
