"""Run the source mutants listed in tests/mutants.json against their tests.

Each mutant replaces one exact text of one source file.  For each mutant, in
list order, the runner copies what the tests read (src/, tests/, fixtures/,
perfbench/, pyproject.toml and README.md) into a temporary directory, applies
the mutant there and runs the listed test modules with ``pytest -x -q``.  A
failing run kills the mutant; a passing run means it survived.  Each entry
expects ``killed``, or ``equivalent`` for a mutant that changes no result and
must survive.  A first run of every listed module on an unmutated copy must
pass, so a kill cannot come from an incomplete copy.  One line is printed per
run; the exit status is 1 if any outcome differs from its expectation.

    python tests/run_mutants.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MUTANTS = ROOT / "tests" / "mutants.json"
COPIED = ("src", "tests", "fixtures", "perfbench", "pyproject.toml", "README.md")
OUTCOME = {0: "equivalent", 1: "killed"}  # pytest's exit status: passed, tests failed


def run(mutant: dict) -> str:
    """The outcome of the mutant's tests on a mutated copy: killed, equivalent
    (survived), or what went wrong.  A mutant without a file leaves the copy as is."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        work = Path(tmp)
        for name in COPIED:  # without bytecode, which could outlive a same-size mutant
            if (ROOT / name).is_dir():
                shutil.copytree(ROOT / name, work / name, ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy(ROOT / name, work / name)
        if mutant["file"] is not None:
            target = work / mutant["file"]
            text = target.read_text()
            if text.count(mutant["old"]) != 1:
                return f"old text found {text.count(mutant['old'])} times"
            target.write_text(text.replace(mutant["old"], mutant["new"]))
        env = {**os.environ, "PYTHONPATH": str(work / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        done = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                               *mutant["tests"]], cwd=work, env=env, capture_output=True)
        return OUTCOME.get(done.returncode, f"pytest exit status {done.returncode}")


def main() -> int:
    mutants = json.loads(MUTANTS.read_text())
    modules = sorted({t for m in mutants for t in m["tests"]})
    control = {"id": "unmutated", "file": None, "tests": modules, "expect": "equivalent"}
    unexpected = 0
    for mutant in [control, *mutants]:
        start = time.perf_counter()
        outcome = run(mutant)
        ok = outcome == mutant["expect"]
        unexpected += not ok
        print(f"{'ok' if ok else 'UNEXPECTED':10} {outcome:10} {time.perf_counter() - start:5.1f} s  "
              f"{mutant['id']} (expected {mutant['expect']})", flush=True)
        if mutant is control and not ok:
            print("the unmutated copy fails its tests, so no mutant can be judged")
            return 1
    print(f"{unexpected} unexpected outcomes")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
