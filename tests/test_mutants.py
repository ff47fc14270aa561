"""The mutant list of tests/run_mutants.py stays applicable: each entry's old
text occurs exactly once in its file.  A change that rewrites a mutated text
updates the entry; the runner itself runs outside tier-1."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MUTANTS = json.loads((ROOT / "tests" / "mutants.json").read_text())


def test_ids_are_unique_and_entries_complete():
    assert len({m["id"] for m in MUTANTS}) == len(MUTANTS)
    for m in MUTANTS:
        assert set(m) == {"id", "file", "old", "new", "tests", "expect", "why"}, m["id"]
        assert m["expect"] in ("killed", "equivalent"), m["id"]
        assert m["old"] != m["new"], m["id"]
        assert m["tests"] and all((ROOT / t).is_file() for t in m["tests"]), m["id"]


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m["id"] for m in MUTANTS])
def test_old_text_occurs_once(mutant):
    assert (ROOT / mutant["file"]).read_text().count(mutant["old"]) == 1
