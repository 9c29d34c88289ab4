"""The mutant table of `tests/mutants.py` still applies: each old text occurs
exactly once in its file, and each test named to kill it, in tier-1 or in
the cap tier, still exists.  The mutants themselves run outside tier-1, with
`python tests/mutants.py`."""

import re

from mutants import MUTANTS, ROOT


def test_each_mutant_applies_to_exactly_one_place():
    assert MUTANTS
    for mutant in MUTANTS:
        assert mutant.file.startswith("src/"), mutant
        assert (ROOT / mutant.file).read_text().count(mutant.old) == 1, mutant
        assert mutant.new != mutant.old and mutant.tests, mutant
        for test in mutant.tests:
            path, name = test.split("::")
            assert path.startswith(("tests/", "cap/")), test
            assert re.search(rf"^def {re.escape(name)}\(", (ROOT / path).read_text(), re.M), test
