"""Every killed row of the mutant table is killed by its check."""

import re

from mutants import MUTANTS, SRC, outcomes


def test_each_row_applies_once_and_each_killed_row_is_killed():
    """A row whose old text no longer occurs exactly once fails here, so a
    refactor that moves it must move the row; then each ``killed`` row is
    run on its own copy of ``src``."""
    for mutant in MUTANTS:
        assert (SRC / "degenlab" / mutant.file).read_text(encoding="utf-8").count(mutant.old) == 1
        assert re.fullmatch(r"killed|survives until item \d+", mutant.status), mutant.name
    assert len({mutant.name for mutant in MUTANTS}) == len(MUTANTS)
    killed = [mutant for mutant in MUTANTS if mutant.status == "killed"]
    survived = [m.name for m, outcome in zip(killed, outcomes(killed)) if not outcome.killed]
    assert survived == []
