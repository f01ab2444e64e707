"""The mutant table (``tests/sim/mutants.py``) against the generated-fault
machine.

Tier-1 checks that every row still applies to the current source and
runs the cheapest killed row.  The whole table runs the machine once
per row (about a minute): set ``REPRO_MUTANTS=1`` to run it, e.g.
``REPRO_MUTANTS=1 PYTHONPATH=src python -m pytest tests/sim/test_mutants.py``.
"""

from __future__ import annotations

import os
import traceback

import pytest
from hypothesis import Phase, settings
from hypothesis.stateful import run_state_machine_as_test

from mutants import KILLED, MUTANTS, SURVIVES, applied, mutated
from repro.errors import SimulationError
from test_generated_faults import ShardedFaultsMachine

#: The machine's own settings, minus shrinking: a verdict is decided by
#: the first failing example.
SETTINGS = settings(ShardedFaultsMachine.TestCase.settings,
                    phases=[Phase.explicit, Phase.generate])

ROWS = {row.label: row for row in MUTANTS}


def verdict_of(row) -> tuple[str, str]:
    """Run the machine with *row* applied: ``(killed, function that
    raised)`` if an invariant or the kernel rejects a run, ``(survives,
    "")`` if every example passes.  Any other exception is a broken row
    and propagates."""
    with applied(row):
        try:
            run_state_machine_as_test(ShardedFaultsMachine,
                                      settings=SETTINGS)
        except (AssertionError, SimulationError) as error:
            return KILLED, traceback.extract_tb(error.__traceback__)[-1].name
    return SURVIVES, ""


def assert_expected_verdict(row) -> None:
    verdict, where = verdict_of(row)
    assert verdict == row.verdict
    if verdict == KILLED:
        assert where in row.by, f"killed in {where}, not in {row.by}"


class TestMutantTable:
    def test_labels_are_unique(self):
        assert len(ROWS) == len(MUTANTS)

    @pytest.mark.parametrize(
        "row", [row for row in MUTANTS if row.module is not None],
        ids=lambda row: row.label)
    def test_every_row_applies_to_the_current_source(self, row):
        """The old snippet occurs exactly once and the edit compiles."""
        assert callable(mutated(row))

    def test_cheapest_killed_row_is_killed(self):
        row = ROWS["the build spawns no directory servers"]
        assert row.verdict == KILLED
        assert_expected_verdict(row)


@pytest.mark.skipif(os.environ.get("REPRO_MUTANTS") != "1",
                    reason="the full mutant table is opt-in: REPRO_MUTANTS=1")
@pytest.mark.parametrize("row", MUTANTS, ids=lambda row: row.label)
def test_mutant_gets_its_expected_verdict(row):
    assert_expected_verdict(row)
