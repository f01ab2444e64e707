"""Calibration as data: the mutant table of the generated-fault machine.

Each row names one deliberate bug — ``(label, module, qualname, old
snippet, new snippet, expected verdict, killed by)`` — and whether
``tests/sim/test_generated_faults.py::ShardedFaultsMachine`` must catch
it, and in which function the failure is raised (a mutant "killed" by
an unrelated error is a broken row, not a calibration).
:func:`applied` swaps a mutant in for the duration of a ``with`` block:

1. the old snippet must occur exactly once in the source of
   ``module.qualname``, so a row fails loudly when the code drifts;
2. the edited source is exec'd against the original's own globals and
   the result is set on ``module`` (or on the class *qualname* names),
   where the code under test looks the name up;
3. the original is restored on exit.

A row whose verdict is :data:`SURVIVES` is a bug the machine cannot see
yet.  Its verdict changes only when the machine learns to kill it,
never to make a run pass.
"""

from __future__ import annotations

import __future__
import importlib
import inspect
import textwrap
from contextlib import contextmanager
from typing import NamedTuple, Optional

KILLED = "killed"
SURVIVES = "survives"


class Mutant(NamedTuple):
    label: str
    module: Optional[str]  # None: the baseline, no edit
    qualname: str
    old: str
    new: str
    verdict: str
    by: tuple = ()  # a killed row: the functions its failure may come from


MUTANTS = (
    Mutant("baseline", None, "", "", "", SURVIVES),
    Mutant("the build spawns no directory servers",
           "repro.nameservice.resolver", "DistributedResolver.__init__",
           "        for machine in placement.placed_machines():\n"
           "            self.server_for(machine)\n", "", KILLED, ("spawn",)),
    Mutant("target_on without the stale skip",
           "repro.nameservice.resolver", "DistributedResolver.target_on",
           "if self._placement.is_stale(directory, machine):\n"
           "            return STALE\n", "", KILLED,
           ("resolve", "resolve_many")),
    Mutant("a sync that never clears its mark",
           "repro.nameservice.resolver", "sync_effects",
           "if placement.clear_stale(uid, machine):",
           "if False:", KILLED, ("_check_synced",)),
    Mutant("migration commits first",
           "repro.nameservice.resolver", "migrate_effects",
           "    batches = max(1, -(-len(plan.moved) // host.migration_batch))\n"
           "    for _index in range(batches):\n"
           "        if not (yield Leg(\"migrate\", plan.shard.machine, "
           "plan.machine)):\n"
           "            return False\n"
           "    host.placement.apply_split(plan)\n",
           "    host.placement.apply_split(plan)\n"
           "    batches = max(1, -(-len(plan.moved) // host.migration_batch))\n"
           "    for _index in range(batches):\n"
           "        if not (yield Leg(\"migrate\", plan.shard.machine, "
           "plan.machine)):\n"
           "            return False\n", SURVIVES),
    Mutant("a sync cleared after a lost leg",
           "repro.nameservice.resolver", "sync_effects",
           "continue  # unreachable source — stays stale",
           "pass", SURVIVES),
    Mutant("_deliver without the machine-down drop",
           "repro.sim.kernel", "Simulator._deliver",
           "if not receiver.machine.alive:\n"
           "            message.dropped = True\n"
           "            message.drop_reason = \"receiver machine down\"\n"
           "        elif self._partitions",
           "if self._partitions", SURVIVES),
    Mutant("a write that never marks a missed replica stale",
           "repro.nameservice.resolver", "write_effects",
           "        else:\n"
           "            placement.mark_stale(directory, machine)\n"
           "            report.stale_marked += 1\n",
           "        else:\n"
           "            report.stale_marked += 1\n", SURVIVES),
    # The message-conservation invariant against the one counting
    # site: each op's messages reach the counter _LEG_OPS names for it.
    Mutant("a sync's message is added to no counter",
           "repro.nameservice.resolver", "DistributedResolver._drive",
           "                    setattr(self, counter,\n",
           "                    if effect.op != \"sync\": setattr(self, counter,\n",
           KILLED, ("every_message_is_counted_once",)),
    Mutant("a replicate send is added to no counter",
           "repro.nameservice.resolver", "DistributedResolver._drive",
           "                    setattr(self, counter,\n",
           "                    if effect.op != \"replicate\": "
           "setattr(self, counter,\n",
           KILLED, ("every_message_is_counted_once",)),
    Mutant("a migrate batch is added to no counter",
           "repro.nameservice.resolver", "DistributedResolver._drive",
           "                    setattr(self, counter,\n",
           "                    if effect.op != \"migrate\": "
           "setattr(self, counter,\n",
           KILLED, ("every_message_is_counted_once",)),
    Mutant("a break's ack is counted on a scratch cost",
           "repro.nameservice.resolver", "DistributedResolver._break",
           "                             span, cost)\n"
           "            if not ack.dropped:",
           "                             span, ResolutionCost())\n"
           "            if not ack.dropped:",
           KILLED, ("every_message_is_counted_once",)),
)


def _owner_and_name(row: Mutant):
    owner = importlib.import_module(row.module)
    *path, name = row.qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


def mutated(row: Mutant):
    """The mutant object *row* describes, built from the current source
    (raises AssertionError when the old snippet is not there exactly
    once)."""
    owner, name = _owner_and_name(row)
    original = inspect.getattr_static(owner, name)
    function = getattr(original, "__func__", original)
    source = inspect.getsource(function)
    count = source.count(row.old)
    assert count == 1, (
        f"{row.label}: old snippet occurs {count} times in {row.qualname}")
    code = compile(textwrap.dedent(source.replace(row.old, row.new)),
                   inspect.getsourcefile(function), "exec",
                   flags=__future__.annotations.compiler_flag,
                   dont_inherit=True)
    namespace: dict = {}
    exec(code, function.__globals__, namespace)
    return namespace[name]


@contextmanager
def applied(row: Mutant):
    """Swap *row*'s mutant in for the ``with`` block (the baseline
    swaps nothing)."""
    if row.module is None:
        yield
        return
    owner, name = _owner_and_name(row)
    original = inspect.getattr_static(owner, name)
    setattr(owner, name, mutated(row))
    try:
        yield
    finally:
        setattr(owner, name, original)
