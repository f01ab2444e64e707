"""The auditor's history lookups against their linear definitions.

``_value_at`` and ``measure`` bisect the commit-ordered write times;
the definitions they must agree with are the plain scans kept here as
the reference: the value of a binding at *t* is the ``new`` of the last
write at or before *t* (``strict``: before), and measured staleness is
``now - sup{t ≤ now : resolve_as_of(t, strict) = entity}`` over the
write instants.  Random histories include ties (several writes at one
instant), queries exactly on a write time, before the first and after
the last write.  The ``sim-lease-churn`` verify pass and A9 lean on
both.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model.context import Context
from repro.model.entities import UNDEFINED_ENTITY
from repro.model.names import CompoundName, ROOT_NAME
from repro.model.state import GlobalState
from repro.namespaces.base import ProcessContext
from repro.namespaces.tree import NamingTree
from repro.obs import CoherenceAuditor, Instrumentation
from repro.obs.audit import _NO_HISTORY

NAME = "/svc/app/cfg"


def linear_value_at(auditor, directory_uid, component, at, strict):
    writes = auditor._writes.get((directory_uid, component))
    if directory_uid is None or not writes:
        return _NO_HISTORY
    value = _NO_HISTORY
    for write in writes:
        if (write.time < at) if strict else (write.time <= at):
            value = write.new
        else:
            break
    return writes[0].old if value is _NO_HISTORY else value


def linear_resolve_as_of(auditor, context, name_, at, strict=False):
    name_ = CompoundName.coerce(name_)
    current, current_uid = context, None
    if name_.rooted:
        root = context(ROOT_NAME)
        if len(name_) == 0:
            return root
        if not root.is_defined() or not isinstance(root.state, Context):
            return UNDEFINED_ENTITY
        current, current_uid = root.state, root.uid
    elif len(name_) == 0:
        return UNDEFINED_ENTITY
    parts = name_.parts
    for index, component in enumerate(parts):
        entity = linear_value_at(auditor, current_uid, component, at,
                                 strict)
        if entity is _NO_HISTORY:
            entity = current(component)
        if index == len(parts) - 1:
            return entity
        if not entity.is_defined() \
                or not isinstance(entity.state, Context):
            return UNDEFINED_ENTITY
        current, current_uid = entity.state, entity.uid
    return UNDEFINED_ENTITY


def linear_measure(auditor, context, name_, entity, now):
    same = auditor._same
    if same(linear_resolve_as_of(auditor, context, name_, now), entity):
        return 0.0
    boundaries = [t for t in auditor._write_times if t <= now]
    for time in reversed(boundaries):
        if same(linear_resolve_as_of(auditor, context, name_, time,
                                     strict=True), entity):
            return now - time
    return (now - boundaries[0]) if boundaries else 0.0


def _world():
    """``/svc/app/cfg`` with three directories ``/svc/app`` can point
    at and, in each, three leaves its ``cfg`` can point at."""
    tree = NamingTree("root", sigma=GlobalState(), parent_links=True)
    svc = tree.mkdir("svc")
    tree.mkdir("svc/app")
    tree.mkfile("svc/app/cfg")
    directories = [tree.directory("svc/app")]
    for index in range(2):
        tree.mkdir(f"spare{index}")
        tree.mkfile(f"spare{index}/cfg")
        directories.append(tree.directory(f"spare{index}"))
    leaves = [directory.state("cfg") for directory in directories]
    leaves += [tree.mkfile(f"loose{index}") for index in range(2)]
    return ProcessContext(tree.root), svc, directories, leaves


#: One write: (time step ≥ 0 — 0 makes a tie, which binding, to what,
#: whether live σ follows — False is a history that disagrees with σ).
WRITES = st.lists(
    st.tuples(st.sampled_from([0.0, 0.0, 0.5, 1.0, 3.0]),
              st.integers(0, 3), st.integers(0, 4),
              st.sampled_from([True, True, True, False])),
    max_size=12)
#: Query instants: on, between, before and after the write times.
INSTANTS = st.lists(
    st.one_of(st.integers(-1, 40).map(lambda n: n / 2),
              st.floats(-1.0, 40.0)),
    min_size=1, max_size=6)


def _replay(history):
    """Apply *history* the way the write discipline does: mutate live
    σ (unless the write is flagged not to), then record (old, new,
    time) — times never decrease."""
    context, svc, directories, leaves = _world()
    auditor = CoherenceAuditor()
    now = 1.0
    for step, target, choice, applied in history:
        now += step
        if target == 0:
            directory, component = svc, "app"
            new = directories[choice % len(directories)]
        else:
            directory, component = directories[target - 1], "cfg"
            new = leaves[choice]
        old = directory.state(component)
        if applied:
            directory.state.bind(component, new)
        auditor.record_write(directory, component, old, new, now, 0)
    bindings = [(svc, "app")] + [(d, "cfg") for d in directories]
    return auditor, context, bindings, leaves


class TestBisectedHistoryMatchesTheLinearScan:
    @settings(max_examples=150, deadline=None)
    @given(WRITES, INSTANTS)
    def test_value_at(self, history, instants):
        auditor, _context, bindings, _leaves = _replay(history)
        for directory, component in bindings:
            for at in instants:
                for strict in (False, True):
                    assert auditor._value_at(
                        directory.uid, component, at, strict) \
                        is linear_value_at(auditor, directory.uid,
                                           component, at, strict)
        assert auditor._value_at(None, "cfg", 1.0, False) is _NO_HISTORY

    @settings(max_examples=150, deadline=None)
    @given(WRITES, INSTANTS)
    def test_resolve_as_of_and_measure(self, history, instants):
        auditor, context, _bindings, leaves = _replay(history)
        for at in instants:
            for strict in (False, True):
                assert auditor.resolve_as_of(context, NAME, at,
                                             strict=strict) \
                    is linear_resolve_as_of(auditor, context, NAME, at,
                                            strict)
            for entity in leaves + [UNDEFINED_ENTITY]:
                assert auditor.measure(context, NAME, entity, at) \
                    == linear_measure(auditor, context, NAME, entity, at)


class _RecordingPlacement:
    """Stands in for a placement: remembers what was routed."""

    def __init__(self):
        self.asked = []

    def shard_of_binding(self, directory, component):
        self.asked.append((directory, component))
        return None


class TestOneWalkLabelsTheLiveParent:
    @settings(max_examples=150, deadline=None)
    @given(WRITES, INSTANTS)
    def test_shard_is_routed_by_the_live_parent(self, history, instants):
        # The read path walks once; the directory it labels the sample
        # with must still be the one a separate live-σ walk finds,
        # even where the audited history and σ disagree.
        auditor, context, _bindings, leaves = _replay(history)
        Instrumentation(auditor=auditor)    # metrics on: every read labels
        expected = auditor._live_parent(context, CompoundName.parse(NAME))
        for at in instants:
            placement = _RecordingPlacement()
            auditor.observe_resolution(context, NAME, leaves[0], now=at,
                                       policy="none", weak=True,
                                       placement=placement)
            if expected[0] is None:
                assert placement.asked == []
            else:
                assert len(placement.asked) == 1
                assert placement.asked[0][0] is expected[0]
                assert placement.asked[0][1] == expected[1]
