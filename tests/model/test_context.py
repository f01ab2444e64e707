"""Tests for contexts — functions from names to entities (section 2)."""

from __future__ import annotations

import pytest

from repro.embedded.scoping import UpwardScopeContext
from repro.errors import BindingError
from repro.model.context import Context, context_object
from repro.model.entities import Activity, ObjectEntity, UNDEFINED_ENTITY
from repro.model.names import ROOT_NAME
from repro.nameservice.cache import context_dep
from repro.namespaces.base import ProcessContext
from repro.namespaces.union import UnionContext
from repro.transport.wire import RemoteContext


@pytest.fixture
def entities():
    return ObjectEntity("x"), ObjectEntity("y"), Activity("p")


class TestTotality:
    def test_unbound_name_maps_to_undefined(self):
        assert Context()("anything") is UNDEFINED_ENTITY

    def test_bound_name_maps_to_entity(self, entities):
        x, _, _ = entities
        context = Context({"x": x})
        assert context("x") is x

    def test_resolve_atomic_alias(self, entities):
        x, _, _ = entities
        context = Context({"x": x})
        assert context.resolve_atomic("x") is x

    def test_binding_to_undefined_unbinds(self, entities):
        x, _, _ = entities
        context = Context({"x": x})
        context.bind("x", UNDEFINED_ENTITY)
        assert not context.binds("x")

    def test_activities_can_be_bound(self, entities):
        _, _, p = entities
        context = Context({"server": p})
        assert context("server") is p


class TestBindingManagement:
    def test_bind_validates_name(self, entities):
        x, _, _ = entities
        with pytest.raises(Exception):
            Context().bind("a/b", x)

    def test_bind_rejects_non_entity(self):
        with pytest.raises(BindingError):
            Context().bind("x", "not an entity")  # type: ignore[arg-type]

    def test_root_name_may_be_bound(self):
        root = context_object("root")
        context = Context()
        context.bind(ROOT_NAME, root)
        assert context(ROOT_NAME) is root

    def test_rebind_replaces(self, entities):
        x, y, _ = entities
        context = Context({"n": x})
        context.bind("n", y)
        assert context("n") is y

    def test_unbind_is_idempotent(self, entities):
        x, _, _ = entities
        context = Context({"n": x})
        context.unbind("n")
        context.unbind("n")
        assert context("n") is UNDEFINED_ENTITY

    def test_update_merges(self, entities):
        x, y, _ = entities
        first = Context({"a": x})
        second = Context({"b": y})
        first.update(second)
        assert first("a") is x and first("b") is y

    def test_clear(self, entities):
        x, _, _ = entities
        context = Context({"a": x})
        context.clear()
        assert len(context) == 0


class TestViews:
    def test_names_sorted(self, entities):
        x, y, _ = entities
        context = Context({"zeta": x, "alpha": y})
        assert context.names() == ["alpha", "zeta"]

    def test_entities_deduplicated(self, entities):
        x, _, _ = entities
        context = Context({"a": x, "b": x})
        assert context.entities() == [x]

    def test_iteration_and_membership(self, entities):
        x, _, _ = entities
        context = Context({"a": x})
        assert list(context) == ["a"]
        assert "a" in context
        assert "b" not in context

    def test_copy_is_independent(self, entities):
        x, y, _ = entities
        original = Context({"a": x})
        clone = original.copy()
        clone.bind("b", y)
        assert not original.binds("b")
        assert clone("a") is x


class TestExtensionalIdentity:
    def test_equal_bindings_equal_contexts(self, entities):
        x, _, _ = entities
        assert Context({"a": x}) == Context({"a": x})

    def test_different_entity_same_name_not_equal(self, entities):
        x, y, _ = entities
        assert Context({"a": x}) != Context({"a": y})

    def test_different_support_not_equal(self, entities):
        x, _, _ = entities
        assert Context({"a": x}) != Context({"a": x, "b": x})

    def test_not_hashable(self):
        with pytest.raises(TypeError):
            hash(Context())

    def test_frozen_bindings_fingerprint(self, entities):
        x, _, _ = entities
        first, second = Context({"a": x}), Context({"a": x})
        assert first.frozen_bindings() == second.frozen_bindings()

    def test_eq_other_type(self):
        assert Context().__eq__(3) is NotImplemented


class TestAgreement:
    def test_agreement_on_shared_bindings(self, entities):
        x, y, _ = entities
        first = Context({"a": x, "b": x})
        second = Context({"a": x, "b": y})
        assert first.agreement(second) == {"a"}

    def test_disagreement(self, entities):
        x, y, _ = entities
        first = Context({"a": x, "b": x})
        second = Context({"a": x, "c": y})
        assert first.disagreement(second) == {"b", "c"}

    def test_identical_contexts_have_no_disagreement(self, entities):
        x, _, _ = entities
        context = Context({"a": x})
        assert context.disagreement(context.copy()) == set()


class TestContextObjectHelper:
    def test_creates_directory(self):
        directory = context_object("etc")
        assert directory.is_context_object()
        assert isinstance(directory.state, Context)

    def test_initial_bindings(self):
        leaf = ObjectEntity("passwd")
        directory = context_object("etc", {"passwd": leaf})
        assert directory.state("passwd") is leaf

    def test_repr_shows_bindings(self):
        leaf = ObjectEntity("passwd")
        directory = context_object("etc", {"passwd": leaf})
        assert "passwd" in repr(directory.state)


#: One factory per context class: every subclass must mint a uid.
CONTEXT_CLASSES = {
    "Context": Context,
    "ProcessContext": lambda: ProcessContext(context_object("dir")),
    "UnionContext": lambda: UnionContext([context_object("dir")]),
    "UpwardScopeContext": lambda: UpwardScopeContext(context_object("dir")),
    "RemoteContext": RemoteContext,
}


class TestUid:
    """A context's ``uid`` is creation-ordered like ``Entity.uid`` —
    the stable stand-in for ``id()`` in keys that are printed or that
    outlive the instance (`repro.nameservice.cache.context_dep`)."""

    @pytest.mark.parametrize("make", CONTEXT_CLASSES.values(),
                             ids=CONTEXT_CLASSES)
    def test_every_context_class_mints_increasing_uids(self, make):
        first, second = make(), make()
        assert isinstance(first.uid, int)
        assert second.uid > first.uid

    def test_equal_contexts_and_copies_keep_distinct_uids(self, entities):
        x, _, _ = entities
        a, b = Context({"x": x}), Context({"x": x})
        assert a == b and a.uid != b.uid
        assert a.copy().uid not in (a.uid, b.uid)

    def test_context_dep_is_keyed_on_uid_not_address(self):
        context = Context()
        assert context_dep(context, "home") == ("c", context.uid, "home")
