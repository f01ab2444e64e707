"""Contexts: functions from names to entities (section 2).

A *context* is a function ``c : N → E`` that maps names to entities; the
set of contexts is ``C = [N → E]``.  A name ``n`` is *bound* to entity
``e`` in context ``c`` when ``c(n) = e``.

:class:`Context` represents such a function extensionally, as a finite
set of bindings; every unbound name maps to the undefined entity ``⊥E``,
so the function is total as required.  A context is a legal *object
state* (``C ⊆ S_O``): storing a :class:`Context` as the state of an
:class:`~repro.model.entities.ObjectEntity` makes that object a
*context object* — the model's directory.

Contexts compare by *extension* (their binding sets), not identity.
That is exactly the comparison coherence is defined with: activities
``a1, a2`` are coherent for ``n`` when ``R(a1)(n) = R(a2)(n)`` — the
same entity, whichever context function produced it.  Two distinct
:class:`Context` instances with equal bindings resolve every name
identically and therefore *are* the same context function.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator, Mapping
from typing import Optional

from repro.errors import BindingError
from repro.model.entities import Entity, ObjectEntity, UNDEFINED_ENTITY
from repro.model.names import ROOT_NAME, check_atomic_name

__all__ = ["Context", "context_object"]


class Context:
    """A finite-support total function from atomic names to entities.

    >>> from repro.model.entities import ObjectEntity
    >>> c = Context()
    >>> f = ObjectEntity("motd")
    >>> c.bind("motd", f)
    >>> c("motd") is f
    True
    >>> c("absent")
    UNDEFINED_ENTITY
    """

    _counter = itertools.count(1)

    __slots__ = ("uid", "_bindings", "label")

    def __init__(self, bindings: Optional[Mapping[str, Entity]] = None,
                 label: str = ""):
        #: Creation-ordered, as ``Entity.uid``: the identity for keys
        #: that are printed or outlive the instance, where ``id()``
        #: differs from run to run and is reused after collection.
        self.uid: int = next(Context._counter)
        self._bindings: dict[str, Entity] = {}
        self.label = label
        if bindings:
            for name_, entity in bindings.items():
                self.bind(name_, entity)

    # -- the function ------------------------------------------------

    def __call__(self, name_: str) -> Entity:
        """Return ``c(name)`` — the bound entity, or ``⊥E`` if unbound."""
        return self._bindings.get(name_, UNDEFINED_ENTITY)

    def resolve_atomic(self, name_: str) -> Entity:
        """Alias of :meth:`__call__`, for call sites that read better
        with an explicit verb."""
        return self(name_)

    # -- binding management -------------------------------------------

    def bind(self, name_: str, entity: Entity) -> None:
        """Bind *name_* to *entity* in this context.

        Binding to ``⊥E`` is the same as unbinding, keeping the
        extensional view consistent (the function already maps every
        unbound name to ``⊥E``).

        The distinguished name ``"/"`` (:data:`repro.model.names.ROOT_NAME`)
        may be bound: it is the root-directory binding of section 5.1
        (``R(p)(/)``), consulted when resolving rooted compound names.
        """
        if name_ != ROOT_NAME:
            check_atomic_name(name_)
        if not isinstance(entity, Entity):
            raise BindingError(
                f"can only bind names to entities, got {entity!r}")
        if entity is UNDEFINED_ENTITY:
            self._bindings.pop(name_, None)
        else:
            self._bindings[name_] = entity

    def unbind(self, name_: str) -> None:
        """Remove the binding for *name_* (no error if unbound)."""
        self._bindings.pop(name_, None)

    def binds(self, name_: str) -> bool:
        """True if *name_* has a defined binding."""
        return name_ in self._bindings

    def update(self, other: "Context") -> None:
        """Copy all of *other*'s bindings into this context."""
        self._bindings.update(other._bindings)

    def clear(self) -> None:
        """Remove every binding."""
        self._bindings.clear()

    # -- views ---------------------------------------------------------

    @property
    def bindings(self) -> Mapping[str, Entity]:
        """A read-only live view of the defined bindings."""
        return dict(self._bindings)

    def names(self) -> list[str]:
        """The names with defined bindings, sorted."""
        return sorted(self._bindings)

    def entities(self) -> list[Entity]:
        """The entities this context binds (with duplicates removed,
        in first-seen order)."""
        seen: dict[int, Entity] = {}
        for entity in self._bindings.values():
            seen.setdefault(entity.uid, entity)
        return list(seen.values())

    def copy(self, label: str = "") -> "Context":
        """An independent context with the same bindings.

        This is how Unix ``fork`` inheritance is modelled (section 5.1):
        the child starts with a *copy* of the parent's context, coherent
        until one of them rebinds.
        """
        clone = Context(label=label or self.label)
        clone._bindings = dict(self._bindings)
        return clone

    def agreement(self, other: "Context") -> set[str]:
        """Names on which the two context functions agree *and* are
        defined: ``{n : self(n) = other(n) ≠ ⊥E}``.

        (All names outside both supports also agree — on ``⊥E`` — but
        only defined agreement is interesting for coherence reports.)
        """
        return {n for n, e in self._bindings.items()
                if other._bindings.get(n) is e}

    def disagreement(self, other: "Context") -> set[str]:
        """Names bound in at least one context where the functions
        differ: ``{n : self(n) ≠ other(n)}``."""
        keys = set(self._bindings) | set(other._bindings)
        return {n for n in keys if self(n) is not other(n)}

    # -- identity ------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        """Extensional equality: equal binding sets (entity identity)."""
        if isinstance(other, Context):
            if set(self._bindings) != set(other._bindings):
                return False
            return all(other._bindings[n] is e
                       for n, e in self._bindings.items())
        return NotImplemented

    def __hash__(self):  # pragma: no cover - explicit unhashability
        raise TypeError("Context is mutable and unhashable; "
                        "use frozen_bindings() as a dict key")

    def frozen_bindings(self) -> frozenset[tuple[str, int]]:
        """A hashable fingerprint of the binding set (name, entity uid)."""
        return frozenset((n, e.uid) for n, e in self._bindings.items())

    def __len__(self) -> int:
        return len(self._bindings)

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self._bindings))

    def __contains__(self, name_: object) -> bool:
        return name_ in self._bindings

    def __repr__(self) -> str:
        inner = ", ".join(f"{n}→{e.label}" for n, e in
                          sorted(self._bindings.items())[:6])
        extra = "" if len(self._bindings) <= 6 else ", …"
        tag = f" {self.label!r}" if self.label else ""
        return f"<Context{tag} {{{inner}{extra}}}>"


def context_object(label: str = "",
                   bindings: Optional[Mapping[str, Entity]] = None,
                   ) -> ObjectEntity:
    """Create an object whose state is a fresh context (a directory).

    >>> d = context_object("home")
    >>> d.is_context_object()
    True
    """
    obj = ObjectEntity(label)
    obj.state = Context(bindings, label=label)
    return obj
