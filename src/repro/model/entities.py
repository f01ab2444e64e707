"""Entities: activities, objects and the undefined entity (section 2).

The paper's model distinguishes *activities* (active entities that
perform computation and exchange messages — e.g. a Unix process) from
*objects* (passive entities — e.g. a Unix file).  The entity sets are::

    E = A ∪ O ∪ {⊥E}

where ``⊥E`` is the *undefined entity*, the value of a context at a name
it does not bind.  ``A`` and ``O`` are disjoint and ``⊥E ∉ A ∪ O``.

Each entity has a *state*; see :mod:`repro.model.state`.  An object
whose state is a context is a *context object* (a directory).

Entities compare by identity: two distinct objects are different
entities even if their states are equal.  (Equality of states is what
*weak coherence* is about; see :mod:`repro.replication.weak`.)
"""

from __future__ import annotations

import itertools
from typing import Any, Optional

from repro.errors import EntityError


class Entity:
    """Base class for every entity in the model (the set ``E``).

    Args:
        label: A human-readable label used in reprs, traces and reports.
            Labels carry *no* naming semantics — entities are denoted by
            names bound in contexts, never by their labels.
    """

    _counter = itertools.count(1)
    KIND = "entity"

    __slots__ = ("uid", "label", "_state")

    def __init__(self, label: str = ""):
        self.uid: int = next(Entity._counter)
        self.label: str = label or f"{self.KIND}-{self.uid}"
        self._state: Any = None

    @property
    def state(self) -> Any:
        """The entity's current state (``σ(e)`` in the paper)."""
        return self._state

    @state.setter
    def state(self, value: Any) -> None:
        self._state = value

    def is_activity(self) -> bool:
        """True if this entity is in the set ``A``."""
        return isinstance(self, Activity)

    def is_object(self) -> bool:
        """True if this entity is in the set ``O``."""
        return isinstance(self, ObjectEntity)

    def is_defined(self) -> bool:
        """True unless this is the undefined entity ``⊥E``."""
        return True

    def is_context_object(self) -> bool:
        """True if this entity is an object whose state is a context."""
        return self.is_object() and isinstance(self._state, _context.Context)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.label!r} #{self.uid}>"


class Activity(Entity):
    """An active entity (the set ``A``): performs computation on
    objects and communicates with other activities.

    Examples from the paper: a Unix process, a Waterloo Port process,
    the user-interface activity that injects names typed by a human.
    """

    KIND = "activity"
    __slots__ = ()


class ObjectEntity(Entity):
    """A passive entity (the set ``O``): e.g. a file or a directory.

    An :class:`ObjectEntity` whose state is a
    :class:`~repro.model.context.Context` is a *context object* — the
    model's notion of a directory.
    """

    KIND = "object"
    __slots__ = ()


#: Convenient short alias for :class:`ObjectEntity`.
Obj = ObjectEntity


class _UndefinedEntity(Entity):
    """The undefined entity ``⊥E`` — a unique sentinel, not in A ∪ O.

    Resolving an unbound name yields this value; it is an entity so the
    model stays total, but it is neither an activity nor an object and
    its state is permanently the undefined state ``⊥S``.
    """

    KIND = "undefined"
    __slots__ = ()

    _instance: Optional["_UndefinedEntity"] = None

    def __new__(cls) -> "_UndefinedEntity":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __init__(self):
        # Initialize only once; repeated construction returns the
        # singleton unchanged.
        if not hasattr(self, "uid") or self.uid is None:  # pragma: no cover
            super().__init__("⊥E")
        if getattr(self, "label", None) != "⊥E":
            super().__init__("⊥E")

    @property
    def state(self) -> Any:
        return _state.UNDEFINED_STATE

    @state.setter
    def state(self, value: Any) -> None:
        raise EntityError("the undefined entity ⊥E has no mutable state")

    def is_defined(self) -> bool:
        return False

    def __repr__(self) -> str:
        return "UNDEFINED_ENTITY"

    def __bool__(self) -> bool:
        return False


#: The undefined entity ``⊥E``.  Falsy, so ``if resolved:`` reads well.
UNDEFINED_ENTITY = _UndefinedEntity()


def require_activity(entity: Entity) -> Activity:
    """Return *entity* as an :class:`Activity` or raise
    :class:`~repro.errors.EntityError`."""
    if not isinstance(entity, Activity):
        raise EntityError(f"expected an activity, got {entity!r}")
    return entity


def require_object(entity: Entity) -> ObjectEntity:
    """Return *entity* as an :class:`ObjectEntity` or raise
    :class:`~repro.errors.EntityError`."""
    if not isinstance(entity, ObjectEntity):
        raise EntityError(f"expected an object, got {entity!r}")
    return entity


# Last, and as modules: context.py and state.py import this one.
from repro.model import context as _context  # noqa: E402
from repro.model import state as _state  # noqa: E402
