"""Compound-name resolution (section 2).

The paper extends resolution from atomic to compound names with the
recursion (for ``n = n1 ... nk``, ``k ≥ 2``)::

    c(n1 ... nk) = σ(c(n1))(n2 ... nk)   when σ(c(n1)) ∈ C
                 = ⊥E                     otherwise

i.e. resolve the first component, and if it lands on a context object,
resolve the remainder in that object's state.  The result depends on the
state of the context objects along the resolution path — resolving a
compound name corresponds to traversing a directed path in the naming
graph.

:func:`resolve_via` implements the recursion once (iteratively, so
deep paths don't hit the interpreter's recursion limit), reading each
binding through a caller's ``read``: :func:`resolve` reads live σ,
:func:`resolve_traced` records a :class:`ResolutionTrace` and the
coherence auditor reads its write history.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.model.context import Context
from repro.model.entities import Entity, UNDEFINED_ENTITY
from repro.model.names import ROOT_NAME, CompoundName, NameLike

__all__ = ["ResolutionStep", "ResolutionTrace", "resolve", "resolve_traced",
           "resolve_via"]


@dataclass(frozen=True)
class ResolutionStep:
    """One step of a compound resolution: *component* looked up in
    *context* yielded *result*."""

    component: str
    context: Context
    result: Entity

    def __repr__(self) -> str:
        return f"<step {self.component!r} → {self.result.label}>"


@dataclass
class ResolutionTrace:
    """The full path traversed while resolving a compound name.

    Attributes:
        name: The compound name that was resolved.
        steps: One :class:`ResolutionStep` per consumed component.
        result: The final entity (``⊥E`` on failure).
        stuck_at: Index of the component where resolution got stuck
            (the component whose lookup returned ``⊥E``, or whose result
            was not a context object while components remained), or
            ``None`` when resolution consumed the whole name.
    """

    name: CompoundName
    steps: list[ResolutionStep] = field(default_factory=list)
    result: Entity = UNDEFINED_ENTITY
    stuck_at: Optional[int] = None

    @property
    def succeeded(self) -> bool:
        """True if the resolution produced a defined entity."""
        return self.result.is_defined()

    def path_entities(self) -> list[Entity]:
        """The entities visited, in order (one per consumed component)."""
        return [step.result for step in self.steps]

    def __repr__(self) -> str:
        status = "ok" if self.succeeded else f"stuck@{self.stuck_at}"
        return f"<trace {self.name} → {self.result.label} [{status}]>"


def _read_live(_holder: Optional[Entity], context: Context,
               component: str) -> Entity:
    return context(component)


def resolve_via(context: Context, name_: NameLike,
                read: Callable[[Optional[Entity], Context, str],
                               Entity] = _read_live,
                ) -> tuple[Entity, Optional[Entity], Optional[int]]:
    """The section-2 recursion, reading each binding (live σ by
    default) as ``read(holder, context, component)``: *holder* is the
    directory entity whose state *context* is, ``None`` at the start.

    Returns ``(entity, holder, stuck_at)``: the result (``⊥E`` on
    failure), the directory whose context answered the final component
    (``None`` if that was *context* or the walk stopped before it) and
    the :attr:`ResolutionTrace.stuck_at` index.
    """
    name_ = CompoundName.coerce(name_)
    parts = name_.parts
    current = context
    holder: Optional[Entity] = None
    if name_.rooted:
        root = read(None, context, ROOT_NAME)
        if not parts:
            return root, None, None if root.is_defined() else 0
        state = root.state if root.is_defined() else None
        if not isinstance(state, Context):
            return UNDEFINED_ENTITY, None, 0
        current, holder = state, root
    elif not parts:
        return UNDEFINED_ENTITY, None, 0
    last = len(parts) - 1
    for index in range(last):
        entity = read(holder, current, parts[index])
        # More components remain: σ(c(n1)) must be a context.
        state = entity.state if entity.is_defined() else None
        if not isinstance(state, Context):
            return UNDEFINED_ENTITY, None, index
        current, holder = state, entity
    entity = read(holder, current, parts[last])
    return entity, holder, None if entity.is_defined() else last


def resolve_traced(context: Context, name_: NameLike) -> ResolutionTrace:
    """Resolve *name_* in *context*, recording the traversal.

    Implements the section-2 recursion.  The empty compound name is not
    in the paper's ``N+``; resolving it yields ``⊥E`` (there is no
    entity "the context itself" — contexts are states, not entities).

    A *rooted* name (textual form beginning with ``/``) first looks up
    the distinguished root binding ``R(p)(/)``
    (:data:`repro.model.names.ROOT_NAME`) in *context* and resolves the
    remaining components in the root directory's context, exactly the
    section-5.1 reading of Unix path names.  The bare name ``/``
    resolves to the root directory object itself.

    A ``..`` component is looked up like any other name at this layer;
    schemes that support parent traversal bind ``..`` explicitly in
    their directory contexts (as the Newcastle Connection does).
    """
    trace = ResolutionTrace(name=CompoundName.coerce(name_))

    def record(_holder: Optional[Entity], current: Context,
               component: str) -> Entity:
        entity = current(component)
        trace.steps.append(ResolutionStep(component, current, entity))
        return entity

    trace.result, _holder, trace.stuck_at = resolve_via(
        context, trace.name, record)
    return trace


def resolve(context: Context, name_: NameLike) -> Entity:
    """Resolve *name_* in *context*; return the entity or ``⊥E``.

    >>> from repro.model.context import Context, context_object
    >>> from repro.model.entities import ObjectEntity
    >>> usr = context_object("usr")
    >>> cc = ObjectEntity("cc")
    >>> usr.state.bind("cc", cc)
    >>> root = Context({"usr": usr})
    >>> resolve(root, "usr/cc") is cc
    True
    """
    return resolve_via(context, name_)[0]
