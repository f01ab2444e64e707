"""The naming graph (section 2).

The naming graph describes the state of the context objects in a
system: a directed graph with labelled edges whose nodes are the
entities of ``A ∪ O``, with an edge labelled ``n`` from object ``o`` to
entity ``e`` whenever ``o`` is a context object and ``σ(o)(n) = e``.
Resolving a compound name corresponds to traversing a directed path.

:class:`NamingGraph` is a *live view* over a :class:`GlobalState`: it
re-reads context-object states on every query, so mutations to the
system (bind/unbind, attach, relocation) are immediately visible.  A
:func:`snapshot <NamingGraph.to_networkx>` into a ``networkx``
``MultiDiGraph`` is available for analysis and visualisation.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterator
from typing import TYPE_CHECKING, Optional

from repro.model.context import Context
from repro.model.entities import Entity
from repro.model.names import PARENT, CompoundName
from repro.model.resolution import resolve
from repro.model.state import GlobalState

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["NamingGraph"]


class NamingGraph:
    """A live view of the naming graph of a system.

    >>> from repro.model.context import context_object
    >>> from repro.model.state import GlobalState
    >>> sigma = GlobalState()
    >>> root = sigma.add(context_object("root"))
    >>> etc = sigma.add(context_object("etc"))
    >>> root.state.bind("etc", etc)
    >>> graph = NamingGraph(sigma)
    >>> [(o.label, n, e.label) for o, n, e in graph.edges()]
    [('root', 'etc', 'etc')]
    """

    def __init__(self, sigma: GlobalState):
        self._sigma = sigma

    @property
    def sigma(self) -> GlobalState:
        """The global state this graph is a view of."""
        return self._sigma

    def nodes(self) -> list[Entity]:
        """All entities in ``A ∪ O``."""
        return list(self._sigma)

    def edges(self) -> Iterator[tuple[Entity, str, Entity]]:
        """Yield every labelled edge ``(o, n, e)`` with ``σ(o)(n) = e``.

        Edges are yielded in a deterministic order (by object uid, then
        by name) so experiment output is reproducible.
        """
        for obj in sorted(self._sigma.context_objects(), key=lambda o: o.uid):
            context: Context = obj.state
            for name_ in context.names():
                yield obj, name_, context(name_)

    def out_edges(self, entity: Entity) -> list[tuple[str, Entity]]:
        """The labelled edges leaving *entity* (empty unless it is a
        context object)."""
        if not entity.is_context_object():
            return []
        context: Context = entity.state
        return [(n, context(n)) for n in context.names()]

    def reachable_from(self, start: Entity) -> set[Entity]:
        """All entities reachable from *start* by directed paths,
        including *start* itself."""
        seen: dict[int, Entity] = {start.uid: start}
        frontier = deque([start])
        while frontier:
            node = frontier.popleft()
            for _name, target in self.out_edges(node):
                if target.uid not in seen:
                    seen[target.uid] = target
                    frontier.append(target)
        return set(seen.values())

    def paths_to(self, start: Entity, goal: Entity,
                 max_depth: int = 12, max_paths: int = 64,
                 ) -> list[CompoundName]:
        """Compound names that resolve from *start*'s context to *goal*.

        Performs a bounded BFS over edge labels; used by experiments to
        ask "by what names can this activity refer to that entity?".
        Cycles (e.g. ``..`` edges) are handled by the depth bound.
        """
        results: list[CompoundName] = []
        frontier: deque[tuple[Entity, tuple[str, ...]]] = deque([(start, ())])
        while frontier and len(results) < max_paths:
            node, path = frontier.popleft()
            if len(path) >= max_depth:
                continue
            for name_, target in self.out_edges(node):
                full = path + (name_,)
                if target is goal:
                    results.append(CompoundName(full))
                    if len(results) >= max_paths:
                        break
                frontier.append((target, full))
        return results

    def verify_resolution_correspondence(self, start: Entity,
                                         name_: CompoundName) -> bool:
        """Check the paper's claim that resolving a compound name
        corresponds to traversing a directed path in the naming graph.

        Returns True if walking the graph edge-by-edge from *start*
        reaches exactly ``resolve(σ(start), name_)``.
        """
        if not start.is_context_object():
            return False
        node: Entity = start
        for index, component in enumerate(name_.parts):
            if not node.is_context_object():
                return not resolve(start.state, name_).is_defined()
            context: Context = node.state
            target = context(component)
            if not target.is_defined():
                return not resolve(start.state, name_).is_defined()
            node = target
        return node is resolve(start.state, name_)

    def to_networkx(self) -> nx.MultiDiGraph:
        """Snapshot the naming graph into a ``networkx.MultiDiGraph``.

        Node keys are entity uids with ``label`` and ``kind`` attributes;
        edge keys are the binding names.
        """
        import networkx as nx

        graph = nx.MultiDiGraph()
        for entity in self.nodes():
            graph.add_node(entity.uid, label=entity.label, kind=entity.KIND,
                           context=entity.is_context_object())
        for obj, name_, target in self.edges():
            if target.uid not in graph:
                graph.add_node(target.uid, label=target.label,
                               kind=target.KIND,
                               context=target.is_context_object())
            graph.add_edge(obj.uid, target.uid, key=name_, label=name_)
        return graph

    def to_dot(self, highlight: Optional[Entity] = None) -> str:
        """Render the naming graph in Graphviz DOT format.

        Directories are boxes, leaf objects ellipses, activities
        diamonds; ``..`` edges are dashed.  *highlight* (if given) is
        filled — handy when eyeballing what a resolution reached.
        """
        lines = ["digraph naming_graph {", "  rankdir=LR;"]
        for entity in sorted(self.nodes(), key=lambda e: e.uid):
            if entity.is_context_object():
                shape = "box"
            elif entity.is_activity():
                shape = "diamond"
            else:
                shape = "ellipse"
            attrs = [f'label="{entity.label}"', f"shape={shape}"]
            if highlight is not None and entity is highlight:
                attrs.append('style=filled fillcolor=lightgrey')
            lines.append(f'  n{entity.uid} [{" ".join(attrs)}];')
        for obj, name_, target in self.edges():
            style = ' style=dashed' if name_ == PARENT else ""
            lines.append(f'  n{obj.uid} -> n{target.uid} '
                         f'[label="{name_}"{style}];')
        lines.append("}")
        return "\n".join(lines)

    def is_tree(self, root: Entity) -> bool:
        """True if the subgraph reachable from *root* (ignoring ``..``
        back-edges) is a tree: every reachable node has exactly one
        incoming labelled edge apart from the root."""
        indegree: dict[int, int] = {}
        reachable = self.reachable_from(root)
        ids = {e.uid for e in reachable}
        for obj, name_, target in self.edges():
            if name_ == "..":
                continue
            if obj.uid in ids and target.uid in ids:
                indegree[target.uid] = indegree.get(target.uid, 0) + 1
        if indegree.get(root.uid, 0) != 0:
            return False
        return all(indegree.get(e.uid, 0) == 1
                   for e in reachable if e is not root)
