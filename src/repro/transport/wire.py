"""Wire codec: protocol payloads ⇄ JSON-framable values.

On the simulator, protocol payloads carry live Python objects — a
lookup request holds the actual :class:`~repro.model.entities.
ObjectEntity` directory, a reply holds the resolved
:class:`~repro.model.entities.Entity`.  Real sockets carry bytes, so
this module defines the mapping both sides agree on:

* **Server side** — a :class:`DirectoryRegistry` maps entity uids to
  the server's live entities; decoding a lookup request turns the
  wire's ``directory`` uid back into the registered context object
  (an unknown uid decodes to ``⊥E``, which the lookup server answers
  as unbound — never a crash).  Encoding a reply flattens each entity
  of its trail to a :func:`describe_entity` descriptor.
* **Client side** — an :class:`EntityProxyCache` turns descriptors
  into *proxies*: :class:`RemoteDirectory` (an object entity whose
  state is a :class:`RemoteContext`, so the client's walk steps into
  it exactly as it would a local directory) and :class:`RemoteEntity`
  leaves.  Proxies are cached by remote uid, so the same remote
  entity is the *same* proxy across lookups — entity-identity
  comparisons (and the `⊥E`-vs-defined distinction) behave exactly as
  they do locally.

Lease dependency keys (``DepKey = (kind, uid, component)`` tuples)
cross the wire as lists and are re-tupled on decode, so
:class:`~repro.nameservice.leases.LeaseTable` revocation works on
identical keys on both substrates.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.model.context import Context
from repro.model.entities import Entity, ObjectEntity, UNDEFINED_ENTITY
from repro.transport.framing import MAX_REST

__all__ = ["RemoteContext", "RemoteEntity", "RemoteDirectory",
           "DirectoryRegistry", "EntityProxyCache", "WireCodec",
           "WireError", "describe_entity", "remote_uid_of"]


class WireError(ValueError):
    """A well-framed payload that names a protocol kind (``lookup`` /
    ``reply`` / ``lease``) but does not have that kind's shape."""


class RemoteContext(Context):
    """A directory's client-side context: binds nothing locally.

    Stepping *into* it is meaningful (the router sends the next
    component to the owning server); *calling* it locally yields
    ``⊥E`` for every name, which is exactly right — the client holds
    no local bindings for a remote directory.
    """

    __slots__ = ()


class RemoteEntity(ObjectEntity):
    """A client-side proxy for an entity living on a server.

    ``remote_uid`` is the *server's* uid — the identity the wire
    protocol (and lease dependency keys) speak; the proxy's own
    ``uid`` is minted locally and never crosses the wire.
    """

    __slots__ = ("remote_uid",)

    def __init__(self, remote_uid: int, label: str = ""):
        super().__init__(label)
        self.remote_uid = remote_uid

    def __repr__(self) -> str:
        return (f"<{type(self).__name__} {self.label!r} "
                f"remote#{self.remote_uid}>")


class RemoteDirectory(RemoteEntity):
    """A proxy for a remote *context object* (a directory)."""

    __slots__ = ()

    def __init__(self, remote_uid: int, label: str = ""):
        super().__init__(remote_uid, label)
        self.state = RemoteContext(label=label)


def remote_uid_of(entity: Entity) -> int:
    """The uid an entity is known by on the wire: its ``remote_uid``
    for proxies, its own uid for live entities."""
    if isinstance(entity, RemoteEntity):
        return entity.remote_uid
    return entity.uid


def describe_entity(entity: Optional[Entity]) -> Optional[dict]:
    """Flatten an entity to its wire descriptor (``None`` for ``⊥E``)."""
    if entity is None or not entity.is_defined():
        return None
    return {"uid": remote_uid_of(entity), "label": entity.label,
            "dir": bool(entity.is_context_object()
                        or isinstance(entity, RemoteDirectory))}


class DirectoryRegistry:
    """Server side: uid → live entity, for decoding wire references."""

    def __init__(self) -> None:
        self._by_uid: dict[int, Entity] = {}

    def register(self, entity: Entity) -> Entity:
        self._by_uid[entity.uid] = entity
        return entity

    def register_tree(self, root: Entity) -> int:
        """Register *root* and every entity reachable through context
        states (the whole served namespace).  Returns the count."""
        seen: set[int] = set()
        stack = [root]
        while stack:
            entity = stack.pop()
            if entity.uid in seen or not entity.is_defined():
                continue
            seen.add(entity.uid)
            self._by_uid[entity.uid] = entity
            state = entity.state
            if isinstance(state, Context):
                stack.extend(state.bindings.values())
        return len(seen)

    def get(self, uid: int) -> Entity:
        """The registered entity, or ``⊥E`` for unknown uids."""
        return self._by_uid.get(uid, UNDEFINED_ENTITY)

    def serves(self, _node: Any, directory: Entity, _component: str) -> bool:
        """What a lookup server over this registry may walk into: the
        one process holds every registered entity, on its only node."""
        return self._by_uid.get(directory.uid) is directory

    def __len__(self) -> int:
        return len(self._by_uid)


class EntityProxyCache:
    """Client side: descriptor → proxy, stable per remote uid."""

    def __init__(self) -> None:
        self._proxies: dict[int, RemoteEntity] = {}

    def proxy(self, descriptor: Optional[dict]) -> Entity:
        if descriptor is None:
            return UNDEFINED_ENTITY
        uid = descriptor["uid"]
        proxy = self._proxies.get(uid)
        if proxy is None:
            cls = RemoteDirectory if descriptor.get("dir") else RemoteEntity
            proxy = cls(uid, descriptor.get("label", ""))
            self._proxies[uid] = proxy
        return proxy

    def __len__(self) -> int:
        return len(self._proxies)


def _is_rest(rest: Any) -> bool:
    """A request's unresolved suffix: strings, at most the cap."""
    return (isinstance(rest, list) and len(rest) <= MAX_REST
            and all(isinstance(component, str) for component in rest))


def _is_descriptor(value: Any) -> bool:
    return isinstance(value, dict) and isinstance(value.get("uid"), int)


def _is_trail(trail: Any) -> bool:
    """A reply's answer: one descriptor per component consumed, the
    last ``null`` if the chain hit an unbound name."""
    return (isinstance(trail, list) and 0 < len(trail) <= MAX_REST + 1
            and (trail[-1] is None or _is_descriptor(trail[-1]))
            and all(map(_is_descriptor, trail[:-1])))


def _dep_to_wire(dep: Any) -> Any:
    return list(dep) if isinstance(dep, tuple) else dep


def _dep_from_wire(dep: Any) -> Any:
    return tuple(dep) if isinstance(dep, list) else dep


class WireCodec:
    """Encode/decode the protocol's payload dicts for framing.

    One codec instance serves one side of a connection:

    * servers pass a :class:`DirectoryRegistry` so incoming
      ``lookup.directory`` uids decode to live entities;
    * clients pass an :class:`EntityProxyCache` so incoming
      ``reply.trail`` descriptors decode to stable proxies.

    Payload kinds outside the protocol vocabulary must already be
    JSON-framable and pass through untouched, so demo/control traffic
    needs no codec support.  Inbound payloads come from outside the
    program: :meth:`decode` raises :class:`WireError` for one whose
    body lacks the fields its handler reads, so handlers only ever see
    well-shaped requests.
    """

    def __init__(self, registry: Optional[DirectoryRegistry] = None,
                 proxies: Optional[EntityProxyCache] = None):
        self.registry = registry
        self.proxies = proxies

    # -- encode (payload → JSONable) ------------------------------------

    def encode(self, payload: Any) -> Any:
        if not isinstance(payload, dict):
            return payload
        if "lookup" in payload:
            request = payload["lookup"]
            return {"lookup": {
                "request_id": request["request_id"], "seq": request["seq"],
                "directory": remote_uid_of(request["directory"]),
                "component": request["component"],
                "rest": request["rest"]}}
        if "reply" in payload:
            reply = dict(payload["reply"])
            reply["trail"] = [describe_entity(entity)
                              for entity in reply["trail"]]
            return {"reply": reply}
        if "lease" in payload:
            body = dict(payload["lease"])
            if "dep" in body:
                body["dep"] = _dep_to_wire(body["dep"])
            return {"lease": body}
        return payload

    # -- decode (JSONable → payload) ------------------------------------

    def _registered(self, descriptor: Optional[dict]) -> Entity:
        if self.registry is None or descriptor is None:
            return UNDEFINED_ENTITY
        return self.registry.get(descriptor["uid"])

    def decode(self, payload: Any) -> Any:
        if not isinstance(payload, dict):
            return payload
        if "lookup" in payload:
            request = payload["lookup"]
            if not (isinstance(request, dict) and "request_id" in request
                    and isinstance(request.get("directory"), int)
                    and isinstance(request.get("component"), str)
                    and _is_rest(request.get("rest"))):
                raise WireError(f"malformed lookup request: {request!r}")
            request = dict(request)
            request["directory"] = (
                self.registry.get(request["directory"])
                if self.registry is not None else UNDEFINED_ENTITY)
            return {"lookup": request}
        if "reply" in payload:
            reply = payload["reply"]
            if not (isinstance(reply, dict)
                    and isinstance(reply.get("request_id"), int)):
                raise WireError(f"malformed lookup reply: {reply!r}")
            if not _is_trail(reply.get("trail")):
                raise WireError(f"malformed trail in reply: {reply!r}")
            reply = dict(reply)
            entity = (self.proxies.proxy if self.proxies is not None
                      else self._registered)
            reply["trail"] = [entity(descriptor)
                              for descriptor in reply["trail"]]
            return {"reply": reply}
        if "lease" in payload:
            if not isinstance(payload["lease"], dict):
                raise WireError(f"malformed lease message: {payload!r}")
            body = dict(payload["lease"])
            if "dep" in body:
                body["dep"] = _dep_from_wire(body["dep"])
            return {"lease": body}
        return payload
