"""Messages: how activities exchange names (Figure 1, source 2).

A message carries an arbitrary payload plus a list of *name
attachments*: names the sender embeds for the receiver to use.  Each
attachment records the entity the sender *intends* the name to denote
(resolved in the sender's context at send time), which is the ground
truth the coherence auditor scores receivers against.

Attachments may be rewritten in flight by a boundary mapper — this is
how the ``R(sender)`` rule is implemented in practice ("the resolution
rule is implemented by mapping the embedded pid", §6 Example 1); see
:mod:`repro.pqid.transport`.

Both classes are ``__slots__`` classes: the kernel allocates one
:class:`Message` per send on its hottest path, and slotted instances
skip the per-object ``__dict__`` the old dataclasses paid for.
:meth:`repro.sim.kernel.Simulator.send` is the one place a message is
built; it sets every slot field by field.
"""

from __future__ import annotations

from typing import Optional

from repro.model.entities import Entity
from repro.model.names import CompoundName, NameLike

__all__ = ["NameAttachment", "Message"]


class NameAttachment:
    """A name embedded in a message.

    Attributes:
        name: The name as it currently reads (possibly rewritten by a
            boundary mapper in flight).
        intended: The entity the *sender* meant the name to denote
            (``None`` if the sender did not resolve it).
        original: The name exactly as the sender wrote it.
    """

    __slots__ = ("name", "intended", "original")

    def __init__(self, name: CompoundName,
                 intended: Optional[Entity] = None,
                 original: Optional[CompoundName] = None) -> None:
        name = CompoundName.coerce(name)
        self.name = name
        self.intended = intended
        self.original = name if original is None else original

    def rewritten(self, new_name: NameLike) -> "NameAttachment":
        """A copy with the on-the-wire name replaced (mapping step)."""
        return NameAttachment(CompoundName.coerce(new_name),
                              intended=self.intended,
                              original=self.original)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NameAttachment):
            return NotImplemented
        return (self.name == other.name
                and self.intended == other.intended
                and self.original == other.original)

    __hash__ = None  # mutable, like the former dataclass

    def __repr__(self) -> str:
        target = self.intended.label if self.intended else "?"
        return f"<attachment {self.name} ⇒ {target}>"


class Message:
    """One message in flight between two processes.

    ``trace_id`` / ``parent_span_id`` carry the trace context
    (:mod:`repro.obs`): instrumented senders set them so the kernel
    can parent its delivery/drop events into the right span tree;
    ``None`` on un-instrumented traffic.
    """

    __slots__ = ("sender", "receiver", "payload", "attachments",
                 "send_time", "deliver_time", "msg_id", "delivered",
                 "dropped", "drop_reason", "trace_id", "parent_span_id")

    @property
    def settled(self) -> bool:
        """True once the kernel has delivered or dropped this message."""
        return self.delivered or self.dropped

    def attach(self, name_: NameLike,
               intended: Optional[Entity] = None) -> NameAttachment:
        """Attach a name (with the sender's intended denotation)."""
        attachment = NameAttachment(CompoundName.coerce(name_), intended)
        self.attachments.append(attachment)
        return attachment

    def __repr__(self) -> str:
        return (f"<msg#{self.msg_id} {self.sender.label}→"
                f"{self.receiver.label} {len(self.attachments)} names>")
