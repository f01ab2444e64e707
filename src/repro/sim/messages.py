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

Both classes are ``__slots__`` classes with hand-written constructors:
the kernel allocates one :class:`Message` per send on its hottest
path, and slotted instances skip the per-object ``__dict__`` the old
dataclasses paid for.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Any, Optional

from repro.model.entities import Entity
from repro.model.names import CompoundName, NameLike

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.process import SimProcess

__all__ = ["NameAttachment", "Message"]

_message_ids = itertools.count(1)


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
    """One message in flight between two processes."""

    __slots__ = ("sender", "receiver", "payload", "attachments",
                 "send_time", "deliver_time", "msg_id", "delivered",
                 "dropped", "drop_reason", "trace_id", "parent_span_id")

    def __init__(self, sender: "SimProcess", receiver: "SimProcess",
                 payload: Any = None,
                 attachments: Optional[list[NameAttachment]] = None,
                 send_time: float = 0.0, deliver_time: float = 0.0,
                 msg_id: Optional[int] = None,
                 delivered: bool = False, dropped: bool = False,
                 drop_reason: str = "",
                 trace_id: Optional[str] = None,
                 parent_span_id: Optional[str] = None) -> None:
        self.sender = sender
        self.receiver = receiver
        self.payload = payload
        self.attachments = [] if attachments is None else attachments
        self.send_time = send_time
        self.deliver_time = deliver_time
        self.msg_id = next(_message_ids) if msg_id is None else msg_id
        self.delivered = delivered
        self.dropped = dropped
        self.drop_reason = drop_reason
        #: Trace context (repro.obs): set by instrumented senders so
        #: the kernel can parent its delivery/drop events into the
        #: right span tree.  ``None`` on un-instrumented traffic.
        self.trace_id = trace_id
        self.parent_span_id = parent_span_id

    @property
    def settled(self) -> bool:
        """True once the kernel has delivered or dropped this message."""
        return self.delivered or self.dropped

    def _fire(self) -> None:
        """Deliver this message through the owning kernel.

        The kernel enqueues the message itself as the event-queue
        payload (no per-send closure); the run pump dispatches it by
        type, and :meth:`EventQueue.pop` wraps this method when an
        external caller pops a delivery as a :class:`ScheduledEvent`.
        """
        self.sender._simulator._deliver(self)

    def attach(self, name_: NameLike,
               intended: Optional[Entity] = None) -> NameAttachment:
        """Attach a name (with the sender's intended denotation)."""
        attachment = NameAttachment(CompoundName.coerce(name_), intended)
        self.attachments.append(attachment)
        return attachment

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Message):
            return NotImplemented
        return (self.msg_id == other.msg_id
                and self.sender == other.sender
                and self.receiver == other.receiver
                and self.payload == other.payload
                and self.attachments == other.attachments
                and self.send_time == other.send_time
                and self.deliver_time == other.deliver_time
                and self.delivered == other.delivered
                and self.dropped == other.dropped
                and self.drop_reason == other.drop_reason
                and self.trace_id == other.trace_id
                and self.parent_span_id == other.parent_span_id)

    __hash__ = None  # mutable, like the former dataclass

    def __repr__(self) -> str:
        return (f"<msg#{self.msg_id} {self.sender.label}→"
                f"{self.receiver.label} {len(self.attachments)} names>")
