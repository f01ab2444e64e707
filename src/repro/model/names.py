"""Names and compound names (paper section 2).

The paper treats a *name* as an uninterpreted identifier drawn from a set
``N`` and a *compound name* as a nonempty sequence of names (an element
of ``N+``).  Path names of files in a tree-structured file system are the
canonical example of compound names.

In this library an **atomic name** is a nonempty :class:`str` that does
not contain the separator character ``/``.  A **compound name** is an
immutable sequence of atomic names, :class:`CompoundName`.  The textual
form ``a/b/c`` parses to the compound name ``(a, b, c)``.

Two textual conventions used by the naming schemes in sections 5-7 are
supported here but given *no meaning* at the model level:

* a leading ``/`` (``/a/b``) marks a name as *rooted*; schemes resolve
  rooted names starting from an activity's root binding (the paper's
  ``R(p)(/)`` in the Unix analysis, section 5.1);
* the component ``..`` refers to a parent directory; only schemes whose
  trees track parents (e.g. the Newcastle Connection, section 5.1) give
  it meaning.

Keeping the model layer free of path semantics mirrors the paper, where
the recursive resolution of ``n1 ... nk`` (section 2) is defined purely
in terms of contexts and context objects.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from typing import Union

from repro.errors import NameSyntaxError

#: The separator used in the textual form of compound names.
SEPARATOR = "/"

#: The distinguished binding name for an activity's root directory.
#: The paper's Unix analysis (section 5.1) says a process context "has
#: two bindings: one for the root directory, and the other for the
#: working directory"; ``R(p)(/)`` is the root binding.  ``ROOT_NAME``
#: is the one name allowed to contain the separator: it may be bound in
#: a context but can never occur as a component of a compound name.
ROOT_NAME = "/"

#: The conventional parent-directory component (meaningful only to
#: schemes that implement it, e.g. the Newcastle Connection).
PARENT = ".."

#: The conventional self component (skipped during parsing, like the
#: empty component produced by doubled separators).
SELF = "."


def is_atomic_name(text: object) -> bool:
    """Return True if *text* is a valid atomic name.

    An atomic name is a nonempty string without the separator ``/``.
    ``..`` and ``.`` are valid atomic names; their special treatment is
    purely a matter of scheme convention.
    """
    return isinstance(text, str) and bool(text) and SEPARATOR not in text


def check_atomic_name(text: object) -> str:
    """Validate *text* as an atomic name and return it.

    Raises:
        NameSyntaxError: if *text* is not a valid atomic name.
    """
    if not is_atomic_name(text):
        raise NameSyntaxError(f"not a valid atomic name: {text!r}")
    return text  # type: ignore[return-value]


class CompoundName(Sequence[str]):
    """An immutable, nonempty-or-empty sequence of atomic names.

    The paper's ``N+`` contains only nonempty sequences; the empty
    compound name is allowed here as the identity for concatenation
    (resolving it is a no-op that returns the starting context object).
    Use :meth:`require_nonempty` where the paper's ``N+`` is meant.

    Instances are hashable and totally ordered (lexicographically),
    which lets them key dictionaries of measured coherence results.
    """

    __slots__ = ("_parts", "_rooted")

    def __init__(self, parts: Iterable[str] = (), rooted: bool = False):
        checked = tuple(check_atomic_name(p) for p in parts)
        self._parts: tuple[str, ...] = checked
        self._rooted = bool(rooted)

    # -- construction ------------------------------------------------

    @classmethod
    def parse(cls, text: str) -> "CompoundName":
        """Parse the textual form ``[/]a/b/c`` into a compound name.

        Empty components (from doubled separators or a trailing ``/``)
        and ``.`` components are dropped.  A leading ``/`` sets
        :attr:`rooted`.

        >>> CompoundName.parse("/usr/bin/cc")
        CompoundName.parse('/usr/bin/cc')
        >>> CompoundName.parse("a//b/./c").parts
        ('a', 'b', 'c')
        """
        if not isinstance(text, str):
            raise NameSyntaxError(f"expected str, got {type(text).__name__}")
        name = object.__new__(cls)  # split parts are atomic: no re-check
        name._parts = tuple([p for p in text.split(SEPARATOR)
                             if p and p != SELF])
        name._rooted = text.startswith(SEPARATOR)
        return name

    @classmethod
    def coerce(cls, value: "NameLike") -> "CompoundName":
        """Coerce a str, an iterable of atomic names, or a
        :class:`CompoundName` into a :class:`CompoundName`."""
        if isinstance(value, CompoundName):
            return value
        if isinstance(value, str):
            return cls.parse(value)
        return cls(value)

    def require_nonempty(self) -> "CompoundName":
        """Return self, raising if the name is empty (the paper's N+)."""
        if not self._parts:
            raise NameSyntaxError("a compound name in N+ must be nonempty")
        return self

    # -- structure ---------------------------------------------------

    @property
    def parts(self) -> tuple[str, ...]:
        """The atomic components as a tuple."""
        return self._parts

    @property
    def rooted(self) -> bool:
        """True if the textual form began with ``/``."""
        return self._rooted

    @property
    def first(self) -> str:
        """The first component (``n1`` in the paper's recursion)."""
        self.require_nonempty()
        return self._parts[0]

    @property
    def rest(self) -> "CompoundName":
        """The name with its first component removed (``n2 ... nk``).

        The result is never rooted: the recursion of section 2 resolves
        the remainder relative to the context object reached so far.
        """
        self.require_nonempty()
        return CompoundName(self._parts[1:])

    @property
    def last(self) -> str:
        """The final component (the name bound in the parent context)."""
        self.require_nonempty()
        return self._parts[-1]

    @property
    def parent(self) -> "CompoundName":
        """The name with its last component removed, keeping rootedness."""
        self.require_nonempty()
        return CompoundName(self._parts[:-1], rooted=self._rooted)

    def is_simple(self) -> bool:
        """True if the name has exactly one component (an element of N)."""
        return len(self._parts) == 1

    # -- algebra -----------------------------------------------------

    def child(self, component: str) -> "CompoundName":
        """Return this name extended with one atomic component."""
        return CompoundName(self._parts + (check_atomic_name(component),),
                            rooted=self._rooted)

    def join(self, other: "NameLike") -> "CompoundName":
        """Concatenate, keeping this name's rootedness.

        If *other* is rooted it replaces self entirely, matching the
        usual path-join convention.
        """
        other = CompoundName.coerce(other)
        if other.rooted:
            return other
        return CompoundName(self._parts + other._parts, rooted=self._rooted)

    def relative(self) -> "CompoundName":
        """A copy of this name with :attr:`rooted` cleared."""
        if not self._rooted:
            return self
        return CompoundName(self._parts)

    def as_rooted(self) -> "CompoundName":
        """A copy of this name with :attr:`rooted` set."""
        if self._rooted:
            return self
        return CompoundName(self._parts, rooted=True)

    def starts_with(self, prefix: "NameLike") -> bool:
        """True if *prefix*'s components are a prefix of this name's.

        Rootedness must agree for a rooted prefix: ``/vice`` is a prefix
        of ``/vice/usr`` but not of ``vice/usr``.
        """
        prefix = CompoundName.coerce(prefix)
        if prefix.rooted and not self._rooted:
            return False
        k = len(prefix._parts)
        return self._parts[:k] == prefix._parts

    def strip_prefix(self, prefix: "NameLike") -> "CompoundName":
        """Remove a leading *prefix*; the result is relative.

        Raises:
            NameSyntaxError: if *prefix* is not actually a prefix.
        """
        prefix = CompoundName.coerce(prefix)
        if not self.starts_with(prefix):
            raise NameSyntaxError(f"{self} does not start with {prefix}")
        return CompoundName(self._parts[len(prefix._parts):])

    def with_prefix(self, prefix: "NameLike") -> "CompoundName":
        """Return ``prefix / self`` (the human mapping of section 7)."""
        return CompoundName.coerce(prefix).join(self.relative())

    def normalized(self) -> "CompoundName":
        """Collapse ``..`` components against preceding ordinary ones.

        Leading ``..`` components of a relative name are preserved (they
        escape the starting context, as in the Newcastle Connection);
        for a rooted name leading ``..`` components are dropped, the
        usual Unix rule that the root is its own parent.
        """
        out: list[str] = []
        for part in self._parts:
            if part == PARENT and out and out[-1] != PARENT:
                out.pop()
            elif part == PARENT and self._rooted and not out:
                continue
            else:
                out.append(part)
        return CompoundName(out, rooted=self._rooted)

    # -- sequence protocol -------------------------------------------

    def __len__(self) -> int:
        return len(self._parts)

    def __iter__(self) -> Iterator[str]:
        return iter(self._parts)

    def __getitem__(self, index):  # type: ignore[override]
        if isinstance(index, slice):
            return CompoundName(self._parts[index])
        return self._parts[index]

    def __contains__(self, item: object) -> bool:
        return item in self._parts

    # -- identity ----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, CompoundName):
            return (self._parts, self._rooted) == (other._parts, other._rooted)
        return NotImplemented

    def __lt__(self, other: "CompoundName") -> bool:
        if not isinstance(other, CompoundName):
            return NotImplemented
        return (not self._rooted, self._parts) < (not other._rooted, other._parts)

    def __hash__(self) -> int:
        return hash((self._parts, self._rooted))

    def __str__(self) -> str:
        body = SEPARATOR.join(self._parts)
        return (SEPARATOR + body) if self._rooted else body

    def __repr__(self) -> str:
        return f"CompoundName.parse({str(self)!r})"


#: Anything the public API accepts where a name is expected.
NameLike = Union[str, CompoundName, Iterable[str]]


def name(value: NameLike) -> CompoundName:
    """Shorthand for :meth:`CompoundName.coerce` (module-level helper)."""
    return CompoundName.coerce(value)
