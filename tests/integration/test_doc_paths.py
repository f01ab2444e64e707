"""Every repo path and class member the documentation names exists."""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import repro

REPO = Path(__file__).resolve().parents[2]
DOCS = [REPO / "README.md", REPO / "DESIGN.md", REPO / "EXPERIMENTS.md",
        *sorted((REPO / "docs").glob("*.md")),
        REPO / "benchmarks" / "e2e" / "README.md"]

#: A path under one of the source roots, or an upper-case JSON file at
#: the repo root, in running text or code.  A double quote in front
#: marks a name inside a simulated namespace (``mkfile("src/prog.c")``
#: in the tutorial), not a file here.
NAMED = re.compile(
    r"(?<![\w/.<>*\"-])"
    r"((?:src|tools|tests|benchmarks|docs|examples)/[^\s`'\"()\[\],;:|]*"
    r"|[A-Z][A-Z0-9_]*\.json)")
#: The target of a relative markdown link.
LINKED = re.compile(r"\]\((?!https?:|#)([^)#]+)")


def _exists(base: Path, token: str) -> bool:
    """*token* names a file or directory under *base*; ``<id>``-style
    placeholders and ``*`` match anything (a link target may have
    wrapped onto the next line)."""
    pattern = re.sub(r"<[^>]*>", "*", token.strip().rstrip("./"))
    return next(base.glob(pattern), None) is not None


def test_every_path_the_docs_name_exists():
    checked, dangling = 0, []
    for doc in DOCS:
        text = doc.read_text(encoding="utf-8")
        for base, pattern in ((REPO, NAMED), (doc.parent, LINKED)):
            for token in pattern.findall(text):
                checked += 1
                if not _exists(base, token):
                    dangling.append(f"{doc.relative_to(REPO)}: {token}")
    assert checked > 50, "the patterns no longer find the docs' paths"
    assert not dangling, dangling


#: ``Class.attr`` in backticks (a call's arguments may follow).
MEMBER = re.compile(r"`([A-Z]\w*)\.([a-z_]\w*)[^`]*`")
#: Generated files: ``api_reference.md`` is checked by its generator,
#: ``EXPERIMENTS.md`` is experiment output.  (``benchmarks/e2e/`` is
#: skipped too: its README belongs to ``[benchmark]`` issues.)
UNCHECKED = {"api_reference.md", "EXPERIMENTS.md"}


def _exported_classes() -> dict[str, list[type]]:
    """Every class some ``repro.*`` module lists in ``__all__``."""
    classes: dict[str, list[type]] = {}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(info.name)
        for name in getattr(module, "__all__", ()):
            value = getattr(module, name)
            if inspect.isclass(value) and value not in classes.get(name, ()):
                classes.setdefault(name, []).append(value)
    return classes


def _has_member(cls: type, attr: str) -> bool:
    """A class attribute (methods, properties, slots, dataclass
    fields) or an instance attribute some method of the class sets."""
    if hasattr(cls, attr) or attr in getattr(cls, "__annotations__", ()):
        return True
    return any(re.search(rf"\bself\.{attr}\b\s*(:[^=\n]+)?=[^=]",
                         inspect.getsource(klass))
               for klass in cls.__mro__ if klass.__module__ != "builtins")


def test_every_member_the_docs_name_exists():
    classes = _exported_classes()
    checked, dangling = 0, []
    for doc in DOCS:
        if doc.name in UNCHECKED or doc.parent.name == "e2e":
            continue
        for name, attr in MEMBER.findall(doc.read_text(encoding="utf-8")):
            if name not in classes:
                continue
            checked += 1
            if not any(_has_member(cls, attr) for cls in classes[name]):
                dangling.append(f"{doc.relative_to(REPO)}: {name}.{attr}")
    assert checked > 50, "the pattern no longer finds the docs' members"
    assert not dangling, dangling
