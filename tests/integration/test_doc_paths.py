"""Every repo path the documentation names exists."""

from __future__ import annotations

import re
from pathlib import Path

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
