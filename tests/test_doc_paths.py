"""Every ``repro.…`` path the prose documentation names still exists.

README.md, DESIGN.md and ``docs/*.md`` name modules, classes and
functions as backticked dotted paths.  A path whose target was deleted
or moved sends a reader to nothing; this test resolves each one.
"""

from __future__ import annotations

import importlib
import re
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
DOCS = [REPO / "README.md", REPO / "DESIGN.md", *sorted((REPO / "docs").glob("*.md"))]
#: A backticked span that starts with a dotted ``repro`` path.
PATH = re.compile(r"`(repro(?:\.[A-Za-z_]\w*)+)")


def _resolves(dotted: str) -> bool:
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attr in parts[cut:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


def doc_paths() -> dict[str, list[str]]:
    """Dotted path -> the documents that name it."""
    found: dict[str, list[str]] = {}
    for doc in DOCS:
        for dotted in PATH.findall(doc.read_text()):
            found.setdefault(dotted, []).append(doc.name)
    return found


def test_docs_name_repro_paths():
    # The scan must see the documents' paths, or the next test is vacuous.
    assert len(doc_paths()) > 100


def test_every_documented_path_resolves():
    dangling = {
        dotted: docs
        for dotted, docs in doc_paths().items()
        if not _resolves(dotted)
    }
    assert not dangling, f"documented paths that do not resolve: {dangling}"
