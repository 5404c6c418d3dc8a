"""The design docs cite only files (and tests) that exist.

Every backticked repository path in DESIGN.md, README.md and
``docs/*.md`` — a token starting with ``src/``, ``tests/``,
``benchmarks/``, ``scripts/``, ``docs/`` or ``bench/``, optionally
followed by a ``::test`` node name or command-line arguments — must
name an existing file or directory, and a ``::name`` must be defined in
that file.
"""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DOCS = ["DESIGN.md", "README.md"] + sorted(
    str(p.relative_to(ROOT)) for p in (ROOT / "docs").glob("*.md"))
PREFIXES = ("src/", "tests/", "benchmarks/", "scripts/", "docs/", "bench/")
BACKTICKED = re.compile(r"`([^`\n]+)`")


def cited_paths(doc):
    text = (ROOT / doc).read_text(encoding="utf-8")
    for match in BACKTICKED.finditer(text):
        token = match.group(1)
        if token.startswith(PREFIXES):
            line = text.count("\n", 0, match.start()) + 1
            yield line, token.split()[0]


@pytest.mark.parametrize("doc", DOCS)
def test_cited_repo_paths_exist(doc):
    missing = []
    for line, cited in cited_paths(doc):
        path, _, name = cited.partition("::")
        target = ROOT / path
        if not target.exists():
            missing.append(f"{doc}:{line}: {cited}")
        elif name and not re.search(
                rf"^\s*(?:async\s+)?(?:def|class)\s+{re.escape(name)}\b",
                target.read_text(encoding="utf-8"), re.MULTILINE):
            missing.append(f"{doc}:{line}: {cited} (no {name} in {path})")
    assert not missing, "\n".join(missing)
