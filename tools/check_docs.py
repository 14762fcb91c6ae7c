#!/usr/bin/env python3
"""Check intra-repo links in the markdown docs (CI docs leg).

Scans markdown files for ``[text](target)`` links and verifies that every
relative target resolves to a real file or directory (anchors are checked
against the target file's headings using GitHub's slug rules, close
enough for ASCII headings).  External links (http/https/mailto) are left
alone — CI must not depend on the network.

Usage::

    python tools/check_docs.py [FILE.md ...]
    # default: README.md DESIGN.md docs/*.md benchmarks/results/*.md

Exit codes: 0 all links resolve, 1 at least one broken link (each is
printed as ``file:line: message``).
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
#: Every guide and every benchmark record is checked, so a new one is too.
DEFAULT_GLOBS = ("README.md", "DESIGN.md", "docs/*.md", "benchmarks/results/*.md")

#: ``[text](target)`` — good enough for these docs (no nested brackets).
_LINK = re.compile(r"\[[^\]]+\]\(([^)\s]+)\)")
_HEADING = re.compile(r"^#{1,6}\s+(.*)$")


def default_files() -> list[Path]:
    """The files checked when none are named, in ``DEFAULT_GLOBS`` order."""
    return [path for pattern in DEFAULT_GLOBS for path in sorted(REPO_ROOT.glob(pattern))]


def _slugify(heading: str) -> str:
    """GitHub-style anchor slug: lowercase, drop punctuation, dash spaces."""
    text = heading.strip().lower()
    text = re.sub(r"[^\w\- ]", "", text, flags=re.UNICODE)
    return text.replace(" ", "-")


def _anchors(path: Path) -> set[str]:
    anchors = set()
    for line in path.read_text(encoding="utf-8").splitlines():
        m = _HEADING.match(line)
        if m:
            anchors.add(_slugify(m.group(1)))
    return anchors


def check_file(md_path: Path) -> list[str]:
    """All broken-link messages for one markdown file."""
    errors: list[str] = []
    in_code_block = False
    for lineno, line in enumerate(md_path.read_text(encoding="utf-8").splitlines(), 1):
        if line.lstrip().startswith("```"):
            in_code_block = not in_code_block
            continue
        if in_code_block:
            continue
        for match in _LINK.finditer(line):
            target = match.group(1)
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            path_part, _, anchor = target.partition("#")
            if path_part:
                resolved = (md_path.parent / path_part).resolve()
                if not resolved.exists():
                    errors.append(f"{md_path}:{lineno}: broken link -> {target}")
                    continue
                anchor_file = resolved
            else:
                anchor_file = md_path
            if anchor and anchor_file.suffix == ".md":
                if _slugify(anchor) not in _anchors(anchor_file):
                    errors.append(f"{md_path}:{lineno}: missing anchor -> {target}")
    return errors


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    files = [Path(a) for a in args] if args else default_files()
    errors: list[str] = []
    checked = 0
    for path in files:
        if not path.exists():
            errors.append(f"{path}: file not found")
            continue
        checked += 1
        errors.extend(check_file(path))
    for err in errors:
        print(err, file=sys.stderr)
    if errors:
        print(f"docs check FAILED: {len(errors)} broken link(s)", file=sys.stderr)
        return 1
    print(f"docs check ok: {checked} file(s), all intra-repo links resolve")
    return 0


if __name__ == "__main__":
    sys.exit(main())
