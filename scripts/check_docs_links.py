#!/usr/bin/env python3
"""Docs lint: every relative markdown link and cited code path must exist.

Scans the repo's markdown (README.md, docs/, per-directory READMEs, the
planning files) for inline links and fails if a relative target does not
exist on disk. External links (http/https/mailto) and pure anchors are
skipped — this is a dead-file check, not a crawler.

It also checks repo paths cited as code: every token of an inline
`backticked` span or a fenced code block that starts with src/, tests/,
bench/ or scripts/ must name a file or directory relative to the repo root
(a trailing :line is dropped; tokens with glob or placeholder characters
are skipped). Only the files that describe the current code are held to
this: every README.md and everything under docs/. History logs and
planning notes may name code that is gone or not yet written. CI runs it
as the docs-lint job:

    python3 scripts/check_docs_links.py

Exit codes: 0 = all links and paths resolve, 1 = at least one broken link
or dead path (each is printed as file:line: target), 2 = usage/IO error.
"""

import argparse
import pathlib
import re
import sys

# Inline markdown links [text](target). Reference-style links and autolinks
# are rare in this repo; inline covers the committed docs.
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")

SKIP_PREFIXES = ("http://", "https://", "mailto:", "#")

# Directories that hold generated or third-party trees, never doc targets.
SKIP_DIRS = {"build", ".git", ".bench_build"}

# Inline code spans on one line, and the repo paths cited inside them.
CODE_SPAN_RE = re.compile(r"`([^`]+)`")
CITED_PREFIXES = ("src/", "tests/", "bench/", "scripts/")
# Globs, brace sets, placeholders and elisions name families of files.
PATTERN_CHARS = set("*?[]{}<>…")
LINE_SUFFIX_RE = re.compile(r":\d+(?:-\d+)?$")


def describes_current_code(path: pathlib.Path, root: pathlib.Path) -> bool:
    relative = path.relative_to(root)
    return relative.name == "README.md" or relative.parts[0] == "docs"


def iter_markdown(root: pathlib.Path):
    for path in sorted(root.rglob("*.md")):
        if any(part in SKIP_DIRS for part in path.parts):
            continue
        yield path


def cited_paths(code: str):
    """Repo paths cited in a piece of code (a span or a fenced line)."""
    for token in code.replace(",", " ").split():
        token = token.rstrip(".;:)'\"")
        if not token.startswith(CITED_PREFIXES):
            continue
        if PATTERN_CHARS & set(token) or "..." in token:
            continue
        yield LINE_SUFFIX_RE.sub("", token)


def check_file(path: pathlib.Path, root: pathlib.Path):
    broken = []
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as err:
        print(f"check_docs_links: cannot read {path}: {err}", file=sys.stderr)
        sys.exit(2)
    check_citations = describes_current_code(path, root)
    in_fence = False
    for lineno, line in enumerate(text.splitlines(), start=1):
        if line.lstrip().startswith("```"):
            in_fence = not in_fence
            continue
        if check_citations:
            if in_fence:
                codes = [line]
            else:
                codes = [m.group(1) for m in CODE_SPAN_RE.finditer(line)]
            for code in codes:
                for cited in cited_paths(code):
                    if not (root / cited).exists():
                        broken.append((lineno, cited))
        for match in LINK_RE.finditer(line):
            target = match.group(1)
            if target.startswith(SKIP_PREFIXES):
                continue
            # Drop any #anchor suffix; the file is what must exist.
            target_path = target.split("#", 1)[0]
            if not target_path:
                continue
            if target_path.startswith("/"):
                resolved = root / target_path.lstrip("/")
            else:
                resolved = path.parent / target_path
            if not resolved.exists():
                broken.append((lineno, target))
    return broken


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "root",
        nargs="?",
        default=".",
        help="repository root to scan (default: current directory)",
    )
    args = parser.parse_args()
    root = pathlib.Path(args.root).resolve()
    if not root.is_dir():
        print(f"check_docs_links: not a directory: {root}", file=sys.stderr)
        return 2

    failures = 0
    files = 0
    for path in iter_markdown(root):
        files += 1
        for lineno, target in check_file(path, root):
            print(f"{path.relative_to(root)}:{lineno}: broken link or dead "
                  f"path -> {target}")
            failures += 1
    if failures:
        print(f"check_docs_links: {failures} broken link(s) or dead path(s) "
              f"in {files} files")
        return 1
    print(f"check_docs_links: OK: {files} markdown files, all links and "
          f"cited paths resolve")
    return 0


if __name__ == "__main__":
    sys.exit(main())
