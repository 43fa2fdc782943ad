"""The docs are executable: run every ``python`` snippet in ``docs/*.md``
and ``README.md``, and check intra-repo links in all of them.

This is the "doctest pass" the CI docs job runs.  Each markdown file's
fenced ``python`` blocks execute top to bottom in one shared namespace
(so a later snippet can use names an earlier one defined, exactly as a
reader would follow the page); ``bash`` blocks are not executed, but
every ``python -m repro …`` line in them must parse with the CLI's own
argument parser, so a removed flag cannot linger in the docs.  Link
checking covers every relative ``[text](target)`` — a doc pointing at a
moved file fails CI instead of rotting.
"""

from __future__ import annotations

import pathlib
import re
import shlex

import pytest

REPO = pathlib.Path(__file__).resolve().parent.parent
DOC_FILES = sorted((REPO / "docs").glob("*.md"))
LINKED_FILES = DOC_FILES + [REPO / "README.md"]

_FENCE = re.compile(r"^```(\w*)\s*$")
# [text](target) — excluding images and in-cell pipes; good enough for
# our hand-written markdown
_LINK = re.compile(r"\[[^\]]+\]\(([^)\s]+)\)")


def _blocks(path: pathlib.Path, want: str) -> list[tuple[int, str]]:
    """``(first_line, source)`` for every fenced block of one language."""
    blocks, buf, lang, start = [], [], None, 0
    for lineno, line in enumerate(path.read_text().splitlines(), 1):
        fence = _FENCE.match(line)
        if fence and lang is None:
            lang, buf, start = fence.group(1) or "", [], lineno + 1
        elif line.strip() == "```" and lang is not None:
            if lang == want:
                blocks.append((start, "\n".join(buf)))
            lang = None
        elif lang is not None:
            buf.append(line)
    assert lang is None, f"{path.name}: unterminated code fence"
    return blocks


@pytest.mark.parametrize("path", LINKED_FILES, ids=lambda p: p.name)
def test_doc_snippets_execute(path):
    """Every python snippet on the page runs, in page order, sharing one
    namespace — the doctest pass for the prose docs."""
    blocks = _blocks(path, "python")
    namespace: dict = {}
    for lineno, source in blocks:
        code = compile(source, f"{path.name}:{lineno}", "exec")
        exec(code, namespace)  # asserts inside the snippets do the checking


@pytest.mark.parametrize("path", LINKED_FILES, ids=lambda p: p.name)
def test_cli_lines_parse(path):
    """Every ``python -m repro <subcommand> …`` line of the page's bash
    blocks is a command line the CLI accepts (argparse only — nothing
    runs), so a deleted or renamed flag fails here, not at a reader."""
    from repro.cli import build_parser

    stale = []
    for lineno, source in _blocks(path, "bash"):
        for command in source.replace("\\\n", " ").splitlines():
            _, found, tail = command.partition("python -m repro ")
            if not found:
                continue
            argv = shlex.split(tail, comments=True)
            cut = [i for i, arg in enumerate(argv) if arg in ("&", "|", ">")]
            try:
                build_parser().parse_args(argv[:cut[0]] if cut else argv)
            except SystemExit:
                stale.append(f"{path.name}:{lineno}: {command.strip()}")
    assert not stale, "the CLI rejects:\n" + "\n".join(stale)


def test_docs_have_snippets():
    """The serving guide must keep at least a handful of runnable
    snippets — an all-prose rewrite would silently disable the pass."""
    assert sum(len(_blocks(p, "python")) for p in DOC_FILES) >= 5


@pytest.mark.parametrize("path", LINKED_FILES, ids=lambda p: p.name)
def test_intra_repo_links_resolve(path):
    """Every relative link in docs/*.md and README.md points at a real
    file (anchors are stripped; external URLs are skipped)."""
    text = path.read_text()
    broken = []
    for target in _LINK.findall(text):
        if re.match(r"^[a-z][a-z0-9+.-]*:", target):  # http:, mailto:, …
            continue
        rel = target.split("#", 1)[0]
        if not rel:  # pure in-page anchor
            continue
        if not (path.parent / rel).resolve().exists():
            broken.append(target)
    assert not broken, f"{path.name}: broken links {broken}"


def test_readme_matrix_matches_registry():
    """The README claims its scheme matrix is generated from the SCHEMES
    registry — enforce it, so adding a scheme without re-running
    ``python -m repro schemes --markdown`` fails CI."""
    from repro.oracle.schemes import schemes_markdown

    readme = (REPO / "README.md").read_text()
    assert schemes_markdown() in readme
