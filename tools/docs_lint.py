#!/usr/bin/env python3
"""Docs lint: relative-link check, env-knob drift check, cited-doc check.

Run from the repo root (CI does):  python3 tools/docs_lint.py

Checks, each exiting non-zero on failure:
  1. Every relative markdown link (and image) in README.md, ROADMAP.md,
     bench/README.md, and docs/*.md resolves to an existing file. External
     http(s)/mailto links and pure #anchors are skipped — CI must not
     depend on the network.
  2. Every ADEPT_* environment knob documented in src/common/env.h appears
     in README.md — and specifically as a row of the README knob table
     (a line starting "| `KNOB"), so the table cannot silently drift from
     the source of truth while a stray prose mention keeps the check green.
  3. Every README knob-table row names a knob src/common/env.h documents.
  4. Every knob src/common/env.h documents, other than the ADEPT_BENCH_*
     family (read by the benches), is read by a string literal ("KNOB")
     somewhere in src/, so a knob whose code is gone cannot stay documented.
  5. Every *.md path cited in a .h, .cpp, .inc or .py file under src/,
     bench/, examples/, tests/, tools/ and perfbench/ resolves from the repo
     root, so no comment sends its reader to a doc that does not exist.
"""
from __future__ import annotations

import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

DOC_FILES = sorted(
    [ROOT / "README.md", ROOT / "ROADMAP.md", ROOT / "bench" / "README.md"]
    + list((ROOT / "docs").glob("*.md"))
)

# [text](target) links, excluding images handled identically and code spans
# stripped first. Markdown inside code fences is still linted — links there
# are expected to be real paths in this repo's docs.
LINK_RE = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
KNOB_RE = re.compile(r"\bADEPT_[A-Z0-9_]+\b")
# A README knob-table row: "| `ADEPT_X` | default | meaning |".
ROW_RE = re.compile(r"^\| `(ADEPT_[A-Z0-9_]+)", re.MULTILINE)
# A knob read by code: the name as a complete string literal.
LITERAL_RE = re.compile(r"\"(ADEPT_[A-Z0-9_]+)\"")
# A doc path cited in source: a whole path token ending in .md that starts
# with a name character, so a glob such as docs/*.md is not a citation.
CITED_MD_RE = re.compile(r"(?<![\w./-])[\w-][\w./-]*\.md\b")
SOURCE_DIRS = ("src", "bench", "examples", "tests", "tools", "perfbench")
SOURCE_SUFFIXES = (".h", ".cpp", ".inc", ".py")


def check_links() -> list[str]:
    errors = []
    for doc in DOC_FILES:
        if not doc.exists():
            errors.append(f"{doc.relative_to(ROOT)}: file missing")
            continue
        text = doc.read_text(encoding="utf-8")
        for match in LINK_RE.finditer(text):
            target = match.group(1)
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            path = target.split("#", 1)[0]
            if not path:
                continue
            resolved = (doc.parent / path).resolve()
            if not resolved.exists():
                line = text.count("\n", 0, match.start()) + 1
                errors.append(
                    f"{doc.relative_to(ROOT)}:{line}: broken link -> {target}"
                )
    return errors


def check_env_knobs() -> list[str]:
    env_h = (ROOT / "src" / "common" / "env.h").read_text(encoding="utf-8")
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    # ADEPT_BENCH_* is a documented prefix family (per-bench scale knobs
    # live in bench_common.h); the concrete name ADEPT_BENCH_FULL is still
    # checked like any other.
    knobs = sorted(set(KNOB_RE.findall(env_h)))
    errors = []
    for knob in knobs:
        if knob not in readme:
            errors.append(
                f"src/common/env.h documents {knob} but README.md never mentions it"
            )
        elif f"| `{knob}" not in readme:
            # Mentioned in prose but missing a knob-table row. The wildcard
            # family ADEPT_BENCH_* satisfies this through its "| `ADEPT_BENCH_*`"
            # row (the regex captures the common prefix).
            errors.append(
                f"src/common/env.h documents {knob} but the README.md knob "
                "table has no row for it"
            )
    for knob in sorted(set(ROW_RE.findall(readme))):
        if knob not in knobs:
            errors.append(
                f"README.md knob table has a row for {knob} but "
                "src/common/env.h does not document it"
            )
    read = set()
    for src in (ROOT / "src").rglob("*"):
        if src.suffix in (".h", ".cpp", ".inc"):
            read.update(LITERAL_RE.findall(src.read_text(encoding="utf-8")))
    for knob in knobs:
        if not knob.startswith("ADEPT_BENCH_") and knob not in read:
            errors.append(
                f"src/common/env.h documents {knob} but no string literal "
                "in src/ reads it"
            )
    return errors


def check_cited_docs() -> list[str]:
    errors = []
    for top in SOURCE_DIRS:
        for src in sorted((ROOT / top).rglob("*")):
            if src.suffix not in SOURCE_SUFFIXES or not src.is_file():
                continue
            text = src.read_text(encoding="utf-8")
            for match in CITED_MD_RE.finditer(text):
                if not (ROOT / match.group(0)).exists():
                    line = text.count("\n", 0, match.start()) + 1
                    errors.append(
                        f"{src.relative_to(ROOT)}:{line}: cites "
                        f"{match.group(0)}, which does not exist"
                    )
    return errors


def main() -> int:
    errors = check_links() + check_env_knobs() + check_cited_docs()
    for err in errors:
        print(f"docs-lint: {err}", file=sys.stderr)
    if not errors:
        docs = ", ".join(str(d.relative_to(ROOT)) for d in DOC_FILES)
        print(f"docs-lint: OK ({docs})")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
