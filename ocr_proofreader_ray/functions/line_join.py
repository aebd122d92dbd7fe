"""Hyphenation / line-break rejoining (SURVEY.md §2 A6).

Semantics (BASELINE.json north_star: "hyphenation/line-break rejoining ...
the logic its line-joining tests exercise"):

* A blank line is a paragraph boundary; hard-wrapped lines inside one
  paragraph reflow to a single logical line (joined with single spaces).
* A line ending in ``word-`` merges with the next line's leading fragment:
  - if the merged word (lowercased) is in the language dictionary, the hyphen
    was a soft line-wrap hyphen → emit ``wordfragment`` (hyphen dropped);
  - otherwise the hyphen is literal (a compound like ``well-known`` that got
    wrapped at its hyphen) → emit ``word-fragment`` (hyphen kept, no space).
* Everything is a pure function of (text, frozen dictionary) — independent of
  batch/partition boundaries, so output is byte-identical at any parallelism.
"""

from __future__ import annotations

from collections.abc import Container


def join_paragraph_tokens(lines: list[str],
                          dictionary: Container[str]) -> list[str]:
    """Reflow one paragraph's hard-wrapped lines into its token list."""
    out: list[str] = []
    pending: str | None = None  # word fragment from a trailing-hyphen line
    for line in lines:
        tokens = line.split()
        if not tokens:
            continue
        if pending is not None:
            first = tokens[0]
            merged = pending + first
            if merged.lower() in dictionary:
                tokens[0] = merged
            else:
                tokens[0] = pending + "-" + first
            pending = None
        last = tokens[-1]
        # a trailing hyphen on a word of length >= 2 is a wrap-hyphen candidate
        if len(last) >= 2 and last.endswith("-") and not last.endswith("--"):
            pending = last[:-1]
            tokens.pop()
        out.extend(tokens)
    if pending is not None:
        # dangling fragment at paragraph end: the hyphen was literal
        out.append(pending + "-")
    return out


def join_lines_tokens(text: str,
                      dictionary: Container[str]) -> list[list[str]]:
    """Split ``text`` on blank lines and reflow each paragraph to its TOKEN
    LIST (empty paragraphs dropped) — the corrector consumes tokens
    directly; joining to a string and re-splitting was measurable waste in
    the pass-2 hot path."""
    paragraphs: list[list[str]] = []
    current: list[str] = []
    for line in text.split("\n"):
        if line.strip():
            current.append(line)
        elif current:
            paragraphs.append(current)
            current = []
    if current:
        paragraphs.append(current)
    joined = [join_paragraph_tokens(p, dictionary) for p in paragraphs]
    return [p for p in joined if p]


def join_lines(text: str, dictionary: Container[str]) -> list[str]:
    """Split ``text`` on blank lines and reflow each paragraph.

    Returns the list of reflowed paragraph strings (empty paragraphs dropped).
    """
    return [" ".join(p) for p in join_lines_tokens(text, dictionary)]
