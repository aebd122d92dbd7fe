"""Unit tests for the dictionary-build tokenizer (SURVEY.md §2 A4)."""

from ocr_proofreader_ray.functions.line_join import join_lines
from ocr_proofreader_ray.functions.tokenize import (
    _EVERY_WORD,
    count_tokens,
    dict_tokens,
)


def test_naive_unwrap_always_joins_hyphen():
    assert join_lines("exam-\nple text", _EVERY_WORD) == ["example text"]
    # compounds are also joined here (dictionary-free pass); the junk merge
    # is filtered later by min_count
    assert join_lines("well-\nknown", _EVERY_WORD) == ["wellknown"]


def test_dict_tokens_lowercase_alpha_only():
    toks = dict_tokens("The w0rd Example x7q9z3 a of")
    assert toks == ["the", "example", "of"]  # w0rd (digit), x7q9z3, "a" (len 1) out


def test_count_tokens_merges_across_lines():
    c = count_tokens("exam-\nple example\n\nexample")
    assert c["example"] == 3


def _reference_unwrap(text: str) -> list[list[str]]:
    """Pass 1's own paragraph reflow with unconditional hyphen-join, kept
    as the reference that ``dict_tokens`` (now ``line_join``'s reflow
    against a dictionary holding every word) must reproduce."""
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

    out: list[list[str]] = []
    for lines in paragraphs:
        tokens: list[str] = []
        pending: str | None = None
        for line in lines:
            parts = line.split()
            if not parts:
                continue
            if pending is not None:
                parts[0] = pending + parts[0]
                pending = None
            last = parts[-1]
            if len(last) >= 2 and last.endswith("-") and not last.endswith("--"):
                pending = last[:-1]
                parts.pop()
            tokens.extend(parts)
        if pending is not None:
            tokens.append(pending + "-")
        out.append(tokens)
    return out


def _reference_dict_tokens(text: str) -> list[str]:
    return [low for para in _reference_unwrap(text) for tok in para
            for low in [tok.lower()] if len(low) >= 2 and low.isalpha()]


_EDGE_TEXTS = [
    "a-\nb-\nc",            # chained wrap hyphens
    "dangling tail-",       # hyphen at paragraph end stays literal
    "dangling tail-\n\nnext para",
    "-- dash\n--\nend --",  # double hyphens never join
    "x-\ny",                # a one-letter fragment still joins
    "-\nsolo",              # a lone hyphen is no fragment
    "",
    "\n\n  \n\t\n",         # blank-only text
    "İstanbul İ-\nİ",       # lower() changes the length of İ
    "  lead  \n  trail-  \n  ing  \n\n\n  x  ",
]


def _golden_texts() -> list[str]:
    from fixtures.gen_pages import render_shard
    from tests.test_golden_corpus import CORRECTION_CASES, HTML_CASES

    from ocr_proofreader_ray.functions.html_extract import extract_main_text

    texts = [expected for _name, _html, expected in HTML_CASES]
    texts += [extract_main_text(html) for _n, html, _e, _k in CORRECTION_CASES]
    texts += render_shard(0, 300).column("text").to_pylist()
    return texts + _EDGE_TEXTS


def test_pass1_reflow_matches_reference():
    for text in _golden_texts():
        assert dict_tokens(text) == _reference_dict_tokens(text), text
        assert join_lines(text, _EVERY_WORD) == [
            " ".join(p) for p in _reference_unwrap(text)], text
