"""Stateless extraction + tokenize-count stages (SURVEY.md §2 A3/A4).

Both are plain functions → Ray schedules them as elastic tasks.  Batches are
zero-copy Arrow; ``batch_size=None`` is used by the pipeline so batch memory
is bounded by Ray's byte-based block splitting, which is what makes
heavy-tailed page sizes safe without a shuffle (a whale page lands in a
small-row-count block automatically).
"""

from __future__ import annotations

from collections import Counter

import pyarrow as pa

from ocr_proofreader_ray.functions.html_extract import extract_main_text
from ocr_proofreader_ray.functions.tokenize import dict_tokens

RAW_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("lang", pa.string()),
        ("raw_text", pa.string()),
        ("html_bytes", pa.int64()),
        ("n_chars", pa.int64()),
        ("truncated", pa.bool_()),
    ]
)


def extract_batch(batch: pa.Table,
                  max_html_bytes: int | None = None) -> pa.Table:
    """(url, html, lang) -> (url, lang, raw_text, html_bytes, n_chars,
    truncated).

    The wide ``html`` binary column is dropped here — nothing downstream
    (shuffles included) ever moves raw HTML again.  A page larger than
    ``max_html_bytes`` is truncated to the cap before parsing (whale-page
    hard cap, SURVEY.md §7: byte-bounded blocks isolate whales between
    rows but cannot split one value) and flagged in ``truncated``;
    ``html_bytes`` records the ORIGINAL size for lineage.  Truncation is
    mid-byte-safe: the parser decodes with errors="replace".
    """
    # single binary->Python conversion pass (VERDICT r01 #6: the previous
    # per-element as_py() in two comprehensions copied every page twice)
    htmls = batch.column("html").to_pylist()
    sizes = [len(h) if h is not None else 0 for h in htmls]
    if max_html_bytes:
        trunc = [s > max_html_bytes for s in sizes]
        texts = [extract_main_text((h or b"")[:max_html_bytes])
                 for h in htmls]
    else:
        trunc = [False] * len(htmls)
        texts = [extract_main_text(h or b"") for h in htmls]
    return pa.table(
        {
            "url": batch.column("url"),
            "lang": batch.column("lang"),
            "raw_text": pa.array(texts, pa.string()),
            "html_bytes": pa.array(sizes, pa.int64()),
            "n_chars": pa.array([len(t) for t in texts], pa.int64()),
            "truncated": pa.array(trunc, pa.bool_()),
        },
        schema=RAW_SCHEMA,
    )


COUNTS_SCHEMA = pa.schema(
    [("lang", pa.string()), ("token", pa.string()), ("count", pa.int64())]
)


def tokenize_count_batch(batch: pa.Table) -> pa.Table:
    """Per-batch partial token counts: (lang, raw_text) -> (lang, token, count).

    This is the combiner half of the dictionary build: the subsequent
    ``ops.agg.grouped_sum_top_k`` merges only these compact partials, never
    document text (SURVEY.md §4 "shuffle" row / FP-Hadoop-style partials).
    """
    per_lang: dict[str, Counter] = {}
    langs = batch.column("lang").to_pylist()
    texts = batch.column("raw_text").to_pylist()
    for lang, text in zip(langs, texts):
        # update with the raw token LIST: Counter counts it in C; building
        # a per-doc Counter first and merging dicts was ~20% slower
        per_lang.setdefault(lang, Counter()).update(dict_tokens(text or ""))
    out_lang, out_tok, out_cnt = [], [], []
    # None-safe key order: a null lang must not crash the sort
    for lang in sorted(per_lang, key=lambda k: (k is None, k or "")):
        counter = per_lang[lang]
        for tok in sorted(counter):
            out_lang.append(lang)
            out_tok.append(tok)
            out_cnt.append(counter[tok])
    return pa.table(
        {"lang": out_lang, "token": out_tok, "count": out_cnt},
        schema=COUNTS_SCHEMA,
    )
