"""PDF/layout-parse pipeline queries (north_rule surface).

``q_pdf_layout`` synthesizes deterministic FPDF containers from
``documents`` (stages/pdf_layout.py), runs the actor-pool layout extractor,
and emits per-document layout counters.  The DuckDB oracle reproduces the
counters as pure functions of the document text — matching values prove
the reading-order assembly and header/footer suppression end-to-end:

* paragraphs of 12 tokens  -> n_blocks = ceil(n_toks/12) + 1 (heading)
* 14 paragraphs per page   -> n_pages  = max(1, ceil(n_paras/14))
* headers/footers dropped; heading adds "Document <id>" = 2 tokens
                           -> n_tokens = n_toks + 2
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from ocr_proofreader_ray.ops.io import read_parquet
from ocr_proofreader_ray.pipelines.registry import register
from ocr_proofreader_ray.stages.pdf_layout import PdfLayoutStage, synthesize_pdf_batch

PDF_BATCH_SIZE = 64  # payload-heavy rows: keep actor batches small


@register(
    "q_pdf_layout",
    sql=r"""
    WITH base AS (
        -- token count = whitespace RUNS (len of regexp matches), exactly
        -- Python str.split(): empty text -> 0 tokens, multi-space collapses
        -- (ADVICE r01: the old spaces+1 formula diverged on those inputs)
        SELECT doc_id,
               len(regexp_extract_all(text, '\S+')) AS n_toks,
               CAST(ceil(len(regexp_extract_all(text, '\S+')) / 12.0)
                    AS INTEGER) AS n_paras
        FROM documents
    )
    SELECT doc_id,
           CAST(greatest(1, CAST(ceil(n_paras / 14.0) AS INTEGER)) AS INTEGER)
               AS n_pages,
           CAST(n_paras + 1 AS INTEGER) AS n_blocks,
           CAST(n_toks + 2 AS BIGINT)   AS n_tokens
    FROM base
    """,
)
def q_pdf_layout(sf_dir: str):
    """Layout extraction counters per document, actor-pool parsed."""
    ds = read_parquet(f"{sf_dir}/documents.parquet",
                      columns=["doc_id", "text"])
    ds = ds.map_batches(synthesize_pdf_batch, batch_format="pyarrow",
                        zero_copy_batch=True)
    ds = ds.map_batches(
        PdfLayoutStage, fn_constructor_args=(True,),
        batch_format="pyarrow", batch_size=PDF_BATCH_SIZE,
        concurrency=(1, 4), num_cpus=1)

    def counters(b: pa.Table) -> pa.Table:
        # token count over whitespace RUNS (blank separator lines must not
        # produce phantom tokens) — vectorized split + list length
        text = b.column("layout_text")
        n_tokens = pc.cast(
            pc.list_value_length(pc.utf8_split_whitespace(text)), pa.int64())
        return pa.table({
            "doc_id": b.column("doc_id"),
            "n_pages": b.column("n_pages"),
            "n_blocks": b.column("n_blocks"),
            "n_tokens": n_tokens,
        })

    return ds.map_batches(counters, batch_format="pyarrow", zero_copy_batch=True)
