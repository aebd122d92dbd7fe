"""Query registry: every operator exposed to the driver contract registers
here with its Ray implementation and (when SQL-expressible) its DuckDB oracle.

``queries()``/``oracle_sql()`` in ``__ray_entry__.py`` are thin views of this
registry (SURVEY.md §2.B)."""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

_QUERIES: dict[str, Callable[[str], Any]] = {}
_ORACLES: dict[str, str] = {}


def register(name: str, sql: str | None = None):
    def deco(fn: Callable[[str], Any]):
        _QUERIES[name] = fn
        if sql is not None:
            _ORACLES[name] = sql
        return fn

    return deco


def all_queries() -> dict[str, Callable[[str], Any]]:
    # import side-effect modules that populate the registry
    from ocr_proofreader_ray.pipelines import (  # noqa: F401
        dedup,
        incremental,
        multimodal,
        pdf,
        prep,
        relational,
        similarity,
        text_analysis,
    )

    return dict(_QUERIES)


def all_oracles() -> dict[str, str]:
    all_queries()
    return dict(_ORACLES)
