"""CLI entry points (the reference is a command-line tool; SURVEY.md §3.1
lists its entry points — batch clean, dictionary build — which map here to
``extract`` and ``build-dict``, plus ``query`` for the registered operator
surface).

Examples::

    python -m ocr_proofreader_ray extract --input '/data/pages-*.parquet' \
        --work-dir /tmp/job --files-per-chunk 64
    python -m ocr_proofreader_ray build-dict --input ... --work-dir /tmp/job
    python -m ocr_proofreader_ray query q1_pricing_summary \
        --sf-dir /root/testdata/sf0.01 --limit 5

Owns its Ray session (init guarded, shutdown at exit) per the driver
contract: only CLIs, bench.py and the test fixture may init Ray.
"""

from __future__ import annotations

import argparse
import json
import sys


def _init_ray(num_cpus: int | None) -> None:
    import ray

    if not ray.is_initialized():
        kwargs = {"address": "local", "include_dashboard": False,
                  "logging_level": "ERROR"}
        if num_cpus:
            kwargs["num_cpus"] = num_cpus
        ray.init(**kwargs)


def cmd_extract(args) -> int:
    from ocr_proofreader_ray.config import ExtractionConfig
    from ocr_proofreader_ray.pipelines.extraction import run_extraction

    _init_ray(args.num_cpus)
    cfg = ExtractionConfig(
        input_paths=args.input,
        work_dir=args.work_dir,
        files_per_chunk=args.files_per_chunk,
        fix_log_path=args.fix_log,
    )
    ds = run_extraction(cfg)
    print(json.dumps({"rows": ds.count(), "out_dir": cfg.out_dir,
                      "manifest_dir": cfg.manifest_dir}))
    return 0


def cmd_build_dict(args) -> int:
    from ocr_proofreader_ray.config import ExtractionConfig
    from ocr_proofreader_ray.pipelines.extraction import (
        build_dictionary,
        input_chunks,
        run_pass1_group,
    )

    _init_ray(args.num_cpus)
    cfg = ExtractionConfig(input_paths=args.input, work_dir=args.work_dir,
                           files_per_chunk=args.files_per_chunk)
    # the same pass-1 entry point (fingerprints, manifest counters) as
    # `extract`, so either command resumes the other's committed chunks
    run_pass1_group(cfg, input_chunks(cfg))
    path = build_dictionary(cfg)
    print(json.dumps({"dict_path": path}))
    return 0


def cmd_query(args) -> int:
    from ocr_proofreader_ray.pipelines.registry import all_queries

    _init_ray(args.num_cpus)
    queries = all_queries()
    if args.name not in queries:
        print(f"unknown query {args.name!r}; available: "
              f"{', '.join(sorted(queries))}", file=sys.stderr)
        return 2
    result = queries[args.name](args.sf_dir)
    if hasattr(result, "to_pandas") and not hasattr(result, "to_pylist"):
        result = result.to_pandas()  # Dataset
    rows = (result.to_pylist() if hasattr(result, "to_pylist")
            else result.to_dict("records"))
    for row in rows[: args.limit]:
        print(json.dumps(row, default=str))
    return 0


def cmd_prep(args) -> int:
    from ocr_proofreader_ray.pipelines.prep import q_llm_prep_corpus

    _init_ray(args.num_cpus)
    lineage = q_llm_prep_corpus(args.sf_dir, resume=args.resume)
    for row in lineage.to_pylist():
        print(json.dumps(row))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="ocr_proofreader_ray")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("extract", help="run the two-pass extraction pipeline")
    p.add_argument("--input", required=True, help="parquet path/glob/dir")
    p.add_argument("--work-dir", required=True)
    p.add_argument("--files-per-chunk", type=int, default=64)
    p.add_argument("--num-cpus", type=int, default=None)
    p.add_argument("--fix-log", default=None,
                   help="parquet of accepted (lang, token, replacement) "
                        "corrections applied as an override layer")
    p.set_defaults(fn=cmd_extract)

    p = sub.add_parser("build-dict", help="pass 1 + dictionary only")
    p.add_argument("--input", required=True)
    p.add_argument("--work-dir", required=True)
    p.add_argument("--files-per-chunk", type=int, default=64)
    p.add_argument("--num-cpus", type=int, default=None)
    p.set_defaults(fn=cmd_build_dict)

    p = sub.add_parser(
        "prep", help="run the composed LLM prep pipeline "
        "(dedup → decontaminate → cap → sample, stage-checkpointed)")
    p.add_argument("--sf-dir", default="/root/testdata/sf0.001")
    p.add_argument("--resume", action="store_true",
                   help="skip stages whose checkpoint fingerprint matches")
    p.add_argument("--num-cpus", type=int, default=None)
    p.set_defaults(fn=cmd_prep)

    p = sub.add_parser("query", help="run a registered query by name")
    p.add_argument("name")
    p.add_argument("--sf-dir", default="/root/testdata/sf0.001")
    p.add_argument("--limit", type=int, default=20)
    p.add_argument("--num-cpus", type=int, default=None)
    p.set_defaults(fn=cmd_query)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    finally:
        import ray

        if ray.is_initialized():
            ray.shutdown()


if __name__ == "__main__":
    sys.exit(main())
