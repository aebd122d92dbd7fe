"""The package has one size gate, ``ops.agg._DRIVER_MAX_BYTES``, which
``conftest.all_exchange`` forces, so no plan runs only at a scale the
tests never reach; no pipeline module defines a gate, and only two
named dedup functions read the bound; only ``ops/`` builds Bloom
filters; only ``ops.agg`` pickles partials or reads block refs; every
block is Arrow and no row path crosses into pandas; and every package
module has a caller outside ``tests/``."""

import ast
import os

from conftest import _EXCHANGE_GATES

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PKG = os.path.join(REPO, "ocr_proofreader_ray")

# module-level constants named like gates that pick no plan: a sample
# size, a similarity threshold and a training-sample size
_NOT_GATES = {"_SAMPLE_MAX", "_SIM_MAX_HAMMING", "_IVF_TRAIN_MAX"}


def _modules(root=PKG):
    """(dotted module name, AST) of every ``.py`` file under ``root``."""
    paths = ([root] if root.endswith(".py") else
             [os.path.join(d, name) for d, _dirs, files in os.walk(root)
              for name in sorted(files) if name.endswith(".py")])
    for path in paths:
        rel = os.path.relpath(path, REPO)[:-3].replace(os.sep, ".")
        with open(path) as fh:
            yield rel.removesuffix(".__init__"), ast.parse(fh.read())


def _gates():
    for module, tree in _modules():
        for node in tree.body:
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign)
                       else [])
            for target in targets:
                if (isinstance(target, ast.Name)
                        and ("MAX" in target.id or "THRESHOLD" in target.id)
                        and target.id not in _NOT_GATES):
                    yield module, target.id


def test_every_gate_is_forced_by_all_exchange():
    gates = set(_gates())
    assert gates == set(_EXCHANGE_GATES), (
        "a size gate must be in conftest._EXCHANGE_GATES so the oracle and "
        "golden gates run its other plan")
    assert _EXCHANGE_GATES == [("ocr_proofreader_ray.ops.agg",
                                "_DRIVER_MAX_BYTES")]


# pipeline functions that compare a size with the bound themselves, each
# with why ``ops/`` cannot decide for them
_BOUND_READERS = {
    ("ocr_proofreader_ray.pipelines.dedup", "_candidate_pairs"):
        "bounds the expanded pairs, which the band rows' bytes cannot "
        "predict",
    ("ocr_proofreader_ray.pipelines.dedup", "dedup_clusters"):
        "bounds the pairs the driver kernel holds, which no partial's "
        "bytes predict",
}


def _bound_reads(tree, scope=None):
    """(enclosing function, node) of every ``_DRIVER_MAX_BYTES`` attribute
    read or name import in ``tree``."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _bound_reads(node, scope or node.name)
            continue
        if ((isinstance(node, ast.Attribute)
             and node.attr == "_DRIVER_MAX_BYTES")
                or (isinstance(node, ast.ImportFrom) and any(
                    a.name == "_DRIVER_MAX_BYTES" for a in node.names))):
            yield scope, node
        yield from _bound_reads(node, scope)


def test_no_pipeline_module_holds_a_gate():
    """A pipeline module defines no size constant, and reads the one
    bound only in the functions ``_BOUND_READERS`` names: every other
    plan choice is made inside ``ops/``."""
    assert not [g for g in _gates()
                if g[0].startswith("ocr_proofreader_ray.pipelines.")]
    readers = {(module, scope) for module, tree in _modules()
               if module.startswith("ocr_proofreader_ray.pipelines.")
               for scope, _node in _bound_reads(tree)}
    assert readers == set(_BOUND_READERS), (
        f"pipeline code reading ops.agg._DRIVER_MAX_BYTES: "
        f"{sorted(readers - set(_BOUND_READERS), key=str)}")


def _imports(tree):
    """Every module name an import statement in ``tree`` names;
    ``from p import m`` names both ``p`` and ``p.m``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            yield node.module
            yield from (f"{node.module}.{a.name}" for a in node.names)
        elif isinstance(node, ast.Import):
            yield from (a.name for a in node.names)


def test_pipelines_do_not_build_bloom_filters():
    """Pipelines filter by a key set through ``ops.join.prefilter``, which
    picks the exact broadcast or a Bloom filter by the one broadcast
    bound."""
    assert not [(module, n) for module, tree in _modules()
                if module.startswith("ocr_proofreader_ray.pipelines.")
                for n in _imports(tree) if n.endswith("functions.bloom")]


def test_only_ops_agg_pickles():
    """Per-batch partials (sketches, moment sums) travel between workers
    and the driver only through ``ops.agg.grouped_sketch``: no other
    module serializes its own."""
    assert not [(module, n) for module, tree in _modules()
                if module != "ocr_proofreader_ray.ops.agg"
                for n in _imports(tree) if n.endswith("pickle")]


def _calls(tree):
    return (node for node in ast.walk(tree) if isinstance(node, ast.Call))


def test_no_module_makes_pandas_blocks():
    """Arrow is the only block format: no map or grouping of the package
    asks Ray for pandas batches, whose output blocks stay pandas."""
    assert not [module for module, tree in _modules()
                for call in _calls(tree) for kw in call.keywords
                if kw.arg == "batch_format"
                and isinstance(kw.value, ast.Constant)
                and kw.value.value == "pandas"]


# the two modules that may cross into pandas: the as-of join, whose
# ``merge_asof`` is the algorithm, and the CLI's result printer
_PANDAS_ALLOWED = {"ocr_proofreader_ray.ops.join",
                   "ocr_proofreader_ray.__main__"}


def test_no_row_path_uses_pandas():
    """Rows stay Arrow end to end: outside ``_PANDAS_ALLOWED`` no package
    module imports pandas or calls ``to_pandas``/``from_pandas``."""
    found = sorted({
        module for module, tree in _modules()
        if module not in _PANDAS_ALLOWED
        and (any(n == "pandas" or n.startswith("pandas.")
                 for n in _imports(tree))
             or any(getattr(call.func, "attr", getattr(call.func, "id", None))
                    in ("to_pandas", "from_pandas")
                    for call in _calls(tree)))})
    assert not found, f"modules crossing into pandas: {found}"


def test_only_ops_agg_reads_block_refs():
    """Plans drain to the driver only through ``ops.agg.gather`` (and
    ``grouped_sketch``'s fold), which run a plan once and never probe
    its schema."""
    assert not [(module, call.func.attr) for module, tree in _modules()
                if module != "ocr_proofreader_ray.ops.agg"
                for call in _calls(tree)
                if isinstance(call.func, ast.Attribute)
                and call.func.attr in ("to_arrow_refs",
                                       "iter_internal_ref_bundles")]


# what runs the package: the package itself, the job entrypoint, the
# benchmark, the bench CLI, the driver entry and the fixture generators
_CALLERS = ("ocr_proofreader_ray", "jobs", "perfbench", "fixtures",
            "bench.py", "__ray_entry__.py")

# package modules that only tests import, each with why it stays
_TEST_ONLY_ALLOWED = {
    "ocr_proofreader_ray.ops.quarantine": "Direction 5",
}


def test_every_package_module_has_a_caller_outside_tests():
    """A module that only ``tests/`` imports is code production never
    runs: wire it in or delete it (a test reference lives under
    ``tests/``)."""
    imported = {name for root in _CALLERS
                for module, tree in _modules(os.path.join(REPO, root))
                for name in _imports(tree) if name != module}
    modules = {module for module, _tree in _modules()
               if not module.endswith(".__main__")}
    modules -= {m.rpartition(".")[0] for m in modules}  # package __init__s
    assert set(_TEST_ONLY_ALLOWED) <= modules
    orphans = sorted(modules - imported - set(_TEST_ONLY_ALLOWED))
    assert not orphans, (
        f"package modules imported only from tests/: {orphans}")
