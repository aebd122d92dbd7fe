"""The package has one size gate, ``ops.agg._DRIVER_MAX_BYTES``, which
``conftest.all_exchange`` forces, so no plan runs only at a scale the
tests never reach; no pipeline module holds a gate; only ``ops/``
builds Bloom filters; only ``ops.agg`` pickles partials or reads block
refs; every block is Arrow; and every package module has a caller
outside ``tests/``."""

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


def test_no_pipeline_module_holds_a_gate():
    assert not [g for g in _gates()
                if g[0].startswith("ocr_proofreader_ray.pipelines.")]


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
