"""The benchmark harness under perfbench/ calls the package by name; these
tests keep every name it relies on, and its three campaigns, working."""

import ast
import importlib
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")


def _tree(name):
    with open(os.path.join(PERFBENCH, name)) as fh:
        return ast.parse(fh.read())


def _dotted(node, aliases):
    """'numpy.linalg' for the expression np.linalg under import numpy as np."""
    if isinstance(node, ast.Name):
        return aliases.get(node.id, node.id)
    assert isinstance(node, ast.Attribute), ast.dump(node)
    return _dotted(node.value, aliases) + "." + node.attr


def _module_aliases(tree):
    """Local name -> module path for every module the file imports."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                top = a.name.split(".")[0]  # import scipy.linalg binds scipy
                aliases[a.asname or top] = a.name if a.asname else top
        elif isinstance(node, ast.ImportFrom) and node.module:
            for a in node.names:
                aliases[a.asname or a.name] = f"{node.module}.{a.name}"
    return aliases


def _resolve(module, name):
    try:
        return getattr(importlib.import_module(module), name)
    except AttributeError:
        return importlib.import_module(f"{module}.{name}")


def test_worker_wraps_resolve():
    """Every (module, name) the worker's tracer wraps exists. The worker is
    parsed, not imported: importing it starts its clock and edits sys.path."""
    tree = _tree("worker.py")
    aliases = _module_aliases(tree)
    # a name wrapped inside `for name in ("a", "b"):` stands for each string
    loops = {
        node.target.id: [elt.value for elt in node.iter.elts]
        for node in ast.walk(tree)
        if isinstance(node, ast.For)
        and isinstance(node.target, ast.Name)
        and isinstance(node.iter, ast.Tuple)
    }
    wrapped = [
        (_dotted(call.args[1], aliases), name)
        for call in ast.walk(tree)
        if isinstance(call, ast.Call)
        and isinstance(call.func, ast.Attribute)
        and call.func.attr == "wrap"
        for name in (
            [call.args[2].value] if isinstance(call.args[2], ast.Constant) else loops[call.args[2].id]
        )
    ]
    assert len(wrapped) >= 20
    for module, name in wrapped:
        assert callable(getattr(importlib.import_module(module), name)), (module, name)


def test_campaign_imports_resolve():
    """Every name perfbench/campaigns.py imports from the package exists."""
    names = [
        (node.module, a.name)
        for node in ast.walk(_tree("campaigns.py"))
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("threshold_dirac")
        for a in node.names
    ]
    assert len(names) >= 10
    for module, name in names:
        assert _resolve(module, name) is not None, (module, name)


@pytest.mark.acceptance
def test_benchmark_campaigns_pass_at_seed_1(tmp_path):
    """prepare, finish_setup and run_campaign of every workload at seed 1
    end with no failed operation."""
    sys.path.insert(0, PERFBENCH)
    try:
        import campaigns
    finally:
        sys.path.remove(PERFBENCH)
    for workload in campaigns.WORKLOADS:
        ctx = campaigns.prepare(workload, 1, str(tmp_path))
        campaigns.finish_setup(ctx)
        out = campaigns.run_campaign(ctx)
        assert out.attempted > 0, workload
        assert out.failed == 0, (workload, out.failures)
