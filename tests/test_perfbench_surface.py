"""The binbasis names the benchmark in perfbench/ calls, checked in seconds.

perfbench/selftest.py runs the benchmark itself and takes minutes.  These
tests import perfbench's modules unchanged and check only that what they
call still exists with the parameters they pass.
"""

import ast
import importlib
import inspect
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

import layers  # noqa: E402  (perfbench's modules import each other by name)
import workloads  # noqa: E402

from binbasis import transforms  # noqa: E402


def binbasis_names(path):
    """(module, name) of each name a perfbench file imports from binbasis,
    and of each attribute it reads off a binbasis module it imports."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names, modules = [], {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module.startswith("binbasis"):
            source = importlib.import_module(node.module)
            for alias in node.names:
                names.append((source, alias.name))
                if inspect.ismodule(getattr(source, alias.name, None)):
                    modules[alias.asname or alias.name] = getattr(source, alias.name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in modules:
            names.append((modules[node.value.id], node.attr))
    return names


@pytest.mark.parametrize("path", sorted(PERFBENCH.glob("*.py")), ids=lambda p: p.name)
def test_perfbench_binbasis_names_resolve(path):
    for module, name in binbasis_names(path):
        assert hasattr(module, name), f"{path.name}: {module.__name__}.{name}"


def test_view_executors_take_the_probed_arguments():
    # layers.discover names a recursive call by the executor's positional
    # parameters and reads its `view`; layers.root_calls passes the rest by
    # keyword, next to `view` and `table`.
    ctx = workloads.build(workloads.Config(16, "cantor", "cantor", 4))
    phi = [0] * ctx.tree.n
    size = 1 << ctx.tree.n
    calls = layers.root_calls(ctx, phi, size)
    assert sorted(calls) == ["l2x", "m2x", "n2x", "x2l", "x2m", "x2n"]
    for name, kwargs in calls.items():
        fn = getattr(transforms, name)
        code = fn.__code__
        assert {"view", "table", *kwargs} <= set(code.co_varnames[:code.co_argcount]), name
        root, nodes = layers.discover(fn, kwargs, list(range(size)), ctx.table)
        assert nodes[root][0]["v"] == 0 and nodes[root][2] == 1, name
