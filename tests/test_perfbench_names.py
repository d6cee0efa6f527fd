"""Every name the benchmark harness in ``perfbench/`` takes from the package resolves.

The test suite never runs the benchmark, so a change that deletes or
renames a function it calls would otherwise pass every test. The names
are read from the harness's source, which this test does not import.
"""

import ast
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
# the harness imports these as ``import mixedgp.<module> as <module>``
MODULES = ("bench", "corrparam", "design", "gpcore", "testbed")


def perfbench_names() -> set[tuple[str, str]]:
    """(module, name) pairs of the package the harness uses.

    Sources: attribute accesses on the modules above, ``from
    mixedgp.<module> import`` names, and the ``("mixedgp.<module>",
    "<name>", ...)`` rows of the tracing patch table.
    """
    names = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in MODULES):
                names.add((node.value.id, node.attr))
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("mixedgp."):
                names.update((node.module.removeprefix("mixedgp."), a.name) for a in node.names)
            elif isinstance(node, ast.Tuple) and len(node.elts) >= 2:
                head = [e.value for e in node.elts[:2] if isinstance(e, ast.Constant)]
                if (len(head) == 2 and all(isinstance(v, str) for v in head)
                        and head[0].startswith("mixedgp.")):
                    names.add((head[0].removeprefix("mixedgp."), head[1]))
    return names


def test_every_name_perfbench_uses_resolves():
    names = perfbench_names()
    # a parse that finds nothing would pass vacuously
    assert {("gpcore", "corr_values"), ("bench", "fit")} <= names
    missing = sorted(f"mixedgp.{module}.{name}" for module, name in names
                     if not hasattr(importlib.import_module(f"mixedgp.{module}"), name))
    assert not missing, f"perfbench uses names the package no longer has: {missing}"
