"""Every function the benchmark tracer wraps must still exist in semidecay.

`perfbench/tracing.py` patches the functions listed in its `SPANS` table,
plus `hypotheses._line_norm`, by module and attribute name. A rename in the
package would leave a hook unresolved and make the traced benchmark run
incorrect, so the table is read here (parsed, not imported) and resolved.
"""

import ast
import importlib
import os

import pytest

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracing.py")


def _span_table():
    with open(TRACING, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "SPANS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no SPANS table in {TRACING}")


HOOKS = sorted({(module, attr) for module, attr, _, _ in _span_table()}
               | {("hypotheses", "_line_norm")})


@pytest.mark.parametrize("module,attr", HOOKS, ids=[f"{m}.{a}" for m, a in HOOKS])
def test_trace_hook_resolves(module, attr):
    obj = importlib.import_module(f"semidecay.{module}")
    for part in attr.split("."):
        obj = getattr(obj, part)
    assert callable(obj)
