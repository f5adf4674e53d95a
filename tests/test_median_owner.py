"""Only popalign.core knows how an exact median is selected.

The transport cost median and the MMD bandwidth's median heuristic are each
one call into core (`_array_median`, `_median_pairwise_distance`). This test
parses every other module and fails if it imports or names one of the
selection's internals, in an import, a name, an attribute or a string (such
as a getattr), so the decision cannot leak back into a caller.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "popalign"
INTERNALS = {"_exact_median", "_pivot_pairs", "_bracket_pass", "_sorted_pass", "_check_sq_norms"}


def _is_internal(name):
    return name in INTERNALS or name.startswith("_MEDIAN_")


def _names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.lineno, node.id
        elif isinstance(node, ast.Attribute):
            yield node.lineno, node.attr
        elif isinstance(node, ast.alias):
            yield node.lineno, node.name
            if node.asname:
                yield node.lineno, node.asname
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.lineno, node.value


MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "core.py")


def test_core_holds_the_internals():
    tree = ast.parse((SRC / "core.py").read_text())
    defined = {n.name for n in tree.body if isinstance(n, ast.FunctionDef)}
    assert INTERNALS <= defined
    assert len(MODULES) > 5


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_median_internals_outside_core(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    leaks = sorted({f"line {line}: {name}" for line, name in _names(tree) if _is_internal(name)})
    assert not leaks, f"{path.name} names core's median internals: {leaks}"
