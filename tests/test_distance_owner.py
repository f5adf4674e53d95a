"""Only popalign.core builds squared-distance operands and walks a sample's own pairs.

Core prepares the augmented operands once (`_sq_dist_operands`), owns the
product for one tile (`_sq_dist_tile`) and drives it: row strips for cross
pairs (`_sq_dist_blocks`), square tiles for a sample's own pairs
(`_self_tiles`). This test parses every other module and fails if one
builds operands itself (names the product, the operands' parts or the tile
geometry, or stacks columns), or walks a sample's own pairs other than
through `_self_tiles`: operands of one sample passed to the strips, a
sample paired with itself as a cross pair, or self operands that never
reach the driver.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "popalign"
# the product, the operands' parts and the tile and stripe geometry
INTERNALS = {"_sq_dist_tile", "_centred", "_check_sq_norms", "_stripe", "_TILE"}
# ways to stack augmented columns onto a sample
STACKERS = {"column_stack", "hstack", "c_"}


def _name(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _operands_call(node):
    return isinstance(node, ast.Call) and _name(node.func) == "_sq_dist_operands"


def _is_self(call):
    """Whether a _sq_dist_operands call prepares a sample's own pairs."""
    y = call.args[1] if len(call.args) > 1 else next(
        (k.value for k in call.keywords if k.arg == "Y"), None
    )
    return y is None or (isinstance(y, ast.Constant) and y.value is None)


def _resolve(arg, assignments, line):
    """The _sq_dist_operands call behind `arg`: the call itself, or the last
    assignment to that name before `line`; None if it cannot be told."""
    if _operands_call(arg):
        return arg
    if isinstance(arg, ast.Name):
        before = [(ln, v) for ln, v in assignments.get(arg.id, []) if ln < line]
        if before:
            value = max(before, key=lambda lv: lv[0])[1]
            return value if _operands_call(value) else None
    return None


def violations(source, filename="<module>"):
    tree = ast.parse(source, filename=filename)
    found = []
    assignments = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    assignments.setdefault(target.id, []).append((node.lineno, node.value))
    driven = set()
    for node in ast.walk(tree):
        name = _name(node) if isinstance(node, (ast.Name, ast.Attribute)) else None
        if isinstance(node, ast.alias):
            name = node.name
        if name in INTERNALS:
            found.append(f"line {node.lineno}: names {name}")
        if name in STACKERS:
            found.append(f"line {node.lineno}: stacks columns ({name})")
        if not isinstance(node, ast.Call):
            continue
        callee = _name(node.func)
        if _operands_call(node) and len(node.args) > 1:
            if ast.dump(node.args[0]) == ast.dump(node.args[1]):
                found.append(f"line {node.lineno}: pairs a sample with itself as cross pairs")
        if callee in ("_sq_dist_blocks", "_self_tiles") and node.args:
            ops = _resolve(node.args[0], assignments, node.lineno)
            if ops is None:
                found.append(f"line {node.lineno}: {callee} on operands it cannot trace")
                continue
            driven.add(id(ops))
            if callee == "_sq_dist_blocks" and _is_self(ops):
                found.append(f"line {node.lineno}: walks a sample's own pairs in row strips")
            if callee == "_self_tiles" and not _is_self(ops):
                found.append(f"line {node.lineno}: _self_tiles on cross operands")
    for node in ast.walk(tree):
        if _operands_call(node) and _is_self(node) and id(node) not in driven:
            found.append(f"line {node.lineno}: self operands that never reach _self_tiles")
    return sorted(found)


MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "core.py")


def test_core_holds_the_kernel():
    tree = ast.parse((SRC / "core.py").read_text())
    defined = {n.name for n in tree.body if isinstance(n, ast.FunctionDef)}
    assert INTERNALS - {"_TILE"} <= defined
    assert {"_sq_dist_operands", "_sq_dist_blocks", "_self_tiles", "_floored_exp"} <= defined
    assert len(MODULES) > 5


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_distance_kernel_outside_core(path):
    found = violations(path.read_text(), filename=str(path))
    assert not found, f"{path.name} builds distance operands or walks self pairs: {found}"


@pytest.mark.parametrize("source, finding", [
    ("A = np.column_stack([X, x2])", "stacks columns"),
    ("from .core import _sq_dist_tile", "names _sq_dist_tile"),
    ("core._TILE", "names _TILE"),
    ("_sq_dist_blocks(_sq_dist_operands(A, A, scale=s))", "pairs a sample with itself"),
    ("_sq_dist_blocks(_sq_dist_operands(A))", "in row strips"),
    ("ops = _sq_dist_operands(A, None, w)\nfor b in _sq_dist_blocks(ops): pass", "in row strips"),
    ("ops = _sq_dist_operands(A)\nuse(ops)", "never reach _self_tiles"),
    ("_self_tiles(_sq_dist_operands(A, B))", "on cross operands"),
    ("_self_tiles(make())", "cannot trace"),
])
def test_the_check_bites(source, finding):
    assert any(finding in v for v in violations(source))


def test_the_drivers_pass():
    source = (
        "ops = _sq_dist_operands(S, scale=s)\n"
        "for t in _self_tiles(ops, 0): pass\n"
        "ops = _sq_dist_operands(Q, S, scale=s)\n"
        "for b in _sq_dist_blocks(ops, stripe=0): pass\n"
        "_sq_dist_blocks(_sq_dist_operands(X, Y, w), out=C)\n"
    )
    assert violations(source) == []
