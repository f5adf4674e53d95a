"""Only io._check_rows runs the per-value conversion loop `_float_list`.

Loaders convert numbers with `io._float_rows`, one numpy call per chunk of
rows, and fall back to `_float_list` only to name the first bad line. This
test parses every module and fails if any other function names
`_float_list` (a call, a reference or a string), so a per-value Python loop
cannot come back onto a success path.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "popalign"
OWNER = ("io.py", "_check_rows")


def _uses(tree):
    """(enclosing function name or None, line) for each mention of _float_list."""

    def walk(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        names = []
        if isinstance(node, ast.Name):
            names.append(node.id)
        elif isinstance(node, ast.Attribute):
            names.append(node.attr)
        elif isinstance(node, ast.alias):
            names += [node.name, node.asname]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.append(node.value)
        if "_float_list" in names:
            yield func, node.lineno
        for child in ast.iter_child_nodes(node):
            yield from walk(child, func)

    yield from walk(tree, None)


def test_only_check_rows_runs_float_list():
    found = {}
    for path in sorted(SRC.glob("*.py")):
        for func, line in _uses(ast.parse(path.read_text(), filename=str(path))):
            found.setdefault((path.name, func), []).append(line)
    assert OWNER in found, "io._check_rows no longer names the first bad row"
    others = sorted(f"{name}:{lines[0]} in {func}" for (name, func), lines in found.items()
                    if (name, func) != OWNER)
    assert not others, f"_float_list used outside io._check_rows: {others}"
