"""Only popalign.kde sums Gaussian kernels; metrics asks it for MMD's means.

Each MMD kernel mean is the average over queries of a KDE kernel sum, so
`metrics._kernel_mean` is one call into `kde._kernel_lse`, which makes the
fast-Gauss-or-dense choice for the densities too. This test parses
metrics.py and fails if it names one of the kernel sum's parts, in an
import, a name, an attribute or a string (such as a getattr), so a second
walker or dispatch cannot grow back there.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "popalign"
# the clamp-and-exp, the distance drivers and the d=1 transform and its rule
PARTS = {
    "_floored_exp",
    "_self_tiles",
    "_sq_dist_blocks",
    "_sq_dist_operands",
    "_fgt_gauss_sums_1d",
    "_uses_fgt",
}


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


def leaks(source):
    tree = ast.parse(source)
    return sorted({f"line {line}: {name}" for line, name in _names(tree) if name in PARTS})


def test_kde_holds_the_kernel_sums():
    tree = ast.parse((SRC / "kde.py").read_text())
    defined = {n.name for n in tree.body if isinstance(n, ast.FunctionDef)}
    assert {"_kernel_lse", "_kernel_lse_stripes", "_fgt_gauss_sums_1d", "_uses_fgt"} <= defined


def test_metrics_names_no_kernel_sum_part():
    found = leaks((SRC / "metrics.py").read_text())
    assert not found, f"metrics.py names the KDE's kernel-sum parts: {found}"


def test_metrics_takes_its_means_from_the_kde():
    tree = ast.parse((SRC / "metrics.py").read_text())
    imported = {
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert ("kde", "_kernel_lse") in imported


def test_the_check_bites():
    assert leaks("from .core import _floored_exp") == ["line 1: _floored_exp"]
    assert leaks("from .kde import _uses_fgt as rule") == ["line 1: _uses_fgt"]
    assert leaks("kde._fgt_gauss_sums_1d(a, b, h)") == ["line 1: _fgt_gauss_sums_1d"]
    assert leaks("getattr(core, '_self_tiles')") == ["line 1: _self_tiles"]
    assert leaks("from .kde import _kernel_lse") == []
