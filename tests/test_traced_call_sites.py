"""The benchmark's traced call sites still resolve against popalign.

bench/tracing.py wraps each TRACED entry at a call site below popalign (the
namespace its caller looks the name up in) and names its span after the
defining function. This test loads that file without changing it and checks
every entry, so a refactor that moves or renames a traced name fails here as
well as in the benchmark's own self-test.
"""

import importlib.util
from pathlib import Path

import pytest

import popalign

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


@pytest.mark.parametrize(
    "name, path", [(name, path) for name, path, _, _ in tracing.TRACED], ids=lambda s: s
)
def test_traced_call_site_resolves(name, path):
    owner, attr = tracing._resolve(popalign, path)
    # instrument swaps the attribute in the owner's own namespace
    assert attr in vars(owner), f"{path}: {attr!r} is not defined on {owner!r}"
    assert callable(getattr(owner, attr))
    defining_owner, defining_attr = tracing._resolve(popalign, name)
    assert getattr(owner, attr) == getattr(defining_owner, defining_attr), (
        f"call site {path} is no longer the span's function {name}"
    )
