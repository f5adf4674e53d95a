"""The benchmark's traced call sites still resolve against popalign.

bench/tracing.py wraps each TRACED entry at a call site below popalign (the
namespace its caller looks the name up in) and names its span after the
defining function. This test loads that file without changing it and checks
every entry, so a refactor that moves or renames a traced name fails here as
well as in the benchmark's own self-test, and runs its Sinkhorn recorder on
the plans of a batched transport.
"""

import importlib.util
from pathlib import Path

import numpy as np
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


def test_sinkhorn_recorder_reads_batch_plans(monkeypatch):
    # the recorder reads each plan's gamma, which a batch's plan builds from
    # its cost's operands: when the span closes, the call's one buffer holds
    # that batch's kernel, not its cost
    rng = np.random.default_rng(0)
    n, bs = 40, 30
    X, Y = rng.normal(size=(n, 3)), rng.normal(size=(bs + 20, 3))
    records = []
    real = popalign.ot.sinkhorn

    def recorded(*args, **kwargs):
        plan = real(*args, **kwargs)
        rec = {"attrs": {}}
        tracing._sinkhorn_plan(rec, args, kwargs, plan)
        records.append(rec["attrs"])
        return plan

    monkeypatch.setattr(popalign.ot, "sinkhorn", recorded)
    config = popalign.AlignmentConfig(
        n_is_candidates=50, n_final=20, seed=0, ot_batch_size=bs, sinkhorn_iters=2000
    )
    popalign.batched_ot_weights(X, Y, config)
    assert [r["cells"] for r in records] == [n * bs, n * 20]
