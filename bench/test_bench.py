"""Self-test of the benchmark, on its tiny smoke inputs.

    python3 -m pytest -q bench/test_bench.py

Checks that every workload prints exactly the metrics BENCHMARK.json names,
that the output checks fire on corrupted results, and that the benchmark
refuses to run without the library's sources.
"""

import dataclasses
import json
import os
from pathlib import Path
import shutil
import subprocess
import sys

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import calibrate  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import SMOKE, FalseNegativeFilter, input_seed  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
pa = run.import_popalign()


def _bench(*args, cwd=ROOT, script=BENCH / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_spec_names_the_workloads_and_metrics():
    assert {w["name"] for w in SPEC["workloads"]} == set(run.WORKLOADS) == set(SMOKE)
    assert SPEC["command"] == ["python3", "bench/run.py"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(SMOKE))
def test_smoke_run_prints_the_declared_metrics(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "0",
                  "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 2 * SMOKE[workload].sets
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.fixture
def workdir():
    path = run.OUT_DIR / f"test-{os.getpid()}"
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path)


def test_refuses_to_run_without_the_library(workdir):
    shutil.copy(ROOT / "BENCHMARK.json", workdir)
    shutil.copytree(BENCH, workdir / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "desk", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=workdir, script=workdir / "bench" / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _first_job(name, workdir):
    workload = SMOKE[name]
    inputs = workload.build(pa, input_seed(5, 0), str(workdir))
    out = workload.run(pa, inputs, 0)
    assert workload.check(pa, inputs, out) == []
    return workload, inputs, out


def test_alignment_checks_fire(workdir):
    workload, inputs, out = _first_job("desk", workdir)
    report = out["report"]

    short = dict(out, selected=out["selected"][:-1])
    assert any("expected" in p for p in workload.check(pa, inputs, short))

    stranger = dict(out, selected=["nobody"] + out["selected"][1:])
    assert any("not pool personas" in p for p in workload.check(pa, inputs, stranger))

    batches = [dict(b, converged=False) for b in report.sinkhorn_batches]
    unconverged = dict(out, report=dataclasses.replace(report, sinkhorn_batches=batches))
    assert any("did not converge" in p for p in workload.check(pa, inputs, unconverged))

    batches = [dict(b, row_residual=1.0) for b in report.sinkhorn_batches]
    loose = dict(out, report=dataclasses.replace(report, sinkhorn_batches=batches))
    assert any("did not converge" in p for p in workload.check(pa, inputs, loose))


def test_pairs_checks_fire(workdir):
    workload, inputs, out = _first_job("pairs", workdir)

    hits = [list(h) for h in out["hits"]]
    hits[0][0], hits[0][1] = hits[0][1], hits[0][0]
    swapped = dict(out, hits=hits)
    assert any("lexsort oracle" in p for p in workload.check(pa, inputs, swapped))

    pairs = list(out["pairs"])
    rejected = next(
        c for c in inputs["ids"]
        if FalseNegativeFilter.rejects(pairs[0].query_id, str(c))
        and str(c) != pairs[0].positive_id
    )
    pairs[0] = dataclasses.replace(pairs[0], negative_ids=(str(rejected),))
    leaky = dict(out, pairs=pairs)
    problems = workload.check(pa, inputs, leaky)
    assert any("filtered candidate" in p for p in problems)
    assert any("round-trip" in p for p in problems)


def test_repeat_job_with_other_bytes_is_a_failure(workdir):
    workload = SMOKE["desk"]
    inputs = [workload.build(pa, input_seed(5, 0), str(workdir))]
    tracer = run.Tracer()
    digests = {0: "0" * 64}
    job = run.run_job(pa, workload, inputs, 0, 0, "plain", tracer, digests)
    assert any("differs from the first job" in p for p in job["problems"])


def _call_sites():
    sites = {}
    for _, path, _, _ in tracing.TRACED:
        owner, attr = tracing._resolve(pa, path)
        sites[path] = vars(owner)[attr]
    return sites


def test_instrument_restores_every_call_site(workdir):
    before = _call_sites()
    tracer = run.Tracer()
    with run.instrument(tracer, pa):
        SMOKE["pairs"].run(pa, SMOKE["pairs"].build(pa, 7, str(workdir)), 0)
    assert {s["name"] for s in tracer.spans} >= {
        "io.load_embeddings", "retrieval.EmbeddingIndex.build",
        "retrieval.top_k_retrieve", "retrieval.build_training_pairs", "io.save_pairs",
    }
    build = next(s for s in tracer.spans if s["name"] == "retrieval.EmbeddingIndex.build")
    load = next(s for s in tracer.spans if s["id"] == build["parent"])
    assert load["name"] == "io.load_embeddings"
    assert load["self_s"] == pytest.approx(
        load["end"] - load["start"] - (build["end"] - build["start"]))
    assert _call_sites() == before


def test_calibrator_measures_slices_and_ends_its_process():
    with calibrate.Calibrator() as calibrator:
        slices = [calibrator.measure() for _ in range(2)]
        proc = calibrator.proc
    assert all(s > 0 for s in slices)
    assert proc.poll() is not None


def test_scale_divides_by_the_median_of_nearby_slices():
    ref, reach = calibrate.REF_S, calibrate.REACH
    # the first time's window is slices[:reach + 1]; one slow slice there is outvoted
    slices = [ref, 9 * ref] + [2 * ref] * (reach + 3)
    times = [1.0] * (len(slices) - 1)
    scaled = calibrate.scale(times, slices)
    assert scaled[0] == pytest.approx(0.5)
    assert scaled[-1] == pytest.approx(0.5)
    with pytest.raises(ValueError):
        calibrate.scale(times, slices[:-1])
