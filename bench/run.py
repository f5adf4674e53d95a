"""popalign benchmark: one seeded workload, closed loop, one caller.

    python3 bench/run.py --workload desk --seed 1 --seconds 25 --trace 0

Builds the workload's input sets from --seed (each build is one timed set-up),
then runs jobs back to back, each on one input set, until --seconds have
passed and every input set has run at least twice. Every job's outputs are checked,
and the two jobs of one input set must agree byte for byte. A slice of a fixed
reference computation runs between every two set-ups or jobs, and the
end-to-end times are scaled by it to a fixed machine speed (calibrate.py).
With --trace 0
the last line of standard output is one JSON object holding the end-to-end
metrics; with --trace 1 it holds the per-layer metrics from spans recorded
around calls into popalign (see tracing.py), taken on every other job so the
same run also measures the tracing overhead, plus one last probe job that
records peak memory. The full result, with the machine record and, when
traced, every span, goes to .bench_out/.

--smoke runs tiny inputs, for the benchmark's own test. See README.md.
"""

import argparse
import contextlib
import ctypes
import itertools
import json
import os
from pathlib import Path
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

from calibrate import Calibrator, scale
from tracing import TRACED, Tracer, instrument
from workloads import QUALITY, SMOKE, WORKLOADS, input_seed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

STAGES = (
    "validate", "kde_fit", "importance_weights", "truncate", "stage1_draw",
    "dedup", "transport", "final_draw", "metrics",
)


def import_popalign():
    """popalign from this checkout's src/, never from anywhere else."""
    if not (SRC / "popalign" / "__init__.py").is_file():
        raise SystemExit(f"error: no popalign package under {SRC}")
    sys.path.insert(0, str(SRC))
    import popalign

    if Path(popalign.__file__).resolve().parent != SRC / "popalign":
        raise SystemExit(f"error: popalign imported from {popalign.__file__}, not {SRC}")
    return popalign


def time_fresh_import():
    """Seconds for a new interpreter to import popalign from src/."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import popalign"
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True, timeout=120)
    return time.perf_counter() - t0


def _openblas_threads():
    threads = {}
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads[os.path.basename(lib)] = fn()
                break
    return threads


def machine_record():
    import scipy

    cpu = next(
        (line.split(":", 1)[1].strip() for line in open("/proc/cpuinfo")
         if line.startswith("model name")),
        platform.processor(),
    )
    mem_kb = next(
        int(line.split()[1]) for line in open("/proc/meminfo") if line.startswith("MemTotal")
    )
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "ram_gb": round(mem_kb / 2**20, 2),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": {
            k: os.environ.get(k)
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "blas_threads": _openblas_threads(),
    }


def run_job(pa, workload, inputs, j, s, kind, tracer, digests):
    """One job on input set `s`, checked; traced when `tracer` is given."""
    out, problems = None, []
    if tracer is not None:
        tracer.job = j
    with contextlib.nullcontext() if tracer is None else instrument(tracer, pa):
        t0 = time.perf_counter()
        try:
            out = workload.run(pa, inputs[s], j)
        except Exception as exc:  # a failed job is counted, the loop goes on
            problems.append(f"raised {type(exc).__name__}: {exc}")
        job_s = time.perf_counter() - t0
    digest = None
    if out is not None:
        problems += workload.check(pa, inputs[s], out)
        digest = workload.digest(out)
        if digests.setdefault(s, digest) != digest:
            problems.append(f"output differs from the first job on input set {s}")
    print(f"job {j} set {s} {kind}: {job_s:.4f} s"
          f"{'' if not problems else ' FAILED: ' + '; '.join(problems)}", flush=True)
    return {
        "job": j, "set": s, "kind": kind, "job_s": job_s, "digest": digest,
        "problems": problems,
        "quality": workload.quality(out) if out is not None else None,
        "stages": workload.stage_timings(out) if out is not None else {},
        "counts": workload.counts(out) if out is not None else {},
    }


def run_jobs(pa, workload, inputs, seconds, trace, tracer, probe, calibrator):
    """Closed loop: a warm-up job, then each input set twice in a row, in rounds.

    The warm-up job is checked but not timed: the first job of a process
    pays a one-time cost (about 1 s of 3 on desk) that later jobs do not. A round runs
    every input set twice; after the first round the loop stops at the end
    of a pair once `seconds` have passed. When tracing, one job of each pair
    is traced (which one alternates from set to set), and a last probe job
    records peak memory. A calibration slice runs before and after each
    timed job, and each timed job records its scaled time. Returns the jobs
    and the slices.
    """
    digests = {}
    jobs = [run_job(pa, workload, inputs, 0, 0, "warmup", None, digests)]
    start = time.perf_counter()
    slices = [calibrator.measure()]
    for k in itertools.count():
        rnd, (s, rep) = k // (2 * len(inputs)), divmod(k % (2 * len(inputs)), 2)
        traced = trace and (rep + s) % 2 == 1
        kind = "traced" if traced else "plain"
        job = run_job(pa, workload, inputs, k + 1, s, kind, tracer if traced else None, digests)
        slices.append(calibrator.measure())
        jobs.append(dict(job, round=rnd))
        if rep == 1 and k + 1 >= 2 * len(inputs) and time.perf_counter() - start >= seconds:
            break
    for job, scaled_s in zip(jobs[1:], scale([job["job_s"] for job in jobs[1:]], slices)):
        job["scaled_s"] = scaled_s
    if trace:
        jobs.append(run_job(pa, workload, inputs, len(jobs), 0, "probe", probe, digests))
    return jobs, slices


def end_to_end(jobs, setups):
    """setup_s and job_s are medians of times scaled by calibration slices."""
    ok = sum(1 for job in jobs if not job["problems"])
    quality = {job["set"]: job["quality"] for job in jobs if job["quality"] is not None}
    metrics = {
        "setup_s": (statistics.median(setups["scaled_s"]), "s"),
        "job_s": (statistics.median(job["scaled_s"] for job in jobs if job["kind"] == "plain"), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_ops": (ok / len(jobs), "share"),
    }
    for k in QUALITY:
        # workloads without a quality guard print 1.0; see README.md
        value = statistics.fmean(q[k] for q in quality.values()) if quality else 1.0
        metrics[f"{k}_ratio"] = (value, "ratio")
    return metrics


def _add(counter, key, value):
    counter[key] = counter.get(key, 0) + value


def per_layer(jobs, tracer, probe):
    traced = [job for job in jobs if job["kind"] == "traced"]
    untraced = [job for job in jobs if job["kind"] == "plain"]
    m = {}

    totals, selfs = [], []
    for job in traced:
        total, own = {}, {}
        for sp in tracer.job_spans(job["job"]):
            _add(total, sp["name"], sp["end"] - sp["start"])
            _add(own, sp["name"], sp["self_s"])
        totals.append(total)
        selfs.append(own)
    for name in dict.fromkeys(name for name, *_ in TRACED):
        m[f"{name}.s"] = (statistics.median(t.get(name, 0.0) for t in totals), "s")
    for name in ("ot.batched_ot_weights", "metrics.metric_report",
                 "retrieval.build_training_pairs", "io.load_embeddings"):
        m[f"{name}.self_s"] = (statistics.median(t.get(name, 0.0) for t in selfs), "s")

    peaks, per_cell = {}, [0.0]
    for sp in probe.spans:
        if "peak_bytes" in sp:
            peaks[sp["name"]] = max(peaks.get(sp["name"], 0), sp["peak_bytes"])
            if sp["name"] == "ot.sinkhorn":
                per_cell.append(sp["peak_bytes"] / (8 * sp["attrs"]["cells"]))
    for name in ("kde.log_density_many", "ot.sinkhorn", "metrics.metric_report"):
        m[f"{name}.peak_mb"] = (peaks.get(name, 0) / 2**20, "MB")
    m["ot.sinkhorn.peak_per_cell"] = (max(per_cell), "ratio")

    # counts repeat exactly for a seed: mean per job over the first round,
    # which traces one job on each input set
    first_round = [job for job in traced if job["round"] == 0]
    counts = {}
    for job in first_round:
        for sp in tracer.job_spans(job["job"]):
            for key, value in sp["attrs"].items():
                _add(counts, f"{sp['name']}.{key}", value)
            if sp["name"] == "ot.sinkhorn":
                _add(counts, "ot.batches", 1)
                _add(counts, "ot.sinkhorn.cell_iterations",
                     sp["attrs"]["cells"] * sp["attrs"]["iterations"])
        for key, value in job["counts"].items():
            _add(counts, f"retrieval.{key}", value)
    for name, key, unit in (
        ("kde.kernel_pairs", "kde.log_density_many.kernel_pairs", "count"),
        ("ot.batches", "ot.batches", "count"),
        ("ot.sinkhorn.iterations", "ot.sinkhorn.iterations", "count"),
        ("ot.sinkhorn.cells", "ot.sinkhorn.cells", "count"),
        ("ot.sinkhorn.cell_iterations", "ot.sinkhorn.cell_iterations", "count"),
        ("retrieval.filter_calls", "retrieval.filter_calls", "count"),
        ("io.bytes_read", "io.load_embeddings.bytes", "bytes"),
        ("io.bytes_written", "io.save_pairs.bytes", "bytes"),
    ):
        m[name] = (counts.get(key, 0) / len(first_round), unit)
    calls = counts.get("retrieval.filter_calls", 0)
    m["retrieval.filter_accept_ratio"] = (
        counts.get("retrieval.filter_accepted", 0) / calls if calls else 0.0, "ratio")

    for stage in STAGES:
        # the pipeline's own stage clock, read from untraced jobs
        m[f"pipeline.stage.{stage}.s"] = (
            statistics.median(job["stages"].get(stage, 0.0) for job in untraced), "s")
    m["trace.job_s"] = (statistics.median(job["job_s"] for job in traced), "s")
    m["trace.untraced_job_s"] = (statistics.median(job["job_s"] for job in untraced), "s")
    # each pair of jobs on one input set has one traced and one plain job
    paired = [job for job in jobs if job["kind"] in ("plain", "traced")]
    diffs = [
        b["job_s"] - a["job_s"] if b["kind"] == "traced" else a["job_s"] - b["job_s"]
        for a, b in zip(paired[0::2], paired[1::2])
    ]
    m["trace.overhead_s"] = (statistics.median(diffs), "s")
    return m


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, for the self-test")
    args = ap.parse_args(argv)

    pa = import_popalign()
    workload = (SMOKE if args.smoke else WORKLOADS)[args.workload]
    machine = machine_record()
    print("machine:", json.dumps(machine, sort_keys=True), flush=True)

    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        with Calibrator() as calibrator:
            inputs, setup_s, slices = [], [], [calibrator.measure()]
            for s in range(workload.sets):
                import_s = time_fresh_import()
                t0 = time.perf_counter()
                inputs.append(workload.build(pa, input_seed(args.seed, s), str(workdir)))
                setup_s.append(import_s + time.perf_counter() - t0)
                slices.append(calibrator.measure())
            setups = {"setup_s": setup_s, "slices": slices, "scaled_s": scale(setup_s, slices)}
            print("setup_s:", " ".join(f"{v:.4f}" for v in setup_s), flush=True)

            tracer, probe = Tracer(), Tracer(record_peaks=True)
            jobs, slices = run_jobs(pa, workload, inputs, args.seconds, bool(args.trace), tracer,
                                    probe, calibrator)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(1 for job in jobs if job["problems"])
    digests = {job["set"]: job["digest"] for job in jobs if job["digest"]}
    for s, digest in sorted(digests.items()):
        print(f"set {s} output sha256 {digest}")  # for information: last-bit changes show
    if args.trace:
        metrics = per_layer(jobs, tracer, probe)
    else:
        metrics = end_to_end(jobs, setups)
    print(f"{'wall-clock job_s (unscaled)':40s} "
          f"{statistics.median(job['job_s'] for job in jobs if job['kind'] == 'plain'):.6g} s")
    print(f"{'calibration slice':40s} {statistics.median(slices):.6g} s")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:.6g} {unit}")

    result = {
        "correct": failed == 0,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "machine": machine,
        "setups": setups, "jobs": jobs, "slices": slices, "result": result,
    }
    if args.trace:
        record["spans"] = tracer.spans
        record["probe_spans"] = probe.spans
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    (OUT_DIR / f"{name}.json").write_text(json.dumps(record, indent=1, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
