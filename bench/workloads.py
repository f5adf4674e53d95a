"""The benchmark's workloads: seeded inputs, one job, and its output checks.

A workload builds `sets` input sets per run, one per (seed, set index), in
`build`, which is the timed set-up; each set is built once and run at least
twice; `run` is one job on one input set, which is the timed
work; `check` returns the list of problems it finds in a job's outputs and
`digest` a SHA-256 of them, so repeat jobs on one input set can be compared
byte for byte. Input sets come from the benchmark's seed only; popalign sees
nothing but the generated arrays, records and files.
"""

from dataclasses import dataclass
import hashlib
import os
import zlib

import numpy as np

QUALITY = ("amw", "fd", "sw", "mmd")


def input_seed(seed, set_index):
    """Seed of input set `set_index` of a run with `seed`."""
    return int(np.random.SeedSequence([seed, set_index]).generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class Alignment:
    """One `run_alignment` call on a synthetic pool and reference sample."""

    preset: str
    d: int
    n_pool: int
    m_reference: int
    n_is_candidates: int
    n_final: int
    ot_batch_size: int = 10_000
    # whether the quality ratios are steady enough across seeds to report
    quality_guard: bool = True
    # input sets per run; more where the work itself depends on the input
    sets: int = 3

    def build(self, pa, seed, workdir):
        pool = pa.sample_population(self.preset, self.n_pool, self.d, seed, role="pool")
        reference = pa.sample_population(
            self.preset, self.m_reference, self.d, seed, role="reference"
        )
        personas = [
            pa.PersonaRecord(id=f"p{i:06d}", narrative="", response_row=i)
            for i in range(self.n_pool)
        ]
        config = pa.AlignmentConfig(
            n_is_candidates=self.n_is_candidates,
            n_final=self.n_final,
            seed=seed,
            ot_batch_size=self.ot_batch_size,
        )
        return {
            "pool": pool,
            "reference": reference,
            "personas": personas,
            "config": config,
            "pool_ids": frozenset(p.id for p in personas),
        }

    def run(self, pa, inputs, job):
        selected, report = pa.pipeline.run_alignment(
            inputs["pool"], inputs["reference"], inputs["personas"], inputs["config"]
        )
        return {"selected": selected, "report": report, "json": pa.report_json(report)}

    def check(self, pa, inputs, out):
        config = inputs["config"]
        selected, report = out["selected"], out["report"]
        problems = []
        if len(selected) != config.n_final:
            problems.append(f"{len(selected)} ids selected, expected {config.n_final}")
        strangers = sorted(set(selected) - inputs["pool_ids"])
        if strangers:
            problems.append(f"{len(strangers)} selected ids are not pool personas: {strangers[:3]}")
        if list(report.selected_ids) != list(selected):
            problems.append("report.selected_ids differs from the returned selection")
        for b in report.sinkhorn_batches:
            residual = max(b["row_residual"], b["col_residual"])
            if not b["converged"] or not residual <= config.sinkhorn_tol:
                problems.append(
                    f"Sinkhorn batch {b['batch']} did not converge: residual {residual!r} "
                    f"after {b['iterations']} iterations (tol {config.sinkhorn_tol})"
                )
        return problems

    def digest(self, out):
        return hashlib.sha256(out["json"].encode("utf-8")).hexdigest()

    def quality(self, out):
        """Aligned divergence over uniform-baseline divergence, per metric."""
        if not self.quality_guard:
            return None
        report = out["report"]
        return {
            k: report.metrics_aligned[k] / report.metrics_random_select[k] for k in QUALITY
        }

    def stage_timings(self, out):
        return out["report"].timings

    def counts(self, out):
        return {}


class FalseNegativeFilter:
    """Rejects a fixed pseudo-random tenth of (query, candidate) pairs.

    Stands in for the HTTP filter of `popalign pairs`; the verdict depends
    only on the two ids, and every call is counted.
    """

    def __init__(self):
        self.calls = 0
        self.rejected = 0

    @staticmethod
    def rejects(query_id, candidate_id):
        return zlib.crc32(f"{query_id}/{candidate_id}".encode()) % 10 == 0

    def __call__(self, query_id, candidate_id):
        self.calls += 1
        verdict = self.rejects(query_id, candidate_id)
        self.rejected += verdict
        return verdict


@dataclass(frozen=True)
class Pairs:
    """The `popalign pairs` job: load embeddings, retrieve, build and save pairs."""

    n_index: int
    dim: int
    n_queries: int
    k: int
    n_hard: int = 10
    n_random: int = 10
    query_noise: float = 0.5
    sets: int = 3

    def build(self, pa, seed, workdir):
        rng = np.random.default_rng(seed)
        raw = rng.standard_normal((self.n_index, self.dim))
        ids = [f"e{r:06d}" for r in range(self.n_index)]
        path = os.path.join(workdir, f"embeddings-{seed}.jsonl")
        pa.io.save_embeddings(path, ids, raw)
        positives = rng.choice(self.n_index, size=self.n_queries, replace=False)
        queries = [
            (f"q{j:04d}", raw[r] + self.query_noise * rng.standard_normal(self.dim), ids[r])
            for j, r in enumerate(positives)
        ]
        return {
            "seed": seed,
            "ids": np.array(ids),
            "unit": raw / np.linalg.norm(raw, axis=1, keepdims=True),
            "embeddings": path,
            "queries": queries,
            "out_dir": workdir,
        }

    def run(self, pa, inputs, job):
        index = pa.io.load_embeddings(inputs["embeddings"])
        hits = [pa.retrieval.top_k_retrieve(q, index, self.k) for _, q, _ in inputs["queries"]]
        fn_filter = FalseNegativeFilter()
        pairs = pa.retrieval.build_training_pairs(
            index,
            inputs["queries"],
            n_hard=self.n_hard,
            n_random=self.n_random,
            seed=inputs["seed"],
            false_negative_filter=fn_filter,
        )
        path = os.path.join(inputs["out_dir"], f"pairs-{inputs['seed']}-{job}.jsonl")
        pa.io.save_pairs(path, pairs)
        return {"hits": hits, "pairs": pairs, "path": path, "filter": fn_filter}

    def oracle_top_k(self, inputs, query):
        """Top-k row order on (-score, id) by numpy lexsort, with the scores."""
        q = np.asarray(query, dtype=np.float64)
        scores = np.clip(inputs["unit"] @ (q / np.linalg.norm(q)), -1.0, 1.0)
        order = np.lexsort((inputs["ids"], -scores))[: self.k]
        return order, scores[order]

    def check(self, pa, inputs, out):
        problems = []
        for (qid, q, _), hits in zip(inputs["queries"], out["hits"]):
            order, scores = self.oracle_top_k(inputs, q)
            got_ids = [h[0] for h in hits]
            if got_ids != [str(s) for s in inputs["ids"][order]]:
                problems.append(f"query {qid}: top-{self.k} order differs from the lexsort oracle")
            elif not np.allclose([h[1] for h in hits], scores, rtol=0.0, atol=1e-12):
                problems.append(f"query {qid}: top-{self.k} scores differ from the oracle")
        pairs = out["pairs"]
        if len(pairs) != len(inputs["queries"]):
            problems.append(f"{len(pairs)} pairs built for {len(inputs['queries'])} queries")
        for p in pairs:
            if any(FalseNegativeFilter.rejects(p.query_id, n) for n in p.negative_ids):
                problems.append(f"query {p.query_id}: a filtered candidate became a negative")
                break
        if pa.io.load_pairs(out["path"]) != list(pairs):
            problems.append("written pairs do not round-trip through io.load_pairs")
        return problems

    def digest(self, out):
        h = hashlib.sha256()
        with open(out["path"], "rb") as fh:
            h.update(fh.read())
        h.update(repr(out["hits"]).encode("utf-8"))
        return h.hexdigest()

    def quality(self, out):
        return None

    def stage_timings(self, out):
        return {}

    def counts(self, out):
        f = out["filter"]
        return {"filter_calls": f.calls, "filter_accepted": f.calls - f.rejected}


WORKLOADS = {
    # sizes keep one job at 2-4 s on a 2-core machine, so a run's first
    # round of jobs takes under half a minute; README.md gives the reasons.
    # tails-1d takes five input sets because its Sinkhorn iterations vary
    # from 40 to 130 per batch with the input
    "desk": Alignment("shifted-gaussian", 5, 6_000, 1_600, 3_200, 1_600),
    "tails-1d": Alignment(
        "heavy-tail", 1, 60_000, 2_000, 4_000, 1_000, ot_batch_size=1_000, quality_guard=False,
        sets=5,
    ),
    "pairs": Pairs(n_index=10_000, dim=64, n_queries=40, k=50),
}

SMOKE = {
    "desk": Alignment("shifted-gaussian", 5, 600, 120, 240, 120),
    "tails-1d": Alignment(
        "heavy-tail", 1, 10_000, 500, 1_000, 250, ot_batch_size=250, quality_guard=False, sets=5
    ),
    "pairs": Pairs(n_index=500, dim=16, n_queries=5, k=10),
}
