"""Command-line interface.

Subcommands: align, metrics, collect, retrieve, pairs, simulate, sweep.
Every subcommand but retrieve takes --seed, 0 by default (align's default keeps
the config file's seed); only align takes --config, a flat JSON config file that
its flags override. On failure a machine-readable JSON
error record is printed to stderr and the exit code is nonzero.
"""

import argparse
import dataclasses
import json
import sys

from . import io as pio
from .checks import convergence_sweep
from .clients import HttpFalseNegativeFilter, HttpResponder
from .core import AlignmentConfig, PersonaRecord
from .errors import InvalidConfig, PopalignError, SchemaError
from .metrics import metric_report
from .pipeline import collect_responses, report_json, run_alignment
from .retrieval import build_training_pairs, top_k_retrieve
from .synthetic import PRESETS, sample_population

# every config field is an align flag except item_weights, a per-item vector
# that only a config file can set
_ALIGN_FLAG_FIELDS = tuple(
    f.name for f in dataclasses.fields(AlignmentConfig) if f.name != "item_weights"
)


def _write_or_print(text, out_path):
    if out_path:
        with pio._replacing(out_path) as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _cmd_align(args):
    overrides = {name: getattr(args, name) for name in _ALIGN_FLAG_FIELDS}
    if args.config:
        config = pio.load_config(args.config, overrides)
    else:
        config = pio.config_from_mapping({}, overrides)
    pool = pio.load_responses(args.pool)
    reference = pio.load_responses(args.reference)
    personas = pio.load_personas(args.personas)
    selected, report = run_alignment(pool, reference, personas, config)
    pio.dump_jsonl(args.out_selected, ({"id": sid} for sid in selected))
    with pio._replacing(args.out_report) as fh:
        fh.write(report_json(report, include_timings=args.include_timings) + "\n")
    print(f"aligned {len(selected)} selections -> {args.out_selected}, {args.out_report}")
    return 0


def _cmd_metrics(args):
    X = pio.load_responses(args.first)
    Y = pio.load_responses(args.second)
    rep = metric_report(
        X,
        Y,
        n_projections=args.projections,
        seed=args.seed,
        kernel_bandwidth=args.mmd_bandwidth,
    )
    _write_or_print(pio.canonical_json(rep.to_record()), args.out)
    return 0


def _cmd_collect(args):
    personas = pio.load_personas(args.personas)
    items = pio.load_items(args.items)
    responder = HttpResponder(args.endpoint, timeout=args.timeout, retries=args.retries)
    matrix = collect_responses(personas, items, responder, args.seed)
    pio.save_responses(args.out, matrix, ids=[p.id for p in personas])
    print(f"collected {matrix.n}x{matrix.d} responses -> {args.out}")
    return 0


def _parse_vector(args):
    if args.query is not None:
        payload = json.loads(args.query)
    elif args.query_file is not None:
        with open(args.query_file, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    else:
        raise InvalidConfig("retrieve needs --query or --query-file")
    if isinstance(payload, dict):
        payload = payload.get("embedding")
    if not isinstance(payload, list):
        raise InvalidConfig("query vector must be a flat JSON array of numbers")
    return pio._float_rows([(None, payload)], "query")[0]


def _cmd_retrieve(args):
    index = pio.load_embeddings(args.embeddings)
    query = _parse_vector(args)
    hits = top_k_retrieve(query, index, args.k)
    lines = "\n".join(
        json.dumps({"rank": r, "id": pid, "score": score})
        for r, (pid, score) in enumerate(hits)
    )
    _write_or_print(lines, args.out)
    return 0


def _cmd_pairs(args):
    index = pio.load_embeddings(args.embeddings)
    queries = []
    for lineno, record in pio.parse_jsonl(args.queries):
        try:
            query_id, embedding, positive_id = (
                record["query_id"], record["embedding"], record["positive_id"]
            )
        except KeyError as exc:
            raise InvalidConfig(f"queries line {lineno}: {exc}") from exc
        if not isinstance(embedding, list):
            raise SchemaError(f"line {lineno}: query embedding must be a JSON array", line=lineno)
        # the row gate of embedding files: typed errors for bools, strings and NaN
        vector = pio._float_rows([(lineno, embedding)], "query embedding")[0]
        queries.append((query_id, vector, positive_id))
    fn_filter = None
    if args.filter_endpoint:
        fn_filter = HttpFalseNegativeFilter(
            args.filter_endpoint, timeout=args.timeout, retries=args.retries
        )
    pairs = build_training_pairs(
        index,
        queries,
        n_hard=args.n_hard,
        n_random=args.n_random,
        seed=args.seed,
        false_negative_filter=fn_filter,
        strict=not args.skip_empty,
    )
    pio.save_pairs(args.out, pairs)
    print(f"built {len(pairs)} training pairs -> {args.out}")
    return 0


def _cmd_simulate(args):
    pool = sample_population(args.preset, args.n, args.d, args.seed, role="pool")
    reference = sample_population(args.preset, args.m, args.d, args.seed, role="reference")
    pool_ids = [f"p{i:06d}" for i in range(pool.n)]
    pio.save_responses(args.out_pool, pool, ids=pool_ids)
    pio.save_responses(args.out_reference, reference, ids=[f"h{i:06d}" for i in range(reference.n)])
    pio.save_personas(
        args.out_personas,
        (PersonaRecord(id=pid, response_row=i) for i, pid in enumerate(pool_ids)),
    )
    print(
        f"simulated preset {args.preset}: pool {pool.n}x{pool.d} -> {args.out_pool}, "
        f"reference {reference.n}x{reference.d} -> {args.out_reference}, "
        f"personas -> {args.out_personas}"
    )
    return 0


def _grid(text, flag, parse):
    try:
        return tuple(map(parse, text.split(",")))
    except ValueError as exc:
        raise InvalidConfig(f"{flag} takes comma-separated {parse.__name__}s: {exc}") from None


def _cmd_sweep(args):
    result = convergence_sweep(
        preset=args.preset,
        n_grid=_grid(args.n_grid, "--n-grid", int),
        d=args.d,
        m=args.m,
        n_dagger=args.n_dagger,
        bandwidth_grid=_grid(args.bandwidth_grid, "--bandwidth-grid", float),
        repetitions=args.reps,
        seed=args.seed,
        kde_fit_subsample=args.kde_fit_subsample,
    )
    pio.dump_jsonl(args.out, result.to_rows())
    ns, medians = result.median_series("w1" if args.d == 1 else "sw")
    for n, med in zip(ns, medians):
        print(f"n={n}: median divergence {med:.6f}")
    print(f"sweep table -> {args.out}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="popalign",
        description="Population-level alignment of persona response pools",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def seeded(p, default=0):
        p.add_argument("--seed", type=int, default=default, help="64-bit unsigned seed")

    p = sub.add_parser("align", help="run the two-stage alignment pipeline")
    seeded(p, default=None)
    p.add_argument("--config", default=None, help="flat JSON config file")
    p.add_argument("--pool", required=True, help="pool response file")
    p.add_argument("--reference", required=True, help="reference response file")
    p.add_argument("--personas", required=True, help="persona file")
    p.add_argument("--out-selected", default="selected.jsonl")
    p.add_argument("--out-report", default="report.json")
    for f in dataclasses.fields(AlignmentConfig):
        if f.name in _ALIGN_FLAG_FIELDS and f.name != "seed":
            p.add_argument("--" + f.name.replace("_", "-"), type=f.type, default=None)
    p.add_argument("--include-timings", action="store_true")
    p.set_defaults(func=_cmd_align)

    p = sub.add_parser("metrics", help="divergence metrics between two response files")
    seeded(p)
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--projections", type=int, default=512)
    p.add_argument("--mmd-bandwidth", type=float, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser("collect", help="collect responses through a responder endpoint")
    seeded(p)
    p.add_argument("--personas", required=True)
    p.add_argument("--items", required=True)
    p.add_argument("--endpoint", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--timeout", type=float, default=10.0)
    p.add_argument("--retries", type=int, default=2)
    p.set_defaults(func=_cmd_collect)

    p = sub.add_parser("retrieve", help="rank personas by cosine similarity to a query")
    p.add_argument("--embeddings", required=True)
    p.add_argument("--query", default=None, help="inline JSON array")
    p.add_argument("--query-file", default=None, help="JSON array or embedding record file")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_retrieve)

    p = sub.add_parser("pairs", help="build contrastive training pairs")
    seeded(p)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--queries", required=True,
                   help="JSONL of {query_id, embedding, positive_id}")
    p.add_argument("--n-hard", type=int, default=10)
    p.add_argument("--n-random", type=int, default=10)
    p.add_argument("--filter-endpoint", default=None)
    p.add_argument("--timeout", type=float, default=10.0)
    p.add_argument("--retries", type=int, default=2)
    p.add_argument("--skip-empty", action="store_true",
                   help="skip queries with no surviving negatives instead of failing")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_pairs)

    p = sub.add_parser("simulate", help="write synthetic pool/reference/persona files")
    seeded(p)
    p.add_argument("--preset", choices=PRESETS, default="shifted-gaussian")
    p.add_argument("--n", type=int, required=True, help="pool size")
    p.add_argument("--m", type=int, required=True, help="reference size")
    p.add_argument("--d", type=int, default=5)
    p.add_argument("--out-pool", default="pool.jsonl")
    p.add_argument("--out-reference", default="reference.jsonl")
    p.add_argument("--out-personas", default="personas.jsonl")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("sweep", help="divergence-vs-pool-size sweep table")
    seeded(p)
    p.add_argument("--preset", choices=PRESETS, default="shifted-gaussian")
    p.add_argument("--n-grid", default="1000,10000,100000")
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--m", type=int, default=2000)
    p.add_argument("--n-dagger", type=int, default=1000)
    p.add_argument("--bandwidth-grid", default="0.2")
    p.add_argument("--reps", type=int, default=5)
    p.add_argument("--kde-fit-subsample", type=int, default=4096)
    p.add_argument("--out", default="sweep.jsonl")
    p.set_defaults(func=_cmd_sweep)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PopalignError as exc:
        record = {"error": type(exc).__name__, "message": str(exc)}
        stage = getattr(exc, "stage", None)
        if stage:
            record["stage"] = stage
        print(json.dumps(record), file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(json.dumps({"error": "FileNotFound", "message": str(exc)}), file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(json.dumps({"error": "ParseError", "message": str(exc)}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
