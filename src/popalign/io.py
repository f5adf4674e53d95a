"""JSON-lines file formats and canonical JSON serialization.

Every on-disk format is JSON lines (one record per line, explicit header
records where needed): streamable, diffable, no binary. Floats are serialized
with shortest round-trip formatting (Python's repr, which json uses), so
save -> load reproduces every finite double bit-exactly. Non-finite values
are rejected at write time, never encoded, and a failed save leaves the
target as it was (_replacing). Memory: savers stream their records to the
file, and loaders convert vector rows to float64 in chunks of about 2**14
values, so a file's numbers never all sit in memory as Python floats.

Schemas
-------
responses:   {"items": [d strings]} header line, then {"id": str,
             "responses": [d floats]} per row, order preserved.
personas:    {"id": str, "narrative": str} per record, plus optional
             "embedding": [E floats], "response_row": int, "seed_id": str.
embeddings:  {"id": str, "embedding": [E floats]} per record.
pairs:       {"query_id": str, "positive_id": str, "negative_ids":
             [strings], "exhausted": bool} per record.
config:      one flat JSON document mirroring AlignmentConfig field names;
             item_weights is a list of d floats, kde_fit_subsample an int
             and epsilon_absolute a float, each absent/null when unset.
report:      one JSON document, schema versioned via "report_version".
"""

import contextlib
import dataclasses
import itertools
import json
import math
import os

import numpy as np

from .core import AlignmentConfig, ItemWeights, PersonaRecord, ResponseMatrix
from .errors import NonFiniteValue, ParseError, SchemaError
from .retrieval import EmbeddingIndex, TrainingPair


def _require(record, key, types, lineno, label):
    if key not in record:
        raise SchemaError(f"line {lineno}: {label} record missing {key!r}", line=lineno)
    val = record[key]
    if not isinstance(val, types):
        raise SchemaError(
            f"line {lineno}: {label} field {key!r} has type {type(val).__name__}",
            line=lineno,
        )
    return val


def _float_list(values, lineno, label):
    where = label if lineno is None else f"line {lineno}: {label}"
    out = []
    for v in values:
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise SchemaError(f"{where} contains a non-number", line=lineno)
        try:
            f = float(v)
        except OverflowError:  # an int beyond the float range
            f = math.inf
        if not math.isfinite(f):
            raise NonFiniteValue(f"{where} contains a non-finite value")
        out.append(f)
    return out


# the element types json.loads gives a number; bool is a subclass of int, not int
_NUMBER_TYPES = {int, float}

# values per converted block: a load holds at most one chunk of rows as Python
# lists of floats (about 32 B a value) beside the float64 blocks
_CHUNK_VALUES = 2**14


def _check_rows(linenos, rows, label, width):
    """Raise as a row-by-row load would at the first bad row; return if none is.

    `width` is the width of the file's first row, which every row must match.
    """
    for lineno, vals in zip(linenos, rows):
        _float_list(vals, lineno, label)
        if len(vals) != width:
            raise SchemaError(
                f"line {lineno}: {label} length {len(vals)} differs from {width}", line=lineno
            )


def _append_block(blocks, lists):
    """Append `lists` to `blocks` as one float64 array; True if every value is finite."""
    # OverflowError here means an int beyond the float range
    block = np.array(lists, dtype=np.float64)
    blocks.append(block)
    return bool(np.isfinite(block).all())


def _float_rows(rows, label):
    """(n, width) float64 array from (line number, list of JSON numbers) pairs.

    A line number of None leaves the line out of the error messages.

    Each row gets a C-level type and length check against the file's first
    row as it arrives. Every `_CHUNK_VALUES` values or so the chunk of rows
    becomes one float64 block with one finiteness check, and its lists are
    dropped; the blocks are joined at the end. Anything amiss (a non-number,
    a row longer or shorter than the first, a non-finite or unconvertible
    value, or an error that `rows` itself raises on a later line) sends the
    current chunk through `_float_list` in file order (rows in earlier blocks
    are known good), so the first bad line raises exactly as a row-by-row
    load would.
    """
    blocks, linenos, lists = [], [], []
    width = None
    stop = None
    try:
        for lineno, vals in rows:
            if width is None:
                width = len(vals)
                chunk = max(1, _CHUNK_VALUES // max(width, 1))
            linenos.append(lineno)
            lists.append(vals)
            if not set(map(type, vals)) <= _NUMBER_TYPES or len(vals) != width:
                break
            if len(lists) == chunk:
                if not _append_block(blocks, lists):
                    break
                linenos, lists = [], []
        else:
            # an empty file still yields one empty block, for its caller to refuse
            if (blocks and not lists) or _append_block(blocks, lists):
                return blocks[0] if len(blocks) == 1 else np.concatenate(blocks)
    except Exception as exc:  # raised below, unless an earlier row is bad
        stop = exc
    _check_rows(linenos, lists, label, width)
    raise stop


def parse_jsonl(path):
    """Yield (1-based line number, parsed JSON object) for each nonblank line.

    Every format is one object per line: a line that does not parse raises
    ParseError, one that parses to anything but an object SchemaError.
    """
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.isspace():  # iterating a file never yields ""
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(f"line {lineno}: {exc.msg}", line=lineno) from exc
            if not isinstance(record, dict):
                raise SchemaError(f"line {lineno}: expected an object", line=lineno)
            yield lineno, record


# json.dumps(record, allow_nan=False) builds this same encoder on every call
_JSONL_ENCODER = json.JSONEncoder(allow_nan=False)


@contextlib.contextmanager
def _replacing(path):
    """A new text file beside path that replaces it once the block ends; on
    any error the new file is removed and path is left as it was."""
    tmp = f"{os.fspath(path)}.{os.urandom(8).hex()}.tmp"
    fh = open(tmp, "x", encoding="utf-8")
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def dump_jsonl(path, records):
    """Write records one per line, all or nothing; rejects non-finite floats."""
    with _replacing(path) as fh:
        for record in records:
            try:
                fh.write(_JSONL_ENCODER.encode(record) + "\n")
            except ValueError as exc:
                raise NonFiniteValue(f"refusing to serialize non-finite value: {exc}") from exc


def canonical_json(obj):
    """Deterministic JSON text: sorted keys, fixed separators, no NaN.

    json's own allow_nan=False check is the one finiteness gate: its
    out-of-range error becomes NonFiniteValue, any other ValueError (a
    circular reference, say) propagates unchanged.
    """
    try:
        return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)
    except ValueError as exc:
        if not str(exc).startswith("Out of range float values"):
            raise
        raise NonFiniteValue(f"canonical_json: {exc}") from exc


# ---------------------------------------------------------------- responses

def save_responses(path, matrix, ids=None):
    if not isinstance(matrix, ResponseMatrix):
        matrix = ResponseMatrix(matrix)
    if ids is None:
        ids = [f"r{i}" for i in range(matrix.n)]
    ids = [str(i) for i in ids]
    if len(ids) != matrix.n:
        raise SchemaError(f"{len(ids)} ids for {matrix.n} rows")
    header = {"items": list(matrix.item_ids)}
    rows = ({"id": i, "responses": row.tolist()} for i, row in zip(ids, matrix.values))
    dump_jsonl(path, itertools.chain([header], rows))


def load_response_records(path):
    """(row ids, ResponseMatrix) from a response file; row order preserved."""
    items = None
    ids = []

    def rows():
        nonlocal items
        for lineno, record in parse_jsonl(path):
            if items is None:
                if "items" not in record:
                    raise SchemaError(
                        f"line {lineno}: first record must be the items header", line=lineno
                    )
                items = record["items"]
                if not isinstance(items, list) or not all(isinstance(s, str) for s in items):
                    raise SchemaError(
                        f"line {lineno}: items must be a list of strings", line=lineno
                    )
                if not items:
                    raise SchemaError(f"line {lineno}: items header is empty", line=lineno)
                continue
            rid = _require(record, "id", str, lineno, "response")
            vals = _require(record, "responses", list, lineno, "response")
            if len(vals) != len(items):
                raise SchemaError(
                    f"line {lineno}: row has {len(vals)} entries, header names {len(items)} items",
                    line=lineno,
                )
            ids.append(rid)
            yield lineno, vals

    values = _float_rows(rows(), "responses")
    if items is None:
        raise SchemaError("response file has no header record")
    if not ids:
        raise SchemaError("response file has no data rows")
    return ids, ResponseMatrix(values, tuple(items))


def load_responses(path):
    """ResponseMatrix from a response file (ids discarded)."""
    _, matrix = load_response_records(path)
    return matrix


# ----------------------------------------------------------------- personas

def _persona_record(rec):
    row = {"id": rec.id, "narrative": rec.narrative}
    if rec.embedding is not None:
        row["embedding"] = rec.embedding.tolist()
    if rec.response_row is not None:
        row["response_row"] = int(rec.response_row)
    if rec.seed_id is not None:
        row["seed_id"] = rec.seed_id
    return row


def save_personas(path, personas):
    dump_jsonl(path, map(_persona_record, personas))


def load_personas(path):
    out = []
    for lineno, record in parse_jsonl(path):
        pid = _require(record, "id", str, lineno, "persona")
        narrative = record.get("narrative", "")
        if not isinstance(narrative, str):
            raise SchemaError(f"line {lineno}: narrative must be a string", line=lineno)
        emb = record.get("embedding")
        if emb is not None:
            emb = _require(record, "embedding", list, lineno, "persona")
            emb = _float_rows([(lineno, emb)], "embedding")[0]
        row = record.get("response_row")
        if row is not None and (isinstance(row, bool) or not isinstance(row, int)):
            raise SchemaError(f"line {lineno}: response_row must be an integer", line=lineno)
        seed_id = record.get("seed_id")
        if seed_id is not None and not isinstance(seed_id, str):
            raise SchemaError(f"line {lineno}: seed_id must be a string", line=lineno)
        out.append(
            PersonaRecord(
                id=pid, narrative=narrative, embedding=emb, response_row=row, seed_id=seed_id
            )
        )
    if not out:
        raise SchemaError("persona file has no records")
    return out


# --------------------------------------------------------------- embeddings

def save_embeddings(path, ids, vectors):
    vectors = np.asarray(vectors, dtype=np.float64)
    ids = [str(i) for i in ids]
    if vectors.ndim != 2 or vectors.shape[0] != len(ids):
        raise SchemaError(f"{len(ids)} ids for embedding array of shape {vectors.shape}")
    dump_jsonl(path, ({"id": i, "embedding": row.tolist()} for i, row in zip(ids, vectors)))


def load_embedding_records(path):
    """(ids, raw vector array) exactly as stored, no normalization."""
    ids = []

    def rows():
        for lineno, record in parse_jsonl(path):
            ids.append(_require(record, "id", str, lineno, "embedding"))
            yield lineno, _require(record, "embedding", list, lineno, "embedding")

    vectors = _float_rows(rows(), "embedding")
    if not ids:
        raise SchemaError("embedding file has no records")
    return ids, vectors


def load_embeddings(path):
    """EmbeddingIndex (validated, L2-normalized) from an embedding file."""
    ids, vectors = load_embedding_records(path)
    return EmbeddingIndex.build(ids, vectors)


# -------------------------------------------------------------------- items

def save_items(path, items):
    dump_jsonl(path, ({"item": str(t)} for t in items))


def load_items(path):
    out = []
    for lineno, record in parse_jsonl(path):
        out.append(_require(record, "item", str, lineno, "item"))
    if not out:
        raise SchemaError("items file has no records")
    return out


# -------------------------------------------------------------------- pairs

def save_pairs(path, pairs):
    dump_jsonl(
        path,
        (
            {
                "query_id": p.query_id,
                "positive_id": p.positive_id,
                "negative_ids": list(p.negative_ids),
                "exhausted": bool(p.exhausted),
            }
            for p in pairs
        ),
    )


def load_pairs(path):
    out = []
    for lineno, record in parse_jsonl(path):
        negs = _require(record, "negative_ids", list, lineno, "pair")
        if not all(isinstance(s, str) for s in negs):
            raise SchemaError(f"line {lineno}: negative_ids must be strings", line=lineno)
        exhausted = record.get("exhausted", False)
        if not isinstance(exhausted, bool):
            raise SchemaError(f"line {lineno}: exhausted must be a boolean", line=lineno)
        out.append(
            TrainingPair(
                query_id=_require(record, "query_id", str, lineno, "pair"),
                positive_id=_require(record, "positive_id", str, lineno, "pair"),
                negative_ids=tuple(negs),
                exhausted=exhausted,
            )
        )
    return out


# ------------------------------------------------------------------- config

def _config_mapping(config):
    """Flat JSON-ready mapping of every AlignmentConfig field, by field name."""
    doc = {f.name: getattr(config, f.name) for f in dataclasses.fields(AlignmentConfig)}
    if config.item_weights is not None:
        doc["item_weights"] = [float(v) for v in config.item_weights.weights]
    return doc


def save_config(path, config):
    with _replacing(path) as fh:
        fh.write(canonical_json(_config_mapping(config)) + "\n")


def config_from_mapping(doc, overrides=None):
    """AlignmentConfig from a flat mapping, with optional field overrides."""
    if not isinstance(doc, dict):
        raise SchemaError("config document must be a JSON object")
    unknown = set(doc) - {f.name for f in dataclasses.fields(AlignmentConfig)}
    if unknown:
        raise SchemaError(f"unknown config fields: {sorted(unknown)}")
    merged = dict(doc)
    for key, val in (overrides or {}).items():
        if val is not None:
            merged[key] = val
    if merged.get("item_weights") is not None and not isinstance(
        merged["item_weights"], ItemWeights
    ):
        merged["item_weights"] = ItemWeights(np.asarray(merged["item_weights"], dtype=np.float64))
    try:
        return AlignmentConfig(**merged)
    except TypeError as exc:
        raise SchemaError(f"config incomplete: {exc}") from exc


def load_config(path, overrides=None):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"config: {exc.msg} at line {exc.lineno}", line=exc.lineno) from exc
    return config_from_mapping(doc, overrides)
