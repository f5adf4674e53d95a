"""JSON-lines file formats and canonical JSON serialization.

Every on-disk format is JSON lines (one record per line, explicit header
records where needed): streamable, diffable, no binary. Floats are serialized
with shortest round-trip formatting (Python's repr, which json uses), so
save -> load reproduces every finite double bit-exactly. Every byte a saver
writes is json's text, which is promised: records go through json, and float
rows through orjson only where its text equals json's (_float_row_texts).
Loaders parse with orjson where it gives what json would (parse_jsonl).
Non-finite values are rejected at write time, never encoded, and a failed
save leaves the target as it was (_replacing). Memory: savers stream their
records to the file and format float rows in chunks of about 2**14 values,
and loaders convert vector rows to float64 in such chunks, so a file's
numbers never all sit in memory as Python floats or as text.

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

from .core import AlignmentConfig, ItemWeights, PersonaRecord, ResponseMatrix, _float_array
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


# a line with more opening brackets than this may nest deeper than json.loads
# recurses (it raises RecursionError near the interpreter's recursion limit)
# or than orjson's recursive build survives (orjson 3.8.3 crashed the
# interpreter on a line a million levels deep); it is parsed by json alone
_DEEP_BRACKETS = 256

# orjson gives integer literals outside [-2**63, 2**64) as floats; any float
# this large or larger is integral, so json.loads may have given an int
_INT_FLOATS = 2.0**63


def _json_record(line, lineno):
    try:
        return json.loads(line)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {lineno}: {exc.msg}", line=lineno) from exc


def _top_level_big_float(record):
    """True if a value of dict `record` is a float that orjson may have made of
    an integer literal that json.loads keeps as an int."""
    for value in record.values():
        if type(value) is float and not -_INT_FLOATS < value < _INT_FLOATS:
            return True
    return False


def parse_jsonl(path):
    """Yield (1-based line number, parsed JSON object) for each nonblank line.

    Every format is one object per line: a line that does not parse raises
    ParseError, one that parses to anything but an object SchemaError.

    Lines are parsed by orjson, imported on first use, and each loader gets
    what json.loads gives. These lines go to json.loads instead:
    - those orjson refuses: NaN and Infinity literals, numbers beyond the
      float range, lone surrogate escapes, and everything json refuses
      too, which so raises with json's message;
    - those that are not an object, which then raise as json has them;
    - those with a top-level float of magnitude 2**63 or more, which
      orjson may have made of an integer literal;
    - those with more than `_DEEP_BRACKETS` opening brackets.
    Below the top level an integer literal outside [-2**63, 2**64) may
    still arrive as its nearest float. Every loader converts such a value
    to float64 or refuses it by its type alike, so no loader's result
    differs from json's.
    """
    from orjson import JSONDecodeError, loads

    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.isspace():  # iterating a file never yields ""
                continue
            record = None  # stays None, or is not an object: json.loads decides
            if len(line) <= _DEEP_BRACKETS or (
                line.count("[") + line.count("{") <= _DEEP_BRACKETS
            ):
                try:
                    record = loads(line)
                except JSONDecodeError:
                    pass
            if type(record) is not dict or _top_level_big_float(record):
                record = _json_record(line, lineno)
            if not isinstance(record, dict):
                raise SchemaError(f"line {lineno}: expected an object", line=lineno)
            yield lineno, record


# json.dumps(record, allow_nan=False) builds this same encoder on every call
_JSONL_ENCODER = json.JSONEncoder(allow_nan=False)
# and json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) this one
_CANONICAL_ENCODER = json.JSONEncoder(sort_keys=True, indent=2, allow_nan=False)


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


def _write_lines(path, lines):
    """Write each text of `lines` (a line with its newline), all or nothing."""
    with _replacing(path) as fh:
        for line in lines:
            fh.write(line)


def _finite_json(encode, value, context):
    """encode(value), a json encoding with allow_nan=False.

    json's own check is the one finiteness gate: its out-of-range error
    becomes NonFiniteValue ("context: json's message"), and any other
    ValueError (a circular reference, say) propagates unchanged.
    """
    try:
        return encode(value)
    except ValueError as exc:
        if not str(exc).startswith("Out of range float values"):
            raise
        raise NonFiniteValue(f"{context}: {exc}") from exc


def _jsonl(value):
    """json's one-line text of value; a non-finite float raises NonFiniteValue."""
    return _finite_json(_JSONL_ENCODER.encode, value, "refusing to serialize non-finite value")


def dump_jsonl(path, records):
    """Write records one per line, all or nothing; rejects non-finite floats."""
    _write_lines(path, (_jsonl(record) + "\n" for record in records))


def canonical_json(obj):
    """Deterministic JSON text: sorted keys, fixed separators, no NaN
    (NonFiniteValue, through _finite_json)."""
    return _finite_json(_CANONICAL_ENCODER.encode, obj, "canonical_json")


def _object_line(texts):
    """json's line for an object whose values have these JSON texts, in order."""
    return "{" + ", ".join(f'"{key}": {text}' for key, text in texts.items()) + "}\n"


# orjson writes a float64 as repr, and so json, does wherever repr writes no
# exponent: ±0.0 and magnitudes in [1e-4, 1e16) (orjson 3.8.3 matched repr on
# 3.1M such values). Outside, only the exponent style differs: orjson writes
# 0.00001 for 1e-05, 2.5e-7 for 2.5e-07 and 1e16 for 1e+16.
_ORJSON_LOW, _ORJSON_HIGH = 1e-4, 1e16


def _fast_rows(values, bounds):
    """Per row, True if its every value is ±0.0 or of magnitude in [1e-4, 1e16).

    Row i is values[bounds[i]:bounds[i + 1]]; a NaN is in no range.
    """
    mag = np.abs(values)
    ok = mag >= _ORJSON_LOW
    ok &= mag < _ORJSON_HIGH
    ok |= mag == 0
    fast = np.ones(len(bounds) - 1, dtype=bool)
    fast[np.searchsorted(bounds, np.flatnonzero(~ok), side="right") - 1] = False
    return fast


def _joined(rows):
    """(values, bounds) of a list of 1-d rows, as _chunks gives them."""
    bounds = np.cumsum([0] + [len(row) for row in rows])
    return np.concatenate(rows, dtype=np.float64), bounds


def _chunks(rows):
    """(values, bounds) for each run of consecutive rows of about `_CHUNK_VALUES`
    values: values is one contiguous float64 array, and row i of the run is
    values[bounds[i]:bounds[i + 1]].

    A 2-d array is cut into blocks of whole rows, with no view of each row.
    """
    if isinstance(rows, np.ndarray):
        n, width = rows.shape
        step = max(1, _CHUNK_VALUES // max(width, 1))
        for start in range(0, n, step):
            block = np.ascontiguousarray(rows[start:start + step], dtype=np.float64)
            yield block.reshape(-1), np.arange(len(block) + 1) * width
        return
    run, size = [], 0
    for row in rows:
        run.append(row)
        size += len(row)
        if size >= _CHUNK_VALUES:
            yield _joined(run)
            run, size = [], 0
    if run:
        yield _joined(run)


def _float_row_texts(rows):
    """Yield json's text of each row of floats in `rows` (a 2-d array or an
    iterable of 1-d rows), in order.

    Each text is _jsonl(row.tolist()), and a row holding a NaN or ±inf
    raises NonFiniteValue as json has it. Rows are taken about
    `_CHUNK_VALUES` values at a time as one contiguous float64 array
    (_chunks) and checked by one vectorised test (_fast_rows): a row whose
    every value is ±0.0 or of magnitude in [1e-4, 1e16) is formatted by
    orjson, imported on first use, with its commas spaced as json spaces
    them; every other row by json.
    """
    from orjson import OPT_SERIALIZE_NUMPY, dumps

    for values, bounds in _chunks(rows):
        fast = _fast_rows(values, bounds).tolist()
        edges = bounds.tolist()
        for i, ok in enumerate(fast):
            row = values[edges[i]:edges[i + 1]]
            if ok:
                yield dumps(row, option=OPT_SERIALIZE_NUMPY).replace(b",", b", ").decode()
            else:
                yield _jsonl(row.tolist())


# ---------------------------------------------------------------- responses

def save_responses(path, matrix, ids=None):
    if not isinstance(matrix, ResponseMatrix):
        matrix = ResponseMatrix(matrix)
    if ids is None:
        ids = [f"r{i}" for i in range(matrix.n)]
    ids = [str(i) for i in ids]
    if len(ids) != matrix.n:
        raise SchemaError(f"{len(ids)} ids for {matrix.n} rows")
    header = _jsonl({"items": list(matrix.item_ids)}) + "\n"
    rows = (
        _object_line({"id": _jsonl(i), "responses": text})
        for i, text in zip(ids, _float_row_texts(matrix.values))
    )
    _write_lines(path, itertools.chain([header], rows))


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

def _persona_line(rec, embedding_texts):
    """The line of `rec`; its embedding's text, if it has one, is the next of
    `embedding_texts`."""
    texts = {"id": _jsonl(rec.id), "narrative": _jsonl(rec.narrative)}
    if rec.embedding is not None:
        texts["embedding"] = next(embedding_texts)
    if rec.response_row is not None:
        texts["response_row"] = _jsonl(int(rec.response_row))
    if rec.seed_id is not None:
        texts["seed_id"] = _jsonl(rec.seed_id)
    return _object_line(texts)


def save_personas(path, personas):
    # the embeddings' texts run at most one chunk of records ahead of the lines
    personas, ahead = itertools.tee(personas)
    texts = _float_row_texts(p.embedding for p in ahead if p.embedding is not None)
    _write_lines(path, (_persona_line(p, texts) for p in personas))


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
    vectors = _float_array(vectors, "embedding vectors")
    ids = [str(i) for i in ids]
    if vectors.ndim != 2 or vectors.shape[0] != len(ids):
        raise SchemaError(f"{len(ids)} ids for embedding array of shape {vectors.shape}")
    _write_lines(path, (
        _object_line({"id": _jsonl(i), "embedding": text})
        for i, text in zip(ids, _float_row_texts(vectors))
    ))


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
