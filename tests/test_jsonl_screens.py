"""The reader's two character screens give what the full checks give, exactly.

io._read_jsonl sends a line to orjson without counting its brackets when
three finds show at most one "{" and one "[" (the nesting screen), and
flags a line holding neither "u" nor "l" as literal-free, whose rows
io._float_rows converts by numpy's dtype inference without the per-row
type walk (the literal screen). The oracle below is the reader and row gate
without either screen, written here: every line longer than 256 characters
has its brackets counted, and every row is walked value by value and
converted with dtype=float64. Each loader, and parse_jsonl's records, must
match it bit for bit, or raise the same error with the same message.
"""

import dataclasses
import json
import math

import numpy as np
import orjson
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from popalign import io as pio
from popalign.errors import NonFiniteValue, ParseError, SchemaError

DEEP = 256


def _oracle_read(path):
    """(line number, record, False) per nonblank line, with no screen: lines
    of more than DEEP opening brackets go to json.loads, others to orjson
    and, where it refuses them or gives no object or a top-level float of
    magnitude 2**63 or more, to json.loads."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.isspace():
                continue
            record = None
            if line.count("[") + line.count("{") <= DEEP:
                try:
                    record = orjson.loads(line)
                except orjson.JSONDecodeError:
                    pass
            if type(record) is not dict or any(
                type(v) is float and not -(2.0**63) < v < 2.0**63 for v in record.values()
            ):
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise ParseError(f"line {lineno}: {exc.msg}", line=lineno) from exc
            if not isinstance(record, dict):
                raise SchemaError(f"line {lineno}: expected an object", line=lineno)
            yield lineno, record, False


def _oracle_float_rows(rows, label):
    """The row gate row by row: each value's type walked, then float64."""
    out, width = [], None
    for lineno, vals, _ in rows:
        where = label if lineno is None else f"line {lineno}: {label}"
        for v in vals:
            if type(v) not in (int, float):
                raise SchemaError(f"{where} contains a non-number", line=lineno)
            try:
                f = float(v)
            except OverflowError:
                f = math.inf
            if not math.isfinite(f):
                raise NonFiniteValue(f"{where} contains a non-finite value")
        if width is None:
            width = len(vals)
        if len(vals) != width:
            raise SchemaError(
                f"line {lineno}: {label} length {len(vals)} differs from {width}", line=lineno
            )
        out.append(vals)
    return np.array(out, dtype=np.float64)


def _bits(value):
    """value as nested tuples that keep every leaf's type and every float's bits."""
    if isinstance(value, np.ndarray):
        return ("ndarray", value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, float):
        return ("float", value.hex())
    if isinstance(value, dict):
        return ("dict",) + tuple((k, _bits(v)) for k, v in value.items())
    if isinstance(value, (list, tuple)):
        return (type(value).__name__,) + tuple(map(_bits, value))
    if dataclasses.is_dataclass(value):
        return (type(value).__name__,) + tuple(
            _bits(getattr(value, f.name)) for f in dataclasses.fields(value)
        )
    return (type(value).__name__, value)


def _outcome(load, path):
    try:
        return "value", _bits(load(path))
    except Exception as exc:
        return "error", type(exc), str(exc), getattr(exc, "line", None)


LOADERS = {
    "responses": pio.load_response_records,
    "embeddings": pio.load_embedding_records,
    "personas": pio.load_personas,
    "parse_jsonl": lambda p: list(pio.parse_jsonl(p)),
}


def _both_outcomes(kind, path):
    """(outcome of the screened loader, outcome of the oracle) on the file at path."""
    got = _outcome(LOADERS[kind], path)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pio, "_read_jsonl", _oracle_read)
        mp.setattr(pio, "_float_rows", _oracle_float_rows)
        want = _outcome(LOADERS[kind], path)
    return got, want


# ------------------------------------------------------------ generated lines

# a row value's JSON text: mostly numbers, so that many files load
NUMBER = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(json.dumps),
    st.integers(-(2**53), 2**53).map(str),
    st.sampled_from([2**63 - 1, -(2**63), 2**63, -(2**63) - 1, 2**64 - 1, 2**64, 2**64 + 1,
                     -(2**64), 10**30, 10**308, 10**400]).map(str),
)
ODD = st.sampled_from([
    "true", "false", "null",  # literals: the line is not literal-free
    "NaN", "Infinity", "-Infinity", "1e400",  # json's alone, and no "u" or "l"
    '"1.5"', '"[{"', '"u"', "[1.0]", "[]", '{"a": 1}', "{}",
])
VALUE = st.one_of(NUMBER, NUMBER, NUMBER, NUMBER, ODD)
WIDTH = 3
ROW = st.one_of(
    st.lists(NUMBER, min_size=WIDTH, max_size=WIDTH),
    st.lists(NUMBER, min_size=WIDTH, max_size=WIDTH),
    st.lists(VALUE, min_size=WIDTH, max_size=WIDTH),
    st.lists(VALUE, min_size=WIDTH - 1, max_size=WIDTH + 1),  # maybe ragged
).map(lambda vals: "[" + ", ".join(vals) + "]")
ID = st.one_of(
    st.sampled_from(['"e1"', '"x9"', '"user_7"', '"plain"', '"a[b{c"', '"é-東"', "5", "true"]),
    st.text(max_size=6).map(json.dumps),
)
# (string padding, nested padding): opening brackets beside the record's own,
# around the 256 edge and past json's recursion limit
PAD = st.one_of(
    st.none(), st.none(),
    st.sampled_from([253, 254, 255, 1198]).map(lambda k: ("[" * k, None)),
    st.sampled_from([253, 254, 255]).map(lambda k: ("{" * (k // 2) + "[" * (k - k // 2), None)),
    st.sampled_from([253, 254, 255, 1198]).map(lambda k: (None, k)),
)
# a line end, after a stray character now and then (a line json refuses)
END = st.sampled_from(["\n", "\r\n"] * 9 + [",\n", "]\n"])
LINE = st.tuples(ID, ROW, PAD, END, st.booleans())

TEMPLATES = {
    "responses": '{{"id": {id}, "responses": {row}{pad}}}',
    "embeddings": '{{"id": {id}, "embedding": {row}{pad}}}',
    "personas": '{{"id": {id}, "narrative": "", "embedding": {row}{pad}}}',
    "parse_jsonl": '{{"id": {id}, "embedding": {row}{pad}}}',
}
HEADERS = {"responses": '{"items": ["a", "b", "c"]}\n'}


def _pad_text(pad):
    if pad is None:
        return ""
    text, depth = pad
    if text is not None:
        return ", " + json.dumps({"pad": text})[1:-1]
    return ', "deep": ' + "[" * depth + "]" * depth


def _file_text(kind, lines):
    out = [HEADERS.get(kind, "")]
    for rid, row, pad, end, blank_after in lines:
        out.append(TEMPLATES[kind].format(id=rid, row=row, pad=_pad_text(pad)) + end)
        if blank_after:
            out.append(" \t" + end[-1])
    return "".join(out)


@settings(max_examples=300, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(lines=st.lists(LINE, min_size=1, max_size=7), chunk_rows=st.sampled_from([1, 2, 1000]))
def test_every_loader_matches_the_unscreened_oracle(tmp_path, monkeypatch, lines, chunk_rows):
    monkeypatch.setattr(pio, "_CHUNK_VALUES", chunk_rows * WIDTH)
    path = tmp_path / "f.jsonl"
    for kind in LOADERS:
        path.write_text(_file_text(kind, lines), encoding="utf-8", newline="")
        got, want = _both_outcomes(kind, path)
        assert got == want, kind


# rows the property draws at random, each put first, second and third among
# literal-free rows
NAMED = {
    "floats": "[0.5, -1.25, 3.0]",
    "ints": "[1, -2, 3]",
    "int64 edges": f"[{2**63 - 1}, {-(2**63)}, 0]",
    "uint64": f"[{2**63}, {2**64 - 1}, 1]",
    "from 2**64": f"[{2**64}, 0.5, 1]",
    "below int64": f"[{-(2**63) - 1}, 0.5, 1]",
    "beyond floats": f"[{10**400}, 0.5, 1]",
    "true": "[0.5, true, 1]",
    "false": "[false, 0.5, 1]",
    "null": "[0.5, 1, null]",
    "numeric string": '[0.5, "1.5", 1]',
    "nested list": "[0.5, [1.0], 1]",
    "nested lists": "[[1.0], [2.0], [3.0]]",
    "object": '[0.5, {"a": 1}, 1]',
    "NaN": "[NaN, 0.5, 1]",
    "Infinity": "[0.5, Infinity, 1]",
    "ragged": "[0.5, 1]",
}


@pytest.mark.parametrize("at", [1, 2, 3])
@pytest.mark.parametrize("name", NAMED)
@pytest.mark.parametrize("kind", LOADERS)
def test_named_row_matches_the_oracle(tmp_path, monkeypatch, kind, name, at):
    # chunks of two rows: the named row first, last or alone in its chunk
    monkeypatch.setattr(pio, "_CHUNK_VALUES", 2 * WIDTH)
    rows = ["[0.25, 1, -3.5]"] * 3
    rows[at - 1] = NAMED[name]
    path = tmp_path / "f.jsonl"
    path.write_text(_file_text(kind, [('"e"', row, None, "\n", False) for row in rows]))
    got, want = _both_outcomes(kind, path)
    assert got == want


# hypothesis runs a test with room for 2000 more frames, so lines past
# json's recursion limit are checked here
@pytest.mark.parametrize("pad", [
    (None, 253), (None, 254), (None, 255), (None, 1198),
    ("[" * 253, None), ("[" * 254, None), ("[" * 255, None), ("{" * 1198, None),
], ids=lambda pad: f"{'string' if pad[0] else 'nested'}-{len(pad[0] or '') or pad[1]}")
@pytest.mark.parametrize("kind", LOADERS)
def test_bracket_edges_match_the_oracle(tmp_path, kind, pad):
    path = tmp_path / "f.jsonl"
    path.write_text(_file_text(kind, [
        ('"e"', "[0.25, 1, -3.5]", pad if i == 1 else None, "\n", False) for i in range(3)
    ]))
    got, want = _both_outcomes(kind, path)
    assert got == want
    if pad == (None, 1198):
        assert got[1] is RecursionError


# ------------------------------------------------------------------ the spies

def _count_calls(monkeypatch, name):
    """A list that each call of io's `name` appends (its arguments, its result) to."""
    calls = []
    real = getattr(pio, name)

    def spy(*args):
        result = real(*args)
        calls.append((args, result))
        return result

    monkeypatch.setattr(pio, name, spy)
    return calls


def _embedding_file(path, n=1000, width=64):
    vals = np.random.default_rng(30).standard_normal((n, width))
    pio.save_embeddings(path, [f"e{i:04d}" for i in range(n)], vals)
    return vals


def test_literal_free_file_runs_no_count_and_no_type_walk(tmp_path, monkeypatch):
    path = tmp_path / "e.jsonl"
    vals = _embedding_file(path)
    assert all(len(line) > DEEP for line in path.read_text().splitlines())
    spied = {name: _count_calls(monkeypatch, name)
             for name in ("_bracket_count", "_numbers_only", "_check_rows", "_inferred_block")}
    ids, back = pio.load_embedding_records(path)
    assert back.tobytes() == vals.tobytes() and len(ids) == 1000
    # 256 rows of 64 values to a chunk: four chunks, each inferred once
    assert {name: len(calls) for name, calls in spied.items()} == {
        "_bracket_count": 0, "_numbers_only": 0, "_check_rows": 0, "_inferred_block": 4
    }


def test_one_literal_still_names_its_line(tmp_path, monkeypatch):
    path = tmp_path / "e.jsonl"
    _embedding_file(path)
    lines = path.read_text().splitlines(keepends=True)
    lines[699] = lines[699].replace('"embedding": [', '"embedding": [true, ', 1)
    lines[699] = lines[699].rsplit(",", 1)[0] + "]}\n"  # keep the width
    path.write_text("".join(lines))
    walked = _count_calls(monkeypatch, "_numbers_only")
    with pytest.raises(SchemaError) as exc:
        pio.load_embedding_records(path)
    assert str(exc.value) == "line 700: embedding contains a non-number"
    assert exc.value.line == 700
    assert len(walked) == 1  # only the line holding the literal is walked


def test_only_lines_the_finds_cannot_clear_are_counted(tmp_path, monkeypatch):
    counted = _count_calls(monkeypatch, "_bracket_count")
    parsed = _count_calls(monkeypatch, "_json_record")
    long = "x" * 300
    lines = {
        1: {"id": long, "v": [1, 2]},  # long and flat: cleared by the finds
        2: {"id": "short", "v": [[1], {"a": 2}]},  # short: never counted
        3: {"id": long, "v": [[1, 2]]},  # a second "["
        4: {"id": long, "v": [{"a": 1}]},  # a second "{"
        5: {"id": long + "[" * 256, "v": 1},  # 257 in all: json's
        6: {"id": long + "[" * 255, "v": 1},  # 256: orjson's
    }
    path = tmp_path / "f.jsonl"
    path.write_text("".join(json.dumps(rec) + "\n" for rec in lines.values()))
    assert [rec for _, rec in pio.parse_jsonl(path)] == list(lines.values())
    assert [count for _, count in counted] == [3, 3, 257, 256]
    assert [args[1] for args, _ in parsed] == [5]


@pytest.mark.parametrize("line, literal_free", [
    ('{"id": "e1", "embedding": [1.0, 2e-05]}', True),
    ('{"id": "e1", "embedding": [NaN, Infinity]}', True),
    ('{"id": "e1", "embedding": [1.0, true]}', False),
    ('{"id": "e1", "embedding": [null]}', False),
    ('{"id": "user_7", "embedding": [1.0]}', False),
    ('{"id": "\\u0041", "embedding": [1.0]}', False),
    ('{"id": "L", "narrative": "a lawyer", "embedding": [1.0]}', False),
    ('{"id": "L", "responses": [1.0]}', True),
    ('{"id": "L", "embedding": [1.0]}', True),  # capitals are no literal
])
def test_literal_free_is_the_absence_of_u_and_l(tmp_path, line, literal_free):
    path = tmp_path / "f.jsonl"
    path.write_text(line + "\n")
    [(lineno, record, flag)] = list(pio._read_jsonl(path))
    assert (lineno, record) == (1, json.loads(line))
    assert flag is literal_free
