"""Float rows in saved files: json's text, byte for byte, however they are formatted.

The savers format a float64 row with orjson where its text equals json's
(every value ±0.0 or of magnitude in [1e-4, 1e16)) and with json elsewhere
(io._float_row_texts). These tests pin that text three ways: golden files
under tests/data/, written by the savers when every row still went through
json and checked below against json.dumps itself; a hypothesis property and
a seeded sweep of random doubles against json.dumps, so that an orjson
release that formats floats otherwise fails here instead of changing files;
and the error a non-finite row raises, with the target left as it was.
"""

import itertools
import json
import math
from pathlib import Path
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from popalign import PersonaRecord, ResponseMatrix
from popalign import io as pio
from popalign.errors import NonFiniteValue

DATA = Path(__file__).resolve().parent / "data"

BIGGEST = sys.float_info.max
# the fast range's two lower edges, values just outside it and just inside
# it, the zeros and extremes of float64, and an integral float
EDGES = [
    1e-4, float(np.nextafter(1e-4, 0)),
    1e-5, 2.5e-7, 1e16,
    9999999999999998.0, 1e15,
    0.0, -0.0, 5e-324, BIGGEST,
    3.0,
]

ROWS = np.array([
    [1e-4, 9999999999999998.0, 1e15, 3.0],  # all in the fast range
    [-0.0, 0.0, -1e-4, 0.5],
    [float(np.nextafter(1e-4, 0)), 1e-5, 2.5e-7, 1e16],
    [5e-324, BIGGEST, -BIGGEST, -5e-324],
    [-2.5e-7, -1e16, 1.0, -9999999999999998.0],
    [0.1, 1 / 3, 123456789.123456789, -2.0],
    [-3.0, 1e15 + 0.5, 7e-3, 42.0],
])
ROW_IDS = ["r0", "r-ü-東京", "r2", "r3", "r4", "r5", "r6"]
ITEMS = ("q-naïve", "q2", "q3", "q4")


def personas():
    return [
        PersonaRecord(id="p-ü-東京", narrative="émigré ☃ \"quoted\"", embedding=ROWS[0],
                      response_row=0, seed_id="s0"),
        PersonaRecord(id="p1", narrative="no embedding", response_row=3),
        PersonaRecord(id="p2", embedding=ROWS[2]),
        PersonaRecord(id="p3", narrative="edges", embedding=np.array(EDGES), seed_id="s-é"),
        PersonaRecord(id="p4", narrative="short", embedding=ROWS[3][:1]),
        PersonaRecord(id="p5", narrative="empty", embedding=np.zeros(0)),
        PersonaRecord(id="p6", narrative="", embedding=-ROWS[1]),
    ]


# golden file name -> the save that writes it
GOLDEN = {
    "golden_responses.jsonl":
        lambda p: pio.save_responses(p, ResponseMatrix(ROWS, ITEMS), ids=ROW_IDS),
    "golden_personas.jsonl": lambda p: pio.save_personas(p, personas()),
    "golden_embeddings.jsonl":
        lambda p: pio.save_embeddings(p, ["e-ü-東京"] + ROW_IDS[1:], ROWS),
}


def _json_text(name):
    """What json.dumps writes, record by record, for the golden file `name`."""
    if name == "golden_responses.jsonl":
        records = [{"items": list(ITEMS)}] + [
            {"id": i, "responses": row.tolist()} for i, row in zip(ROW_IDS, ROWS)
        ]
    elif name == "golden_embeddings.jsonl":
        ids = ["e-ü-東京"] + ROW_IDS[1:]
        records = [{"id": i, "embedding": row.tolist()} for i, row in zip(ids, ROWS)]
    else:
        records = []
        for rec in personas():
            record = {"id": rec.id, "narrative": rec.narrative}
            if rec.embedding is not None:
                record["embedding"] = rec.embedding.tolist()
            if rec.response_row is not None:
                record["response_row"] = rec.response_row
            if rec.seed_id is not None:
                record["seed_id"] = rec.seed_id
            records.append(record)
    return "".join(json.dumps(r, allow_nan=False) + "\n" for r in records).encode("utf-8")


class TestGoldenFiles:
    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_save_writes_the_golden_bytes(self, tmp_path, name):
        p = tmp_path / name
        GOLDEN[name](p)
        assert p.read_bytes() == (DATA / name).read_bytes()

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_golden_file_is_json_text(self, name):
        assert (DATA / name).read_bytes() == _json_text(name)

    def test_golden_rows_take_both_paths(self):
        fast = [pio._fast_rows(row, [0, len(row)])[0] for row in ROWS]
        assert True in fast and False in fast

    @pytest.mark.parametrize("chunk", [1, 3, 4, 5, 7])
    def test_chunks_write_the_same_bytes(self, tmp_path, monkeypatch, chunk):
        # chunks of one value, of under a row, of a row and a bit, and so on
        monkeypatch.setattr(pio, "_CHUNK_VALUES", chunk)
        for name, save in GOLDEN.items():
            p = tmp_path / name
            save(p)
            assert p.read_bytes() == (DATA / name).read_bytes(), name


FINITE = st.floats(allow_nan=False, allow_infinity=False)
EDGE = st.sampled_from(EDGES + [-v for v in EDGES])


class TestRowText:
    @settings(max_examples=500, derandomize=True, deadline=None, database=None)
    @given(rows=st.lists(st.lists(FINITE | EDGE, max_size=12), min_size=1, max_size=6))
    def test_rows_are_json_text(self, rows):
        texts = list(pio._float_row_texts(np.array(r, dtype=np.float64) for r in rows))
        assert texts == [json.dumps(r) for r in rows]

    def test_every_edge_alone_and_negated(self):
        for v in EDGES:
            for x in (v, -v):
                assert list(pio._float_row_texts([np.array([x])])) == [json.dumps([x])], x

    def test_random_bits_over_the_fast_range(self):
        # 10^6 doubles drawn uniformly among the bit patterns in [1e-4, 1e16),
        # either sign, in rows of 64: each must read as json writes it
        lo, hi = np.array([1e-4, 1e16]).view(np.int64)
        rng = np.random.default_rng(20261021)
        bits = rng.integers(lo, hi, size=10**6, dtype=np.int64)
        values = bits.view(np.float64) * rng.choice([-1.0, 1.0], size=bits.size)
        rows = values.reshape(-1, 64)
        assert pio._fast_rows(values, np.arange(0, values.size + 1, 64)).all()
        text = "\n".join(pio._float_row_texts(rows))
        assert text == "\n".join(map(json.dumps, rows.tolist()))

    def test_layouts_and_dtypes_give_the_same_text(self):
        a = np.arange(24, dtype=np.float64).reshape(4, 6) / 7
        want = [json.dumps(r) for r in a.tolist()]
        for rows in (np.asfortranarray(a), a.astype(">f8"), list(a)):
            assert list(pio._float_row_texts(rows)) == want
        strided = a[:, ::2]
        assert list(pio._float_row_texts(strided)) == [json.dumps(r) for r in strided.tolist()]

    def test_no_rows_no_text(self):
        assert list(pio._float_row_texts([])) == []
        assert list(pio._float_row_texts(np.zeros((0, 3)))) == []


class TestNonFiniteRows:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_row_raises_jsons_message(self, bad):
        with pytest.raises(ValueError) as want:
            json.dumps([1.0, bad], allow_nan=False)
        with pytest.raises(NonFiniteValue) as got:
            list(pio._float_row_texts([np.array([1.0, bad])]))
        assert str(got.value) == f"refusing to serialize non-finite value: {want.value}"

    def test_failed_save_after_fast_rows_keeps_the_old_file(self, tmp_path, monkeypatch):
        # chunks of two rows: whole chunks of orjson rows are written before
        # the NaN row, and the inf row behind it is never reached
        monkeypatch.setattr(pio, "_CHUNK_VALUES", 6)
        rows = np.random.default_rng(3).standard_normal((9, 3)) + 10.0
        rows[6, 1] = math.nan
        rows[8, 0] = math.inf
        p = tmp_path / "e.jsonl"
        p.write_bytes(b"previous bytes\n")
        with pytest.raises(ValueError) as want:
            json.dumps(rows[6].tolist(), allow_nan=False)
        with pytest.raises(NonFiniteValue) as got:
            pio.save_embeddings(p, [f"e{i}" for i in range(9)], rows)
        assert str(got.value) == f"refusing to serialize non-finite value: {want.value}"
        assert p.read_bytes() == b"previous bytes\n"
        assert [q.name for q in tmp_path.iterdir()] == ["e.jsonl"]

    def test_rows_before_the_bad_one_are_formatted_first(self):
        rows = [np.array([1.0]), np.array([2.0]), np.array([math.inf])]
        texts = pio._float_row_texts(rows)
        assert list(itertools.islice(texts, 2)) == ["[1.0]", "[2.0]"]
        with pytest.raises(NonFiniteValue):
            next(texts)
