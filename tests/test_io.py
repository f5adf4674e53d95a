"""JSONL formats: bit-exact round-trips, schema errors, canonical JSON."""

import contextlib
import dataclasses
import io
import json
import math
import os
from pathlib import Path
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from popalign import cli
from popalign import io as pio
from popalign import AlignmentConfig, ItemWeights, PersonaRecord, ResponseMatrix, TrainingPair
from popalign.errors import NonFiniteValue, ParseError, PopalignError, SchemaError
from popalign.io import (
    canonical_json,
    config_from_mapping,
    load_config,
    load_embedding_records,
    load_embeddings,
    load_items,
    load_pairs,
    load_personas,
    load_response_records,
    load_responses,
    save_config,
    save_embeddings,
    save_items,
    save_pairs,
    save_personas,
    save_responses,
)

# values whose decimal shortest repr exercises the round-trip guarantee
AWKWARD = [0.1, 1 / 3, 2**-1074, 1.7976931348623157e308, -0.0, 123456789.123456789]


class TestResponses:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        vals = rng.standard_normal((7, 4))
        vals[0, :4] = AWKWARD[:4]
        m = ResponseMatrix(vals, ("a", "b", "c", "d"))
        p = tmp_path / "r.jsonl"
        save_responses(p, m, ids=[f"id{i}" for i in range(7)])
        ids, back = load_response_records(p)
        assert ids == [f"id{i}" for i in range(7)]
        assert back.item_ids == ("a", "b", "c", "d")
        np.testing.assert_array_equal(back.values, vals)

    def test_default_ids(self, tmp_path):
        p = tmp_path / "r.jsonl"
        save_responses(p, np.zeros((3, 2)))
        ids, _ = load_response_records(p)
        assert ids == ["r0", "r1", "r2"]

    def test_load_responses_drops_ids(self, tmp_path):
        p = tmp_path / "r.jsonl"
        save_responses(p, np.ones((2, 2)))
        m = load_responses(p)
        assert isinstance(m, ResponseMatrix)
        assert m.values.shape == (2, 2)

    def test_header_first_line(self, tmp_path):
        p = tmp_path / "r.jsonl"
        p.write_text('{"id": "x", "responses": [1.0]}\n')
        with pytest.raises(SchemaError, match="header"):
            load_response_records(p)

    def test_row_width_mismatch_names_line(self, tmp_path):
        p = tmp_path / "r.jsonl"
        p.write_text('{"items": ["a", "b"]}\n{"id": "x", "responses": [1.0]}\n')
        with pytest.raises(SchemaError) as exc:
            load_response_records(p)
        assert exc.value.line == 2

    def test_blank_lines_skipped(self, tmp_path):
        p = tmp_path / "r.jsonl"
        p.write_text('{"items": ["a"]}\n\n{"id": "x", "responses": [2.5]}\n\n')
        ids, m = load_response_records(p)
        assert ids == ["x"]
        assert m.values[0, 0] == 2.5

    def test_whitespace_lines_skipped_and_counted(self, tmp_path):
        p = tmp_path / "f.jsonl"
        p.write_bytes(b'   \n\t\t\n\r\n\x0b\n{"a": 1}\n \t\x0b\x0c\r\n{"b": 2}\n{broken\n')
        records = pio.parse_jsonl(p)
        assert next(records) == (5, {"a": 1})
        assert next(records) == (7, {"b": 2})
        with pytest.raises(ParseError) as exc:
            next(records)
        assert exc.value.line == 8
        assert str(exc.value).startswith("line 8: ")

    def test_garbage_line_parse_error(self, tmp_path):
        p = tmp_path / "r.jsonl"
        p.write_text('{"items": ["a"]}\n{broken\n')
        with pytest.raises(ParseError) as exc:
            list(load_response_records(p))
        assert exc.value.line == 2

    def test_no_data_rows(self, tmp_path):
        p = tmp_path / "r.jsonl"
        p.write_text('{"items": ["a"]}\n')
        with pytest.raises(SchemaError, match="no data rows"):
            load_response_records(p)

    def test_nan_in_file_rejected(self, tmp_path):
        p = tmp_path / "r.jsonl"
        p.write_text('{"items": ["a"]}\n{"id": "x", "responses": [NaN]}\n')
        with pytest.raises(NonFiniteValue):
            load_response_records(p)

    def test_save_rejects_wrong_id_count(self, tmp_path):
        with pytest.raises(SchemaError):
            save_responses(tmp_path / "r.jsonl", np.zeros((3, 1)), ids=["only-one"])

    def test_string_response_rejected(self, tmp_path):
        p = tmp_path / "r.jsonl"
        p.write_text('{"items": ["a"]}\n{"id": "x", "responses": ["1.0"]}\n')
        with pytest.raises(SchemaError):
            load_response_records(p)


class TestPersonas:
    def test_round_trip_all_fields(self, tmp_path):
        recs = [
            PersonaRecord(id="p0", narrative="a farmer", embedding=np.array(AWKWARD[:3]),
                          response_row=5, seed_id="seed1"),
            PersonaRecord(id="p1", narrative=""),
        ]
        p = tmp_path / "p.jsonl"
        save_personas(p, recs)
        back = load_personas(p)
        assert back[0].id == "p0"
        assert back[0].narrative == "a farmer"
        np.testing.assert_array_equal(back[0].embedding, AWKWARD[:3])
        assert back[0].response_row == 5
        assert back[0].seed_id == "seed1"
        assert back[1].embedding is None
        assert back[1].response_row is None
        assert back[1].seed_id is None

    # each field's accepted kinds, edge values included (an empty embedding,
    # ints and bools cast to float, unbounded and numpy rows), and beside
    # them kinds the constructor may refuse; a refused record is left out
    ODD = st.sampled_from([None, 7, 2.9, True, b"x", "3", np.float64(2.0)])
    FIELDS = st.fixed_dictionaries({
        "id": st.one_of(st.text(min_size=1), ODD),
        "narrative": st.one_of(st.text(), ODD),
        "embedding": st.one_of(st.none(), st.lists(
            st.floats(allow_nan=False, allow_infinity=False) | st.integers(-2**53, 2**53)
            | st.booleans(),
            max_size=4,
        )),
        "response_row": st.one_of(
            st.none(), st.integers(), st.integers(-2**63, 2**63 - 1).map(np.int64), ODD
        ),
        "seed_id": st.one_of(st.none(), st.text(), ODD),
    })

    # one file, overwritten by each example
    @settings(max_examples=200, derandomize=True, deadline=None, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(args=st.lists(FIELDS, min_size=1, max_size=8))
    def test_every_accepted_record_loads_back(self, tmp_path, args):
        recs = []
        for kw in args:
            try:
                recs.append(PersonaRecord(**kw))
            except PopalignError:
                pass
        if recs:
            p = tmp_path / "p.jsonl"
            save_personas(p, recs)
            assert load_personas(p) == recs

    def test_unicode_narrative(self, tmp_path):
        p = tmp_path / "p.jsonl"
        save_personas(p, [PersonaRecord(id="p0", narrative="émigré ☃ \"quoted\"")])
        assert load_personas(p)[0].narrative == "émigré ☃ \"quoted\""

    def test_missing_id(self, tmp_path):
        p = tmp_path / "p.jsonl"
        p.write_text('{"narrative": "x"}\n')
        with pytest.raises(SchemaError) as exc:
            load_personas(p)
        assert exc.value.line == 1

    def test_bool_response_row_rejected(self, tmp_path):
        p = tmp_path / "p.jsonl"
        p.write_text('{"id": "p0", "narrative": "x", "response_row": true}\n')
        with pytest.raises(SchemaError):
            load_personas(p)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "p.jsonl"
        p.write_text("")
        with pytest.raises(SchemaError):
            load_personas(p)

    @pytest.mark.parametrize("entry, error, fault", [
        ("true", SchemaError, "non-number"),
        ('"1.5"', SchemaError, "non-number"),
        ("NaN", NonFiniteValue, "non-finite value"),
        ("1" + "0" * 400, NonFiniteValue, "non-finite value"),
    ], ids=["bool", "string", "nan", "int overflow"])
    def test_bad_embedding_entry_names_its_line(self, tmp_path, entry, error, fault):
        p = tmp_path / "p.jsonl"
        p.write_text(
            '{"id": "p0", "embedding": [1.0, 2.0]}\n'
            f'{{"id": "p1", "embedding": [0.5, {entry}]}}\n'
        )
        with pytest.raises(error) as exc:
            load_personas(p)
        assert str(exc.value) == f"line 2: embedding contains a {fault}"
        assert _raised_line(exc.value) == 2


class TestEmbeddings:
    def test_round_trip_raw(self, tmp_path):
        vecs = np.array([AWKWARD[:3], [1.0, 0.0, 0.0]])
        p = tmp_path / "e.jsonl"
        save_embeddings(p, ["a", "b"], vecs)
        ids, back = load_embedding_records(p)
        assert ids == ["a", "b"]
        np.testing.assert_array_equal(back, vecs)

    def test_load_embeddings_builds_index(self, tmp_path):
        p = tmp_path / "e.jsonl"
        save_embeddings(p, ["a", "b"], np.array([[3.0, 4.0], [0.0, 2.0]]))
        idx = load_embeddings(p)
        # index normalizes; raw loader does not
        np.testing.assert_allclose(np.linalg.norm(idx.vectors, axis=1), [1.0, 1.0], atol=1e-12)

    def test_inconsistent_dims(self, tmp_path):
        p = tmp_path / "e.jsonl"
        p.write_text('{"id": "a", "embedding": [1.0]}\n{"id": "b", "embedding": [1.0, 2.0]}\n')
        with pytest.raises(SchemaError) as exc:
            load_embedding_records(p)
        assert exc.value.line == 2

    def test_save_shape_mismatch(self, tmp_path):
        with pytest.raises(SchemaError):
            save_embeddings(tmp_path / "e.jsonl", ["a"], np.zeros((2, 3)))


class TestItems:
    def test_round_trip(self, tmp_path):
        p = tmp_path / "i.jsonl"
        save_items(p, ["How often do you travel?", "second item"])
        assert load_items(p) == ["How often do you travel?", "second item"]

    def test_non_string_item(self, tmp_path):
        p = tmp_path / "i.jsonl"
        p.write_text('{"item": 7}\n')
        with pytest.raises(SchemaError):
            load_items(p)


class TestPairs:
    def test_round_trip(self, tmp_path):
        pairs = [
            TrainingPair(query_id="q0", positive_id="c1", negative_ids=("c2", "c3"),
                         exhausted=False),
            TrainingPair(query_id="q1", positive_id="c4", negative_ids=("c0",), exhausted=True),
        ]
        p = tmp_path / "pairs.jsonl"
        save_pairs(p, pairs)
        back = load_pairs(p)
        assert back == pairs
        assert isinstance(back[0].negative_ids, tuple)

    def test_exhausted_defaults_false(self, tmp_path):
        p = tmp_path / "pairs.jsonl"
        p.write_text('{"query_id": "q", "positive_id": "p", "negative_ids": ["n"]}\n')
        assert load_pairs(p)[0].exhausted is False

    def test_non_string_negative(self, tmp_path):
        p = tmp_path / "pairs.jsonl"
        p.write_text('{"query_id": "q", "positive_id": "p", "negative_ids": [3]}\n')
        with pytest.raises(SchemaError):
            load_pairs(p)

    def test_empty_pairs_file_ok(self, tmp_path):
        p = tmp_path / "pairs.jsonl"
        p.write_text("")
        assert load_pairs(p) == []

    # each field's accepted kinds (a str subclass, np.bool_) beside kinds the
    # constructor refuses; a refused pair is left out
    ODD = st.sampled_from([None, 7, 2.5, True, b"x", ("n",)])
    FIELDS = st.fixed_dictionaries({
        "query_id": st.one_of(st.text(), st.text().map(np.str_), ODD),
        "positive_id": st.one_of(st.text(), ODD),
        "negative_ids": st.lists(st.one_of(st.text(), ODD), max_size=4),
        "exhausted": st.one_of(st.booleans(), st.booleans().map(np.bool_), ODD),
    })

    # one file, overwritten by each example
    @settings(max_examples=200, derandomize=True, deadline=None, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(args=st.lists(FIELDS, min_size=1, max_size=6))
    def test_every_accepted_pair_loads_back(self, tmp_path, args):
        pairs = []
        for kw in args:
            try:
                pairs.append(TrainingPair(**kw))
            except PopalignError:
                pass
        p = tmp_path / "pairs.jsonl"
        save_pairs(p, pairs)
        assert load_pairs(p) == pairs


class TestConfig:
    def test_round_trip_defaults(self, tmp_path):
        cfg = AlignmentConfig(n_is_candidates=100, n_final=50, seed=7)
        p = tmp_path / "c.json"
        save_config(p, cfg)
        back = load_config(p)
        assert back == cfg

    def test_round_trip_with_weights(self, tmp_path):
        cfg = AlignmentConfig(
            n_is_candidates=10, n_final=5, seed=0,
            item_weights=ItemWeights(np.array([1.0, 0.5, 2.0])),
        )
        p = tmp_path / "c.json"
        save_config(p, cfg)
        back = load_config(p)
        np.testing.assert_array_equal(back.item_weights.weights, [1.0, 0.5, 2.0])

    def test_file_is_canonical_json(self, tmp_path):
        cfg = AlignmentConfig(n_is_candidates=10, n_final=5, seed=0)
        p = tmp_path / "c.json"
        save_config(p, cfg)
        text = p.read_text()
        doc = json.loads(text)
        assert text == canonical_json(doc) + "\n"

    def test_overrides_win(self, tmp_path):
        cfg = AlignmentConfig(n_is_candidates=10, n_final=5, seed=0)
        p = tmp_path / "c.json"
        save_config(p, cfg)
        back = load_config(p, overrides={"seed": 99, "bandwidth": 0.5})
        assert back.seed == 99
        assert back.bandwidth == 0.5
        assert back.n_final == 5

    def test_file_without_the_optional_fields_loads(self, tmp_path):
        # a config file written before kde_fit_subsample and epsilon_absolute
        # were fields: both take their default, None
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"n_is_candidates": 10, "n_final": 5, "seed": 0}))
        back = load_config(p)
        assert (back.kde_fit_subsample, back.epsilon_absolute) == (None, None)
        assert back == AlignmentConfig(n_is_candidates=10, n_final=5, seed=0)

    def test_none_override_ignored(self, tmp_path):
        cfg = AlignmentConfig(n_is_candidates=10, n_final=5, seed=3)
        p = tmp_path / "c.json"
        save_config(p, cfg)
        assert load_config(p, overrides={"seed": None}).seed == 3

    def test_unknown_field_rejected(self):
        with pytest.raises(SchemaError, match="unknown config fields"):
            config_from_mapping({"n_is_candidates": 1, "n_final": 1, "seed": 0, "extra": 1})

    def test_incomplete_rejected(self):
        with pytest.raises(SchemaError, match="incomplete"):
            config_from_mapping({"n_is_candidates": 1})

    def test_not_an_object(self):
        with pytest.raises(SchemaError):
            config_from_mapping([1, 2, 3])

    def test_invalid_json_file(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text("{nope")
        with pytest.raises(ParseError):
            load_config(p)

    # item_weights values the loaders' row gate refuses, with the error and message
    BAD_WEIGHTS = {
        "bool": ([1.0, True, 2.0], SchemaError, "config item_weights contains a non-number"),
        "numeric string": (["1.5", 2.0], SchemaError, "config item_weights contains a non-number"),
        "null": ([1.0, None], SchemaError, "config item_weights contains a non-number"),
        "nested": ([[1.0], 2.0], SchemaError, "config item_weights contains a non-number"),
        "nan": ([1.0, math.nan], NonFiniteValue, "config item_weights contains a non-finite value"),
        "string": ("abc", SchemaError, "config item_weights must be a list of numbers, not str"),
        "object": ({"a": 1}, SchemaError, "config item_weights must be a list of numbers, not dict"),
        "number": (2.0, SchemaError, "config item_weights must be a list of numbers, not float"),
    }

    @pytest.mark.parametrize("name", BAD_WEIGHTS)
    def test_item_weights_go_through_the_row_gate(self, tmp_path, name):
        weights, error, message = self.BAD_WEIGHTS[name]
        doc = {"n_is_candidates": 10, "n_final": 5, "seed": 0, "item_weights": weights}
        with pytest.raises(error) as exc:
            config_from_mapping(doc)
        assert str(exc.value) == message
        p = tmp_path / "c.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(error, match=f"^{message}$"):
            load_config(p)

    def test_item_weights_ints_load_as_floats(self):
        doc = {"n_is_candidates": 10, "n_final": 5, "seed": 0, "item_weights": [1, 2.5, 2**60]}
        weights = config_from_mapping(doc).item_weights.weights
        assert weights.dtype == np.float64
        assert weights.tolist() == [1.0, 2.5, float(2**60)]


class TestCanonicalJson:
    def test_key_order_fixed(self):
        assert canonical_json({"b": 1, "a": 2}) == canonical_json({"a": 2, "b": 1})

    def test_stable_across_calls(self):
        doc = {"z": [1.5, {"y": 0.1}], "a": "text"}
        assert canonical_json(doc) == canonical_json(doc)

    def test_rejects_nan_anywhere(self):
        with pytest.raises(NonFiniteValue):
            canonical_json({"a": [1.0, {"b": float("nan")}]})
        with pytest.raises(NonFiniteValue):
            canonical_json({"a": math.inf})

    def test_other_value_errors_propagate_unchanged(self):
        loop = []
        loop.append(loop)
        with pytest.raises(ValueError, match="Circular reference") as exc:
            canonical_json({"a": loop})
        assert not isinstance(exc.value, NonFiniteValue)

    def test_float_repr_round_trips(self):
        doc = {"vals": AWKWARD}
        back = json.loads(canonical_json(doc))
        assert back["vals"] == AWKWARD
        # bit-for-bit, including the sign of -0.0
        assert all(
            math.copysign(1.0, a) == math.copysign(1.0, b)
            for a, b in zip(back["vals"], AWKWARD)
        )


# each JSON-lines loader with a valid first line for its format
JSONL_LOADERS = {
    "responses": (load_responses, '{"items": ["a", "b"]}'),
    "response records": (load_response_records, '{"items": ["a", "b"]}'),
    "personas": (load_personas, '{"id": "p0", "narrative": ""}'),
    "embeddings": (load_embeddings, '{"id": "x", "embedding": [1.0, 0.0]}'),
    "embedding records": (load_embedding_records, '{"id": "x", "embedding": [1.0, 0.0]}'),
    "items": (load_items, '{"item": "q"}'),
    "pairs": (load_pairs, '{"query_id": "q", "positive_id": "a", "negative_ids": ["b"]}'),
}


class TestObjectGate:
    @pytest.mark.parametrize("kind", sorted(JSONL_LOADERS))
    def test_non_object_line_is_a_schema_error(self, tmp_path, kind):
        load, first = JSONL_LOADERS[kind]
        path = tmp_path / "f.jsonl"
        path.write_text(first + "\n[1, 2]\n")
        with pytest.raises(SchemaError, match="line 2: expected an object") as exc:
            load(path)
        assert exc.value.line == 2


class TestDumpJsonl:
    def test_rejects_nan_at_write(self, tmp_path):
        from popalign.io import dump_jsonl

        with pytest.raises(NonFiniteValue):
            dump_jsonl(tmp_path / "x.jsonl", [{"v": float("inf")}])

    def test_failed_save_leaves_the_old_file(self, tmp_path):
        p = tmp_path / "e.jsonl"
        save_embeddings(p, ["a", "b", "c"], np.ones((3, 2)))
        before = p.read_bytes()
        v = np.zeros((3, 2))
        v[2, 0] = np.nan  # the third record: two lines are written first
        with pytest.raises(NonFiniteValue):
            save_embeddings(p, ["a", "b", "c"], v)
        assert p.read_bytes() == before
        assert [q.name for q in tmp_path.iterdir()] == ["e.jsonl"]

    def test_other_value_errors_propagate_unchanged(self, tmp_path):
        # json's circular-reference error is no non-finite value: it is
        # raised as json has it, as canonical_json raises it, and the old
        # file stays as it was
        p = tmp_path / "x.jsonl"
        p.write_text('{"v": 1.5}\n')
        loop = []
        loop.append(loop)
        with pytest.raises(ValueError, match="Circular reference") as exc:
            pio.dump_jsonl(p, [{"v": 2.5}, {"v": loop}])
        assert not isinstance(exc.value, NonFiniteValue)
        assert p.read_text() == '{"v": 1.5}\n'
        assert [q.name for q in tmp_path.iterdir()] == ["x.jsonl"]

    def test_failed_save_of_a_new_file_leaves_nothing(self, tmp_path):
        def records():
            yield {"id": "a"}
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            pio.dump_jsonl(tmp_path / "x.jsonl", records())
        assert not list(tmp_path.iterdir())

    def test_success_replaces_the_file(self, tmp_path):
        p = tmp_path / "x.jsonl"
        p.write_text("old\n" * 100)
        pio.dump_jsonl(str(p), [{"v": 1.5}])
        assert p.read_text() == '{"v": 1.5}\n'
        assert [q.name for q in tmp_path.iterdir()] == ["x.jsonl"]


# every saver, with arguments that write a small file
SAVERS = {
    "dump_jsonl": lambda p: pio.dump_jsonl(p, [{"v": 1.5}, {"v": 2.5}]),
    "responses": lambda p: save_responses(p, np.ones((3, 2))),
    "personas": lambda p: save_personas(p, [PersonaRecord(id="a", response_row=0)]),
    "embeddings": lambda p: save_embeddings(p, ["a", "b"], np.ones((2, 3))),
    "items": lambda p: save_items(p, ["q1", "q2"]),
    "pairs": lambda p: save_pairs(p, [TrainingPair("q", "a", ("b",), False)]),
    "config": lambda p: save_config(p, AlignmentConfig(n_is_candidates=10, n_final=5, seed=1)),
}


class TestAllOrNothing:
    """A save that fails part-way leaves the previous bytes and no *.tmp file."""

    OLD = b"previous bytes\n"

    def target(self, tmp_path):
        p = tmp_path / "f.jsonl"
        p.write_bytes(self.OLD)
        return p

    @pytest.mark.parametrize("kind", sorted(SAVERS))
    def test_failed_write_keeps_the_old_file(self, kind, tmp_path, full_disk):
        p = self.target(tmp_path)
        full_disk(p)
        with pytest.raises(OSError):
            SAVERS[kind](p)
        assert p.read_bytes() == self.OLD
        assert [q.name for q in tmp_path.iterdir()] == ["f.jsonl"]

    def test_failed_config_serializer_keeps_the_old_file(self, tmp_path, monkeypatch):
        def canonical_json(obj):
            raise NonFiniteValue("serializer failed")

        monkeypatch.setattr(pio, "canonical_json", canonical_json)
        p = self.target(tmp_path)
        with pytest.raises(NonFiniteValue):
            SAVERS["config"](p)
        assert p.read_bytes() == self.OLD
        assert [q.name for q in tmp_path.iterdir()] == ["f.jsonl"]


# ways one line of an embedding or response file can be bad, with the error a
# row-by-row load raises for it; `{key}` is the file's vector field
BAD_ROWS = {
    "nan": ('{{"id": "x", "{key}": [1.0, NaN]}}', NonFiniteValue),
    "inf": ('{{"id": "x", "{key}": [-Infinity, 1.0]}}', NonFiniteValue),
    "overflow": ('{{"id": "x", "{key}": [1e999, 1.0]}}', NonFiniteValue),
    "int overflow": ('{{"id": "x", "{key}": [1' + "0" * 400 + ', 1.0]}}', NonFiniteValue),
    "bool": ('{{"id": "x", "{key}": [true, 1.0]}}', SchemaError),
    "string": ('{{"id": "x", "{key}": ["1.5", 1.0]}}', SchemaError),
    "null": ('{{"id": "x", "{key}": [null, 1.0]}}', SchemaError),
    "nested": ('{{"id": "x", "{key}": [[1.0], 1.0]}}', SchemaError),
    "ragged": ('{{"id": "x", "{key}": [1.0, 2.0, 3.0]}}', SchemaError),
    "short": ('{{"id": "x", "{key}": [1.0]}}', SchemaError),
    "not a list": ('{{"id": "x", "{key}": 1.0}}', SchemaError),
    "missing id": ('{{"{key}": [1.0, 2.0]}}', SchemaError),
    "not an object": ("[1.0, 2.0]", SchemaError),
    "broken json": ('{{"id": "x", "{key}": [1.0,', ParseError),
}
FILE_KINDS = {
    # key, header lines, loader
    "embeddings": ("embedding", [], load_embedding_records),
    "responses": ("responses", ['{"items": ["a", "b"]}'], load_response_records),
}


def _write_rows(path, kind, bad):
    """A file of good two-value rows with `bad` ({line number: BAD_ROWS key}) swapped in."""
    key, header, _ = FILE_KINDS[kind]
    lines = list(header)
    for lineno in range(len(header) + 1, len(header) + 7):
        if lineno in bad:
            lines.append(BAD_ROWS[bad[lineno]][0].format(key=key))
        else:
            lines.append(json.dumps({"id": f"r{lineno}", key: [0.5 * lineno, -3]}))
    path.write_text("\n".join(lines) + "\n")


def _raised_line(exc):
    line = getattr(exc, "line", None)
    if line is None:  # NonFiniteValue names its line in the message only
        line = int(str(exc).split(":")[0].removeprefix("line "))
    return line


class TestRowErrors:
    @pytest.mark.parametrize("kind", FILE_KINDS)
    @pytest.mark.parametrize("name", BAD_ROWS)
    def test_each_bad_row_names_its_line(self, tmp_path, kind, name):
        p = tmp_path / "f.jsonl"
        first = len(FILE_KINDS[kind][1]) + 3
        _write_rows(p, kind, {first: name})
        with pytest.raises(BAD_ROWS[name][1]) as exc:
            FILE_KINDS[kind][2](p)
        assert str(exc.value).startswith(f"line {first}: ")
        assert _raised_line(exc.value) == first

    @pytest.mark.parametrize("kind", FILE_KINDS)
    def test_first_error_in_file_order_wins(self, tmp_path, kind):
        p = tmp_path / "f.jsonl"
        first = len(FILE_KINDS[kind][1]) + 2
        for early in BAD_ROWS:
            for late in BAD_ROWS:
                if late == early:
                    continue
                _write_rows(p, kind, {first: early, first + 2: late})
                with pytest.raises(BAD_ROWS[early][1]) as exc:
                    FILE_KINDS[kind][2](p)
                assert _raised_line(exc.value) == first, (early, late)

    def test_messages_name_the_fault(self, tmp_path):
        p = tmp_path / "f.jsonl"
        for name, fault in (("bool", "non-number"), ("nan", "non-finite"),
                            ("ragged", "embedding length 3 differs from 2"),
                            ("short", "embedding length 1 differs from 2")):
            _write_rows(p, "embeddings", {2: name})
            with pytest.raises(PopalignError, match=fault):
                load_embedding_records(p)
        _write_rows(p, "responses", {2: "ragged"})
        with pytest.raises(SchemaError, match="row has 3 entries, header names 2 items"):
            load_response_records(p)

    def test_int_beyond_float_range_is_non_finite(self, tmp_path):
        # a 401-digit integer parses as a Python int that float() cannot hold
        p = tmp_path / "e.jsonl"
        _write_rows(p, "embeddings", {2: "int overflow"})
        with pytest.raises(NonFiniteValue, match="^line 2: embedding contains a non-finite value$"):
            load_embeddings(p)

    def test_int_entries_load_as_float_does(self, tmp_path):
        big = [2**53 + 1, 2**63 + 2**11 + 1, 10**20 + 7, -(2**64) - 3, 0, -0, 10**300 + 1]
        p = tmp_path / "e.jsonl"
        p.write_text("".join(
            json.dumps({"id": f"e{i}", "embedding": [v, 1]}) + "\n" for i, v in enumerate(big)
        ))
        _, back = load_embedding_records(p)
        assert back.tolist() == [[float(v), 1.0] for v in big]


class TestSaveBytes:
    def test_embeddings_match_per_record_dumps(self, tmp_path):
        vecs = np.array([AWKWARD, AWKWARD[::-1], [float(i) for i in range(6)]])
        p = tmp_path / "e.jsonl"
        save_embeddings(p, ["a", "b", "c"], vecs)
        want = "".join(
            json.dumps({"id": i, "embedding": [float(v) for v in row]}, allow_nan=False) + "\n"
            for i, row in zip(["a", "b", "c"], vecs)
        )
        assert p.read_bytes() == want.encode("utf-8")

    def test_responses_match_per_record_dumps(self, tmp_path):
        vals = np.array([AWKWARD, AWKWARD[::-1]])
        p = tmp_path / "r.jsonl"
        save_responses(p, ResponseMatrix(vals), ids=["x", "y"])
        items = list(ResponseMatrix(vals).item_ids)
        want = json.dumps({"items": items}) + "\n" + "".join(
            json.dumps({"id": i, "responses": [float(v) for v in row]}, allow_nan=False) + "\n"
            for i, row in zip(["x", "y"], vals)
        )
        assert p.read_bytes() == want.encode("utf-8")

    def test_personas_match_per_record_dumps(self, tmp_path):
        recs = [
            PersonaRecord(id="p0", narrative="émigré \"quoted\"", embedding=np.array(AWKWARD),
                          response_row=3, seed_id="s0"),
            PersonaRecord(id="p1", narrative="", seed_id="s1"),
            PersonaRecord(id="p2", narrative="x", embedding=np.array(AWKWARD[::-1])),
        ]
        p = tmp_path / "p.jsonl"
        save_personas(p, recs)
        want = "".join(json.dumps(r, allow_nan=False) + "\n" for r in (
            {"id": "p0", "narrative": "émigré \"quoted\"", "embedding": AWKWARD,
             "response_row": 3, "seed_id": "s0"},
            {"id": "p1", "narrative": "", "seed_id": "s1"},
            {"id": "p2", "narrative": "x", "embedding": AWKWARD[::-1]},
        ))
        assert p.read_bytes() == want.encode("utf-8")


class _InChunks:
    """Rerun the inherited tests with files converted in chunks of 1, 2 and 3
    rows of WIDTH values, so that each bad row lands at a chunk's first row,
    its last row and its middle (the base classes run the default chunk)."""

    WIDTH = 2

    @pytest.fixture(autouse=True, params=[1, 2, 3], ids=lambda r: f"chunk{r}")
    def _chunk_rows(self, request, monkeypatch):
        monkeypatch.setattr(pio, "_CHUNK_VALUES", request.param * self.WIDTH)


class TestRowErrorsInChunks(_InChunks, TestRowErrors):
    pass


class TestResponseRoundTripInChunks(_InChunks):
    WIDTH = 4
    test_round_trip_bit_exact = TestResponses.test_round_trip_bit_exact


class TestEmbeddingRoundTripInChunks(_InChunks):
    WIDTH = 3
    test_round_trip_raw = TestEmbeddings.test_round_trip_raw


def _traced_peak(call):
    """Peak bytes tracemalloc sees while `call()` runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemory:
    def test_save_responses_streams_its_records(self, tmp_path):
        # building every record first peaks at about 6x the matrix
        m = ResponseMatrix(np.random.default_rng(0).standard_normal((20000, 16)))
        ids = [f"r{i}" for i in range(m.n)]
        peak = _traced_peak(lambda: save_responses(tmp_path / "r.jsonl", m, ids=ids))
        assert peak < 0.25 * m.values.nbytes

    @pytest.mark.parametrize("kind", FILE_KINDS)
    def test_load_holds_one_chunk_of_lists(self, tmp_path, kind):
        # every row held as a list of Python floats peaks at about 5.4x the array
        vals = np.random.default_rng(1).standard_normal((4000, 64))
        p = tmp_path / "f.jsonl"
        if kind == "embeddings":
            save_embeddings(p, [f"e{i}" for i in range(len(vals))], vals)
        else:
            save_responses(p, ResponseMatrix(vals))
        peak = _traced_peak(lambda: FILE_KINDS[kind][2](p))
        assert peak < 3 * vals.nbytes


# ---------------------------------------------------------- the parser contract
#
# parse_jsonl parses with orjson and falls back to json.loads; every loader
# must give what it gave with json.loads alone, bit for bit, or raise the same
# error class with the same message.

def _json_only_parse_jsonl(path):
    """The reader with json.loads on every line: the oracle of the contract."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.isspace():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(f"line {lineno}: {exc.msg}", line=lineno) from exc
            if not isinstance(record, dict):
                raise SchemaError(f"line {lineno}: expected an object", line=lineno)
            yield lineno, record


def _pairs_job(path):
    """`popalign pairs` on the queries file at path: the bytes it writes."""
    index = path.with_name("index.jsonl")
    save_embeddings(index, ["a", "b", "c"], np.eye(3) + 0.25)
    out = path.with_name("pairs.out.jsonl")
    args = cli.build_parser().parse_args([
        "pairs", "--embeddings", str(index), "--queries", str(path), "--out", str(out),
        "--n-hard", "1", "--n-random", "1",
    ])
    with contextlib.redirect_stdout(io.StringIO()):
        args.func(args)
    return out.read_bytes()


# each loader: its loader, header lines and a record line template, whose
# {top} is a top-level id (or response_row) and whose {item} sits in a list of
# numbers (of strings for pairs, and of nothing the loader reads for items),
# with the values that make a good record
PARSED_FILES = {
    "responses": (load_response_records, ['{"items": ["a", "b"]}'],
                  '{{"id": {top}, "responses": [0.5, {item}]}}', '"r{i}"', "1.5"),
    "personas": (load_personas, [],
                 '{{"id": "p", "narrative": "", "embedding": [0.5, {item}], '
                 '"response_row": {top}}}', "{i}", "1.5"),
    "embeddings": (load_embeddings, [],
                   '{{"id": {top}, "embedding": [0.5, {item}]}}', '"e{i}"', "1.5"),
    "embedding records": (load_embedding_records, [],
                          '{{"id": {top}, "embedding": [0.5, {item}]}}', '"e{i}"', "1.5"),
    "items": (load_items, [], '{{"item": {top}, "notes": [0.5, {item}]}}', '"t{i}"', "1.5"),
    "pairs": (load_pairs, [],
              '{{"query_id": {top}, "positive_id": "a", "negative_ids": ["b", {item}]}}',
              '"q{i}"', '"c"'),
    "queries": (_pairs_job, [],
                '{{"query_id": {top}, "embedding": [0.5, {item}, 0.25], "positive_id": "a"}}',
                '"q{i}"', "1.5"),
}

# values json.loads reads that orjson refuses or reads otherwise
FRAGMENTS = {
    "NaN": "NaN",
    "Infinity": "Infinity",
    "-Infinity": "-Infinity",
    "1e400": "1e400",
    "lone surrogate": '"\\ud800"',
    "int below int64": "-9223372036854775809",
    "int from 2**64": "18446744073709551616",
}


def _good_line(kind, i):
    *_, template, top, item = PARSED_FILES[kind]
    return template.format(top=top.format(i=i), item=item)


def _named_line(kind, name):
    """The line a named case puts between two good records of `kind`."""
    *_, template, top, item = PARSED_FILES[kind]
    slot, _, fragment = name.partition(" at ")
    if fragment:
        if slot == "list":
            return template.format(top=top.format(i=2), item=FRAGMENTS[fragment])
        return template.format(top=FRAGMENTS[fragment], item=item)
    good = _good_line(kind, 2)
    return {
        "BOM": "﻿" + good,
        "duplicate keys": good[0] + template.split(":")[0][2:] + ': "first", ' + good[1:],
        "blank": "",
        "whitespace only": " \t \x0c ",
        "non-object": "[1, 2]",
        "truncated": good[:len(good) // 2],
        # beyond json's recursion limit, and nested but within it
        "nested too deep": '{"x": ' + "[" * 1200 + "]" * 1200 + ", " + good[1:],
        "nested deep": '{"x": ' + "[" * 300 + "]" * 300 + ", " + good[1:],
        "nested": '{"x": ' + '[{"a": ' * 100 + "1" + "}]" * 100 + ", " + good[1:],
    }[name]


NAMED_LINES = (
    [f"{slot} at {fragment}" for fragment in FRAGMENTS for slot in ("list", "top")]
    + ["BOM", "duplicate keys", "blank", "whitespace only", "non-object", "truncated",
       "nested too deep", "nested deep", "nested"]
)


def _bits(value):
    """value as nested tuples that keep every leaf's type and every float's bits."""
    if isinstance(value, np.ndarray):
        return ("ndarray", value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, float):
        return (type(value).__name__, value.hex())
    if dataclasses.is_dataclass(value):
        return (type(value).__name__,) + tuple(
            _bits(getattr(value, f.name)) for f in dataclasses.fields(value)
        )
    if isinstance(value, (list, tuple)):
        return (type(value).__name__,) + tuple(map(_bits, value))
    return (type(value).__name__, value)


def _outcome(load, path):
    try:
        return "value", _bits(load(path))
    except Exception as exc:
        return "error", type(exc), str(exc), getattr(exc, "line", None)


def _both_outcomes(kind, path, lines):
    """(reader's outcome, oracle's outcome) of loader `kind` on a file of lines."""
    load, header, *_ = PARSED_FILES[kind]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(line + "\n" for line in header + lines))
    got = _outcome(load, path)
    with pytest.MonkeyPatch.context() as mp:
        # every loader reads through _read_jsonl; a False literal-free flag
        # walks every row's types, as every row was walked before the screen
        mp.setattr(pio, "_read_jsonl",
                   lambda p: ((n, rec, False) for n, rec in _json_only_parse_jsonl(p)))
        want = _outcome(load, path)
    return got, want


class TestParserContract:
    @pytest.mark.parametrize("name", NAMED_LINES)
    @pytest.mark.parametrize("kind", PARSED_FILES)
    def test_named_line_loads_as_json_alone_loads_it(self, tmp_path, kind, name):
        lines = [_good_line(kind, 1), _named_line(kind, name), _good_line(kind, 3)]
        got, want = _both_outcomes(kind, tmp_path / "f.jsonl", lines)
        assert got == want

    def test_the_named_lines_reach_both_outcomes(self, tmp_path):
        # not all errors: a top-level big integer loads as json's int, one in a
        # list of numbers as float64, and a line too deep for json still raises
        def got(kind, name):
            lines = [_good_line(kind, 1), _named_line(kind, name), _good_line(kind, 3)]
            return _both_outcomes(kind, tmp_path / "f.jsonl", lines)[0]

        for name in ("duplicate keys", "blank", "whitespace only", "top at int below int64",
                     "list at int from 2**64", "nested deep", "nested"):
            assert got("personas", name)[0] == "value", name
        assert got("personas", "top at int from 2**64")[1][2][4] == ("int", 2**64)
        assert got("personas", "nested too deep")[1] is RecursionError
        # json's int, not orjson's float, reaches the queries reader's id gate
        assert got("queries", "top at int from 2**64")[1:3] == (
            SchemaError, "line 2: query field 'query_id' has type int"
        )

    # a record line's two slots, each left good or given a fragment, and a cut
    # with a stray character (a truncated line, or one with a character too many)
    NUMBERS = st.one_of(
        st.floats().map(json.dumps),
        st.integers().map(str),
        st.integers(-(2**65), 2**65).map(str),
        st.from_regex(r"-?(0|[1-9][0-9]{0,24})(\.[0-9]{1,24})?([eE][+-]?[0-9]{1,3})?",
                      fullmatch=True),
    )
    STRINGS = st.one_of(
        st.text().map(json.dumps),
        st.text().map(lambda t: json.dumps(t, ensure_ascii=False)),
        st.characters(min_codepoint=0xD800, max_codepoint=0xDFFF).map(json.dumps),
    )
    JUNK = st.sampled_from(["true", "null", "[]", "{}", "", "01", "1.", '"', "-", "[1,]"])
    SLOT = st.none() | NUMBERS | STRINGS | JUNK
    CUT = st.none() | st.tuples(st.floats(0, 1), st.sampled_from(["", " ", ",", "]", "}", "\x00"]))

    @settings(max_examples=150, derandomize=True, deadline=None, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(top=SLOT, item=SLOT, cut=CUT)
    def test_any_line_loads_as_json_alone_loads_it(self, tmp_path, top, item, cut):
        for kind in PARSED_FILES:
            *_, template, good_top, good_item = PARSED_FILES[kind]
            text = template.format(top=good_top.format(i=2) if top is None else top,
                                   item=good_item if item is None else item)
            if cut is not None:
                at, stray = cut
                text = text[:round(at * len(text))] + stray
            lines = [_good_line(kind, 1), text, _good_line(kind, 3)]
            got, want = _both_outcomes(kind, tmp_path / "f.jsonl", lines)
            assert got == want, kind

    def test_a_million_levels_deep_is_json_s_recursion_error(self, tmp_path):
        # orjson's recursive build crashed the interpreter on this line
        p = tmp_path / "deep.jsonl"
        p.write_text('{"id": "e", "x": ' + "[" * 10**6 + "]" * 10**6 + "}\n")
        code = (
            "import sys\nfrom popalign import io\n"
            "try:\n    list(io.parse_jsonl(sys.argv[1]))\n"
            "except RecursionError:\n    print('RecursionError')\n"
        )
        src = str(Path(pio.__file__).resolve().parent.parent)
        paths = [src] + [q for q in os.environ.get("PYTHONPATH", "").split(os.pathsep) if q]
        res = subprocess.run(
            [sys.executable, "-c", code, str(p)],
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(paths)),
            capture_output=True, text=True, timeout=120,
        )
        assert (res.returncode, res.stdout.strip()) == (0, "RecursionError"), res.stderr
