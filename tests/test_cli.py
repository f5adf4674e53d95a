"""CLI subcommands exercised through main(argv) with temp files."""

import dataclasses
import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import numpy as np
import pytest

from popalign import AlignmentConfig, ItemWeights
from popalign import cli
from popalign import io as pio
from popalign.cli import main
from popalign.synthetic import sample_population

# a valid value for every AlignmentConfig field that differs from BASE_CONFIG's
NON_DEFAULT = {
    "n_is_candidates": 120,
    "n_final": 30,
    "seed": 77,
    "bandwidth": 0.3,
    "retain_fraction": 0.5,
    "epsilon": 0.15,
    "sinkhorn_iters": 300,
    "sinkhorn_tol": 1e-5,
    "item_weights": ItemWeights(np.array([1.0, 2.0])),
    "ot_batch_size": 64,
    "kde_fit_subsample": 64,
    "epsilon_absolute": 0.5,
}
BASE_CONFIG = AlignmentConfig(n_is_candidates=100, n_final=40, seed=1)


def plain(value):
    return [float(v) for v in value.weights] if isinstance(value, ItemWeights) else value


def read_jsonl(path):
    return [rec for _, rec in pio.parse_jsonl(path)]


class TestMetrics:
    def test_identical_files_all_zero(self, tmp_path, capsys):
        p = tmp_path / "a.jsonl"
        pio.save_responses(p, sample_population("shifted-gaussian", 50, 3, seed=1))
        code = main(["metrics", str(p), str(p), "--seed", "0"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        for key in ("amw", "fd", "sw", "mmd"):
            assert abs(doc[key]) <= 1e-8
        assert doc["n_x"] == doc["n_y"] == 50

    def test_out_file(self, tmp_path):
        p = tmp_path / "a.jsonl"
        pio.save_responses(p, np.random.default_rng(0).standard_normal((5, 2)))
        out = tmp_path / "m.json"
        assert main(["metrics", str(p), str(p), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["amw"] == 0.0

    def test_missing_file_exit_2(self, tmp_path, capsys):
        p = tmp_path / "a.jsonl"
        pio.save_responses(p, np.zeros((5, 2)))
        code = main(["metrics", str(p), str(tmp_path / "nope.jsonl")])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "FileNotFound"

    def test_config_is_a_usage_error(self, tmp_path):
        # only align reads a config file; elsewhere --config is not a flag
        p = tmp_path / "a.jsonl"
        pio.save_responses(p, np.zeros((5, 2)))
        with pytest.raises(SystemExit) as exc:
            main(["metrics", str(p), str(p), "--config", str(tmp_path / "x.json")])
        assert exc.value.code == 2


class TestSimulateAlignMetrics:
    def test_end_to_end(self, tmp_path, capsys):
        files = {name: str(tmp_path / f"{name}.jsonl")
                 for name in ("pool", "ref", "personas", "selected")}
        report = str(tmp_path / "report.json")

        code = main([
            "simulate", "--preset", "shifted-gaussian", "--n", "600", "--m", "400",
            "--d", "2", "--seed", "3", "--out-pool", files["pool"],
            "--out-reference", files["ref"], "--out-personas", files["personas"],
        ])
        assert code == 0
        assert len(read_jsonl(files["pool"])) == 601  # header + rows

        code = main([
            "align", "--pool", files["pool"], "--reference", files["ref"],
            "--personas", files["personas"], "--seed", "3",
            "--n-is-candidates", "300", "--n-final", "120",
            "--out-selected", files["selected"], "--out-report", report,
        ])
        assert code == 0, capsys.readouterr().err
        selected = read_jsonl(files["selected"])
        assert len(selected) == 120
        doc = json.loads(open(report).read())
        assert doc["report_version"] == 2
        assert doc["pool_sizes"] == {
            "n_pool": 600, "m_reference": 400, "n_retained": 420,
            "n_is_raw": 300, "n_is_dedup": doc["pool_sizes"]["n_is_dedup"],
            "n_final": 120,
        }
        assert sum(c for _, c in doc["selected"]) == 120

        # the aligned subset should sit closer to the reference than the
        # full (biased) pool does
        out_aligned = tmp_path / "sel_responses.jsonl"
        ids, pool_matrix = pio.load_response_records(files["pool"])
        row_of = {pid: i for i, pid in enumerate(ids)}
        rows = sorted(row_of[rec["id"]] for rec in selected)
        pio.save_responses(out_aligned, pool_matrix.take_rows(np.array(rows)))
        capsys.readouterr()
        assert main(["metrics", str(out_aligned), files["ref"], "--seed", "1"]) == 0
        aligned = json.loads(capsys.readouterr().out)
        assert main(["metrics", files["pool"], files["ref"], "--seed", "1"]) == 0
        raw = json.loads(capsys.readouterr().out)
        assert aligned["amw"] < raw["amw"]

    def test_align_rejects_oversized_n_final(self, tmp_path, capsys):
        pool = tmp_path / "pool.jsonl"
        ref = tmp_path / "ref.jsonl"
        personas = tmp_path / "personas.jsonl"
        main(["simulate", "--n", "50", "--m", "30", "--d", "2", "--seed", "0",
              "--out-pool", str(pool), "--out-reference", str(ref),
              "--out-personas", str(personas)])
        capsys.readouterr()
        code = main([
            "align", "--pool", str(pool), "--reference", str(ref),
            "--personas", str(personas), "--seed", "0",
            "--n-is-candidates", "40", "--n-final", "45",
            "--out-selected", str(tmp_path / "s.jsonl"),
            "--out-report", str(tmp_path / "r.json"),
        ])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "InvalidConfig"

    def test_align_config_file_with_flag_override(self, tmp_path, capsys):
        pool = tmp_path / "pool.jsonl"
        ref = tmp_path / "ref.jsonl"
        personas = tmp_path / "personas.jsonl"
        main(["simulate", "--n", "200", "--m", "100", "--d", "2", "--seed", "1",
              "--out-pool", str(pool), "--out-reference", str(ref),
              "--out-personas", str(personas)])
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "n_is_candidates": 100, "n_final": 40, "seed": 9,
        }))
        report = tmp_path / "report.json"
        capsys.readouterr()
        code = main([
            "align", "--pool", str(pool), "--reference", str(ref),
            "--personas", str(personas), "--config", str(cfg),
            "--n-final", "25",
            "--out-selected", str(tmp_path / "s.jsonl"),
            "--out-report", str(report),
        ])
        assert code == 0, capsys.readouterr().err
        doc = json.loads(report.read_text())
        assert doc["config"]["n_final"] == 25  # flag wins
        assert doc["config"]["seed"] == 9      # file value kept
        assert len(read_jsonl(tmp_path / "s.jsonl")) == 25

    def test_unconverged_batch_exits_2_naming_the_stage(self, tmp_path, capsys):
        pool, ref, personas = (tmp_path / f for f in ("pool.jsonl", "ref.jsonl", "p.jsonl"))
        main(["simulate", "--n", "200", "--m", "100", "--d", "2", "--seed", "1",
              "--out-pool", str(pool), "--out-reference", str(ref),
              "--out-personas", str(personas)])
        report = tmp_path / "report.json"
        capsys.readouterr()
        code = main([
            "align", "--pool", str(pool), "--reference", str(ref),
            "--personas", str(personas), "--seed", "0",
            "--n-is-candidates", "100", "--n-final", "40", "--sinkhorn-iters", "1",
            "--out-selected", str(tmp_path / "s.jsonl"), "--out-report", str(report),
        ])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert (err["error"], err["stage"]) == ("UnconvergedPlan", "transport")
        assert "sinkhorn_iters" in err["message"]
        assert not report.exists()

    def test_allow_unconverged_is_a_usage_error(self):
        # an unconverged plan is always refused; no flag lets it through
        with pytest.raises(SystemExit) as exc:
            main(["align", "--pool", "p.jsonl", "--reference", "r.jsonl",
                  "--personas", "x.jsonl", "--allow-unconverged"])
        assert exc.value.code == 2


@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(AlignmentConfig)])
def test_config_field_reaches_file_report_and_cli(name, tmp_path, capsys):
    value = NON_DEFAULT[name]
    assert plain(value) != plain(getattr(BASE_CONFIG, name))
    changed = dataclasses.replace(BASE_CONFIG, **{name: value})

    cfg = tmp_path / "cfg.json"
    pio.save_config(cfg, changed)
    assert plain(getattr(pio.load_config(cfg), name)) == plain(value)

    pool, ref, personas = (tmp_path / f for f in ("pool.jsonl", "ref.jsonl", "p.jsonl"))
    main(["simulate", "--n", "200", "--m", "100", "--d", "2", "--seed", "1",
          "--out-pool", str(pool), "--out-reference", str(ref),
          "--out-personas", str(personas)])
    if name == "item_weights":
        flags = []  # no flag for a per-item vector; the config file carries it
    else:
        pio.save_config(cfg, BASE_CONFIG)
        flags = ["--" + name.replace("_", "-"), str(value)]
    report = tmp_path / "report.json"
    capsys.readouterr()
    code = main([
        "align", "--pool", str(pool), "--reference", str(ref),
        "--personas", str(personas), "--config", str(cfg), *flags,
        "--out-selected", str(tmp_path / "s.jsonl"), "--out-report", str(report),
    ])
    assert code == 0, capsys.readouterr().err
    doc = json.loads(report.read_text())
    assert doc["config"] == pio._config_mapping(changed)
    assert doc["config"][name] == plain(value)


class TestRetrieve:
    def setup_index(self, tmp_path):
        path = tmp_path / "emb.jsonl"
        vecs = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        pio.save_embeddings(path, ["a", "b", "c"], vecs)
        return path

    def test_inline_query(self, tmp_path, capsys):
        path = self.setup_index(tmp_path)
        assert main(["retrieve", "--embeddings", str(path),
                     "--query", "[1.0, 0.0]", "--k", "2"]) == 0
        lines = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
        assert [l["id"] for l in lines] == ["a", "c"]
        assert lines[0]["rank"] == 0
        assert abs(lines[0]["score"] - 1.0) < 1e-12

    def test_query_file(self, tmp_path, capsys):
        path = self.setup_index(tmp_path)
        qf = tmp_path / "q.json"
        qf.write_text(json.dumps({"embedding": [0.0, 2.0]}))
        assert main(["retrieve", "--embeddings", str(path),
                     "--query-file", str(qf), "--k", "1"]) == 0
        line = json.loads(capsys.readouterr().out.strip())
        assert line["id"] == "b"

    def test_k_out_of_range(self, tmp_path, capsys):
        path = self.setup_index(tmp_path)
        assert main(["retrieve", "--embeddings", str(path),
                     "--query", "[1.0, 0.0]", "--k", "7"]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "KOutOfRange"

    def test_query_required(self, tmp_path, capsys):
        path = self.setup_index(tmp_path)
        assert main(["retrieve", "--embeddings", str(path), "--k", "1"]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "InvalidConfig"

    @pytest.mark.parametrize("query, error", [
        ("[true, 0.0]", "SchemaError"),
        ('["1.5", 0.0]', "SchemaError"),
        ("[NaN, 1.0]", "NonFiniteValue"),
        ("[[1.0], 0.0]", "SchemaError"),
        ("1.0", "InvalidConfig"),
    ])
    def test_query_goes_through_the_row_gate(self, tmp_path, capsys, query, error):
        path = self.setup_index(tmp_path)
        qf = tmp_path / "q.json"
        qf.write_text(json.dumps({"embedding": json.loads(query)}))
        for flags in (["--query", query], ["--query-file", str(qf)]):
            assert main(["retrieve", "--embeddings", str(path), *flags, "--k", "1"]) == 2
            record = json.loads(capsys.readouterr().err)
            assert record["error"] == error
            assert "line" not in record["message"]

    def test_int_beyond_float_range_in_the_index(self, tmp_path, capsys):
        path = tmp_path / "emb.jsonl"
        path.write_text('{"id": "a", "embedding": [1.0, 0.0]}\n'
                        '{"id": "b", "embedding": [1' + "0" * 400 + ', 0.0]}\n')
        assert main(["retrieve", "--embeddings", str(path),
                     "--query", "[1.0, 0.0]", "--k", "1"]) == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "NonFiniteValue"
        assert record["message"].startswith("line 2: ")

    def test_seed_is_a_usage_error(self, tmp_path):
        # retrieval is deterministic; retrieve takes no --seed
        path = self.setup_index(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["retrieve", "--embeddings", str(path), "--query", "[1.0, 0.0]",
                  "--k", "1", "--seed", "0"])
        assert exc.value.code == 2


class TestPairs:
    def test_pairs_roundtrip(self, tmp_path, capsys):
        emb = tmp_path / "emb.jsonl"
        rng = np.random.default_rng(0)
        ids = [f"c{i}" for i in range(20)]
        pio.save_embeddings(emb, ids, rng.standard_normal((20, 4)))
        queries = tmp_path / "q.jsonl"
        pio.dump_jsonl(queries, [
            {"query_id": "q0", "embedding": list(rng.standard_normal(4)),
             "positive_id": "c3"},
            {"query_id": "q1", "embedding": list(rng.standard_normal(4)),
             "positive_id": "c7"},
        ])
        out = tmp_path / "pairs.jsonl"
        code = main(["pairs", "--embeddings", str(emb), "--queries", str(queries),
                     "--n-hard", "3", "--n-random", "2", "--seed", "5",
                     "--out", str(out)])
        assert code == 0, capsys.readouterr().err
        pairs = pio.load_pairs(out)
        assert [p.query_id for p in pairs] == ["q0", "q1"]
        for p in pairs:
            assert len(p.negative_ids) == 5
            assert p.positive_id not in p.negative_ids

    def test_bad_query_record(self, tmp_path, capsys):
        emb = tmp_path / "emb.jsonl"
        pio.save_embeddings(emb, ["a", "b"], np.eye(2))
        queries = tmp_path / "q.jsonl"
        queries.write_text('{"query_id": "q0"}\n')
        assert main(["pairs", "--embeddings", str(emb), "--queries", str(queries),
                     "--out", str(tmp_path / "o.jsonl")]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "InvalidConfig"

    def test_non_object_query_line(self, tmp_path, capsys):
        emb = tmp_path / "emb.jsonl"
        pio.save_embeddings(emb, ["a", "b"], np.eye(2))
        queries = tmp_path / "q.jsonl"
        queries.write_text("[1, 2]\n")
        assert main(["pairs", "--embeddings", str(emb), "--queries", str(queries),
                     "--out", str(tmp_path / "o.jsonl")]) == 2
        record = json.loads(capsys.readouterr().err)
        assert (record["error"], record["message"]) == ("SchemaError", "line 1: expected an object")

    @pytest.mark.parametrize("embedding, error, message", [
        ([True, 0.0], "SchemaError", "line 2: query embedding contains a non-number"),
        (["1.5", 0.0], "SchemaError", "line 2: query embedding contains a non-number"),
        ([float("nan"), 1.0], "NonFiniteValue",
         "line 2: query embedding contains a non-finite value"),
        ("1.5", "SchemaError", "line 2: query embedding must be a JSON array"),
    ])
    def test_query_embedding_goes_through_the_row_gate(
        self, tmp_path, capsys, embedding, error, message
    ):
        emb = tmp_path / "emb.jsonl"
        pio.save_embeddings(emb, ["a", "b"], np.eye(2))
        queries = tmp_path / "q.jsonl"
        good = {"query_id": "q0", "embedding": [1.0, 0.5], "positive_id": "a"}
        bad = {"query_id": "q1", "embedding": embedding, "positive_id": "b"}
        queries.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
        out = tmp_path / "o.jsonl"
        assert main(["pairs", "--embeddings", str(emb), "--queries", str(queries),
                     "--n-hard", "1", "--n-random", "0", "--out", str(out)]) == 2
        record = json.loads(capsys.readouterr().err)
        assert (record["error"], record["message"]) == (error, message)
        assert not out.exists()


@pytest.fixture
def responder_server():
    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            length = int(self.headers.get("Content-Length", 0))
            doc = json.loads(self.rfile.read(length))
            # value derived from the request so cells differ
            value = float(len(doc["persona"])) + 0.25 * len(doc["item"])
            body = json.dumps({"value": value}).encode()
            self.send_response(200)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *args):
            pass

    httpd = HTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(
        target=lambda: httpd.serve_forever(poll_interval=0.02), daemon=True
    )
    thread.start()
    yield f"http://127.0.0.1:{httpd.server_port}/respond"
    httpd.shutdown()
    httpd.server_close()


class TestCollect:
    def test_collect_against_local_server(self, tmp_path, capsys, responder_server):
        personas = tmp_path / "personas.jsonl"
        pio.dump_jsonl(personas, [
            {"id": "p0", "narrative": "abc"},
            {"id": "p1", "narrative": "defgh"},
        ])
        items = tmp_path / "items.jsonl"
        pio.dump_jsonl(items, [{"item": "qqqq"}, {"item": "rr"}])
        out = tmp_path / "responses.jsonl"
        code = main(["collect", "--personas", str(personas), "--items", str(items),
                     "--endpoint", responder_server, "--out", str(out), "--seed", "0"])
        assert code == 0, capsys.readouterr().err
        ids, matrix = pio.load_response_records(out)
        assert ids == ["p0", "p1"]
        np.testing.assert_array_equal(matrix.values, [[4.0, 3.5], [6.0, 5.5]])
        assert matrix.item_ids == ("qqqq", "rr")

    def collect_one_cell(self, tmp_path, endpoint):
        personas = tmp_path / "personas.jsonl"
        pio.dump_jsonl(personas, [{"id": "p0", "narrative": "abc"}])
        items = tmp_path / "items.jsonl"
        pio.dump_jsonl(items, [{"item": "qqqq"}])
        return main(["collect", "--personas", str(personas), "--items", str(items),
                     "--endpoint", endpoint, "--out", str(tmp_path / "out.jsonl"),
                     "--retries", "2", "--timeout", "5"])

    def test_retries_count_http_attempts_per_cell(self, tmp_path, capsys,
                                                  counting_server):
        endpoint, posts = counting_server(503, "{}")
        assert self.collect_one_cell(tmp_path, endpoint) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "ResponderFailure"
        assert len(posts) == 3

    def test_contract_violation_is_not_reposted(self, tmp_path, capsys,
                                                counting_server):
        endpoint, posts = counting_server(200, json.dumps({"score": 1.0}))
        assert self.collect_one_cell(tmp_path, endpoint) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ResponderFailure"
        assert "missing 'value'" in err["message"]
        assert len(posts) == 1


class TestSweep:
    def test_small_sweep_writes_table(self, tmp_path, capsys):
        out = tmp_path / "sweep.jsonl"
        code = main(["sweep", "--n-grid", "60,120", "--d", "1", "--m", "80",
                     "--n-dagger", "50", "--reps", "3", "--seed", "2",
                     "--out", str(out)])
        assert code == 0, capsys.readouterr().err
        rows = read_jsonl(out)
        assert len(rows) == 6
        assert {r["n"] for r in rows} == {60, 120}
        text = capsys.readouterr().out
        assert "n=60" in text and "n=120" in text

    @pytest.mark.parametrize("flag, value", [
        ("--n-grid", "1000,abc"),
        ("--n-grid", "60,"),
        ("--n-grid", "1e3"),
        ("--bandwidth-grid", "0.2,wide"),
    ])
    def test_bad_grid_entry_is_an_error_record(self, flag, value, tmp_path, capsys):
        out = tmp_path / "sweep.jsonl"
        assert main(["sweep", flag, value, "--out", str(out)]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        record = json.loads(line)
        assert record["error"] == "InvalidConfig"
        assert flag in record["message"]
        assert not out.exists()


class TestAllOrNothing:
    """A failed CLI write leaves the previous bytes and no temporary file."""

    OLD = b"previous output\n"

    def outputs(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        target = out / "result.json"
        target.write_bytes(self.OLD)
        return out, target

    def test_metrics_out(self, tmp_path, full_disk):
        p = tmp_path / "a.jsonl"
        pio.save_responses(p, np.random.default_rng(0).standard_normal((5, 2)))
        out, target = self.outputs(tmp_path)
        full_disk(target)
        with pytest.raises(OSError):
            main(["metrics", str(p), str(p), "--out", str(target)])
        assert target.read_bytes() == self.OLD
        assert [q.name for q in out.iterdir()] == [target.name]

    def test_retrieve_out(self, tmp_path, full_disk):
        path = TestRetrieve().setup_index(tmp_path)
        out, target = self.outputs(tmp_path)
        full_disk(target)
        with pytest.raises(OSError):
            main(["retrieve", "--embeddings", str(path), "--query", "[1.0, 0.0]",
                  "--k", "2", "--out", str(target)])
        assert target.read_bytes() == self.OLD
        assert [q.name for q in out.iterdir()] == [target.name]

    @pytest.mark.parametrize("failure", ["write", "serializer"])
    def test_align_report(self, failure, tmp_path, full_disk, monkeypatch):
        files = {name: str(tmp_path / f"{name}.jsonl") for name in ("pool", "ref", "personas")}
        main(["simulate", "--n", "80", "--m", "40", "--d", "2", "--seed", "0",
              "--out-pool", files["pool"], "--out-reference", files["ref"],
              "--out-personas", files["personas"]])
        out, target = self.outputs(tmp_path)
        if failure == "write":
            full_disk(target)
            raised = OSError
        else:
            def report_json(*args, **kwargs):
                raise RuntimeError("serializer failed")

            monkeypatch.setattr(cli, "report_json", report_json)
            raised = RuntimeError
        with pytest.raises(raised):
            main(["align", "--pool", files["pool"], "--reference", files["ref"],
                  "--personas", files["personas"], "--seed", "1",
                  "--n-is-candidates", "40", "--n-final", "10",
                  "--out-selected", str(out / "selected.jsonl"), "--out-report", str(target)])
        assert target.read_bytes() == self.OLD
        assert sorted(q.name for q in out.iterdir()) == sorted([target.name, "selected.jsonl"])


def test_simulate_personas_bytes(tmp_path):
    personas = tmp_path / "personas.jsonl"
    assert main(["simulate", "--n", "3", "--m", "2", "--d", "1",
                 "--out-pool", str(tmp_path / "pool.jsonl"),
                 "--out-reference", str(tmp_path / "ref.jsonl"),
                 "--out-personas", str(personas)]) == 0
    assert personas.read_text() == "".join(
        f'{{"id": "p{i:06d}", "narrative": "", "response_row": {i}}}\n' for i in range(3)
    )
