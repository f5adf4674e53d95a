"""parallel.run_pair: two thunks on two threads, with numpy's BLAS pinned.

The pipeline's pairs (the two stripes of the human and persona densities,
the two metric reports, and the two row stripes of each transport batch's
set-up passes) run through run_pair; the results must not depend on the
worker count, errors must surface as in a serial run, and the BLAS thread
count must be back where it was after every pair, raising or not.
"""

import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from popalign import (
    AlignmentConfig,
    PersonaRecord,
    batched_ot_weights,
    core,
    cost_matrix,
    ot,
    parallel,
    pipeline,
    run_alignment,
)
from popalign.errors import DegenerateBandwidth, EmptyInput
from popalign.kde import fit_kde, importance_log_ratios, log_density_many
from popalign.metrics import metric_report
from popalign.pipeline import report_json
from popalign.synthetic import sample_population

SRC = Path(__file__).resolve().parents[1] / "src"

needs_blas = pytest.mark.skipif(
    parallel.blas_threads() is None, reason="numpy's OpenBLAS thread count is not reachable"
)


@pytest.fixture(params=[1, 2], ids=["one-worker", "two-workers"])
def workers(request, monkeypatch):
    monkeypatch.setattr(parallel, "_workers", lambda: request.param)
    return request.param


def problem(n=3000, m=1000, d=5, seed=8):
    pool = sample_population("shifted-gaussian", n, d, seed=seed, role="pool")
    ref = sample_population("shifted-gaussian", m, d, seed=seed, role="reference")
    personas = [PersonaRecord(id=f"p{i}", response_row=i) for i in range(n)]
    return pool, ref, personas


class TestRunPair:
    def test_returns_both_values_in_order(self, workers):
        assert parallel.run_pair(lambda: "a", lambda: ["b"]) == ("a", ["b"])

    @needs_blas
    def test_two_workers_run_second_on_another_thread(self, workers):
        main = threading.get_ident()
        first, second = parallel.run_pair(threading.get_ident, threading.get_ident)
        assert first == main
        assert (second != main) == (workers == 2)

    @needs_blas
    def test_blas_pinned_inside_and_restored_after(self, workers):
        before = parallel.blas_threads()
        inside = parallel.run_pair(parallel.blas_threads, parallel.blas_threads)
        assert inside == (1, 1)
        assert parallel.blas_threads() == before

    @needs_blas
    @pytest.mark.parametrize("which", ["first", "second", "both"])
    def test_blas_restored_after_a_thunk_raises(self, workers, which):
        before = parallel.blas_threads()

        def thunk(name):
            def run():
                if which in (name, "both"):
                    raise EmptyInput(name)
                return name
            return run

        with pytest.raises(EmptyInput) as exc:
            parallel.run_pair(thunk("first"), thunk("second"))
        assert exc.value.args == ("second" if which == "second" else "first",)
        assert parallel.blas_threads() == before

    def test_without_blas_controls_runs_serially(self, monkeypatch):
        monkeypatch.setattr(parallel, "_controls", ())
        main = threading.get_ident()
        order = []

        def thunk(name):
            def run():
                order.append(name)
                return threading.get_ident()
            return run

        assert parallel.run_pair(thunk("first"), thunk("second")) == (main, main)
        assert order == ["first", "second"]

    def test_serial_fallback_stops_at_the_first_error(self, monkeypatch):
        monkeypatch.setattr(parallel, "_controls", ())
        ran = []

        def first():
            raise EmptyInput("first")

        with pytest.raises(EmptyInput):
            parallel.run_pair(first, lambda: ran.append("second"))
        assert ran == []

    @needs_blas
    def test_nested_and_concurrent_pairs_restore_the_count_once(self):
        before = parallel.blas_threads()

        def inner():
            return parallel.run_pair(parallel.blas_threads, parallel.blas_threads)

        assert parallel.run_pair(inner, inner) == ((1, 1), (1, 1))
        assert parallel.blas_threads() == before

    @needs_blas
    def test_many_callers_at_once_keep_the_pin_and_restore_it(self):
        # more callers than cores, switching threads as often as possible: a
        # lost update to the pin count would unpin a running pair or leak it
        before = parallel.blas_threads()
        inside = []

        def caller():
            for _ in range(40):
                inside.extend(parallel.run_pair(parallel.blas_threads, parallel.blas_threads))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=caller) for _ in range(6)]
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in callers)
        assert inside == [1] * (6 * 40 * 2)
        assert parallel.blas_threads() == before

    def test_pin_protocol(self, monkeypatch):
        # fake controls: the first pin saves the count, sets 1 and stops the
        # idle pool; a nested pin does neither; the last unpin restores
        calls = []
        state = {"threads": 4}

        def get():
            calls.append("get")
            return state["threads"]

        def put(n):
            calls.append(f"set {n}")
            state["threads"] = n

        monkeypatch.setattr(parallel, "_controls", (get, put, lambda: calls.append("stop")))
        monkeypatch.setattr(parallel, "_workers", lambda: 2)
        # as in a process whose one Python thread starts the pair
        monkeypatch.setattr(threading, "active_count", lambda: 1)

        def inner():
            return parallel.run_pair(lambda: state["threads"], lambda: state["threads"])

        def second():
            raise EmptyInput("second")

        with pytest.raises(EmptyInput):
            parallel.run_pair(inner, second)
        assert calls == ["get", "set 1", "stop", "set 4"]
        assert state["threads"] == 4

    def test_pair_beside_a_busy_thread_leaves_the_pool_running(self, monkeypatch):
        # stopping OpenBLAS's pool would pull it from under a BLAS call in
        # flight on the other thread; the pin itself still applies
        calls = []
        state = {"threads": 2}

        def put(n):
            calls.append(f"set {n}")
            state["threads"] = n

        monkeypatch.setattr(
            parallel, "_controls",
            (lambda: state["threads"], put, lambda: calls.append("stop")),
        )
        monkeypatch.setattr(parallel, "_workers", lambda: 2)
        release = threading.Event()
        busy = threading.Thread(target=release.wait)
        busy.start()
        try:
            assert parallel.run_pair(lambda: state["threads"], lambda: 0) == (1, 0)
        finally:
            release.set()
            busy.join()
        assert calls == ["set 1", "set 2"]

    def test_import_looks_nothing_up_and_starts_no_thread(self):
        code = (
            f"import sys, threading; sys.path.insert(0, {str(SRC)!r}); import popalign; "
            "assert popalign.parallel._controls is None; "
            "assert threading.active_count() == 1, threading.enumerate()"
        )
        subprocess.run([sys.executable, "-c", code], check=True, timeout=120)


class TestPipelinePairs:
    def test_report_bytes_do_not_depend_on_the_worker_count(self, monkeypatch):
        pool, ref, personas = problem()
        cfg = AlignmentConfig(n_is_candidates=1500, n_final=800, seed=3)
        texts = []
        for n_workers in (1, 2):
            monkeypatch.setattr(parallel, "_workers", lambda n_workers=n_workers: n_workers)
            texts.append(report_json(run_alignment(pool, ref, personas, cfg)[1]))
        assert texts[0] == texts[1]

    def test_both_reports_raising_surfaces_the_first_with_its_stage(self, workers, monkeypatch):
        # the baseline report runs first; each failing report names its seed
        def failing_report(X, Y, seed):
            raise DegenerateBandwidth(f"report seeded {seed}")

        monkeypatch.setattr(pipeline, "metric_report", failing_report)
        pool, ref, personas = problem(n=300, m=200, d=2)
        cfg = AlignmentConfig(n_is_candidates=150, n_final=60, seed=4)
        first_seed = pipeline.derive_seed(cfg.seed, pipeline._SW_PRE_TAG)
        with pytest.raises(DegenerateBandwidth) as exc:
            run_alignment(pool, ref, personas, cfg)
        assert exc.value.stage == "metrics"
        assert str(exc.value) == f"stage metrics: report seeded {first_seed}"

    def test_importance_ratios_match_two_plain_calls(self, workers):
        rng = np.random.default_rng(21)
        X = rng.normal(size=(700, 3))
        human = fit_kde(rng.normal(size=(300, 3)) + 0.3, 0.4)
        persona = fit_kde(X[::2], 0.4)
        want = log_density_many(human, X) - log_density_many(persona, X, include_query=True)
        got = importance_log_ratios(human, persona, X, query_in_source=True)
        # the pair runs with BLAS pinned to one thread, which may round a
        # distance block's product differently from the plain calls here
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_stripes_give_the_same_bits_with_one_worker_or_two(self, monkeypatch):
        # dense self tiles (persona fit on X), dense cross strips (a subsample
        # fit, include_query) and, at d=1, two fast Gauss transforms side by
        # side; and a pair of metric reports
        rng = np.random.default_rng(22)
        X = rng.normal(size=(3 * core._TILE + 5, 3))
        ref = rng.normal(size=(400, 3)) + 0.3
        human, persona, sub = fit_kde(ref, 0.4), fit_kde(X, 0.4), fit_kde(X[::3], 0.4)
        x1 = rng.standard_t(3, size=(3000, 1))
        human1, persona1 = fit_kde(ref[:, :1], 0.2), fit_kde(x1, 0.2)
        runs = []
        for n_workers in (1, 2):
            monkeypatch.setattr(parallel, "_workers", lambda n_workers=n_workers: n_workers)
            reports = parallel.run_pair(
                lambda: metric_report(X[:500], ref, seed=1),
                lambda: metric_report(X[500:], ref, seed=2),
            )
            runs.append((
                importance_log_ratios(human, persona, persona.samples),
                importance_log_ratios(human, sub, X, query_in_source=True),
                importance_log_ratios(human1, persona1, persona1.samples),
                [r.to_record() for r in reports],
            ))
        for one, two in zip(*runs[:2]):
            if isinstance(one, list):
                assert one == two
            else:
                assert np.array_equal(one, two)

    @needs_blas
    @pytest.mark.parametrize("stripe", [0, 1])
    def test_blas_restored_after_a_tile_raises(self, workers, stripe, monkeypatch):
        # the persona self-density's first tile row of one stripe fails
        before = parallel.blas_threads()
        tile = core._sq_dist_tile

        def failing(ops, rows, cols, out=None):
            if cols.stop is not None and rows.start == stripe * core._TILE:
                raise EmptyInput(f"tile row of stripe {stripe}")
            return tile(ops, rows, cols, out)

        monkeypatch.setattr(core, "_sq_dist_tile", failing)
        rng = np.random.default_rng(23)
        X = rng.normal(size=(3 * core._TILE, 3))
        human, persona = fit_kde(rng.normal(size=(300, 3)), 0.4), fit_kde(X, 0.4)
        with pytest.raises(EmptyInput, match=f"stripe {stripe}"):
            importance_log_ratios(human, persona, persona.samples)
        assert parallel.blas_threads() == before


def three_ways(compute):
    """compute() with one worker, with two, and without BLAS controls (plain
    serial calls, BLAS threads as they are)."""
    runs = []
    for name, value in (("_workers", lambda: 1), ("_workers", lambda: 2), ("_controls", ())):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(parallel, name, value)
            runs.append(compute())
    return runs


# (n, m) of one row strip, of five (an odd count) and of six with n > m
STRIPED_SHAPES = [(40, 30), (655, 1000), (1300, 600)]
STRIPED_IDS = ["one-strip", "five-strips", "n-above-m"]


class TestTransportStripes:
    """The n x m set-up passes of a transport batch run on two row stripes
    (core._striped_rows): cost fill, exact-median count and kernel build."""

    @pytest.mark.parametrize("n, m", STRIPED_SHAPES, ids=STRIPED_IDS)
    def test_walk_covers_every_strip_once(self, n, m):
        first, second = core._striped_rows((n, m), list)
        assert sorted(first + second) == list(core._row_strips(n, m))
        assert first == list(core._row_strips(n, m, 0))
        assert bool(second) == (len(first) + len(second) > 1)

    @needs_blas
    @pytest.mark.parametrize("n, m", STRIPED_SHAPES, ids=STRIPED_IDS)
    def test_two_workers_take_stripe_one_elsewhere_unless_one_strip(self, n, m, monkeypatch):
        monkeypatch.setattr(parallel, "_workers", lambda: 2)
        main = threading.get_ident()
        first, second = core._striped_rows((n, m), lambda strips: threading.get_ident())
        assert first == main
        assert (second != main) == ((n, m) != STRIPED_SHAPES[0])

    @pytest.mark.parametrize("n, m", STRIPED_SHAPES, ids=STRIPED_IDS)
    def test_cost_fill_same_bits(self, n, m):
        rng = np.random.default_rng(n)
        X, Y = rng.normal(loc=50.0, size=(n, 3)), rng.normal(loc=50.0, size=(m, 3))
        w = rng.uniform(0.5, 2.0, size=3)

        def compute():
            C = cost_matrix(X, Y, w, out=np.empty((n, m)))
            return C.values.copy(), C.median_cost

        runs = three_ways(compute)
        # the strips walked one after another, as the serial fill wrote them
        ops = core._sq_dist_operands(X, Y, w)
        serial = np.vstack([D.copy() for _lo, _hi, D in core._sq_dist_blocks(ops)])
        for values, median in runs:
            assert values.tobytes() == serial.tobytes()
            assert median == np.median(serial)

    @pytest.mark.parametrize("n, m", STRIPED_SHAPES, ids=STRIPED_IDS)
    def test_median_with_unequal_stripe_strides(self, n, m, monkeypatch):
        # stripe 0's strips hold values near the median, stripe 1's are
        # spread: under a lowered cap, the first pass keeps a strided sample
        # of stripe 0's inside values and more of stripe 1's, and at least
        # one more pass follows
        rng = np.random.default_rng(m)
        C = rng.uniform(0.0, 1.0, size=(n, m))
        for lo, hi in core._row_strips(n, m, 0):
            C[lo:hi] = rng.uniform(0.45, 0.55, size=(hi - lo, m))
        monkeypatch.setattr(core, "_MEDIAN_CAP", max(4, C.size // 300))
        passes = []
        real = core._bracket_pass

        def recording(parts, a, b):
            result = real(parts, a, b)
            passes.append(((a, b), result[2]))
            return result

        def compute():
            passes.clear()
            return core._array_median(C), passes[:]

        monkeypatch.setattr(core, "_bracket_pass", recording)
        runs = three_ways(compute)
        for _median, seen in runs:
            assert seen[0][0] == seen[1][0]  # one bracket, one call per stripe
            assert seen[0][1] != seen[1][1]
            assert len({bracket for bracket, _ in seen}) >= 2
        assert runs[0][0] == np.median(C)
        for median, brackets in runs[1:]:
            assert median == runs[0][0]
            assert sorted(brackets) == sorted(runs[0][1])

    @pytest.mark.parametrize("tilt", [False, True], ids=["plain", "tilted"])
    @pytest.mark.parametrize("n, m", STRIPED_SHAPES, ids=STRIPED_IDS)
    def test_kernel_same_bits(self, n, m, tilt):
        rng = np.random.default_rng(n + m)
        C = rng.uniform(0.0, 4.0, size=(n, m))
        f, g = (rng.normal(size=n), rng.normal(size=m)) if tilt else (None, None)
        want = -C / 0.3
        if tilt:
            want += f[:, None]
            want += g[None, :]
        want = np.exp(want)
        for K in three_ways(lambda: ot._tilted_kernel(C, 0.3, f, g)):
            assert K.tobytes() == want.tobytes()
        def over_its_cost():  # as a batch builds its kernel
            K = C.copy()
            return ot._tilted_kernel(K, 0.3, f, g, out=K)

        for K in three_ways(over_its_cost):
            assert K.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n, m", STRIPED_SHAPES, ids=STRIPED_IDS)
    def test_batched_weights_same_bits(self, n, m):
        # two batches, the second narrower than the first
        rng = np.random.default_rng(n * m)
        X, Y = rng.normal(size=(n, 2)), rng.normal(loc=0.3, size=(m + m // 2, 2))
        config = AlignmentConfig(
            n_is_candidates=n, n_final=1, seed=0, ot_batch_size=m, sinkhorn_iters=5000
        )
        runs = three_ways(lambda: batched_ot_weights(X, Y, config))
        for weights, details in runs[1:]:
            assert weights.tobytes() == runs[0][0].tobytes()
            assert details == runs[0][1]
        assert [d["cols"] for d in runs[0][1]] == [m, m // 2]

    @needs_blas
    def test_many_callers_at_once_get_the_serial_bits(self, monkeypatch):
        # more callers than cores, each filling its own buffer and taking its
        # median on two stripes, switching threads as often as possible
        monkeypatch.setattr(parallel, "_workers", lambda: 2)
        rng = np.random.default_rng(24)
        X, Y = rng.normal(size=(655, 2)), rng.normal(size=(1000, 2))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(parallel, "_controls", ())
            want = cost_matrix(X, Y)
        seen = []

        def caller():
            for _ in range(5):
                C = cost_matrix(X, Y, out=np.empty((655, 1000)))
                seen.append(C.values.tobytes() == want.values.tobytes()
                            and C.median_cost == want.median_cost)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=caller) for _ in range(4)]
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in callers)
        assert seen == [True] * 20
