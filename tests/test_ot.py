"""Entropic transport: cost matrices, Sinkhorn, weights, batching, exact LP.

The reference solver below is a deliberately naive per-iteration log-sum-exp
implementation of plain Sinkhorn, run to its own fixed point. The production
solver (Anderson-accelerated, with absorptions) is run to a tight tolerance;
the plans must agree to 1e-10, which pins its acceleration and absorption
bookkeeping to the clean log-domain fixed point.
"""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from popalign import core, ot
from popalign.checks import entropic_gap
from popalign import (
    AlignmentConfig,
    CostMatrix,
    ItemWeights,
    batched_ot_weights,
    cost_matrix,
    exact_ot_small,
    gibbs_kernel,
    ot_weights,
    resample_ot,
    sample_population,
    sinkhorn,
    transport_cost,
)
from popalign.errors import (
    DegenerateCostScale,
    DimensionMismatch,
    EmptyInput,
    InstanceTooLarge,
    InvalidConfig,
    NonFiniteValue,
    NonPositiveEpsilon,
    NumericalCollapse,
    UnconvergedPlan,
)


def reference_sinkhorn_log(C, a, b, eps, tol=1e-14, max_iters=100_000):
    """Textbook log-domain Sinkhorn, one log-sum-exp per update, run until
    the row marginal is within tol of a (the column marginal is exact after
    each g-update)."""
    logK = np.asarray(C, float) / -eps
    f = np.zeros(len(a))
    g = np.zeros(len(b))
    for it in range(1, max_iters + 1):
        f = np.log(a) - logsumexp(logK + g[None, :], axis=1)
        g = np.log(b) - logsumexp(logK + f[:, None], axis=0)
        if it % 10 == 0:
            P = np.exp(logK + f[:, None] + g[None, :])
            if np.abs(P.sum(axis=1) - a).max() <= tol:
                return P
    raise AssertionError(f"reference did not reach {tol} in {max_iters} iterations")


def random_instance(rng, n, m, d=3):
    X = rng.normal(size=(n, d))
    Y = rng.normal(size=(m, d))
    return cost_matrix(X, Y)


def outlier_instance(rng, n, m):
    """random_instance with 8 far rows: at 0.02 x median their scalings leave
    the absorption bounds, so sinkhorn must absorb."""
    X = rng.normal(size=(n, 3))
    X[:8] += 4.0
    return cost_matrix(X, rng.normal(size=(m, 3)))


def counting_absorptions(monkeypatch):
    """Count tilted-kernel rebuilds after the first build of each solve."""
    builds = []
    real = ot._tilted_kernel

    def counted(*args, **kwargs):
        builds.append(kwargs.get("out") is not None)
        return real(*args, **kwargs)

    monkeypatch.setattr(ot, "_tilted_kernel", counted)
    return builds


class TestCostMatrix:
    def test_single_identical_point(self):
        C = cost_matrix(np.array([[1.0, 2.0]]), np.array([[1.0, 2.0]]))
        np.testing.assert_array_equal(C.values, [[0.0]])

    def test_unit_weights(self):
        C = cost_matrix(np.array([[0.0, 0.0]]), np.array([[1.0, 2.0]]))
        assert C.values[0, 0] == pytest.approx(5.0, abs=1e-12)

    def test_item_weights(self):
        C = cost_matrix(
            np.array([[0.0, 0.0]]),
            np.array([[1.0, 2.0]]),
            ItemWeights(np.array([2.0, 1.0])),
        )
        # 2*1 + 1*4
        assert C.values[0, 0] == pytest.approx(6.0, abs=1e-12)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(0)
        X, Y = rng.normal(size=(7, 4)), rng.normal(size=(9, 4))
        w = rng.uniform(0.5, 2.0, size=4)
        C = cost_matrix(X, Y, ItemWeights(w))
        brute = np.array(
            [[float(np.sum(w * (x - y) ** 2)) for y in Y] for x in X]
        )
        np.testing.assert_allclose(C.values, brute, rtol=0, atol=1e-10)

    def test_nonnegative_under_cancellation(self):
        rng = np.random.default_rng(1)
        base = rng.normal(size=(50, 6))
        C = cost_matrix(base, base + 1e-9)
        assert (C.values >= 0).all()

    def test_median_is_exact(self):
        rng = np.random.default_rng(2)
        C = random_instance(rng, 5, 7)  # 35 entries, odd
        assert C.median_cost == float(np.sort(C.values.ravel())[17])

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatch):
            cost_matrix(np.zeros((2, 3)), np.zeros((2, 4)))

    def test_weight_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            cost_matrix(np.zeros((2, 3)), np.zeros((2, 3)), ItemWeights(np.ones(2)))

    @pytest.mark.parametrize("side", [0, 1])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_named(self, side, bad):
        pair = [np.zeros((4, 3)), np.ones((5, 3))]
        pair[side][3, 1] = bad
        with pytest.raises(NonFiniteValue) as exc:
            cost_matrix(*pair)
        assert (exc.value.row, exc.value.col) == (3, 1)


# an empty candidate side, an empty reference side, and width 0 on both,
# with the side that the error names
EMPTY_PAIRS = [
    pytest.param(np.zeros((0, 2)), np.ones((5, 2)), "candidate", id="no-candidates"),
    pytest.param(np.ones((4, 2)), np.zeros((0, 2)), "reference", id="no-reference"),
    pytest.param(np.zeros((4, 0)), np.zeros((5, 0)), "candidate", id="width-0"),
]


class TestTwoSampleGate:
    """cost_matrix and batched_ot_weights refuse an empty sample with EmptyInput."""

    @pytest.mark.parametrize("X, Y, side", EMPTY_PAIRS)
    def test_cost_matrix(self, X, Y, side):
        with pytest.raises(EmptyInput, match=f"the {side} sample is empty"):
            cost_matrix(X, Y)

    @pytest.mark.parametrize("X, Y, side", EMPTY_PAIRS)
    def test_batched_ot_weights(self, X, Y, side):
        with pytest.raises(EmptyInput, match=f"the {side} sample is empty"):
            batched_ot_weights(X, Y, make_config(ot_batch_size=4))


class TestCostGate:
    """Every cost passes one gate (_as_cost): a cost that is not 2-d raises
    DimensionMismatch, an empty one EmptyInput, before anything is built."""

    SITES = [
        pytest.param(lambda C: sinkhorn(C, epsilon=1.0), id="sinkhorn"),
        pytest.param(lambda C: gibbs_kernel(C, 1.0), id="gibbs_kernel"),
        pytest.param(lambda C: exact_ot_small(C, np.ones(1), np.ones(1)), id="exact_ot_small"),
        pytest.param(lambda C: entropic_gap(C, epsilon=1.0), id="entropic_gap"),
    ]

    @pytest.mark.parametrize("site", SITES)
    @pytest.mark.parametrize("cost", [np.ones(5), np.ones((2, 3, 4)), 1.0], ids=["1d", "3d", "0d"])
    def test_not_two_dimensional(self, site, cost):
        with pytest.raises(DimensionMismatch, match="2-dimensional"):
            site(cost)

    @pytest.mark.parametrize("site", SITES)
    @pytest.mark.parametrize("shape", [(0, 3), (3, 0)])
    def test_empty(self, site, shape):
        with pytest.raises(EmptyInput):
            site(np.zeros(shape))


class TestMedianCost:
    """The exact selection returns np.median's value bit for bit, without a copy of C."""

    # 300 x 701 and 301 x 701 span two 1 MB row chunks
    @pytest.mark.parametrize("n, m", [(5, 7), (6, 7), (300, 701), (301, 701)])
    def test_odd_and_even_counts(self, n, m):
        C = random_instance(np.random.default_rng(n), n, m)
        assert C.median_cost == np.median(C.values)

    @pytest.mark.parametrize("n, m", [(40, 31), (300, 701), (301, 701)])
    def test_integer_costs_with_ties(self, n, m):
        rng = np.random.default_rng(m)
        X = rng.integers(1, 6, size=(n, 3)).astype(float)
        Y = rng.integers(1, 6, size=(m, 3)).astype(float)
        C = cost_matrix(X, Y)
        assert C.median_cost == np.median(C.values)

    def test_one_by_one(self):
        C = cost_matrix(np.array([[1.5, -2.0]]), np.array([[0.25, 3.0]]))
        assert C.median_cost == np.median(C.values) == C.values[0, 0]

    def test_plain_array_any_layout(self):
        arr = random_instance(np.random.default_rng(3), 400, 500).values
        for view in (arr, arr.T, arr[::3, 1::2]):
            assert ot._as_cost(view).median_cost == np.median(view)
        # a cost is 2-d; the median itself takes any layout
        view = arr.reshape(8, 50, 500)
        assert core._array_median(view) == np.median(view)

    def test_all_zero_batch_raises(self):
        C = cost_matrix(np.zeros((6, 2)), np.zeros((9, 2)))
        assert C.median_cost == np.median(C.values) == 0.0
        with pytest.raises(DegenerateCostScale):
            batched_ot_weights(np.zeros((6, 2)), np.zeros((9, 2)), make_config(ot_batch_size=4))

    @pytest.mark.parametrize("ties", [False, True])
    def test_forced_second_pass(self, ties, monkeypatch):
        # a bracket over the cap keeps only a strided sample and passes again
        passes = []
        real = core._bracket_pass

        def counting(*args):
            passes.append(args[1:])
            return real(*args)

        monkeypatch.setattr(core, "_bracket_pass", counting)
        monkeypatch.setattr(core, "_MEDIAN_CAP", 100)
        rng = np.random.default_rng(4)
        X, Y = rng.normal(size=(300, 3)), rng.normal(size=(701, 3))
        if ties:
            X, Y = np.round(X, 1), np.round(Y, 1)
        C = cost_matrix(X, Y)
        assert C.median_cost == np.median(C.values)
        # each pass runs one _bracket_pass per stripe, both on its bracket
        assert len(set(passes)) >= 2

    def test_bracket_pass_over_no_values(self):
        # a one-strip cost leaves its second stripe with no values
        counts, kept, stride, unordered = core._bracket_pass(iter([]), 0.0, 1.0)
        assert counts == (0, 0, 0, 0) and (stride, unordered) == (1, 0)
        assert kept.dtype == np.float64 and kept.shape == (0,)

    def test_nan_cost_gives_nan(self):
        assert math.isnan(ot._as_cost([[np.nan]]).median_cost)

    @pytest.mark.parametrize("cap", [1, 100, 1 << 20])
    @pytest.mark.parametrize("where", [(0, 0), (5, 6), (299, 700)])
    def test_nan_anywhere_matches_np_median(self, where, cap, monkeypatch):
        # one NaN among 210k entries, which the 2^16-entry sample may miss
        monkeypatch.setattr(core, "_MEDIAN_CAP", cap)
        arr = random_instance(np.random.default_rng(5), 300, 701).values.copy()
        arr[where] = np.nan
        assert math.isnan(np.median(arr))
        assert math.isnan(ot._as_cost(arr).median_cost)

    @pytest.mark.parametrize("cap", [1, 100, 1 << 20])
    @pytest.mark.parametrize("seed", range(40))
    def test_small_arrays_with_infinities_ties_and_nans(self, seed, cap, monkeypatch):
        monkeypatch.setattr(core, "_MEDIAN_CAP", cap)
        rng = np.random.default_rng(seed)
        arr = np.round(rng.normal(size=tuple(rng.integers(1, 30, 2))), seed % 3)
        for value in (np.inf, -np.inf, np.nan):
            if rng.random() < 0.4:
                arr.flat[rng.integers(0, arr.size, rng.integers(1, 4))] = value
        with np.errstate(invalid="ignore"):
            want = np.median(arr)
        np.testing.assert_array_equal(ot._as_cost(arr).median_cost, want)

    def test_sinkhorn_on_a_nan_cost_returns(self):
        plan = sinkhorn(np.array([[np.nan, 1.0], [2.0, 3.0]]), epsilon=1.0)
        assert math.isnan(plan.cost.median_cost)
        assert not plan.converged


class TestInstanceBudget:
    """Direct O(n m) calls check the transport budget before allocating."""

    N = 2**16

    def test_cost_matrix(self):
        X = np.zeros((self.N, 1))
        with pytest.raises(InstanceTooLarge, match="ot_batch_size"):
            cost_matrix(X, X)

    @pytest.mark.parametrize("solve", [
        lambda C: gibbs_kernel(C, 1.0),
        lambda C: sinkhorn(C, epsilon=1.0),
    ], ids=["gibbs_kernel", "sinkhorn"])
    def test_kernel_builders(self, solve):
        # a zero-stride view: the shape of a 2^16 x 2^16 cost, the memory of one value
        C = np.broadcast_to(1.0, (self.N, self.N))
        with pytest.raises(InstanceTooLarge, match="ot_batch_size"):
            solve(C)

    def test_budget_is_the_batch_budget(self, monkeypatch):
        # 2 x 8 x 10 x 20 bytes: at the budget passes, one byte under it fails
        X, Y = np.zeros((10, 1)), np.ones((20, 1))
        monkeypatch.setattr(ot, "_OT_BATCH_BYTES", 3200)
        C = cost_matrix(X, Y)
        sinkhorn(C, epsilon=1.0)
        monkeypatch.setattr(ot, "_OT_BATCH_BYTES", 3199)
        for call in (lambda: cost_matrix(X, Y), lambda: gibbs_kernel(C, 1.0),
                     lambda: sinkhorn(C.values, epsilon=1.0)):
            with pytest.raises(InstanceTooLarge):
                call()


    def test_batch_budget_counts_one_array(self, monkeypatch):
        # a batch holds one n x m array, its kernel built over its cost: a
        # budget between one and two such arrays fits it, while a caller's
        # own cost of the same shape (cost and kernel) is refused
        X, Y = np.zeros((10, 1)), np.arange(20.0)[:, None]
        one = 8 * 10 * 20
        monkeypatch.setattr(ot, "_OT_BATCH_BYTES", one + one // 2)
        w, _ = batched_ot_weights(X, Y, make_config(ot_batch_size=20))
        assert abs(w.sum() - 1.0) <= 1e-9
        with pytest.raises(InstanceTooLarge, match="two such float64 arrays"):
            cost_matrix(X, Y)
        monkeypatch.setattr(ot, "_OT_BATCH_BYTES", one - 1)
        with pytest.raises(InstanceTooLarge, match="one such float64 array"):
            batched_ot_weights(X, Y, make_config(ot_batch_size=20))


class TestGibbsKernel:
    def test_zero_cost(self):
        K = gibbs_kernel(np.zeros((2, 2)), 0.5)
        np.testing.assert_array_equal(K, np.ones((2, 2)))

    def test_unit_ratio(self):
        K = gibbs_kernel(np.array([[0.3]]), 0.3)
        assert K[0, 0] == pytest.approx(math.exp(-1.0), abs=1e-12)

    def test_two_by_two(self):
        K = gibbs_kernel(np.array([[0.0, 2.0], [2.0, 0.0]]), 1.0)
        e2 = math.exp(-2.0)
        np.testing.assert_allclose(K, [[1.0, e2], [e2, 1.0]], rtol=0, atol=1e-15)

    def test_bounds_and_unit_iff_zero(self):
        rng = np.random.default_rng(3)
        C = rng.uniform(0.0, 3.0, size=(20, 30))
        C[4, 5] = 0.0
        K = gibbs_kernel(C, 0.7)
        assert (K > 0).all() and (K <= 1).all()
        np.testing.assert_array_equal(K == 1.0, C == 0.0)

    @pytest.mark.parametrize("eps", [0.0, -1.0, np.nan])
    def test_bad_epsilon(self, eps):
        with pytest.raises(NonPositiveEpsilon):
            gibbs_kernel(np.ones((2, 2)), eps)


class TestSinkhorn:
    def test_one_by_one(self):
        plan = sinkhorn(np.array([[3.0]]), epsilon=1.0)
        np.testing.assert_allclose(plan.gamma, [[1.0]], rtol=0, atol=1e-12)
        assert plan.converged
        assert plan.iterations_run == 1

    def test_symmetric_two_by_two(self):
        C = np.array([[0.0, 1.0], [1.0, 0.0]])
        plan = sinkhorn(C, epsilon=0.1, max_iters=2000, tol=1e-10)
        g = plan.gamma
        assert plan.converged
        assert abs(g[0, 0] - g[1, 1]) <= 1e-10
        assert abs(g[0, 1] - g[1, 0]) <= 1e-10
        assert g[0, 0] > g[0, 1]  # diagonal-dominant at small epsilon
        np.testing.assert_allclose(g.sum(axis=1), [0.5, 0.5], atol=1e-9)
        np.testing.assert_allclose(g.sum(axis=0), [0.5, 0.5], atol=1e-9)

    @pytest.mark.parametrize("n,m", [(10, 10), (57, 129), (200, 300)])
    def test_marginal_feasibility(self, n, m):
        rng = np.random.default_rng(n * 1000 + m)
        C = random_instance(rng, n, m)
        plan = sinkhorn(C, epsilon=0.1 * C.median_cost, max_iters=4000, tol=1e-6)
        assert plan.converged
        a, b = plan.row_marginal_target, plan.col_marginal_target
        assert np.abs(plan.gamma.sum(axis=1) - a).max() <= 1e-6
        assert np.abs(plan.gamma.sum(axis=0) - b).max() <= 1e-6

    def test_plan_reconstructs_from_scalings(self):
        rng = np.random.default_rng(4)
        C = random_instance(rng, 12, 9)
        eps = 0.3 * C.median_cost
        plan = sinkhorn(C, epsilon=eps, max_iters=1000, tol=1e-8)
        K = gibbs_kernel(C, eps)
        rebuilt = plan.scaling_u[:, None] * K * plan.scaling_v[None, :]
        np.testing.assert_allclose(rebuilt, plan.gamma, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("eps_scale", [0.5, 0.02])
    def test_agrees_with_log_domain_reference(self, eps_scale, monkeypatch):
        # eps_scale=0.02 on the outlier rows drives their scalings outside the
        # absorption bounds; the fixed point must not move
        rng = np.random.default_rng(5)
        if eps_scale == 0.02:
            n, m = 20, 15
            C = outlier_instance(rng, n, m)
        else:
            n, m = 5, 7
            C = random_instance(rng, n, m)
        builds = counting_absorptions(monkeypatch)
        eps = eps_scale * C.median_cost
        plan = sinkhorn(C, epsilon=eps, max_iters=5000, tol=1e-13)
        assert plan.converged
        assert any(builds) == (eps_scale == 0.02) == (plan.absorb_count > 0)
        ref = reference_sinkhorn_log(C.values, np.full(n, 1.0 / n), np.full(m, 1.0 / m), eps)
        np.testing.assert_allclose(plan.gamma, ref, rtol=0, atol=1e-10)

    def test_cost_near_exact_at_small_epsilon(self):
        rng = np.random.default_rng(6)
        for _ in range(3):
            C = CostMatrix(rng.uniform(size=(10, 10)), 0.0)
            C = cost_matrix(rng.normal(size=(10, 2)), rng.normal(size=(10, 2)))
            eps = 0.05 * C.median_cost
            plan = sinkhorn(C, epsilon=eps, max_iters=20000, tol=1e-10)
            exact_cost, _ = exact_ot_small(C, np.full(10, 0.1), np.full(10, 0.1))
            gap = abs(transport_cost(plan, C) - exact_cost)
            assert gap <= eps * math.log(100.0) + 1e-10 * C.values.max()

    def test_cost_monotone_in_epsilon(self):
        rng = np.random.default_rng(7)
        C = random_instance(rng, 8, 10)
        costs = []
        for scale in (0.8, 0.4, 0.2, 0.1):
            plan = sinkhorn(C, epsilon=scale * C.median_cost, max_iters=20000, tol=1e-12)
            costs.append(transport_cost(plan, C))
        diffs = np.diff(costs)
        assert (diffs <= 1e-9).all()  # halving eps never increases the cost

    def test_collapse_dead_row(self):
        C = np.array([[0.0, 1.0], [800.0, 900.0]])
        with pytest.raises(NumericalCollapse) as exc:
            sinkhorn(C, epsilon=1.0)
        assert exc.value.axis == "row" and exc.value.index == 1

    def test_collapse_dead_column(self):
        C = np.array([[0.0, 800.0], [1.0, 900.0]])
        with pytest.raises(NumericalCollapse) as exc:
            sinkhorn(C, epsilon=1.0)
        assert exc.value.axis == "col" and exc.value.index == 1

    def test_kernel_scanned_only_for_a_zero_product(self, monkeypatch):
        scans = []
        monkeypatch.setattr(ot, "_raise_on_dead_axis", lambda *args: scans.append(args))
        C = outlier_instance(np.random.default_rng(24), 120, 90)
        plan = sinkhorn(C, epsilon=0.02 * C.median_cost, max_iters=5000, tol=1e-9)
        assert plan.converged and plan.absorb_count >= 1
        assert not scans

    def test_marginal_validation(self):
        C = np.ones((2, 2))
        with pytest.raises(InvalidConfig):
            sinkhorn(C, a=np.array([0.0, 1.0]), epsilon=1.0)  # zero mass
        with pytest.raises(InvalidConfig):
            sinkhorn(C, a=np.array([0.6, 0.6]), epsilon=1.0)  # sums to 1.2
        with pytest.raises(DimensionMismatch):
            sinkhorn(C, a=np.array([1.0]), epsilon=1.0)

    def test_parameter_validation(self):
        C = np.ones((2, 2))
        with pytest.raises(NonPositiveEpsilon):
            sinkhorn(C, epsilon=None)
        with pytest.raises(InvalidConfig):
            sinkhorn(C, epsilon=1.0, max_iters=0)
        with pytest.raises(InvalidConfig):
            sinkhorn(C, epsilon=1.0, tol=0.0)

    def test_unconverged_flag(self):
        rng = np.random.default_rng(8)
        C = random_instance(rng, 20, 25)
        plan = sinkhorn(C, epsilon=0.05 * C.median_cost, max_iters=2, tol=1e-14)
        assert not plan.converged
        assert plan.iterations_run == 2


def anderson_step(xs, txs):
    """Type-II Anderson extrapolation from the pairs (xs[i], txs[i]), oldest first:
    T(x_k) - dT gamma, gamma the Tikhonov least squares of r_k against dR, with
    the weight relative to |r_k|^2."""
    X = np.asfortranarray(np.stack(xs, axis=1))
    T = np.asfortranarray(np.stack(txs, axis=1))
    R = T - X
    dR, dT = R[:, 1:] - R[:, :-1], T[:, 1:] - T[:, :-1]
    r = txs[-1] - xs[-1]
    A = dR.T @ dR + ot._ANDERSON_REG * float(r @ r) * np.eye(len(xs) - 1)
    return txs[-1] - dT @ np.linalg.solve(A, dR.T @ r)


def unfused_sinkhorn(K, a, b, max_iters, tol):
    """The Anderson-accelerated scaling loop on x = log v, with separate
    products for both residuals (no absorption)."""

    def plan(u, v):  # row marginal and both residuals of diag(u) K diag(v)
        rows = u * (K @ v)
        return rows, float(np.abs(rows - a).max()), float(np.abs(v * (K.T @ u) - b).max())

    v, x = np.ones(len(b)), np.zeros(len(b))
    xs, txs, last, resets, history = [], [], math.inf, 0, []
    for it in range(1, max_iters + 1):
        u = a / (K @ v)
        v = b / (K.T @ u)
        tx, plain = np.log(v), None
        r = tx - x
        if float(r @ r) > last:  # the residual rose: empty the memory
            resets += bool(xs)
            xs, txs = [], []
        last = float(r @ r)
        xs, txs = (xs + [x])[-ot._ANDERSON_DEPTH - 1:], (txs + [tx])[-ot._ANDERSON_DEPTH - 1:]
        if len(xs) > 1:
            ext = anderson_step(xs, txs)
            if 1e-100 <= np.exp(ext).min() and np.exp(ext).max() <= 1e100:
                plain, tx, v = (tx, v), ext, np.exp(ext)
        x = tx
        row_marginal, row_res, col_res = plan(u, v)
        # an extrapolated sweep whose plan converged, or the last sweep,
        # reports its plain plan if that converged too or the sweeps ran out
        if plain is not None and (max(row_res, col_res) <= tol or it == max_iters):
            rows, rr, cr = plan(u, plain[1])
            if max(rr, cr) <= tol or it == max_iters:
                (x, v), row_marginal, row_res, col_res, plain = plain, rows, rr, cr, None
        history.append(max(row_res, col_res))
        if history[-1] <= tol and plain is None:
            break
    return it, row_marginal, row_res, col_res, resets, history


class TestFusedExitCheck:
    """Each sweep's residuals reuse its products (K v serves the next sweep), and no bit moves."""

    @pytest.mark.parametrize("seed,n,m,tol", [
        (30, 40, 60, 1e-9), (31, 200, 150, 1e-12), (32, 120, 90, 1e-12),
    ])
    def test_bits_match_unfused_loop(self, seed, n, m, tol):
        C = random_instance(np.random.default_rng(seed), n, m)
        eps = 0.1 * C.median_cost
        a, b = np.full(n, 1.0 / n), np.full(m, 1.0 / m)
        plan = sinkhorn(C, a, b, epsilon=eps, max_iters=500, tol=tol)
        it, row_marginal, row_res, col_res, resets, history = unfused_sinkhorn(
            gibbs_kernel(C, eps), a, b, 500, tol
        )
        # the memory filled and slid; the last case also empties it twice
        assert plan.iterations_run == it > 2 * (ot._ANDERSON_DEPTH + 1)
        assert plan.absorb_count == 0
        assert plan.anderson_resets == resets == (2 if seed == 32 else 0)
        np.testing.assert_array_equal(plan.row_marginal, row_marginal)
        np.testing.assert_array_equal(plan.residual_history, history)
        assert (plan.row_residual, plan.col_residual) == (row_res, col_res)


PROPERTY = settings(max_examples=60, derandomize=True, deadline=None, database=None)


def recording_memory(monkeypatch, corrupt=()):
    """After every push, the number of older pairs the memory holds beside it
    (0 for a plain sweep), and "clear" for every emptying of a memory that
    held pairs. The extrapolations of the pushes numbered in corrupt (from
    0) are moved by +-1.5 on alternate entries."""
    events = []

    class Recording(ot._Anderson):
        def push(self, x, tx):
            ext = super().push(x, tx)
            events.append(self.size - 1)
            if sum(isinstance(e, int) for e in events) - 1 in corrupt:
                ext = ext + 3.0 * (np.arange(ext.size) % 2 - 0.5)
            return ext

        def clear(self):
            if self.size:
                events.append("clear")
            super().clear()

    monkeypatch.setattr(ot, "_Anderson", Recording)
    return events


class TestAnderson:
    """Accelerated sweeps reach plain Sinkhorn's fixed point, and fall back when they must."""

    @PROPERTY
    @given(data=st.data())
    def test_converges_to_the_log_domain_fixed_point(self, data):
        n, m = data.draw(st.integers(2, 40)), data.draw(st.integers(2, 40))
        eps_scale = data.draw(st.floats(0.05, 1.0))
        outliers = data.draw(st.integers(0, n // 3))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        X = rng.normal(size=(n, 2))
        X[:outliers] += 4.0
        C = cost_matrix(X, rng.normal(size=(m, 2)))
        a = rng.uniform(0.1, 1.0, n)
        b = rng.uniform(0.1, 1.0, m)
        a, b = a / a.sum(), b / b.sum()
        eps = eps_scale * C.median_cost
        tol = 1e-12

        plan = sinkhorn(C, a, b, epsilon=eps, max_iters=20000, tol=tol)
        assert plan.converged
        assert len(plan.residual_history) == plan.iterations_run
        assert plan.residual_history[-1] == max(plan.row_residual, plan.col_residual) <= tol
        gamma = plan.gamma
        assert np.abs(gamma.sum(axis=1) - a).max() <= tol
        assert np.abs(gamma.sum(axis=0) - b).max() <= tol
        ref = reference_sinkhorn_log(C.values, a, b, eps)
        np.testing.assert_allclose(gamma, ref, rtol=0, atol=1e-10)

        again = sinkhorn(C, a, b, epsilon=eps, max_iters=20000, tol=tol)
        for name in ("row_marginal", "scaling_u", "scaling_v", "residual_history", "gamma"):
            assert getattr(again, name).tobytes() == getattr(plan, name).tobytes()
        assert (again.iterations_run, again.anderson_resets, again.absorb_count) == (
            plan.iterations_run, plan.anderson_resets, plan.absorb_count
        )

    def test_absorption_empties_the_memory(self, monkeypatch):
        # the outlier rows' scalings leave the absorption bounds once the
        # memory is full; the sweep after it pushes into an empty memory
        events = recording_memory(monkeypatch)
        real = ot._tilted_kernel

        def kernel(*args, **kwargs):
            events.append("absorb" if kwargs.get("out") is not None else "build")
            return real(*args, **kwargs)

        monkeypatch.setattr(ot, "_tilted_kernel", kernel)
        C = outlier_instance(np.random.default_rng(22), 40, 30)
        plan = sinkhorn(C, epsilon=0.05 * C.median_cost, max_iters=5000, tol=1e-9)
        assert plan.converged and plan.absorb_count == events.count("absorb") == 1
        i = events.index("absorb")
        assert events[i - 1] == ot._ANDERSON_DEPTH  # a full memory
        assert events[i + 1:i + 3] == ["clear", 0]
        assert plan.anderson_resets == events.count("clear") >= 1

    def test_bad_extrapolation_falls_back(self, monkeypatch):
        # two extrapolations thrown far off: each raises the next sweep's
        # residual, which empties the memory, and the solve still reaches
        # the same fixed point
        C = random_instance(np.random.default_rng(4), 30, 40)
        eps = 0.1 * C.median_cost
        clean = sinkhorn(C, epsilon=eps, max_iters=5000, tol=1e-12)
        events = recording_memory(monkeypatch, corrupt=(3, 12))
        plan = sinkhorn(C, epsilon=eps, max_iters=5000, tol=1e-12)
        pushes = [i for i, e in enumerate(events) if isinstance(e, int)]
        for k in (3, 12):
            assert events[pushes[k]] > 0  # an extrapolated sweep
            after = pushes[k + 1]
            assert events[after - 1:after + 1] == ["clear", 0]
        assert plan.converged and plan.absorb_count == 0
        assert plan.anderson_resets == events.count("clear") >= 2
        assert plan.iterations_run > clean.iterations_run
        np.testing.assert_allclose(plan.gamma, clean.gamma, rtol=0, atol=1e-10)

    def test_first_sweep_is_plain(self, monkeypatch):
        C = random_instance(np.random.default_rng(30), 40, 60)
        eps = 0.1 * C.median_cost
        a, b = np.full(40, 1.0 / 40), np.full(60, 1.0 / 60)
        K = gibbs_kernel(C, eps)
        u = a / (K @ np.ones(60))
        v = b / (K.T @ u)
        events = recording_memory(monkeypatch)
        one = sinkhorn(C, a, b, epsilon=eps, max_iters=1, tol=1e-15)
        assert events == [0]
        np.testing.assert_array_equal(one.row_marginal, u * (K @ v))
        # the second sweep extrapolates from both pairs
        events.clear()
        sinkhorn(C, a, b, epsilon=eps, max_iters=5, tol=1e-15)
        assert events == [0, 1, 2, 3, 4]


class TestOtWeights:
    def test_uniform_marginals(self):
        rng = np.random.default_rng(9)
        C = random_instance(rng, 15, 20)
        plan = sinkhorn(C, epsilon=0.2 * C.median_cost, max_iters=2000, tol=1e-9)
        w = ot_weights(plan)
        np.testing.assert_allclose(w, np.full(15, 1.0 / 15.0), atol=1e-9)
        assert abs(w.sum() - 1.0) <= 1e-9

    def test_one_by_one(self):
        plan = sinkhorn(np.array([[2.0]]), epsilon=1.0)
        np.testing.assert_allclose(ot_weights(plan), [1.0], atol=1e-12)

    def test_symmetric_two_by_two(self):
        plan = sinkhorn(np.array([[0.0, 1.0], [1.0, 0.0]]), epsilon=0.1,
                        max_iters=2000, tol=1e-10)
        np.testing.assert_allclose(ot_weights(plan), [0.5, 0.5], atol=1e-9)

    def test_unconverged_refused_then_overridden(self):
        # the refusal names sinkhorn's two knobs; a caller who wants the
        # half-converged weights anyway reads the plan's row marginal
        rng = np.random.default_rng(10)
        C = random_instance(rng, 10, 12)
        plan = sinkhorn(C, epsilon=0.05 * C.median_cost, max_iters=1, tol=1e-14)
        with pytest.raises(UnconvergedPlan, match=r"\bmax_iters\b.*\btol\b"):
            ot_weights(plan)
        assert plan.row_marginal.shape == (10,)


class TestPlanConsistency:
    """The weights path reads the stored row marginal; the lazy gamma agrees."""

    @pytest.mark.parametrize("seed,n,m,eps_scale", [
        (20, 10, 10, 0.5), (21, 57, 129, 0.1), (22, 200, 150, 0.5),
        (23, 10, 12, 0.02), (24, 120, 90, 0.02),
    ])
    def test_row_marginal_and_col_residual_match_gamma(self, seed, n, m, eps_scale):
        rng = np.random.default_rng(seed)
        C = random_instance(rng, n, m) if eps_scale != 0.02 else outlier_instance(rng, n, m)
        plan = sinkhorn(C, epsilon=eps_scale * C.median_cost, max_iters=2000, tol=1e-9)
        w = ot_weights(plan)
        assert "gamma" not in vars(plan)  # the weights path never built the plan
        gamma = plan.gamma
        assert np.abs(w - gamma.sum(axis=1)).max() <= 1e-15
        col = np.abs(gamma.sum(axis=0) - plan.col_marginal_target).max()
        assert abs(plan.col_residual - col) <= 1e-15

    def test_absorption_case_absorbs(self, monkeypatch):
        builds = counting_absorptions(monkeypatch)
        C = outlier_instance(np.random.default_rng(24), 120, 90)
        sinkhorn(C, epsilon=0.02 * C.median_cost, max_iters=2000, tol=1e-9)
        assert any(builds)

    def test_ot_weights_returns_a_copy(self):
        plan = sinkhorn(random_instance(np.random.default_rng(25), 6, 5), epsilon=1.0)
        ot_weights(plan)[:] = 0.0
        assert plan.row_marginal.sum() > 0.99


class TestSinkhornMemory:
    """sinkhorn + ot_weights hold one n x m array (the tilted kernel) beside
    the caller's cost; a batch of batched_ot_weights holds only the one, its
    kernel built over its cost (TestBatchedOtWeights)."""

    @pytest.mark.parametrize("eps_scale", [0.5, 0.02])
    def test_peak_is_one_matrix(self, eps_scale, monkeypatch):
        n, m = 400, 300
        C = outlier_instance(np.random.default_rng(12), n, m)
        builds = counting_absorptions(monkeypatch)
        tracemalloc.start()
        try:
            plan = sinkhorn(C, epsilon=eps_scale * C.median_cost)
            ot_weights(plan)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert any(builds) == (eps_scale == 0.02)  # the small eps absorbs
        assert peak <= 1.5 * 8 * n * m


class TestResampleOt:
    def test_degenerate_weights(self):
        idx = resample_ot(np.array([1.0, 0.0, 0.0]), 5, seed=0)
        np.testing.assert_array_equal(idx, [0, 0, 0, 0, 0])

    def test_deterministic(self):
        w = np.array([0.2, 0.5, 0.3])
        a = resample_ot(w, 100, seed=7)
        b = resample_ot(w, 100, seed=7)
        np.testing.assert_array_equal(a, b)

    def test_roughly_uniform(self):
        idx = resample_ot(np.ones(4), 40_000, seed=1)
        freq = np.bincount(idx, minlength=4) / 40_000
        assert np.abs(freq - 0.25).max() <= 0.02


def make_config(**kw):
    base = dict(n_is_candidates=50, n_final=20, seed=0)
    base.update(kw)
    return AlignmentConfig(**base)


class TestBatchedOtWeights:
    def test_single_batch_matches_direct(self):
        rng = np.random.default_rng(11)
        X, Y = rng.normal(size=(30, 5)), rng.normal(size=(80, 5))
        cfg = make_config(ot_batch_size=200, sinkhorn_iters=2000, sinkhorn_tol=1e-9)
        w_batched, _ = batched_ot_weights(X, Y, cfg)
        C = cost_matrix(X, Y)
        plan = sinkhorn(
            C, epsilon=cfg.epsilon * C.median_cost,
            max_iters=2000, tol=1e-9,
        )
        np.testing.assert_allclose(w_batched, ot_weights(plan), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_split_batches_agree(self, seed):
        # a heterogeneous candidate set (half the candidates sit away from
        # the humans): a 5-sweep budget is refused in the first batch, either
        # way the columns are batched; with the default budget every batch
        # converges, so each batch's row marginal is within tol of the
        # uniform target and the two batchings agree to 2 tol
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(60, 5))
        X[:30] += 2.0
        Y = rng.normal(size=(100, 5))
        for bs in (100, 50):
            with pytest.raises(UnconvergedPlan, match="sinkhorn_iters") as exc:
                batched_ot_weights(X, Y, make_config(ot_batch_size=bs, sinkhorn_iters=5))
            assert exc.value.batch == 0
        single, _ = batched_ot_weights(X, Y, make_config(ot_batch_size=100))
        split, details = batched_ot_weights(X, Y, make_config(ot_batch_size=50))
        assert [d["converged"] for d in details] == [True, True]
        assert np.abs(single - split).max() <= 2 * make_config().sinkhorn_tol
        assert abs(split.sum() - 1.0) <= 1e-9

    def test_zero_batch_size_rejected_at_config(self):
        with pytest.raises(InvalidConfig):
            make_config(ot_batch_size=0)

    def test_error_tagged_with_batch(self):
        rng = np.random.default_rng(13)
        X = rng.normal(size=(10, 3))
        Y = rng.normal(size=(40, 3)) + 50.0  # cost ~ 1e4 vs epsilon 1e-3
        cfg = make_config(ot_batch_size=20, epsilon_absolute=1e-3)
        with pytest.raises(NumericalCollapse) as exc:
            batched_ot_weights(X, Y, cfg)
        assert exc.value.batch == 0
        assert "batch 0" in str(exc.value)

    @pytest.mark.parametrize("side", [0, 1])
    def test_non_finite_named(self, side):
        rng = np.random.default_rng(15)
        pair = [rng.normal(size=(20, 3)), rng.normal(size=(30, 3))]
        pair[side][4, 2] = np.nan
        with pytest.raises(NonFiniteValue) as exc:
            batched_ot_weights(*pair, make_config(ot_batch_size=10))
        assert (exc.value.row, exc.value.col) == (4, 2)

    @pytest.mark.parametrize("bad", [-1.0, 0.0, np.nan])
    def test_epsilon_absolute_checked_before_the_buffer(self, bad, monkeypatch):
        # the config refuses the value, so no batch is tagged and no cost
        # matrix or buffer is ever built for it
        rng = np.random.default_rng(16)
        X, Y = rng.normal(size=(20, 3)), rng.normal(size=(30, 3))
        built = []
        monkeypatch.setattr(ot, "cost_matrix", lambda *a: built.append(a) or cost_matrix(*a))
        with pytest.raises(NonPositiveEpsilon, match="^epsilon_absolute") as exc:
            batched_ot_weights(X, Y, make_config(ot_batch_size=20, epsilon_absolute=bad))
        assert not hasattr(exc.value, "batch")
        assert not built

    def test_memory_budget_names_the_batch_size(self, monkeypatch):
        rng = np.random.default_rng(16)
        X, Y = rng.normal(size=(20, 3)), rng.normal(size=(30, 3))
        # a 20 x 30 batch holds one array of 4800 bytes; a 20 x 10 one 1600
        monkeypatch.setattr(ot, "_OT_BATCH_BYTES", 4000)
        built = []
        monkeypatch.setattr(ot, "cost_matrix", lambda *a: built.append(a) or cost_matrix(*a))
        with pytest.raises(InstanceTooLarge, match="ot_batch_size"):
            batched_ot_weights(X, Y, make_config(ot_batch_size=30))
        assert not built  # refused before any cost matrix was built
        w, _ = batched_ot_weights(X, Y, make_config(ot_batch_size=10, sinkhorn_iters=4000))
        assert abs(w.sum() - 1.0) <= 1e-9

    def test_batches_hold_one_array_at_peak(self, monkeypatch):
        # every batch's cost and kernel share one buffer, which the shorter
        # last batch reuses a prefix of; the median's 1 MiB pivot sample is
        # small beside it. tracemalloc sees no mapping, so the buffer comes
        # from np.empty here
        monkeypatch.setattr(ot, "_scratch", np.empty)
        n, bs = 1000, 2000
        rng = np.random.default_rng(17)
        X, Y = rng.normal(size=(n, 5)), rng.normal(size=(2 * bs + 500, 5))
        cfg = make_config(ot_batch_size=bs, sinkhorn_iters=50)
        tracemalloc.start()
        try:
            batched_ot_weights(X, Y, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * 8 * n * bs

    def test_cost_stage_holds_one_array(self, monkeypatch):
        # the exact median reads C in row chunks: no copy of C sits beside it
        n, bs = 1000, 2000
        rng = np.random.default_rng(18)
        X, Y = rng.normal(size=(n, 5)), rng.normal(size=(2 * bs, 5))
        peaks = []

        def traced(*args):
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            C = cost_matrix(*args)
            peaks.append(tracemalloc.get_traced_memory()[1] - before)
            return C

        monkeypatch.setattr(ot, "cost_matrix", traced)
        cfg = make_config(ot_batch_size=bs, sinkhorn_iters=50)
        tracemalloc.start()
        try:
            batched_ot_weights(X, Y, cfg)
        finally:
            tracemalloc.stop()
        assert len(peaks) == 2
        assert max(peaks) <= 1.25 * 8 * n * bs

    @pytest.mark.parametrize("size", [0, 1, 3000])
    def test_scratch_is_a_writable_float64_buffer(self, size):
        buf = ot._scratch(size)
        assert buf.shape == (size,) and buf.dtype == np.float64
        buf[:] = np.arange(size)
        np.testing.assert_array_equal(buf, np.arange(size))

    def test_criterion_5_sizes_fit_the_budget(self):
        # at most 10k distinct candidates against one 5k-row reference batch
        assert 2 * 8 * 10_000 * 5_000 <= ot._OT_BATCH_BYTES

    def test_details_records(self):
        rng = np.random.default_rng(14)
        X, Y = rng.normal(size=(20, 3)), rng.normal(size=(30, 3))
        cfg = make_config(ot_batch_size=10, sinkhorn_iters=4000)
        w, details = batched_ot_weights(X, Y, cfg)
        assert [d["batch"] for d in details] == [0, 1, 2]
        assert all(d["cols"] == 10 and d["rows"] == 20 for d in details)
        assert all(d["converged"] for d in details)
        assert abs(w.sum() - 1.0) <= 1e-9


def heavy_tail_batches():
    """A 1-d transport shaped like the benchmark's tails-1d: 800 candidates against
    three 250-column batches, both drawn like the heavy-tail preset's reference
    (which the importance-resampled candidates follow)."""
    X = sample_population("heavy-tail", 800, 1, 1000, role="reference").values
    Y = sample_population("heavy-tail", 750, 1, 0, role="reference").values
    return X, Y, make_config(ot_batch_size=250, sinkhorn_iters=2000, sinkhorn_tol=1e-6)


def recording_solves(monkeypatch):
    """(cost, plan) of every sinkhorn call that batched_ot_weights makes."""
    solves = []
    real = ot.sinkhorn

    def recording(C, *args, **kwargs):
        plan = real(C, *args, **kwargs)
        solves.append((C, plan))
        return plan

    monkeypatch.setattr(ot, "sinkhorn", recording)
    return solves


def cold_batches(X, Y, cfg):
    """Each batch of batched_ot_weights solved from the neutral start."""
    plans = []
    for lo in range(0, Y.shape[0], cfg.ot_batch_size):
        C = cost_matrix(X, Y[lo:lo + cfg.ot_batch_size])
        plans.append(sinkhorn(
            C, epsilon=cfg.epsilon * C.median_cost,
            max_iters=cfg.sinkhorn_iters, tol=cfg.sinkhorn_tol,
        ))
    return plans


class TestWarmStartedBatches:
    """Each batch after the first starts where the batch before it stopped."""

    def test_single_batch_is_sinkhorn_bit_for_bit(self):
        rng = np.random.default_rng(11)
        X, Y = rng.normal(size=(30, 5)), rng.normal(size=(80, 5))
        cfg = make_config(ot_batch_size=200, sinkhorn_iters=2000, sinkhorn_tol=1e-9)
        C = cost_matrix(X, Y)
        plan = sinkhorn(C, epsilon=cfg.epsilon * C.median_cost, max_iters=2000, tol=1e-9)
        np.testing.assert_array_equal(batched_ot_weights(X, Y, cfg)[0], ot_weights(plan))

    def test_later_batches_reach_the_same_tol(self, monkeypatch):
        X, Y, cfg = heavy_tail_batches()
        cold = cold_batches(X, Y, cfg)
        solves = recording_solves(monkeypatch)
        w, _ = batched_ot_weights(X, Y, cfg)
        plans = [plan for _, plan in solves]
        assert len(plans) == 3
        assert all(p.converged and p.residual_history[-1] <= cfg.sinkhorn_tol for p in plans)
        assert plans[0].iterations_run == cold[0].iterations_run
        # each batch's row marginal is within tol of the uniform target, warm
        # or cold, so batch-size-weighted means of them differ by at most 2 tol
        w_cold = np.mean([ot_weights(p) for p in cold], axis=0)
        assert np.abs(w - w_cold).max() <= 2 * cfg.sinkhorn_tol

    def test_start_carries_log_u_only(self, monkeypatch):
        X, Y, cfg = heavy_tail_batches()
        solves = recording_solves(monkeypatch)
        batched_ot_weights(X, Y, cfg)
        assert not isinstance(solves[0][0], ot._WarmCost)
        extra = {f.name for f in dataclasses.fields(ot._WarmCost)}
        assert extra - {f.name for f in dataclasses.fields(CostMatrix)} == {"log_u"}
        for (_, before), (C, _) in zip(solves, solves[1:]):
            assert isinstance(C, ot._WarmCost)
            ratio = before.epsilon / (cfg.epsilon * C.median_cost)
            np.testing.assert_allclose(
                C.log_u, ratio * np.log(before.scaling_u), rtol=1e-15, atol=0
            )

    @pytest.mark.parametrize("rough", [1.0, 1.5])
    def test_warm_omega_relaxes_from_the_first_sweep(self, rough, monkeypatch):
        # a start far from the solution (the cold potential moved by noise of
        # sd 0.5 x rough): the warm solve accelerates from its first sweeps,
        # as a cold one does (a plain sweep into an empty memory, then a
        # memory that fills unbroken), and converges to the cold plan
        C = random_instance(np.random.default_rng(31), 40, 60)
        eps = 0.05 * C.median_cost
        cold = sinkhorn(C, epsilon=eps, max_iters=5000, tol=1e-12)
        noise = np.random.default_rng(32).normal(0, 0.5, 40)
        log_u = np.log(cold.scaling_u) + rough * noise
        events = recording_memory(monkeypatch)
        warm = sinkhorn(
            ot._WarmCost(C.values, C.median_cost, log_u), epsilon=eps, max_iters=5000, tol=1e-12,
        )
        assert events[:ot._ANDERSON_DEPTH + 1] == list(range(ot._ANDERSON_DEPTH + 1))
        assert warm.converged and warm.absorb_count == 0
        np.testing.assert_allclose(warm.gamma, cold.gamma, rtol=0, atol=1e-10)

    @staticmethod
    def _offset_start(gauge, spread):
        # a potential offset past the absorption bounds, or spread past them
        C = random_instance(np.random.default_rng(33), 30, 40)
        offsets = gauge + spread * (np.arange(30) % 2 - 0.5)
        return C, 0.1 * C.median_cost, lambda lu: lu + offsets

    @staticmethod
    def _far_column_start(shift):
        # one far column, whose kernel entries are about e^-650: against a u
        # near 1e-65, still inside the bounds, its half-sweep product underflows
        rng = np.random.default_rng(34)
        X, Y = rng.normal(size=(30, 1)), rng.normal(size=(40, 1))
        Y[0] = 12.0
        C = cost_matrix(X, Y)
        return C, C.values[:, 0].min() / 650, lambda lu: lu - lu.max() + shift

    @pytest.mark.parametrize("start, taken", [
        pytest.param(lambda: TestWarmStartedBatches._offset_start(400.0, 0.0), False,
                     id="above-the-bounds"),
        pytest.param(lambda: TestWarmStartedBatches._offset_start(-400.0, 0.0), False,
                     id="below-the-bounds"),
        pytest.param(lambda: TestWarmStartedBatches._offset_start(0.0, 2000.0), False,
                     id="spread-past-the-bounds"),
        pytest.param(lambda: TestWarmStartedBatches._far_column_start(-150.0), False,
                     id="underflowing-half-sweep"),
        pytest.param(lambda: TestWarmStartedBatches._far_column_start(0.0), True,
                     id="inside-the-bounds"),
    ])
    def test_refused_start_is_the_cold_solve(self, start, taken):
        C, eps, log_u = start()
        cold = sinkhorn(C, epsilon=eps, max_iters=20000, tol=1e-12)
        warm = sinkhorn(
            ot._WarmCost(C.values, C.median_cost, log_u(np.log(cold.scaling_u))),
            epsilon=eps, max_iters=20000, tol=1e-12,
        )
        assert warm.converged
        if taken:
            assert warm.iterations_run < cold.iterations_run
            np.testing.assert_allclose(warm.gamma, cold.gamma, rtol=0, atol=1e-10)
            return
        for name in ("scaling_u", "scaling_v", "row_marginal", "residual_history"):
            assert getattr(warm, name).tobytes() == getattr(cold, name).tobytes()
        assert (warm.iterations_run, warm.absorb_count) == (cold.iterations_run, cold.absorb_count)

    def test_after_an_absorbing_batch(self, monkeypatch):
        # outlier_instance's far rows: the first batch absorbs
        rng = np.random.default_rng(20)
        X = rng.normal(size=(120, 3))
        X[:8] += 4.0
        Y = rng.normal(size=(270, 3))
        cfg = make_config(ot_batch_size=90, epsilon=0.02, sinkhorn_iters=5000, sinkhorn_tol=1e-9)
        solves = recording_solves(monkeypatch)
        w, _ = batched_ot_weights(X, Y, cfg)
        assert solves[0][1].absorb_count >= 1
        assert all(isinstance(C, ot._WarmCost) for C, _ in solves[1:])
        assert all(p.converged for _, p in solves)
        w_cold = np.mean([ot_weights(p) for p in cold_batches(X, Y, cfg)], axis=0)
        assert np.abs(w - w_cold).max() <= 2 * cfg.sinkhorn_tol

    def test_repeat_runs_byte_identical(self):
        X, Y, cfg = heavy_tail_batches()
        w1, d1 = batched_ot_weights(X, Y, cfg)
        w2, d2 = batched_ot_weights(X, Y, cfg)
        assert w1.tobytes() == w2.tobytes()
        assert d1 == d2


class TestSweepBudget:
    """Sweep counts repeat exactly, so the acceleration's reach is pinned at
    300 sweeps a solve: over-relaxed sweeps took 509-2087 on the hard
    instances and 4975 on the first Student-t batch."""

    @pytest.mark.parametrize("seed", [24, 1, 2, 3, 5, 22])
    def test_hard_instances(self, seed):
        C = outlier_instance(np.random.default_rng(seed), 120, 90)
        plan = sinkhorn(C, epsilon=0.02 * C.median_cost, max_iters=300, tol=1e-9)
        assert plan.converged and plan.absorb_count >= 1

    def test_student_t_warm_batches(self):
        # 1-d Student-t(3): 300 candidates against 450 columns in batches of
        # 150, every later batch warm-started; an unconverged batch raises
        rng = np.random.default_rng(4)
        X, Y = rng.standard_t(3, size=(300, 1)), rng.standard_t(3, size=(450, 1))
        cfg = make_config(ot_batch_size=150, sinkhorn_iters=300, sinkhorn_tol=1e-6)
        w, details = batched_ot_weights(X, Y, cfg)
        assert [d["converged"] for d in details] == [True] * 3
        assert abs(w.sum() - 1.0) <= 1e-9


def far_batches(side):
    """Three batches of 90 columns at epsilon 0.02 that take the rare branches.

    side "rows": outlier_instance's far rows; the first batch absorbs, and
    both later starts lie outside the absorption bounds, so they are refused.
    side "cols": six far columns in the last batch, which absorbs after a
    warm start.
    """
    rng = np.random.default_rng(20 if side == "rows" else 21)
    X = rng.normal(size=(120, 3))
    Y = rng.normal(size=(270, 3))
    if side == "rows":
        X[:8] += 4.0
    else:
        Y[180:186] += 4.0
    cfg = make_config(ot_batch_size=90, epsilon=0.02, sinkhorn_iters=5000, sinkhorn_tol=1e-9)
    return X, Y, cfg


def public_batches(X, Y, cfg):
    """batched_ot_weights' weights, details and plans, each batch solved by public
    cost_matrix and sinkhorn on a cost of its own (a _WarmCost over a copy of it
    for each later batch, from the plan before it)."""
    n, m, bs = X.shape[0], Y.shape[0], cfg.ot_batch_size
    a = np.full(n, 1.0 / n)
    weights, details, plans, start = np.zeros(n), [], [], None
    for bi, lo in enumerate(range(0, m, bs)):
        C = cost_matrix(X, Y[lo:lo + bs])
        m_b = C.shape[1]
        eps = cfg.epsilon * C.median_cost
        if start is not None:
            log_u, eps_prev = start
            C = ot._WarmCost(C.values.copy(), C.median_cost, log_u * (eps_prev / eps))
        plan = sinkhorn(
            C, a, np.full(m_b, 1.0 / m_b), epsilon=eps,
            max_iters=cfg.sinkhorn_iters, tol=cfg.sinkhorn_tol,
        )
        weights += m_b / m * ot_weights(plan)
        details.append({
            "batch": bi, "rows": n, "cols": m_b, "effective_epsilon": eps,
            "iterations": plan.iterations_run, "converged": plan.converged,
            "row_residual": plan.row_residual, "col_residual": plan.col_residual,
        })
        plans.append(plan)
        start = (np.log(plan.scaling_u), eps)
    return weights, details, plans


class TestOneBuffer:
    """A batch's kernel is built over its cost in the call's one buffer, and
    C is regenerated from its operands wherever it is read again."""

    @pytest.mark.parametrize("side", ["rows", "cols"])
    def test_rare_branches_match_public_solves(self, side, monkeypatch):
        X, Y, cfg = far_batches(side)
        solves = recording_solves(monkeypatch)
        w, details = batched_ot_weights(X, Y, cfg)
        absorbs = [p.absorb_count for _, p in solves]
        assert all(C._operands is not None for C, _ in solves)
        names = ("row_marginal", "scaling_u", "scaling_v", "residual_history")
        if side == "rows":
            # both later starts are refused: each batch is its cold public solve
            assert absorbs[0] >= 1
            for (_, got), want in zip(solves[1:], cold_batches(X, Y, cfg)[1:], strict=True):
                for name in names:
                    assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
                assert got.iterations_run == want.iterations_run
        else:
            assert absorbs == [0, 0, absorbs[2]] and absorbs[2] >= 1
        w_ref, details_ref, plans = public_batches(X, Y, cfg)
        assert w.tobytes() == w_ref.tobytes()
        assert details == details_ref
        for (_, got), want in zip(solves, plans, strict=True):
            for name in names:
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes()

    def test_batch_plans_rebuild_their_cost(self, monkeypatch):
        # read after the run, when the buffer holds the last batch's kernel
        X, Y, cfg = far_batches("rows")
        solves = recording_solves(monkeypatch)
        batched_ot_weights(X, Y, cfg)
        bs = cfg.ot_batch_size
        for bi, (C, plan) in enumerate(solves):
            stored = cost_matrix(X, Y[bi * bs:(bi + 1) * bs])
            rebuilt = dataclasses.replace(plan, cost=stored)
            assert plan.gamma.tobytes() == rebuilt.gamma.tobytes()
            assert transport_cost(plan, C) == transport_cost(rebuilt, stored)

    def test_caller_costs_are_never_written(self):
        C = outlier_instance(np.random.default_rng(24), 120, 90)
        kept = C.values.copy()
        eps = 0.02 * C.median_cost
        plan = sinkhorn(C, epsilon=eps, max_iters=2000, tol=1e-9)
        assert plan.absorb_count >= 1
        gibbs_kernel(C, eps)
        transport_cost(plan, C)
        # a start past the absorption bounds is refused over the caller's cost
        warm = sinkhorn(
            ot._WarmCost(C.values, C.median_cost, np.log(plan.scaling_u) + 400.0),
            epsilon=eps, max_iters=2000, tol=1e-9,
        )
        assert warm.converged
        sinkhorn(C.values, epsilon=eps, max_iters=2000, tol=1e-9)
        assert C.values.tobytes() == kept.tobytes()

    def test_transport_cost_checks_shape_before_gamma(self, monkeypatch):
        rng = np.random.default_rng(26)
        C = random_instance(rng, 6, 5)
        plan = sinkhorn(C, epsilon=1.0)
        kernels, medians = [], []
        monkeypatch.setattr(ot, "_tilted_kernel", lambda *a, **k: kernels.append(1))
        for bad in (random_instance(rng, 5, 6), np.zeros((6, 4)), np.zeros(30)):
            with pytest.raises(DimensionMismatch):
                transport_cost(plan, bad)
        assert not kernels and "gamma" not in vars(plan)
        monkeypatch.undo()
        want = transport_cost(plan, C)
        # a plain array is read as it is, with no median pass
        real = ot._array_median
        monkeypatch.setattr(ot, "_array_median", lambda *a: medians.append(1) or real(*a))
        assert transport_cost(plan, C.values) == want
        assert not medians


class TestExactOtSmall:
    def test_trivial_single(self):
        cost, plan = exact_ot_small(np.array([[0.0]]), np.array([1.0]), np.array([1.0]))
        assert cost == 0.0
        np.testing.assert_array_equal(plan, [[1.0]])

    def test_identity_matching(self):
        half = np.array([0.5, 0.5])
        cost, plan = exact_ot_small(np.array([[0.0, 1.0], [1.0, 0.0]]), half, half)
        assert cost == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(plan, np.diag(half), atol=1e-12)

    def test_asymmetric_costs(self):
        half = np.array([0.5, 0.5])
        cost, plan = exact_ot_small(np.array([[1.0, 2.0], [3.0, 1.0]]), half, half)
        assert cost == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(plan, np.diag(half), atol=1e-12)

    def test_guard(self):
        with pytest.raises(InstanceTooLarge):
            exact_ot_small(
                np.zeros((101, 101)), np.full(101, 1 / 101), np.full(101, 1 / 101)
            )

    def test_plan_feasible_and_optimal_vs_permutations(self):
        # n=4 uniform-to-uniform: the LP optimum matches brute-force search
        # over the 24 permutation couplings (Birkhoff extreme points)
        import itertools

        rng = np.random.default_rng(15)
        C = rng.uniform(size=(4, 4))
        quarter = np.full(4, 0.25)
        cost, plan = exact_ot_small(C, quarter, quarter)
        best = min(
            sum(C[i, p[i]] for i in range(4)) / 4.0
            for p in itertools.permutations(range(4))
        )
        assert cost == pytest.approx(best, abs=1e-10)
        np.testing.assert_allclose(plan.sum(axis=1), quarter, atol=1e-9)
        np.testing.assert_allclose(plan.sum(axis=0), quarter, atol=1e-9)


class TestPermutationEquivariance:
    def test_row_permutation_permutes_weights(self):
        rng = np.random.default_rng(16)
        X, Y = rng.normal(size=(30, 3)), rng.normal(size=(50, 3))
        cfg = make_config(ot_batch_size=100, sinkhorn_iters=3000, sinkhorn_tol=1e-10)
        w, _ = batched_ot_weights(X, Y, cfg)
        perm = rng.permutation(30)
        w_perm, _ = batched_ot_weights(X[perm], Y, cfg)
        np.testing.assert_allclose(w_perm, w[perm], rtol=0, atol=1e-12)
