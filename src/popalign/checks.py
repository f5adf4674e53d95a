"""Empirical verification of the finite-sample approximation guarantees.

Two executable checks, phrased as properties of concrete instances:

- entropic_gap: the transport cost of the entropic plan exceeds the exact
  optimum by at most eps * log(n*m) (plus solver slack), and never undercuts
  it. Verified against the exact LP oracle on small instances.
- convergence_sweep: Stage-1-only resampling against a fixed reference, with
  growing pool size N and everything else held fixed. The median divergence
  of the resampled set to the reference must not increase with N. Only the
  trend is asserted; the constants in the underlying bound are unspecified,
  so asserting more would be dishonest.
"""

from dataclasses import dataclass
import math

import numpy as np

from .core import _count, _finite_values
from .errors import BoundViolation, InvalidConfig
from .kde import fit_kde, importance_weights
from .metrics import _w1_rows, sliced_wasserstein, wasserstein_1d
from .ot import _as_cost, exact_ot_small, sinkhorn, transport_cost
from .pipeline import truncate_by_weight
from .rng import derive_seed, rng_from_seed
from .sampling import _inverse_cdf, normalize_weights
from .synthetic import sample_population

_GAP_SOLVER_SLACK = 1e-6  # multiplies max(C), covers finite Sinkhorn tolerance
_UNDERCUT_TOL = 1e-8


@dataclass(frozen=True)
class GapRecord:
    """One entropic-vs-exact comparison: costs, signed gap, and the bound."""

    entropic_cost: float
    exact_cost: float
    gap: float
    bound: float
    epsilon: float
    shape: tuple


def entropic_gap(C, a=None, b=None, epsilon=None, max_iters=5000, tol=1e-10):
    """Compare the entropic plan's transport cost against the exact optimum.

    epsilon is the effective (absolute) regularization. Asserts
    |entropic - exact| <= eps * log(n*m) + 1e-6 * max(C) and
    entropic >= exact - 1e-8, raising BoundViolation otherwise; returns the
    GapRecord when both hold.
    """
    C = _as_cost(C)
    n, m = C.values.shape
    plan = sinkhorn(C, a, b, epsilon=epsilon, max_iters=max_iters, tol=tol)
    entropic = transport_cost(plan, C)
    exact, _ = exact_ot_small(C, plan.row_marginal_target, plan.col_marginal_target)
    gap = entropic - exact
    bound = float(epsilon) * math.log(n * m) if n * m > 1 else 0.0
    slack = _GAP_SOLVER_SLACK * float(C.values.max())
    if abs(gap) > bound + slack:
        raise BoundViolation(
            f"|entropic - exact| = {abs(gap):.6e} exceeds eps*log(nm) + slack = "
            f"{bound + slack:.6e} on a {n}x{m} instance"
        )
    if gap < -_UNDERCUT_TOL:
        raise BoundViolation(
            f"entropic cost undercuts the exact optimum by {-gap:.3e} (> {_UNDERCUT_TOL})"
        )
    return GapRecord(
        entropic_cost=entropic,
        exact_cost=exact,
        gap=gap,
        bound=bound,
        epsilon=float(epsilon),
        shape=(n, m),
    )


def wasserstein2_1d(x, y):
    """Exact W2 between two 1-d empirical distributions.

    Quantile-function form: sqrt of the integral of (F_x^{-1} - F_y^{-1})^2
    over (0, 1), on the merged quantile grid of metrics' W1 kernel. A NaN or
    infinite value on either side raises NonFiniteValue.
    """
    xs = _finite_values(np.ravel(x), "first sample", ndim=1)
    ys = _finite_values(np.ravel(y), "second sample", ndim=1)
    if xs.size == 0 or ys.size == 0:
        raise InvalidConfig("wasserstein2_1d needs at least one sample on each side")
    return math.sqrt(_w1_rows(xs[None], ys[None], p=2)[0])


@dataclass(frozen=True)
class ConvergenceSweepResult:
    """Recorded divergences across a (pool size, bandwidth) grid.

    Each cell carries the verbatim settings, all per-repetition divergences,
    and min/median/max dispersion per divergence kind. `epsilon` is recorded
    as None: the sweep runs Stage 1 only, no transport is involved.
    """

    preset: str
    d: int
    repetitions: int
    cells: list

    def median_series(self, metric="w1", bandwidth=None):
        """Median divergence per pool size, at one bandwidth (default: first)."""
        hs = sorted({c["bandwidth"] for c in self.cells})
        h = hs[0] if bandwidth is None else bandwidth
        picked = sorted(
            (c for c in self.cells if c["bandwidth"] == h), key=lambda c: c["n"]
        )
        return [c["n"] for c in picked], [c["summary"][metric]["median"] for c in picked]

    def to_rows(self):
        """Flat rows (one per cell and repetition) for external plotting."""
        rows = []
        for cell in self.cells:
            for rep in range(self.repetitions):
                row = {
                    "n": cell["n"],
                    "m": cell["m"],
                    "n_dagger": cell["n_dagger"],
                    "bandwidth": cell["bandwidth"],
                    "epsilon": cell["epsilon"],
                    "rep": rep,
                }
                for metric, vals in cell["divergences"].items():
                    row[metric] = vals[rep]
                rows.append(row)
        return rows


def _stage1_from_pool(pool, fit_ref, n_dagger, bandwidth, retain_fraction,
                      kde_fit_subsample, draw_uniforms):
    """Stage-1 resample of an already-drawn pool against a fitting reference.

    A capped persona fit uses the pool prefix: the pool rows are iid, so the
    prefix is a uniform subsample in distribution, and pools sharing a common
    prefix share the identical fitted model (see convergence_sweep).

    The draw maps pre-drawn uniforms through the inverse CDF of the retained
    weighted measure, with atoms in first-coordinate order, so the selected
    counts are Multinomial(n_dagger, probs) exactly as with a direct
    multinomial call, while cells fed the same uniforms are quantile-coupled:
    cells whose weighted measures are close produce close draws even when
    their retained atom sets differ.
    """
    pool_fit = pool
    if kde_fit_subsample is not None and pool.n > kde_fit_subsample:
        pool_fit = pool.take_rows(np.arange(kde_fit_subsample))

    human_model = fit_kde(fit_ref, bandwidth)
    persona_model = fit_kde(pool_fit, bandwidth)
    w = importance_weights(human_model, persona_model, pool,
                           query_in_source=pool_fit is not pool)
    kept = truncate_by_weight(w, retain_fraction)
    kept = kept[np.argsort(pool.values[kept, 0], kind="stable")]
    draw = _inverse_cdf(normalize_weights(w[kept]).probs, draw_uniforms)
    return pool.take_rows(kept[draw])


def convergence_sweep(
    preset="shifted-gaussian",
    n_grid=(1_000, 10_000, 100_000),
    d=1,
    m=2_000,
    n_dagger=1_000,
    bandwidth_grid=(0.2,),
    retain_fraction=0.7,
    repetitions=5,
    seed=0,
    reference_size=20_000,
    kde_fit_subsample=4_096,
    sw_projections=128,
):
    """Run Stage-1 resampling over a pool-size (and bandwidth) grid.

    Cells within a repetition are paired through common randomness: one
    master pool of size max(n_grid) is drawn per repetition and each cell's
    pool is its n-prefix (iid rows, so every prefix is a valid pool of its
    size); the KDE fitting reference and the evaluation reference are shared
    across cells, and a capped persona fit uses the pool prefix, so cells
    whose cap binds fit the identical model. The final draw reuses one
    uniform sample per repetition through each cell's inverse CDF, which
    keeps the per-cell marginal law exactly multinomial while coupling the
    draws. Across-N comparisons then isolate what pool size actually
    changes instead of re-rolling every noise source per cell.

    Divergences recorded against an independent reference draw of size
    reference_size: exact W1 and exact W2 for d=1, sliced Wasserstein always.
    """
    repetitions = _count(repetitions, "repetitions")
    if repetitions < 3:
        raise InvalidConfig(f"sweep needs >= 3 repetitions, got {repetitions}")
    if not n_grid:
        raise InvalidConfig("n_grid must be nonempty")
    n_grid = [_count(n, "n_grid entry") for n in n_grid]
    m, n_dagger, d = _count(m, "m"), _count(n_dagger, "n_dagger"), _count(d, "d")
    if kde_fit_subsample is not None:
        kde_fit_subsample = _count(kde_fit_subsample, "kde_fit_subsample")
    cells = [
        {
            "n": n,
            "m": m,
            "n_dagger": n_dagger,
            "bandwidth": float(h),
            "epsilon": None,
            "divergences": {"sw": [], **({"w1": [], "w2": []} if d == 1 else {})},
        }
        for h in bandwidth_grid
        for n in n_grid
    ]
    n_max = max(n_grid)
    for rep in range(repetitions):
        rep_base = derive_seed(seed, 0, rep)  # shared draws; cell ordinals start at 1
        master = sample_population(
            preset, n_max, d, derive_seed(rep_base, 1), role="pool"
        )
        fit_ref = sample_population(
            preset, m, d, derive_seed(rep_base, 2), role="reference"
        )
        eval_ref = sample_population(
            preset, reference_size, d, derive_seed(rep_base, 3), role="reference"
        )
        sw_seed = derive_seed(rep_base, 6)
        draw_uniforms = rng_from_seed(derive_seed(rep_base, 4)).random(n_dagger)
        for cell in cells:
            n = cell["n"]
            pool = master if n == n_max else master.take_rows(np.arange(n))
            resample = _stage1_from_pool(
                pool, fit_ref, n_dagger, cell["bandwidth"], retain_fraction,
                kde_fit_subsample, draw_uniforms,
            )
            div = cell["divergences"]
            div["sw"].append(
                sliced_wasserstein(
                    resample, eval_ref, n_projections=sw_projections, seed=sw_seed
                )
            )
            if d == 1:
                div["w1"].append(
                    wasserstein_1d(resample.values[:, 0], eval_ref.values[:, 0])
                )
                div["w2"].append(
                    wasserstein2_1d(resample.values[:, 0], eval_ref.values[:, 0])
                )
    for cell in cells:
        cell["summary"] = {
            k: {
                "min": float(np.min(v)),
                "median": float(np.median(v)),
                "max": float(np.max(v)),
            }
            for k, v in cell["divergences"].items()
        }
    return ConvergenceSweepResult(
        preset=preset, d=d, repetitions=repetitions, cells=cells
    )
