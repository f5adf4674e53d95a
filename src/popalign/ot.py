"""Entropic optimal transport alignment.

Stage 2 of the resampling pipeline: build the weighted squared-difference
cost matrix between retained candidates and the human sample, solve the
entropically regularized transport problem with Sinkhorn-Knopp, and read the
candidate weights off the plan's row marginals. A small-instance exact LP
solver is included as the oracle for the entropic approximation-gap checks.

Numerics
--------
The textbook multiplicative updates u <- a/(Kv), v <- b/(K^T u) under- and
overflow once eps is small relative to the cost spread. The solver here runs
those updates on the precomputed kernel but absorbs the scaling vectors into
log-domain potentials (f, g) whenever they leave [1e-100, 1e100], rebuilds the
tilted kernel exp(-C/eps + f_i + g_j) in place and continues from neutral scalings.
The fixed point is identical to a pure log-domain implementation while each
sweep stays a pair of matrix-vector products.

Those products are the whole cost of a sweep, so the solver saves sweeps. It
reads one sweep as a fixed-point map of the column log-scaling, x -> T(x) =
log(b / K^T (a / K e^x)), and extrapolates each new x from the last six
pairs (x, T(x)) by type-II Anderson acceleration (Walker & Ni 2011,
"Anderson acceleration for fixed-point iterations"): a regularized least
squares of at most 5 x 5 per sweep. The fixed point does not move. An
absorption, or a sweep whose residual |T(x) - x| rose, empties the memory,
and the next sweep is plain. Both marginal residuals are checked after
every sweep from the products it already holds. On the benchmark's tails-1d
inputs (seed 1, five sets) this takes 164 sweeps where over-relaxation took
405, and the hard instances of the tests from 509-2087 sweeps to 91-200.

batched_ot_weights solves Y's column batches one after another against the
same rows, in one n x m buffer: each batch's cost is written into it, and
sinkhorn builds that batch's kernel over it, so no second n x m array exists
while the sweeps run. Where the solve reads the cost again (an absorption or
a plan's gamma), it is regenerated from the distance operands that
cost_matrix kept, by the same row strips, so bit for bit.

The sweeps' products use both cores through OpenBLAS's own threads. The
passes that set a batch up run on both cores as the two row stripes of
core._striped_rows: the cost fill, each count pass of the exact median,
and the kernel build (divide, tilt and exp fused strip by strip). Each
strip's entries are computed as a serial pass computes them, and the
median is an exact order statistic, so no value depends on the stripes.

Each batch after the first starts where the batch before it stopped
(_WarmCost): from its row scaling raised to eps_{k-1}/eps_k (the row
potential eps log u carries over, and each batch has its own eps), with v
from one half-sweep; only log u carries over, and the acceleration starts
with an empty memory. One rule in sinkhorn takes or refuses the start: it is
taken when its u lies inside the absorption bounds and the half-sweep has no
zero entry, and a refused start begins exactly as a cold solve does. Only
the starting point changes, so the fixed point does not move: each batch
still runs until both of its marginal residuals are within tol.
"""

from dataclasses import dataclass, field
from functools import cached_property
import math
import mmap

import numpy as np

from .core import (
    AlignmentConfig,
    ItemWeights,
    _array_median,
    _count,
    _positive_real,
    _sq_dist_fill,
    _sq_dist_operands,
    _striped_rows,
    _two_samples,
)
from .errors import (
    DegenerateCostScale,
    DimensionMismatch,
    EmptyInput,
    InstanceTooLarge,
    InvalidConfig,
    NonPositiveEpsilon,
    NumericalCollapse,
    PopalignError,
    UnconvergedPlan,
)
from .sampling import _probabilities, multinomial_draw, normalize_weights

# absorption bounds for the scaling vectors; far inside double range
_ABSORB_HI = 1e100
_ABSORB_LO = 1e-100

_EXACT_GUARD = 10_000

# most bytes one transport instance may hold in live n x m float64 arrays:
# two for a caller's own cost (a direct cost_matrix, gibbs_kernel or sinkhorn
# call), the cost and its kernel; one for a scratch cost (a batch of
# batched_ot_weights), whose kernel is built over it, so criterion 5's
# largest batch (about 5.6k x 5k) needs 0.22 GB
_OT_BATCH_BYTES = 2 << 30

# Anderson acceleration of the sweeps: the most differences of (x, T(x))
# pairs in its least squares, and its Tikhonov weight relative to the
# current residual's squared length. Weighted so, an extrapolation whose
# differences have shrunk far below the residual (a stalled memory) fades
# into the plain sweep. On one of 34 random Student-t instances that plain
# sweeps solve in 2041, a weight of 1e-10 relative to the differences'
# Gram trace stalled at a marginal residual of 4e-4 for 5000 sweeps, and
# 1e-7 relative to the residual took 4775; 1e-5 takes 775
_ANDERSON_DEPTH = 5
_ANDERSON_REG = 1e-5


@dataclass(frozen=True)
class CostMatrix:
    """Nonnegative transport costs with the cached exact median entry.

    A cost that cost_matrix wrote into a caller's buffer (out) carries the
    distance operands it came from: it is a batch's scratch, whose values
    sinkhorn overwrites with the kernel, and _cost_values regenerates C from
    them wherever it is read again. Every other cost is only read.
    """

    values: np.ndarray
    median_cost: float
    _operands: tuple = field(default=None, kw_only=True, repr=False, compare=False)

    @property
    def shape(self):
        return self.values.shape


@dataclass(frozen=True)
class _WarmCost(CostMatrix):
    """A later batch's cost with the start that sinkhorn takes from the batch before it.

    log_u is the start's log row scaling.
    """

    log_u: np.ndarray


def _check_instance(shape, arrays=2):
    """Raise InstanceTooLarge unless `arrays` float64 arrays of this shape fit
    _OT_BATCH_BYTES: 2 for a cost and its kernel, 1 for a kernel built over
    its scratch cost."""
    live = arrays * 8 * math.prod(shape)
    if live > _OT_BATCH_BYTES:
        held = "two such float64 arrays (cost and kernel)" if arrays == 2 else (
            "one such float64 array (its kernel, built over its cost)"
        )
        raise InstanceTooLarge(
            f"a {' x '.join(map(str, shape))} transport instance holds {held}, "
            f"{live / 2**30:.1f} GiB, over the {_OT_BATCH_BYTES / 2**30:.0f} GiB budget; "
            f"solve it in column batches (batched_ot_weights) and lower ot_batch_size"
        )


def cost_matrix(X_dagger, Y, omega=None, out=None):
    """C_ij = sum_k omega_k (x_ik - y_jk)^2.

    omega defaults to all-ones. Each row strip of the centred quadratic
    expansion (core._sq_dist_fill) is written straight into C; tiny
    negatives from cancellation are clamped to 0.

    With out (a C-contiguous n x m float64 array), C is written into out and
    the cost is a solve's scratch (batched_ot_weights' one buffer): it keeps
    its distance operands, sinkhorn builds its kernel over out, and C is
    regenerated from the operands wherever it is read again.
    """
    X, Yv = _two_samples(X_dagger, Y, "candidate sample", "reference sample")
    d = X.shape[1]
    w = None
    if omega is not None:
        if not isinstance(omega, ItemWeights):
            omega = ItemWeights(omega)
        if omega.d != d:
            raise DimensionMismatch(f"{omega.d} item weights for dimension {d}")
        w = omega.weights

    _check_instance((X.shape[0], Yv.shape[0]), 2 if out is None else 1)
    ops = _sq_dist_operands(X, Yv, w)
    C = _sq_dist_fill(ops, np.empty((X.shape[0], Yv.shape[0])) if out is None else out)
    return CostMatrix(C, _array_median(C), _operands=None if out is None else ops)


def _cost_values(C, out=None):
    """The values of CostMatrix C: C.values itself, or for a scratch cost
    (one that keeps its _operands, whose values a solve overwrites) C written
    again into out (a fresh array if None) by cost_matrix's row strips, so
    bit for bit."""
    if C._operands is None:
        return C.values
    return _sq_dist_fill(C._operands, np.empty(C.shape) if out is None else out)


def _scratch(size):
    """A float64 buffer of `size` entries in an anonymous mapping of its own.

    Its pages go back to the system when its last view goes, whatever
    malloc has made of the heap. From np.empty, a buffer under malloc's
    raised mmap threshold (32 MiB at most) came from the heap, and a later
    call's buffer could miss a freed one that smaller allocations had split
    and left resident: four of fifteen 25 s runs of the benchmark's
    tails-1d then read 211-212 MB peak RSS, the others 181-183 MB, and 22
    runs with the mapping all read 182-184 MB (2-core VM).
    """
    if size == 0 or not hasattr(mmap, "MAP_PRIVATE"):  # no POSIX mmap
        return np.empty(size)
    mapping = mmap.mmap(-1, 8 * size, flags=mmap.MAP_PRIVATE)
    if hasattr(mmap, "MADV_HUGEPAGE"):
        mapping.madvise(mmap.MADV_HUGEPAGE)  # as numpy advises its large arrays
    return np.frombuffer(mapping, dtype=np.float64)


def _as_cost(C, over_scratch=False):
    """C itself if a CostMatrix, else the array as one with its exact median.

    The one cost gate: a cost that is not 2-d raises DimensionMismatch, an
    empty one EmptyInput. Every caller builds an n x m kernel or plan from
    it, so the instance budget (_check_instance) is checked next: for one
    kernel beside the cost, or none if over_scratch (sinkhorn, which builds
    its kernel over a scratch cost's own values) and C is a scratch cost.
    """
    scratch = isinstance(C, CostMatrix) and C._operands is not None
    arr = C.values if isinstance(C, CostMatrix) else np.asarray(C, dtype=np.float64)
    if arr.ndim != 2:
        raise DimensionMismatch(f"a cost must be 2-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise EmptyInput(f"the cost is empty (shape {arr.shape})")
    _check_instance(arr.shape, 1 if over_scratch and scratch else 2)
    if isinstance(C, CostMatrix):
        return C
    return CostMatrix(arr, _array_median(arr))


def _tilted_kernel(C, eps, f=None, g=None, out=None):
    """exp(-C/eps + f_i + g_j) for cost values C (f = g = 0 if omitted) in one
    n x m buffer, out if given (C itself for a kernel built over its cost).

    Divide, tilt and exp run strip by strip, while the strip is in cache,
    on the two row stripes of core._striped_rows; each entry is computed
    as a pass over the whole array computes it.
    """
    out = np.empty(C.shape) if out is None else out

    def build(strips):
        for lo, hi in strips:
            K = np.divide(C[lo:hi], -eps, out=out[lo:hi])
            if f is not None:
                K += f[lo:hi, None]
                K += g[None, :]
            np.exp(K, out=K)

    _striped_rows(C.shape, build)
    return out


def gibbs_kernel(C, epsilon):
    """K_ij = exp(-C_ij / epsilon) for the EFFECTIVE (absolute) epsilon.

    Mathematically every entry lies in (0, 1]; at double precision entries
    below ~exp(-745) round to 0, which sinkhorn() detects when a whole
    row/column dies.
    """
    C = _as_cost(C)
    eps = _positive_real(epsilon, "epsilon", NonPositiveEpsilon)
    out = np.empty(C.shape)
    return _tilted_kernel(_cost_values(C, out), eps, out=out)


def _check_marginal(p, size, name):
    """p as a strictly positive probability vector of length size (sampling._probabilities)."""
    if np.shape(p) != (size,):
        raise DimensionMismatch(f"{name} has shape {np.shape(p)}, expected ({size},)")
    return _probabilities(p, name, InvalidConfig, positive=True)


@dataclass(frozen=True)
class TransportPlan:
    """Entropic coupling with its targets, scalings, and convergence record.

    row_marginal is u * (Kt v) from the solver's last sweep. The n x m gamma =
    diag(scaling_u) K diag(scaling_v), K = gibbs_kernel(cost, epsilon), is
    built on first access and cached; a batch's cost, whose buffer holds its
    kernel or a later batch's cost by then, is regenerated for it. The
    scalings are centered (a constant shifted between log u and log v) to
    stay well inside double range.

    Diagnostics: absorb_count is the number of log-domain absorptions,
    anderson_resets the number of times the acceleration's memory was
    emptied (by an absorption or a rising residual), and residual_history
    the larger of the two marginal residuals after each sweep.
    """

    cost: CostMatrix
    row_marginal: np.ndarray
    row_marginal_target: np.ndarray
    col_marginal_target: np.ndarray
    scaling_u: np.ndarray
    scaling_v: np.ndarray
    iterations_run: int
    converged: bool
    epsilon: float
    row_residual: float
    col_residual: float
    absorb_count: int
    anderson_resets: int
    residual_history: np.ndarray

    @cached_property
    def gamma(self):
        with np.errstate(divide="ignore"):
            log_u, log_v = np.log(self.scaling_u), np.log(self.scaling_v)
        out = np.empty(self.cost.shape)
        return _tilted_kernel(_cost_values(self.cost, out), self.epsilon, log_u, log_v, out=out)


def _inside(w):
    """Whether every entry of the scaling w lies within the absorption bounds (False for NaN)."""
    return _ABSORB_LO <= w.min() and w.max() <= _ABSORB_HI


class _Anderson:
    """Type-II Anderson mixing for a fixed-point map x -> T(x) on R^m (Walker & Ni 2011).

    Holds the last _ANDERSON_DEPTH + 1 pairs (x, T(x)), oldest first, in the
    columns of two preallocated m x (_ANDERSON_DEPTH + 1) arrays. With
    residuals r = T(x) - x and the differences (dR, dT) of consecutive
    pairs, the next x is T(x_k) - dT gamma, where gamma minimizes
    |r_k - dR gamma|^2 + lambda |gamma|^2 with lambda = _ANDERSON_REG |r_k|^2.
    A pair whose residual is longer than the last pair's empties the memory
    first; resets counts the times a memory holding pairs was emptied.
    """

    def __init__(self, m):
        self.x = np.empty((m, _ANDERSON_DEPTH + 1), order="F")
        self.tx = np.empty((m, _ANDERSON_DEPTH + 1), order="F")
        self.size = self.resets = 0
        self.last = math.inf  # |r|^2 of the last pair

    def clear(self):
        self.resets += self.size > 0
        self.size = 0

    def push(self, x, tx):
        """Record the pair (x, T(x)); the extrapolated next x, or None while
        this pair is the memory's only one (or the least squares is singular)."""
        r = tx - x
        rr = float(r @ r)
        if rr > self.last:
            self.clear()
        self.last = rr
        if self.size == self.x.shape[1]:  # full: drop the oldest pair
            self.x[:, :-1] = self.x[:, 1:]
            self.tx[:, :-1] = self.tx[:, 1:]
            self.size -= 1
        self.x[:, self.size] = x
        self.tx[:, self.size] = tx
        self.size += 1
        if self.size == 1:
            return None
        T = self.tx[:, :self.size]
        dR = np.diff(T - self.x[:, :self.size], axis=1)
        A = dR.T @ dR
        A.flat[:: self.size] += _ANDERSON_REG * rr
        try:
            gamma = np.linalg.solve(A, dR.T @ r)
        except np.linalg.LinAlgError:
            return None
        return tx - np.diff(T, axis=1) @ gamma


def sinkhorn(C, a=None, b=None, epsilon=None, max_iters=250, tol=1e-6):
    """Solve entropic OT by Anderson-accelerated alternating scalings of one tilted kernel Kt.

    Kt is the only n x m array held; absorptions rebuild it in place. For a
    batch's scratch cost (cost_matrix's out) Kt is built over the cost itself,
    and C is regenerated into Kt wherever the solve reads it again, at an
    absorption. A caller's cost is never written.

    Each sweep is the fixed-point map x -> T(x) = log(b / Kt^T (a / Kt e^x))
    of the column log-scaling x = log v: u <- a / (Kt v), then v_hat <-
    b / (Kt^T u). Type-II Anderson acceleration (_Anderson) replaces log v_hat
    by the extrapolation from the last _ANDERSON_DEPTH + 1 pairs (x, T(x)),
    unless that leaves the absorption bounds; with one pair in the memory
    (the first sweep, and the sweep after the memory is emptied) the sweep
    is plain Sinkhorn. An absorption, or a sweep whose residual rose,
    empties the memory. The fixed point does not depend on the acceleration.

    A later batch of batched_ot_weights passes a _WarmCost, which starts
    from its u with v from one half-sweep (not counted in iterations_run).
    The start is taken only when that u lies inside the absorption bounds
    and the half-sweep Kt^T u is positive in every entry; otherwise the
    solve starts from u = v = 1, and its plan is sinkhorn's on the plain
    cost, bit for bit.

    Parameters
    ----------
    C : CostMatrix
    a, b : positive probability vectors (defaults: uniform over rows/columns).
    epsilon : float
        Effective (absolute) regularization strength.
    max_iters, tol : int, float
        Stop when both marginal residuals (inf-norm) fall to tol, or after
        max_iters sweeps. Both are checked after every sweep from products
        the sweep already holds: the row marginal is u * (Kt v), with the
        next sweep's Kt v, and the column marginal v * (Kt^T u), which is b
        up to rounding after a plain sweep.

    Raises
    ------
    NumericalCollapse
        When a full row/column of the (tilted) kernel underflows to zero, i.e.
        epsilon is too small for this cost scale at double precision. Kt is
        scanned for it only when a product Kt v or Kt^T u has an entry <= 0.
    """
    C = _as_cost(C, over_scratch=True)
    n, m = C.values.shape
    a = np.full(n, 1.0 / n) if a is None else _check_marginal(a, n, "row marginal a")
    b = np.full(m, 1.0 / m) if b is None else _check_marginal(b, m, "col marginal b")
    max_iters = _count(max_iters, "max_iters")
    tol = _positive_real(tol, "tol")
    eps = _positive_real(epsilon, "epsilon", NonPositiveEpsilon)

    f, g = np.zeros(n), np.zeros(m)  # absorbed log row/col potentials
    u, v, x = np.ones(n), np.ones(m), np.zeros(m)  # x = log v
    Kt = _tilted_kernel(C.values, eps, out=None if C._operands is None else C.values)
    memory = _Anderson(m)
    absorbs = 0
    history = []

    def absorb():
        # afterwards u = v = 1, so Kt v and Kt^T u are Kt's row and column sums
        nonlocal f, g, u, v, x, absorbs
        with np.errstate(divide="ignore"):
            f = f + np.log(u)
            g = g + np.log(v)
        _tilted_kernel(_cost_values(C, Kt), eps, f, g, out=Kt)
        u, v, x = np.ones(n), np.ones(m), np.zeros(m)
        absorbs += 1
        memory.clear()

    def rescued(product):
        # product() had an entry <= 0: underflowed scalings, or a dead row/column
        absorb()
        out = product()
        if (out <= 0.0).any():
            _raise_on_dead_axis(Kt, "tilted kernel" if f.any() or g.any() else "kernel")
        return out

    if isinstance(C, _WarmCost):
        # a refused start leaves u, v, x, f and g as the cold solve has them
        with np.errstate(over="ignore"):
            u_start = np.exp(C.log_u)
        if _inside(u_start):
            Ku = Kt.T @ u_start
            if (Ku > 0.0).all():
                u, v = u_start, b / Ku  # one half-sweep against the starting u
                x = np.log(v)
    Kv = Kt @ v
    for it in range(1, max_iters + 1):
        before = absorbs
        if (Kv <= 0.0).any():
            Kv = rescued(lambda: Kt @ v)
        u = a / Kv
        Ku = Kt.T @ u
        if (Ku <= 0.0).any():
            Ku = rescued(lambda: Kt.T @ u)
        v = b / Ku
        tx, plain = np.log(v), None
        inside = _inside(u) and _inside(v)
        # a sweep that absorbed mixes two tilts, and one that leaves the
        # bounds absorbs below: neither enters the memory. An extrapolation
        # is taken only inside the bounds, so it never absorbs
        if absorbs == before and inside:
            ext = memory.push(x, tx)
            if ext is not None:
                with np.errstate(over="ignore"):
                    v_ext = np.exp(ext)
                if _inside(v_ext):
                    plain, tx, v = (tx, v), ext, v_ext
        x = tx
        col_res = float(np.abs(v * Ku - b).max())

        if not inside:
            absorb()

        # the next sweep's Kv, and this sweep's row marginal
        Kv = Kt @ v
        row_marginal = u * Kv
        row_res = float(np.abs(row_marginal - a).max())
        if plain is not None and (max(row_res, col_res) <= tol or it == max_iters):
            # a plan is returned from the plain sweep, whose column marginal
            # is b up to rounding, so that its row marginal sums to 1; if that
            # plan has not converged, the solve goes on from the extrapolation
            x_plain, v_plain = plain
            Kv_plain = Kt @ v_plain
            rows = u * Kv_plain
            res = float(np.abs(rows - a).max()), float(np.abs(v_plain * Ku - b).max())
            if max(res) <= tol or it == max_iters:
                x, v, Kv, row_marginal, (row_res, col_res) = x_plain, v_plain, Kv_plain, rows, res
                plain = None
        history.append(max(row_res, col_res))
        if history[-1] <= tol and plain is None:
            break
    converged = row_res <= tol and col_res <= tol

    with np.errstate(divide="ignore"):
        log_u = f + np.log(u)
        log_v = g + np.log(v)
    # center the potentials: shift constant mass between log u and log v
    shift = 0.5 * ((log_u.max() + log_u.min()) - (log_v.max() + log_v.min())) / 2.0
    log_u -= shift
    log_v += shift

    return TransportPlan(
        cost=C,
        row_marginal=row_marginal,
        row_marginal_target=a,
        col_marginal_target=b,
        scaling_u=np.exp(log_u),
        scaling_v=np.exp(log_v),
        iterations_run=it,
        converged=converged,
        epsilon=eps,
        row_residual=row_res,
        col_residual=col_res,
        absorb_count=absorbs,
        anderson_resets=memory.resets,
        residual_history=np.array(history),
    )


def _raise_on_dead_axis(K, label):
    rows_alive = K.any(axis=1)
    if not rows_alive.all():
        i = int(np.flatnonzero(~rows_alive)[0])
        raise NumericalCollapse(
            f"row {i} of the {label} underflowed to all zeros", axis="row", index=i
        )
    cols_alive = K.any(axis=0)
    if not cols_alive.all():
        j = int(np.flatnonzero(~cols_alive)[0])
        raise NumericalCollapse(
            f"column {j} of the {label} underflowed to all zeros", axis="col", index=j
        )


def transport_cost(plan, C):
    """<C, gamma>: the transport cost of the plan under cost matrix C.

    The shape is checked against the plan's scalings, before gamma is built.
    """
    shape = (plan.scaling_u.size, plan.scaling_v.size)
    if np.shape(C) != shape:
        raise DimensionMismatch(f"cost shape {np.shape(C)} does not match plan shape {shape}")
    _check_instance(shape)
    vals = _cost_values(C) if isinstance(C, CostMatrix) else np.asarray(C, dtype=np.float64)
    return float(np.sum(vals * plan.gamma))


def _require_converged(plan, iters, tol):
    """Raise UnconvergedPlan unless plan converged, naming its sweep budget
    `iters` and its tolerance `tol`, the two knobs that decide convergence."""
    if not plan.converged:
        raise UnconvergedPlan(
            f"plan stopped at iteration {plan.iterations_run} with residuals "
            f"({plan.row_residual:.3e}, {plan.col_residual:.3e}); raise {iters} "
            f"or {tol}"
        )


def ot_weights(plan):
    """Candidate weights: a copy of plan.row_marginal (gamma is never built).

    An unconverged plan is refused with UnconvergedPlan naming sinkhorn's
    max_iters and tol: silently consuming a half-converged plan corrupts the
    resampling weights. Its row marginal stays public as plan.row_marginal.
    """
    _require_converged(plan, "max_iters", "tol")
    return plan.row_marginal.copy()


def resample_ot(weights, n_final, seed):
    """Final aligned draw: multinomial(n_final) over the normalized weights."""
    return multinomial_draw(normalize_weights(weights), n_final, seed)


def batched_ot_weights(X_dagger, Y, config):
    """(weights, details): transport weights for X_dagger against Y, solved
    in column batches, and one convergence record per batch.

    Y is split into contiguous batches of at most config.ot_batch_size rows;
    each batch is solved with b uniform over the batch and the full X_dagger
    on the row side, using effective epsilon = config.epsilon * (that batch's
    median cost), or config.epsilon_absolute in every batch when it is set.
    Per-batch row marginals are averaged with weights proportional to batch
    sizes, so a single batch reproduces the unbatched result exactly and the
    total still sums to 1.

    The call holds one n x m array: one buffer of n x min(ot_batch_size, m)
    float64 (_scratch), allocated once, into whose prefix each batch's cost
    is written (cost_matrix's out) and over which sinkhorn builds that
    batch's kernel. A buffer for each batch instead left the freed one split
    by smaller allocations, so each batch mapped new memory (212 MB peak RSS
    on the benchmark's tails-1d, against 183 MB with one buffer; 2-core VM).
    The fill, the median's count passes and the kernel build run on two row
    stripes (core._striped_rows), which add no n x m array.

    Each batch after the first is handed where the batch before it stopped
    (_WarmCost): its row scaling u raised to eps_{k-1}/eps_k, since the rows
    and their potential eps log u are the same while eps follows each
    batch's median cost. Only log u carries over: the acceleration's memory
    starts empty in every batch. sinkhorn alone decides whether to take that
    start (outside the absorption bounds, or with a zero in its half-sweep,
    the batch starts cold). The start moves no fixed point: each batch still
    runs until both of its marginal residuals are within config.sinkhorn_tol.

    The budget (_check_instance) is charged for the one buffer, not for a
    cost and a kernel side by side.

    A batch whose median cost is 0 raises DegenerateCostScale unless
    config.epsilon_absolute is set. A batch that does not converge within
    config.sinkhorn_iters sweeps raises UnconvergedPlan naming
    sinkhorn_iters and sinkhorn_tol. Either error, like every PopalignError
    of a batch, carries its index as `batch`. Empty samples raise EmptyInput.
    """
    if not isinstance(config, AlignmentConfig):
        raise InvalidConfig("batched_ot_weights needs an AlignmentConfig")
    Xv, Yv = _two_samples(X_dagger, Y, "candidate sample", "reference sample")
    n = Xv.shape[0]
    m_total = Yv.shape[0]
    bs = config.ot_batch_size
    _check_instance((n, min(bs, m_total)), 1)
    buf = _scratch(n * min(bs, m_total))

    weights = np.zeros(n)
    details = []
    a = np.full(n, 1.0 / n)
    start = None  # (log u, epsilon) where the last batch stopped
    for bi, lo in enumerate(range(0, m_total, bs)):
        hi = min(lo + bs, m_total)
        m_b = hi - lo
        try:
            C_b = cost_matrix(Xv, Yv[lo:hi], config.item_weights, buf[:n * m_b].reshape(n, m_b))
            if config.epsilon_absolute is not None:
                eff = config.epsilon_absolute
            elif C_b.median_cost > 0:
                eff = config.epsilon * C_b.median_cost
            else:
                raise DegenerateCostScale("batch median cost is 0; set epsilon_absolute to proceed")
            if start is not None:
                log_u, eps_prev = start
                C_b = _WarmCost(
                    C_b.values, C_b.median_cost, log_u * (eps_prev / eff),
                    _operands=C_b._operands,
                )
            plan = sinkhorn(
                C_b,
                a,
                np.full(m_b, 1.0 / m_b),
                epsilon=eff,
                max_iters=config.sinkhorn_iters,
                tol=config.sinkhorn_tol,
            )
            _require_converged(plan, "sinkhorn_iters", "sinkhorn_tol")
        except PopalignError as e:
            e.batch = bi
            e.args = (f"batch {bi} (columns {lo}:{hi}): {e.args[0]}",) + e.args[1:]
            raise
        weights += (hi - lo) / m_total * plan.row_marginal
        details.append(
            {
                "batch": bi,
                "rows": n,
                "cols": hi - lo,
                "effective_epsilon": eff,
                "iterations": plan.iterations_run,
                "converged": plan.converged,
                "row_residual": plan.row_residual,
                "col_residual": plan.col_residual,
            }
        )
        with np.errstate(divide="ignore"):
            start = (np.log(plan.scaling_u), eff)
        # a plan whose gamma was built must not hold it through the next batch
        del C_b, plan
    return weights, details


def exact_ot_small(C, a, b):
    """Exact unregularized OT on small instances via an exact LP method.

    Guarded to n*m <= 10,000 entries. Returns (exact cost, minimizing plan).
    """
    # imported here so that `import popalign` loads no scipy (see kde.log_density)
    from scipy import sparse
    from scipy.optimize import linprog

    C = _as_cost(C)
    n, m = C.values.shape
    if n * m > _EXACT_GUARD:
        raise InstanceTooLarge(f"{n}x{m} = {n * m} entries exceeds the {_EXACT_GUARD} guard")
    a = _check_marginal(a, n, "row marginal a")
    b = _check_marginal(b, m, "col marginal b")

    A_eq = sparse.vstack(
        [
            sparse.kron(sparse.eye(n), np.ones((1, m)), format="csr"),
            sparse.kron(np.ones((1, n)), sparse.eye(m), format="csr"),
        ],
        format="csr",
    )
    b_eq = np.concatenate([a, b])
    res = linprog(
        C.values.ravel(),
        A_eq=A_eq,
        b_eq=b_eq,
        bounds=(0, None),
        method="highs",
    )
    if not res.success:
        raise PopalignError(f"exact transport LP failed: {res.message}")
    plan = res.x.reshape(n, m)
    plan[np.abs(plan) < 1e-15] = 0.0
    np.maximum(plan, 0.0, out=plan)
    return float(res.fun), plan
