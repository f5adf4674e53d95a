"""Shared domain types, pool validation, distance blocks and exact medians.

Responses are stored as 64-bit floats regardless of the source scale; all
downstream math is continuous. Types are immutable after construction and safe
to share across threads.

One squared-distance kernel serves the KDE, the transport cost and MMD:
`_sq_dist_operands` prepares the centred, augmented operands and
`_sq_dist_tile` is the product for one (rows, columns) tile. Two drivers
walk it: `_sq_dist_blocks` in full-width row strips for cross pairs, and
`_self_tiles` in square upper-triangle tiles for a sample's own pairs.
`_floored_exp` is the kernels' one clamp-and-exp.

One row partition (`_row_strips`) cuts an n x m array into those strips,
and `_striped_rows` runs a pass over it as two fixed stripes of strips on
both cores (parallel.run_pair). A transport batch's three set-up passes
over its n x m buffer run so: the cost fill (`_sq_dist_fill`, which writes
every strip into one matrix), the cost median's count pass
(`_array_median`) and the kernel build (ot._tilted_kernel). A strip's
entries do not depend on the stripe or thread that computes them.

Two medians are exact selections through `_exact_median`, never a sort of
the whole list, and return np.median's value bit for bit: the transport
cost median (`_array_median`, which scales Stage 2's epsilon; each count
pass runs on the two stripes) and the MMD bandwidth's median heuristic
(`_median_pairwise_distance`; serial, as it runs inside the metrics pair).
The latter takes one pass over the sample's own tiles when the first
bracket holds the middle ranks (inputs up to about 11k rows), in about 25
MiB at most for any n. At d = 1 the distances are the gaps of the sorted
sample: one searchsorted over it counts every bracket, and the values
inside are index ranges (`_sorted_pass`; the selection idea of Croux &
Rousseeuw 1992).
"""

import functools
import math
import numbers
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import (
    DimensionMismatch,
    DuplicateId,
    EmptyInput,
    InvalidConfig,
    NonFiniteValue,
    NonPositiveEpsilon,
)
from .parallel import run_pair
from .rng import _as_uint64, _integer, rng_from_seed

# cap on elements per cross row strip (_sq_dist_blocks): 2^17 float64 is 1
# MB, so a strip stays in cache through the several passes each caller
# makes over it
_BLOCK_ELEMS = 1 << 17
# but at least this many rows: each product packs all of its Y columns, and
# against more than 16k columns (a KDE fit on a large subsample, queried at
# every pool row) the 1 MB cap alone leaves strips of 1 to 7 rows; a 2-row
# strip against 50k columns cost 1.7 ns per entry in the product alone, a
# 21-row one 0.5 ns (d=5, 2-core VM, OpenBLAS 0.3.31)
_BLOCK_MIN_ROWS = 8
# side of the square tiles that _self_tiles cuts X's own pairs into: a 256
# x 256 float64 tile is 512 KB, and its product packs only its own 256
# columns, however many rows X has
_TILE = 256
# _floored_exp floors its arguments here: exp(-700) ~ 9.9e-305 is still a
# normal double, and numpy's exp leaves its fast path below about -708 (0.9
# ns an element near -700, 16 at -708, 127 at -720; 2-core VM)
_EXP_FLOOR = -700.0
# rows and columns of the grid of entries that decides whether a block is floored
_FLOOR_PROBE = 16

# exact median selection (_exact_median), shared by the MMD bandwidth's
# median heuristic and the transport cost median
_MEDIAN_STREAM = 0x6D656469616E  # "median"
# seeded values drawn for the first bracket
_MEDIAN_SAMPLE = 1 << 16
# bracket half-width, in standard deviations of a sample quantile
_MEDIAN_Z = 4.0
# most values a pass keeps inside its bracket: 8 MiB of float64
_MEDIAN_CAP = 1 << 20
# entries of Z that _pair_sample gathers at a time for each side of its
# pairs: 128 KB of float64, reused for every chunk
_PAIR_CHUNK = 1 << 14


def _sq_dist_operands(X, Y=None, w=None, scale=1.0):
    """(A, B, clamp): the augmented operands behind every squared-distance product.

    A[r] @ B[c].T is scale * D for D[i, j] = sum_k w_k (X[i, k] - Y[j, k])^2
    over rows r of X and c of Y (Y = X without Y), and clamp(that, 0) undoes
    the rounding below 0 (above, for scale < 0). w defaults to all ones;
    scale is nonzero. This is the one preparation step; _sq_dist_tile is the
    one product, which _sq_dist_blocks (cross pairs, row strips) and
    _self_tiles (X's own pairs, square tiles) drive.

    Both operands are first centred on the mean of Y, which moves no
    distance, so the expansion ||x||^2 + ||y||^2 - 2 x.y cancels only the
    spread of the data, not its offset: on psychometric T-scores (offset
    ~50) the uncentred expansion lost the dense KDE's 1e-12 agreement with a
    per-row evaluation (4.6e-11 at desk sizes), and at offset 1e3 it was off
    by 3e-8. Where the centred squared norms are large enough that the
    expansion can overflow (inf - inf = nan), NonFiniteValue is raised here,
    before any product. The operands are then augmented to
    [x w (-2 scale), scale x2, scale] and [y, 1, y2] (x2, y2 the weighted
    squared norms), so one matrix product gives scale * D with no
    temporaries and no separate scaling pass. The two augmented operands
    are distinct arrays even for X's own pairs, so BLAS runs gemm, not the
    syrk that X @ X.T selects (about 3x slower per entry).
    """
    sym = Y is None
    if sym:
        Y = X
    shift = Y.mean(axis=0)
    Yc, Yw, y2 = _centred(Y, shift, w)
    _, Xw, x2 = (Yc, Yw, y2) if sym else _centred(X, shift, w)
    _check_sq_norms(x2, y2)
    A = np.column_stack([Xw * (-2.0 * scale), x2 * scale, np.full(x2.size, float(scale))])
    B = np.column_stack([Yc, np.ones(y2.size), y2])
    return A, B, np.maximum if scale > 0 else np.minimum


def _sq_dist_tile(ops, rows, cols, out=None):
    """scale * D for the rows `rows` of X against the rows `cols` of Y (two
    slices) from _sq_dist_operands' ops, clamped in place at 0 against
    rounding; written to, and returned as, out if given."""
    A, B, clamp = ops
    D = np.matmul(A[rows], B[cols].T, out=out)
    clamp(D, 0.0, out=D)
    return D


def _stripe(k):
    """The stripe (0 or 1) of row strip or tile row k: 0, 1, 1, 0, 0, 1, 1, 0, ...

    Tile row k of n holds n - k tiles, so plain alternation would give
    stripe 0 about n / 2 tiles more; in each run of four rows from a
    multiple of four, both stripes get the same number of tiles.
    """
    return (k ^ (k >> 1)) & 1


def _row_strips(n, m, stripe=None):
    """(lo, hi) of the row strips of an n x m array, in order.

    A strip holds at most _BLOCK_ELEMS entries, but at least _BLOCK_MIN_ROWS
    rows; with stripe (0 or 1), only the strips k with _stripe(k) == stripe.
    The one row partition of the cross pairs (_sq_dist_blocks) and of the
    striped passes over an n x m array (_striped_rows).
    """
    block = max(_BLOCK_MIN_ROWS, _BLOCK_ELEMS // max(1, m))
    for k, lo in enumerate(range(0, n, block)):
        if stripe is None or _stripe(k) == stripe:
            yield lo, min(lo + block, n)


def _striped_rows(shape, work):
    """(work(strips 0), work(strips 1)): one pass over an array of `shape`
    (n x m) as its two fixed stripes.

    strips s is the list of _row_strips(n, m, s). The two run as one
    parallel.run_pair, so on both cores; with a single strip (stripe 1
    empty) both run inline, stripe 0 first. work must write only its own
    strips' rows and keep its own results, which the caller combines in
    stripe order. A strip's entries are the same whichever stripe or thread
    computes them, so an elementwise pass gives the serial pass's bits.
    """
    n, m = shape
    first, second = (list(_row_strips(n, m, s)) for s in (0, 1))
    if not second:
        return work(first), work(second)
    return run_pair(lambda: work(first), lambda: work(second))


def _sq_dist_blocks(ops, stripe=None):
    """Yield (lo, hi, D): rows lo:hi of X against every row of Y (cross pairs).

    D is _sq_dist_tile's block for those rows, for each of _row_strips (with
    stripe, of that stripe only). Every strip is written to one buffer,
    which the next strip overwrites, so a caller is done with (or copies)
    each strip before it asks for the next (see _self_tiles).

    Strips are cache-sized because every caller passes over a strip
    several times (exp and sums in the KDE and MMD), and each pass over a
    block larger than the cache streams it through main memory; the cross
    KDE's row-max shift needs whole rows. The row partition matters for the
    last bit: BLAS may round a product row differently in blocks of
    different heights (a 1-row block runs as a matrix-vector product).
    """
    A, B, _ = ops
    n, m = A.shape[0], B.shape[0]
    buf = None
    for lo, hi in _row_strips(n, m, stripe):
        if buf is None:  # the first strip is the tallest
            buf = np.empty((hi - lo) * m)
        dest = buf[:(hi - lo) * m].reshape(hi - lo, m)
        yield lo, hi, _sq_dist_tile(ops, slice(lo, hi), slice(None), dest)


def _sq_dist_fill(ops, out):
    """out (n_X x n_Y), every row strip of _sq_dist_blocks(ops) written into it.

    Each strip's product goes straight into its own rows of out, on the two
    stripes of _striped_rows. The strips are the same wherever out lies and
    whichever thread fills them, so a cost matrix that a solve overwrote is
    regenerated from its operands bit for bit.
    """

    def fill(strips):
        for lo, hi in strips:
            _sq_dist_tile(ops, slice(lo, hi), slice(None), out[lo:hi])

    _striped_rows(out.shape, fill)
    return out


def _self_tiles(ops, stripe=None):
    """Yield (rows, cols, D) over the upper square tiles of X's own pairs.

    ops are _sq_dist_operands(X, None, ...). rows and cols are slices of at
    most _TILE rows of X, and D is _sq_dist_tile's block for them. Tile row
    k holds the rows from k _TILE, against the columns from its own first
    row to the end; a caller counts each pair i < j once from the tile
    above the diagonal that holds it, and a diagonal tile (cols == rows)
    holds both orders of its own pairs. The order is fixed: tile rows
    ascending, and within one, columns ascending; with stripe (0 or 1),
    only the tile rows k with _stripe(k) == stripe.

    The one walk over X's own pairs: the self-KDE, MMD's within-sample terms
    and the median heuristic. Square tiles stay in cache through every pass
    a caller makes over them, where a full-width row strip of a large X
    does not. Every tile is written to one buffer, which the next tile
    overwrites, so a caller is done with (or copies) each tile before it
    asks for the next: a fresh array for each tile cost a third of the
    products' time at 6k rows (41 against 28 ms, one BLAS thread, 2-core
    VM), most of it in page faults on the new memory.
    """
    n = ops[0].shape[0]
    buf = np.empty(min(_TILE, n) ** 2)
    for k, lo in enumerate(range(0, n, _TILE)):
        if stripe is None or _stripe(k) == stripe:
            rows = slice(lo, min(lo + _TILE, n))
            for c in range(lo, n, _TILE):
                cols = slice(c, min(c + _TILE, n))
                h, w = rows.stop - rows.start, cols.stop - cols.start
                yield rows, cols, _sq_dist_tile(ops, rows, cols, buf[:h * w].reshape(h, w))


def _floored_exp(K):
    """exp(K) in place for a 2-d block K, below _EXP_FLOOR as if at it; returns K.

    The one clamp-and-exp of the distance kernels (the dense KDE and MMD).
    A floored entry becomes exp(_EXP_FLOOR) < 1e-304 instead of a smaller
    value or 0; every result that it enters also holds a term of at least
    e^-600 (a self term 1, a cross row's largest term, or in MMD the
    diagonal of a within-sample mean), against which fewer than e^100 of
    either round away, so the floor moves no result's bits and decides only
    speed. The floor pass costs about 0.5 ns an element and an entry left
    below it about 130 ns, so K is floored only when one of the entries on
    a fixed grid of about _FLOOR_PROBE x _FLOOR_PROBE of its positions lies
    below the floor: a block made mostly of far pairs (a tail query's row)
    is floored, and one with a few far entries leaves those few to exp's
    slow path.
    """
    probe = K[::max(1, K.shape[0] // _FLOOR_PROBE), ::max(1, K.shape[1] // _FLOOR_PROBE)]
    if probe.min(initial=0.0) < _EXP_FLOOR:
        np.maximum(K, _EXP_FLOOR, out=K)
    return np.exp(K, out=K)


def _centred(M, shift, w=None):
    """(Mc, Mw, m2): M - shift, its copy weighted by w (Mc itself without w),
    and the weighted squared norms sum_k w_k Mc_ik^2 of its rows."""
    Mc = M - shift
    Mw = Mc if w is None else Mc * w
    return Mc, Mw, np.einsum("ij,ij->i", Mw, Mc)


def _check_sq_norms(x2, y2):
    """Raise NonFiniteValue if squared distances between points of centred squared
    norms x2 and y2 can overflow float64 (the expansion would hold inf - inf)."""
    if not np.isfinite(2.0 * (np.max(x2, initial=0.0) + np.max(y2, initial=0.0))):
        raise NonFiniteValue(
            "squared distances overflow float64; rescale the samples"
        )


def _partition(values, kth):
    """Partition `values` in place at each of the ascending, distinct ranks kth.

    The same order statistics as values.partition(kth), one rank at a time
    on the part above the last: numpy 2.4's partition at two ranks took 2.5
    to 4 times as long on 65k to 1M float64 values (2-core x86-64 VM).
    """
    lo = 0
    for k in kth:
        values[lo:].partition(k - lo)
        lo = k + 1


def _pivots(sample, lo_rank, hi_rank, n_range, lo_val, hi_val):
    """Bracket (a, b) for ranks lo_rank..hi_rank of the n_range values in [lo_val, hi_val].

    `sample` is a sample of those values, partitioned in place; a and b are
    its order statistics _MEDIAN_Z standard deviations outside the targets'
    positions, or just outside the range where the sample runs out. A non-empty sample always
    gives at least one pivot that is a sampled value.
    """
    m = sample.size
    spread = _MEDIAN_Z * np.sqrt(m) / 2.0 + 1.0
    i = int(np.floor(m * lo_rank / n_range - spread))
    j = int(np.ceil(m * (hi_rank + 1) / n_range + spread))
    if m and i < 0 and j >= m:
        j = m - 1
    _partition(sample, [k for k in (i, j) if 0 <= k < m])
    a = sample[i] if i >= 0 else math.nextafter(lo_val, -math.inf)
    b = sample[j] if j < m else math.nextafter(hi_val, math.inf)
    return float(a), float(b)


def _bracket_pass(parts, a, b):
    """One pass over the value arrays `parts` against the bracket (a, b).

    Returns the counts of values < a, <= a, < b and <= b, the kept values
    strictly inside (a, b), their stride: 1 when every such value was
    kept, else k > 1 for every k-th of them in pass order, a systematic
    sample that stays under _MEDIAN_CAP, and the count of unordered values
    (NaN), which are neither < a nor >= a. Needs a <= b unless the values
    hold a NaN; a NaN pivot (drawn from such values) still counts at least
    one unordered value.
    """
    lt_a = eq_a = eq_b = le_b = seen = unordered = 0
    kept, size, stride = [], 0, 1
    for part in parts:
        from_a, upto_b = part >= a, part <= b
        n_from_a, n_upto_b = np.count_nonzero(from_a), np.count_nonzero(upto_b)
        closed = part[np.logical_and(from_a, upto_b, out=from_a)]
        below_a = n_upto_b - closed.size  # a <= b: every value < a is <= b
        lt_a += below_a
        le_b += n_upto_b
        unordered += part.size - n_from_a - below_a
        eq_a += np.count_nonzero(closed == a)
        eq_b += np.count_nonzero(closed == b)
        inside = closed[(closed > a) & (closed < b)]
        first, seen = -seen % stride, seen + inside.size
        if stride > 1:
            inside = inside[first::stride].copy()
        kept.append(inside)
        size += inside.size
        while size > _MEDIAN_CAP:
            # keep entries 0, 2k, 4k, ... of the inside values seen so far
            kept = [np.concatenate(kept)[::2].copy()]
            size, stride = kept[0].size, 2 * stride
    counts = (lt_a, lt_a + eq_a, le_b - eq_b, le_b)
    return counts, np.concatenate(kept) if kept else np.empty(0), stride, unordered


def _merged_passes(first, second):
    """One _bracket_pass result from those of two passes over disjoint values.

    The counts add. The kept values go in order, first's then second's,
    each thinned to the larger of the two strides (strides are powers of
    two), and halved again while they number more than _MEDIAN_CAP: a
    systematic sample of each pass's inside values, as one pass keeps.
    """
    stride = max(first[2], second[2])
    kept = np.concatenate([part[1][::stride // part[2]] for part in (first, second)])
    while kept.size > _MEDIAN_CAP:
        kept, stride = kept[::2].copy(), 2 * stride
    counts = tuple(x + y for x, y in zip(first[0], second[0]))
    return counts, kept, stride, first[3] + second[3]


@functools.lru_cache(maxsize=2)
def _pivot_pairs(n, m):
    """_MEDIAN_SAMPLE seeded index pairs (i, j), i uniform on [0, n), j on [0, m).

    The one draw behind _exact_median's first pivots (the transport cost
    median and the MMD bandwidth's median heuristic); int32 indices keep
    the sample's set-up at 1 MiB. The selection is exact for any pivots.
    The draw depends on (n, m) alone, and a job repeats its shapes (both
    transport batches, then both metric reports, whose pooled shape a
    workload's jobs share), so the last two draws are kept, 1 MiB in all,
    read-only, as every caller shares them.
    """
    rng = rng_from_seed(0, stream=(_MEDIAN_STREAM,))
    i = rng.integers(0, n, _MEDIAN_SAMPLE, dtype=np.int32)
    j = rng.integers(0, m, _MEDIAN_SAMPLE, dtype=np.int32)
    i.flags.writeable = j.flags.writeable = False
    return i, j


def _exact_median(count_pass, total, sample):
    """The middle value(s) of `total` values, exactly as np.median selects them.

    `count_pass(a, b)` makes one pass over the values (total >= 1) and
    returns what _bracket_pass returns for them: _bracket_pass itself over
    values in arrays, or _sorted_pass over a sorted 1-d sample's gaps;
    `sample` is a seeded sample of the values. Returns the
    value at rank (total - 1) // 2 and, when total is even, the one at rank
    total // 2, so np.mean of the result (of its sqrt, for distances) is
    np.median's value bit for bit, without ever holding the whole list;
    values with a NaN give [nan] after one pass, as np.median gives nan.

    Pivots from the sample give a bracket; one pass counts the values below
    it and keeps those inside, and np.partition picks the middle ranks among
    them. When a middle rank falls outside the bracket, or the bracket holds
    more than _MEDIAN_CAP values, another pass narrows it, with pivots from
    that pass's strided copy of the bracket (or its whole range). Memory is
    the sample, and one part and at most about 2.5 _MEDIAN_CAP kept values
    for each _bracket_pass running at once (two in a striped pass, whose
    merged result keeps at most _MEDIAN_CAP). The first bracket holds
    about _MEDIAN_Z / sqrt(sample size) of the values
    (1.6% at 2^16 samples); a further pass draws its pivots from at least
    _MEDIAN_CAP / 2 sampled values, for a bracket about 180 times narrower.
    """
    ranks = sorted({(total - 1) // 2, total // 2})
    # the unresolved ranks lie among the n_range values in [lo_val, hi_val],
    # which hold ranks below .. below + n_range - 1
    lo_val, hi_val, below, n_range = -math.inf, math.inf, 0, total
    found = {}
    while True:
        todo = [k for k in ranks if k not in found]
        a, b = _pivots(sample, todo[0] - below, todo[-1] - below, n_range, lo_val, hi_val)
        (lt_a, le_a, lt_b, le_b), kept, stride, unordered = count_pass(a, b)
        if unordered:
            return [math.nan]  # np.median of values with a NaN
        # rank segments: < a, == a, inside (a, b), == b, > b
        starts = (below, lt_a, le_a, lt_b, le_b)
        ends = (lt_a, le_a, lt_b, le_b, below + n_range)
        seg = {k: next(s for s in range(4, -1, -1) if k >= starts[s]) for k in todo}
        inside = [k for k in todo if seg[k] == 2]
        if inside and stride == 1:
            _partition(kept, [k - le_a for k in inside])
            found.update((k, kept[k - le_a]) for k in inside)
        found.update((k, a) for k in todo if seg[k] == 1)
        found.update((k, b) for k in todo if seg[k] == 3)
        todo = [k for k in todo if k not in found]
        if not todo:
            return [found[k] for k in ranks]
        s0, s1 = seg[todo[0]], seg[todo[-1]]
        lo_val = (lo_val, a, math.nextafter(a, math.inf), b, math.nextafter(b, math.inf))[s0]
        hi_val = (math.nextafter(a, -math.inf), a, math.nextafter(b, -math.inf), b, hi_val)[s1]
        below, n_range = starts[s0], ends[s1] - starts[s0]
        sample = kept if s0 == s1 == 2 else np.empty(0)


def _array_median(C):
    """np.median(C), bit for bit, without the copy of C that np.median sorts.

    The transport cost median: _exact_median's first pivots are at
    _pivot_pairs' seeded rows and columns, and each count pass reads C's
    row strips on the two stripes of _striped_rows (C taken as rows of its
    last axis), one _bracket_pass each, merged by _merged_passes. The
    selection is exact for any pivots, so the stripes move no bit.
    """
    if C.size == 0:
        return float(np.mean(C))  # nan, with np.median's warning
    V = C.reshape(-1, C.shape[-1]) if C.ndim > 1 else C.reshape(1, -1)
    i, j = _pivot_pairs(*V.shape)
    sample = V[i, j]
    del i, j

    def count_pass(a, b):
        return _merged_passes(*_striped_rows(
            V.shape, lambda strips: _bracket_pass((V[lo:hi] for lo, hi in strips), a, b)
        ))

    return float(np.mean(_exact_median(count_pass, V.size, sample)))


def _pair_sample(Z):
    """The values _median_pairwise_distance selects from, for _pivot_pairs'
    seeded pairs i != j (uniform over pairs): distances at d = 1, else squared.

    The pairs are gathered and differenced in chunks of _PAIR_CHUNK entries
    over one reused buffer, each row as the whole gather computes it: two
    fresh 2.6 MB gathers page-faulted on every call (3.2k x 5: 4.7 ms and
    about 1250 minor faults a call, against 1.5 ms and none; 2-core VM).
    np.take, not Z[i]: numpy's fancy indexing gathers through int32 indices
    1.5-2x slower; the indices are in range, so mode="clip" spares take its
    buffered copy of out.
    """
    i, j = _pivot_pairs(Z.shape[0], Z.shape[0] - 1)
    j = j + (j >= i)
    d = Z.shape[1]
    rows = min(i.size, max(1, _PAIR_CHUNK // d))
    sample = np.empty(i.size, dtype=Z.dtype)
    buf = np.empty((2, rows, d), dtype=Z.dtype)
    for lo in range(0, i.size, rows):
        hi = min(lo + rows, i.size)
        diff, other = buf[0, :hi - lo], buf[1, :hi - lo]
        np.take(Z, i[lo:hi], axis=0, out=diff, mode="clip")
        diff -= np.take(Z, j[lo:hi], axis=0, out=other, mode="clip")
        if d == 1:
            np.abs(diff[:, 0], out=sample[lo:hi])
        else:
            np.einsum("ij,ij->i", diff, diff, out=sample[lo:hi])
    return sample


def _upper_distances(ops):
    """One pass over the squared distances i < j of X, from _self_tiles(ops)."""
    triangles = {}
    for rows, cols, d2 in _self_tiles(ops):
        if cols != rows:
            yield d2
            continue
        # a diagonal tile holds both orders of its own pairs: only its
        # strict upper triangle counts, gathered by flat index
        k = d2.shape[0]
        if k not in triangles:
            triangles[k] = np.flatnonzero(np.triu(np.ones((k, k), dtype=bool), 1))
        yield np.take(d2, triangles[k])


def _sorted_pass(z, a, b):
    """_bracket_pass's result for the differences z[j] - z[i], i < j, of sorted 1-d z.

    Those differences are the sample's pairwise distances |z_i - z_j|, bit
    for bit. Rounding is monotone, so for each i the j with z[j] - z[i] <= t
    are the indices below an end, which one searchsorted finds from z[i] + t
    for all four thresholds at once (< x is <= the double below x); the rare
    end that the rounding of z[i] + t misplaces is walked to its place. The
    values inside (a, b) are, row by row, the index range between the ends
    at a and below b; over _MEDIAN_CAP of them, every k-th is kept.
    """
    n = z.size
    i = np.tile(np.arange(n), 4)
    t = np.repeat([math.nextafter(a, -math.inf), a, math.nextafter(b, -math.inf), b], n)
    ends = np.searchsorted(z, z[i] + t, side="right")
    while True:  # ends that stop short: step over the next run of ties
        up = ends < n
        up[up] = z[ends[up]] - z[i[up]] <= t[up]
        if not up.any():
            break
        ends[up] = np.searchsorted(z, z[ends[up]], side="right")
    while True:  # ends that overshoot
        down = ends > 0
        down[down] = z[ends[down] - 1] - z[i[down]] > t[down]
        if not down.any():
            break
        ends[down] = np.searchsorted(z, z[ends[down] - 1], side="left")
    ends = ends.reshape(4, n)
    first = np.arange(1, n + 1)  # row i's pairs start at column i + 1
    counts = tuple(int(c) for c in np.maximum(ends - first, 0).sum(axis=1))
    lo = np.maximum(ends[1], first)
    size = np.maximum(ends[2], lo) - lo
    stop = np.cumsum(size)
    stride = max(1, -(-int(stop[-1]) // _MEDIAN_CAP))
    # keep the values at positions 0, k, 2k, ... of the rows' ranges laid end to end
    start = stop - size
    per_row = -(-stop // stride) - -(-start // stride)
    z_row = np.repeat(z, per_row)
    j = np.repeat(lo - start, per_row) + np.arange(z_row.size) * stride
    return counts, z[j] - z_row, stride, 0


def _median_pairwise_distance(Z):
    """Median over all unordered pairs i < j of ||Z_i - Z_j||, exactly as np.median.

    Above d = 1, _exact_median counts the squared distances i < j in the
    upper tiles of _self_tiles (_upper_distances), the values the whole list
    would hold; sqrt is monotone, so the result is np.median's bit for bit.
    The operands are prepared once for every pass. Memory is one tile plus
    the selection's: 6.0 MiB at 6k rows, 7.5 MiB at 10k rows with
    _MEDIAN_CAP lowered to 2^18, which forces a second pass (tracemalloc
    peaks).

    At d = 1 each pass counts from the sorted sample (_sorted_pass): 4.4-5
    ms at 3k Student-t(3) rows, against 21-24 ms for the block sweep (2-core
    VM, best and median of 40 calls). It is bit-identical to np.median of
    the |Z_i - Z_j|, which can differ from the tiles' sqrt of an expanded
    square in the last bit. Both paths gate on the centred squared norms
    that _sq_dist_operands(Z) checks, so they raise NonFiniteValue on the same
    samples.
    """
    n = Z.shape[0]
    total = n * (n - 1) // 2
    if total == 0:
        return 0.0
    sample = _pair_sample(Z)
    if Z.shape[1] == 1:
        sq = _centred(Z, Z.mean(axis=0))[2]
        _check_sq_norms(sq, sq)
        z = np.sort(Z[:, 0])
        middle = _exact_median(lambda a, b: _sorted_pass(z, a, b), total, sample)
        return float(np.mean(middle))
    ops = _sq_dist_operands(Z)
    middle = _exact_median(lambda a, b: _bracket_pass(_upper_distances(ops), a, b), total, sample)
    return float(np.mean(np.sqrt(middle)))


def _finite_values(X, label, ndim=2):
    """X as a float64 array of ndim dimensions whose entries are all finite.

    The one coercion and gate for sample arrays (a ResponseMatrix gives its
    values): the first non-finite entry raises NonFiniteValue naming its row
    and column.
    """
    A = X.values if isinstance(X, ResponseMatrix) else np.asarray(X, dtype=np.float64)
    if A.ndim != ndim:
        raise DimensionMismatch(f"the {label} must be {ndim}-dimensional, got shape {A.shape}")
    bad = np.argwhere(~np.isfinite(A))
    if bad.size:
        *r, c = (int(v) for v in bad[0])
        row = r[0] if r else None
        at = f"row {row}, column {c}" if r else f"column {c}"
        raise NonFiniteValue(f"non-finite value in the {label} at {at}", row=row, col=c)
    return A


def _two_samples(X, Y, first="first sample", second="second sample"):
    """X and Y as two non-empty, finite 2-d samples of one dimension.

    The one gate for a pair of samples (the metrics, the transport cost):
    _finite_values on each side, then DimensionMismatch for unequal widths
    and EmptyInput for an empty side, each side named by its label.
    """
    A, B = _finite_values(X, first), _finite_values(Y, second)
    if A.shape[1] != B.shape[1]:
        raise DimensionMismatch(f"sample dimensions differ: {A.shape[1]} vs {B.shape[1]}")
    for M, label in ((A, first), (B, second)):
        if M.size == 0:
            raise EmptyInput(f"the {label} is empty (shape {M.shape})")
    return A, B


def _count(value, name, error=InvalidConfig):
    """value as a positive int (rng._integer's rule), else `error` naming it."""
    n = _integer(value, name, error)
    if n < 1:
        raise error(f"{name} must be a positive integer, got {value!r}")
    return n


def _positive_real(value, name, error=InvalidConfig):
    """value as a positive finite float (_real's rule), else `error` naming it."""
    x = _real(value)
    if not 0 < x < math.inf:
        raise error(f"{name} must be a positive finite real, got {value!r}")
    return x


def _fraction(value, name, error=InvalidConfig):
    """value as a float in (0, 1] (_real's rule), else `error` naming it."""
    x = _real(value)
    if not 0 < x <= 1:
        raise error(f"{name} must be a fraction in (0, 1], got {value!r}")
    return x


def _real(value):
    """value as a float, or NaN, which every gate refuses: the package's one
    real rule, a numbers.Real (Python or numpy) but never a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return math.nan
    try:
        return float(value)
    except OverflowError:  # an int beyond the float range
        return math.inf


def _value_eq(cls):
    """Give dataclass cls an == that compares its ndarray fields by value.

    The generated == compares tuples of fields, and ndarray == ndarray is
    elementwise, so it raised instead of answering. This one compares arrays
    with np.array_equal, everything else with ==, and never raises on
    arrays. Hashing stays as the dataclass made it.
    """
    names = tuple(f.name for f in fields(cls) if f.compare)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(_same_value(getattr(self, n), getattr(other, n)) for n in names)

    cls.__eq__ = __eq__
    return cls


def _same_value(a, b):
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return a is b or (
            isinstance(a, np.ndarray) and isinstance(b, np.ndarray) and np.array_equal(a, b)
        )
    return a == b


def _frozen_array(values, dtype=np.float64, ndim=None, name="array"):
    arr = np.array(values, dtype=dtype, order="C")
    if ndim is not None and arr.ndim != ndim:
        raise DimensionMismatch(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    arr.setflags(write=False)
    return arr


@_value_eq
@dataclass(frozen=True)
class ResponseMatrix:
    """N x d matrix of scalar questionnaire responses.

    Rows are individuals (personas or humans), columns are inventory items.
    Entries must be finite; `item_ids` name the d columns and are carried
    through to reports, the alignment math ignores them.
    """

    values: np.ndarray
    item_ids: tuple = ()

    def __post_init__(self):
        arr = _frozen_array(self.values, ndim=2, name="responses")
        n, d = arr.shape
        if n < 1 or d < 1:
            raise DimensionMismatch(f"response matrix must be at least 1x1, got {n}x{d}")
        _finite_values(arr, "responses")
        ids = tuple(self.item_ids) if self.item_ids else tuple(f"item{k}" for k in range(d))
        if len(ids) != d:
            raise DimensionMismatch(f"{len(ids)} item ids for {d} columns")
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "item_ids", ids)

    @property
    def n(self):
        return self.values.shape[0]

    @property
    def d(self):
        return self.values.shape[1]

    def column(self, t):
        return self.values[:, t]

    def take_rows(self, rows):
        """New matrix with the given rows (multiset semantics allowed)."""
        return ResponseMatrix(self.values[np.asarray(rows, dtype=np.intp)], self.item_ids)


@_value_eq
@dataclass(frozen=True, slots=True, init=False)
class PersonaRecord:
    """One candidate persona: id, narrative, optional embedding and response row.

    `seed_id` records provenance when the record was produced by revising
    another persona (group-specific generation); None otherwise.

    Field rules, checked at construction (InvalidConfig unless noted):
    `id` is a nonempty str; `narrative` a str; `embedding` None or a 1-d
    array of finite reals, stored as a read-only float64 copy
    (DimensionMismatch for another shape, NonFiniteValue for a non-finite
    entry); `response_row` None or an integer by the package's one rule (an
    int or np.integer, never a bool), stored as an int; `seed_id` None or
    a str. So every record that constructs saves and loads back equal.
    """

    id: str
    narrative: str = ""
    embedding: np.ndarray = None
    response_row: int = None
    seed_id: str = None

    def __init__(self, id, narrative="", embedding=None, response_row=None, seed_id=None):
        # checks first, then one write per slot through its own descriptor:
        # the frozen __setattr__ is never entered
        if not isinstance(id, str) or not id:
            raise InvalidConfig(f"persona id must be a nonempty string, got {id!r}")
        if not isinstance(narrative, str):
            raise InvalidConfig(f"persona {id!r} narrative must be a string, got {narrative!r}")
        if embedding is not None:
            embedding = _frozen_array(embedding, ndim=1, name="embedding")
            if not np.isfinite(embedding).all():
                raise NonFiniteValue(f"non-finite embedding entry for persona {id!r}")
        if response_row is not None and type(response_row) is not int:
            response_row = _integer(response_row, "response_row")
        if seed_id is not None and not isinstance(seed_id, str):
            raise InvalidConfig(f"persona {id!r} seed_id must be a string, got {seed_id!r}")
        _set_id(self, id)
        _set_narrative(self, narrative)
        _set_embedding(self, embedding)
        _set_response_row(self, response_row)
        _set_seed_id(self, seed_id)


_set_id, _set_narrative, _set_embedding, _set_response_row, _set_seed_id = (
    PersonaRecord.__dict__[name].__set__
    for name in ("id", "narrative", "embedding", "response_row", "seed_id")
)


@_value_eq
@dataclass(frozen=True)
class ItemWeights:
    """Per-item positive weights for the squared-difference transport cost."""

    weights: np.ndarray

    def __post_init__(self):
        arr = _frozen_array(self.weights, ndim=1, name="item weights")
        if arr.size < 1:
            raise DimensionMismatch("item weights must be nonempty")
        if not np.isfinite(arr).all() or (arr <= 0).any():
            raise InvalidConfig("item weights must all be positive finite reals")
        object.__setattr__(self, "weights", arr)

    @property
    def d(self):
        return self.weights.shape[0]


@dataclass(frozen=True)
class AlignmentConfig:
    """All pipeline knobs: every setting that changes a run, and nothing else.

    epsilon is a multiplier on the median transport cost (effective
    regularization = epsilon * each batch's median cost); epsilon_absolute,
    when set, replaces epsilon * median cost in every batch (needed where a
    batch's median cost is 0). kde_fit_subsample, when set, caps both KDE
    fitting sets by a seeded subsample of that many rows; None fits on
    everything. Defaults follow the published experiment settings: bandwidth
    0.20, retain the top 70% by importance weight, epsilon 0.08 of median
    cost, 250 Sinkhorn iterations, transport batches of 10,000.
    """

    n_is_candidates: int
    n_final: int
    seed: int
    bandwidth: float = 0.20
    retain_fraction: float = 0.70
    epsilon: float = 0.08
    sinkhorn_iters: int = 250
    sinkhorn_tol: float = 1e-6
    item_weights: ItemWeights = None
    ot_batch_size: int = 10_000
    kde_fit_subsample: int = None
    epsilon_absolute: float = None

    def __post_init__(self):
        for names, gate in (
            (("n_is_candidates", "n_final", "sinkhorn_iters", "ot_batch_size"), _count),
            (("bandwidth", "epsilon", "sinkhorn_tol"), _positive_real),
            (("retain_fraction",), _fraction),
            (("seed",), _as_uint64),
        ):
            for name in names:
                object.__setattr__(self, name, gate(getattr(self, name), name))
        for name, gate, error in (
            ("kde_fit_subsample", _count, InvalidConfig),
            ("epsilon_absolute", _positive_real, NonPositiveEpsilon),
        ):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, gate(getattr(self, name), name, error))
        if self.n_final > self.n_is_candidates:
            raise InvalidConfig(
                f"n_final ({self.n_final}) exceeds n_is_candidates ({self.n_is_candidates})"
            )
        if self.item_weights is not None and not isinstance(self.item_weights, ItemWeights):
            raise InvalidConfig("item_weights must be an ItemWeights instance or None")


@_value_eq
@dataclass(frozen=True)
class ValidatedPool:
    """Handle returned by validate_pool; carries the checked inputs.

    id_to_index maps each persona id to its position in personas; row_to_id
    maps each response row that a persona claims to that persona's id. Both
    maps are required: build a pool through validate_pool.
    """

    personas: tuple
    responses: ResponseMatrix
    id_to_index: dict = field(compare=False)
    row_to_id: dict = field(compare=False)


def validate_pool(personas, responses=None):
    """Check pool-wide invariants and return a ValidatedPool handle.

    Validation is idempotent: re-validating a ValidatedPool returns it
    unchanged when `responses` is None or equals the pool's own matrix by
    value; another matrix is honoured, so the pool's personas are walked
    again against it. One walk over the personas checks each record in list
    order (unique id, embedding length, response row in range and
    unshared), so the first offending record in the list is the one named;
    nothing is repaired silently.
    """
    if isinstance(personas, ValidatedPool):
        if responses is None or responses is personas.responses:
            return personas
        if not isinstance(responses, ResponseMatrix):
            responses = ResponseMatrix(responses)
        if responses == personas.responses:
            return personas
        personas = personas.personas
    elif responses is None:
        raise InvalidConfig("validate_pool requires a response matrix for unvalidated input")
    personas = tuple(personas)
    if not isinstance(responses, ResponseMatrix):
        responses = ResponseMatrix(responses)

    n_rows = responses.n
    id_to_index, row_to_id = {}, {}
    emb_dim = None
    for i, rec in enumerate(personas):
        if rec.id in id_to_index:
            raise DuplicateId(f"duplicate persona id {rec.id!r}", id=rec.id)
        id_to_index[rec.id] = i
        if rec.embedding is not None:
            if emb_dim is None:
                emb_dim = rec.embedding.shape[0]
            elif rec.embedding.shape[0] != emb_dim:
                raise DimensionMismatch(
                    f"persona {rec.id!r} embedding has length {rec.embedding.shape[0]}, "
                    f"pool uses {emb_dim}"
                )
        row = rec.response_row
        if row is not None:
            if not 0 <= row < n_rows:
                raise DimensionMismatch(
                    f"persona {rec.id!r} response_row {row} outside [0, {n_rows})"
                )
            if row in row_to_id:
                raise DuplicateId(
                    f"personas {row_to_id[row]!r} and {rec.id!r} share response row {row}",
                    id=rec.id,
                )
            row_to_id[row] = rec.id

    return ValidatedPool(
        personas=personas, responses=responses, id_to_index=id_to_index, row_to_id=row_to_id
    )
