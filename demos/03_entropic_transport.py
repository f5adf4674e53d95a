"""
Entropic optimal transport and its distance to the exact optimum
================================================================

Sinkhorn scaling on a small instance, the induced candidate weights, and the
regularization gap against the exact linear-program solution.
"""

import numpy as np

from popalign import (
    cost_matrix,
    entropic_gap,
    exact_ot_small,
    ot_weights,
    resample_ot,
    sinkhorn,
    transport_cost,
)
from popalign.errors import UnconvergedPlan

rng = np.random.default_rng(3)

# candidates sit in two clumps; humans in one. transport should put nearly
# all mass on the near clump
X = np.concatenate([rng.normal(0, 0.3, (6, 2)), rng.normal(3, 0.3, (6, 2))])
Y = rng.normal(0, 0.3, (40, 2))
C = cost_matrix(X, Y)

plan = sinkhorn(C, epsilon=0.08 * C.median_cost, max_iters=2000, tol=1e-9)
# each sweep after the first extrapolates the column scaling from the last
# few sweeps (Anderson acceleration); a residual that rose, or an absorption,
# empties that memory and the next sweep is plain
print("converged:", plan.converged, "after", plan.iterations_run, "sweeps")
print("Anderson memory resets:", plan.anderson_resets, " absorptions:", plan.absorb_count)
print("residuals:", plan.row_residual, plan.col_residual)

# a converged balanced plan returns its row target: the weights are flat by
# construction, and the geometry lives in WHERE each row ships its mass
w = ot_weights(plan)
print("converged weight spread (should be ~0):", float(w.max() - w.min()))
per_unit = (plan.gamma * C.values).sum(axis=1) / plan.gamma.sum(axis=1)
print("per-unit transport cost, near clump:", float(per_unit[:6].mean()))
print("per-unit transport cost, far clump: ", float(per_unit[6:].mean()))

# short of convergence the row marginals still lean toward cheap candidates,
# but ot_weights refuses such a plan and names the knobs to turn; a caller
# who wants the half-converged weights reads the row marginal itself
short = sinkhorn(C, epsilon=0.08 * C.median_cost, max_iters=5, tol=1e-15)
try:
    ot_weights(short)
except UnconvergedPlan as exc:
    print("refused:", exc)
w5 = short.row_marginal
print("5-iteration weight on the near clump:", float(w5[:6].sum()))

picks = resample_ot(w5, 20, seed=5)
print("final draw (row indices):", np.sort(picks))

# regularization gap: entropic cost exceeds the exact optimum by at most
# eps * log(n*m) and never undercuts it
exact, _ = exact_ot_small(C, plan.row_marginal_target, plan.col_marginal_target)
print("entropic cost:", transport_cost(plan, C), " exact LP cost:", exact)

for mult in (0.5, 0.1, 0.02):
    rec = entropic_gap(C, epsilon=mult * C.median_cost)
    print(f"eps = {mult:.2f}*median  gap = {rec.gap:.6f}  bound = {rec.bound:.6f}")
