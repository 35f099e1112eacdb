"""Batched exponentiated-gradient descent over conditional-pmf simplices.

The optimization variable is a batch of channels p(u|x,y), one per
restart, stored as an array of shape (restarts, nx, ny, nu).  Updates are
multiplicative, so iterates stay inside the (floored) simplex without
projections.  Gradients are preconditioned by 1/q(x,y), which makes the
update scale-free across source cells.  ``ChannelStats`` takes each log
once per iterate and holds both gradients as arrays; the two information
terms are weighted sums of those arrays, so objectives combine terms and
gradients without recomputing either.
"""

from __future__ import annotations

import numpy as np

#: smallest admissible conditional probability; keeps logs finite
FLOOR = 1e-13
#: cap on the per-step exponent, limits a single multiplicative jump to e^CAP
EXP_CAP = 3.0
#: step growth after an accepted move / shrink after a rejected one
GROW = 1.3
SHRINK = 0.5
#: consecutive sub-tolerance improvements required to declare convergence
STREAK = 25
LN2 = float(np.log(2.0))


def normalize_rows(batch):
    out = np.maximum(batch, FLOOR)
    out /= out.sum(axis=-1, keepdims=True)
    return out


def random_channels(nx, ny, nu, restarts, seed):
    """Independent random starts, one derived RNG stream per restart index."""
    batch = np.empty((restarts, nx, ny, nu))
    for r in range(restarts):
        rng = np.random.default_rng([seed, r])
        batch[r] = rng.random((nx, ny, nu))
    return normalize_rows(batch)


def jitter_channels(batch, seed, stage, sigma=1e-3):
    """Multiplicative seeded noise, keyed per restart index.

    Fully symmetric channels (all rows equal) are exact fixed points of the
    centered exponentiated-gradient update even when they are saddle points
    of the objective; a small deterministic perturbation at each stage start
    seeds the escape without disturbing warm starts.
    """
    out = np.empty_like(batch)
    for r in range(batch.shape[0]):
        rng = np.random.default_rng([seed, r, stage, 811])
        out[r] = batch[r] * np.exp(sigma * rng.standard_normal(batch.shape[1:]))
    return normalize_rows(out)


class ChannelStats:
    """The two information terms of a channel batch and their gradients.

    One natural-log pass gives the preconditioned gradients of I(X,Y;U)
    and I(X;Y|U) w.r.t. p(u|x,y) as arrays ``g_joint`` and ``g_cond``
    (nats, zero where q(x,y) = 0).  Each term is the w-weighted sum of its
    gradient, w = q(x,y) p(u|x,y), so ``i_joint`` and ``i_cond`` (bits)
    come from the same logs.
    """

    def __init__(self, q, batch):
        self.q = q
        self.batch = batch
        q4 = q[None, :, :, None]
        w = q4 * batch
        log_pu = np.log(np.maximum(w.sum(axis=(1, 2)), 1e-300))[:, None, None, :]
        self.g_joint = np.log(np.maximum(batch, 1e-300)) - log_pu
        self.g_cond = (
            np.log(np.maximum(w, 1e-300))
            + log_pu
            - np.log(np.maximum(w.sum(axis=2), 1e-300))[:, :, None, :]
            - np.log(np.maximum(w.sum(axis=1), 1e-300))[:, None, :, :]
        )
        if not (q > 0).all():
            support = q4 > 0
            self.g_joint = np.where(support, self.g_joint, 0.0)
            self.g_cond = np.where(support, self.g_cond, 0.0)
        self.i_joint = (w * self.g_joint).sum(axis=(1, 2, 3)) / LN2
        self.i_cond = (w * self.g_cond).sum(axis=(1, 2, 3)) / LN2


def best_row(values, residuals, batch):
    """Deterministic, order-independent pick: value, then residual, then bytes."""
    return int(min(range(batch.shape[0]), key=lambda r: (values[r], residuals[r], batch[r].tobytes())))


def eg_minimize(q, batch, objective_and_grad, max_iters, tol, step0):
    """Minimize per-restart objectives by exponentiated-gradient descent.

    objective_and_grad(stats) must return (values, grads) with shapes
    (restarts,) and batch.shape.  A step is accepted only if it does not
    raise the objective, so a restart's accepted row is the best iterate it
    has seen, subgradient steps on a kinked objective included.  Each
    restart stops once the objective change per iteration drops below
    ``tol`` (or at ``max_iters``) and is then frozen: its row is written to
    the output and dropped from the working arrays, so each iteration
    evaluates only the live restarts.  Restarts never interact, so the
    result is identical to running them one at a time.

    Returns (batch, stats, frozen_at); the stats describe the returned
    batch, and frozen_at[r] is the iteration at which restart r froze, 0 if
    it was still live at ``max_iters``.
    """
    stats = ChannelStats(q, batch)
    values, grads = objective_and_grad(stats)
    out_batch = np.empty_like(batch)
    frozen_at = np.zeros(batch.shape[0], dtype=int)
    # working set: the live restarts and their row indices in the output
    rows = np.arange(batch.shape[0])
    steps = np.full(rows.size, step0)
    small_streak = np.zeros(rows.size, dtype=int)
    for it in range(1, max_iters + 1):
        g = grads - grads.sum(axis=-1, keepdims=True) / grads.shape[-1]
        # rescale instead of clipping so a steep penalty cannot flip the
        # update direction; a single step never multiplies by more than e^CAP
        gmax = np.abs(g).max(axis=(1, 2, 3))
        scale = np.minimum(steps, EXP_CAP / np.maximum(gmax, 1e-300))
        update = -scale[:, None, None, None] * g
        proposed = normalize_rows(batch * np.exp(update))
        new_values, new_grads = objective_and_grad(ChannelStats(q, proposed))
        # adaptive step: accept and grow on descent, shrink and stay otherwise
        accepted = new_values <= values
        steps = np.where(accepted, np.minimum(steps * GROW, step0 * 8.0), steps * SHRINK)
        # a run of sub-tol improvements is required before declaring
        # convergence; single tiny steps also occur while creeping past
        # saddle points and must not stop the descent
        small = accepted & (values - new_values < tol)
        small_streak = np.where(small, small_streak + 1, np.where(accepted, 0, small_streak))
        converged = (small_streak >= STREAK) | (steps < 1e-14)
        keep = accepted[:, None, None, None]
        batch = np.where(keep, proposed, batch)
        values = np.where(accepted, new_values, values)
        grads = np.where(keep, new_grads, grads)
        if converged.any():
            done = rows[converged]
            out_batch[done], frozen_at[done] = batch[converged], it
            live = ~converged
            rows, batch, values, grads = rows[live], batch[live], values[live], grads[live]
            steps, small_streak = steps[live], small_streak[live]
            if not rows.size:
                break
    out_batch[rows] = batch
    return out_batch, ChannelStats(q, out_batch), frozen_at


def descend(q, batch, stages, opts, step0, records):
    """Warm-started stages on a batch, yielding (batch, stats) after each.

    ``stages`` holds (kind, parameter, objective_and_grad) triples.  Each
    stage jitters the batch (keyed by its index), runs ``eg_minimize`` and
    appends its ``stage_record`` to ``records``.
    """
    for index, (kind, parameter, objective_and_grad) in enumerate(stages):
        batch = jitter_channels(batch, opts.seed, index)
        batch, stats, frozen_at = eg_minimize(q, batch, objective_and_grad, opts.max_iters, opts.tol_objective, step0)
        records.append(stage_record(kind, parameter, frozen_at, opts.max_iters))
        yield batch, stats


def stage_record(stage, parameter, frozen_at, max_iters):
    """Diagnostics of one eg_minimize run from its ``frozen_at``.

    ``iterations`` is the number the run took: the last freeze, or
    ``max_iters`` when a restart was still live then.
    """
    stopped = int((frozen_at == 0).sum())
    return {
        "stage": stage,
        "parameter": parameter,
        "iterations": max_iters if stopped else int(frozen_at.max()),
        "converged": frozen_at.size - stopped,
        "max_iters_reached": stopped,
    }
