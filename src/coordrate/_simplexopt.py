"""The solver run that ``wyner_ci`` and ``ulsr_rate`` share.

``descend`` minimizes over a batch of channels p(u|x,y), one per restart,
of shape (restarts, nx, ny, nu), by exponentiated-gradient descent; each
caller keeps only its objectives, its starts and its answer.  Updates are
multiplicative, so iterates stay inside the (floored) simplex, and are
preconditioned by 1/q(x,y), which makes them scale-free across source
cells.  ``ChannelStats`` takes each log once per iterate; both information
terms are weighted sums of its two gradient arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .measures import table_entropy
from .pmf import PmfError, _is_int, _is_real

#: smallest admissible conditional probability; keeps logs finite
FLOOR = 1e-13
#: cap on the per-step exponent, limits a single multiplicative jump to e^CAP
EXP_CAP = 3.0
#: step growth after an accepted move / shrink after a rejected one
GROW = 1.3
SHRINK = 0.5
#: consecutive sub-tolerance improvements required to declare convergence
STREAK = 25
#: standard deviation of the log-scale noise jitter_channels applies at each stage start
JITTER_SIGMA = 1e-3
LN2 = float(np.log(2.0))
#: base step size for the exponentiated-gradient updates
STEP0 = 2.0
#: slack in bits when checking a solver value against its known bracket
BRACKET_SLACK = 1e-9
#: cap on the solver working memory: the solvers hold at most 32 float64
#: arrays of the (restarts, nx, ny, card_u) batch at once, 256 bytes per cell
BATCH_BYTES_CAP = 2**30


def check_int(who, name, value, low):
    """``value`` as an int when it is an integer, not a bool, and >= ``low``; else PmfError."""
    if not (_is_int(value) and value >= low):
        raise PmfError(f"{who}: {name} must be an integer >= {low}, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class SolverOptions:
    restarts: int = 50
    max_iters: int = 5000
    tol_objective: float = 1e-9
    seed: int = 0

    def __post_init__(self):
        for name, low in (("restarts", 1), ("max_iters", 1), ("seed", 0)):
            object.__setattr__(self, name, check_int("SolverOptions", name, getattr(self, name), low))
        if not (_is_real(self.tol_objective) and self.tol_objective > 0):
            raise PmfError(f"SolverOptions: tol_objective must be finite and > 0, got {self.tol_objective!r}")


def options(who, opts):
    """``opts``, or the defaults when it is None; PmfError for anything else."""
    if not (opts is None or isinstance(opts, SolverOptions)):
        raise PmfError(f"{who}: opts must be a SolverOptions or None, got {type(opts).__name__}")
    return SolverOptions() if opts is None else opts


def check_batch_bytes(who, restarts, nx, ny, card_u):
    """Refuse a restart batch whose solver working arrays would exceed BATCH_BYTES_CAP."""
    need = 256 * restarts * nx * ny * card_u
    if need > BATCH_BYTES_CAP:
        raise PmfError(
            f"{who}: {restarts} restarts of {nx}x{ny}x{card_u} channels need {need} bytes, cap is {BATCH_BYTES_CAP}"
        )


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


def jitter_channels(batch, seed, stage):
    """Multiplicative seeded noise, keyed per restart index.

    Fully symmetric channels (all rows equal) are exact fixed points of the
    centered exponentiated-gradient update even when they are saddle points
    of the objective; a small deterministic perturbation at each stage start
    seeds the escape without disturbing warm starts.
    """
    out = np.empty_like(batch)
    for r in range(batch.shape[0]):
        rng = np.random.default_rng([seed, r, stage, 811])
        out[r] = batch[r] * np.exp(JITTER_SIGMA * rng.standard_normal(batch.shape[1:]))
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


def descend(q, card_u, starts, stages, opts, polish=None):
    """Run the ``starts``, then seeded random rows up to ``opts.restarts`` (at least one), through ``stages``.

    Each (kind, parameter, objective_and_grad) stage jitters the batch by
    its index, then runs ``eg_minimize``; ``polish``, when given, runs last
    without jitter.  Returns (batch, stats, each run's ``stage_record``).
    """
    batch = random_channels(*q.shape, card_u, max(opts.restarts - len(starts), 1), opts.seed)
    if starts:
        batch = normalize_rows(np.concatenate([np.stack(starts), batch]))
    runs = [*stages, ("polish", None, polish)] if polish is not None else stages
    records = []
    for index, (kind, parameter, objective_and_grad) in enumerate(runs):
        if index < len(stages):
            batch = jitter_channels(batch, opts.seed, index)
        batch, stats, frozen_at = eg_minimize(q, batch, objective_and_grad, opts.max_iters, opts.tol_objective, STEP0)
        records.append(stage_record(kind, parameter, frozen_at, opts.max_iters))
    return batch, stats, records


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


def terms(stats, row):
    """(I(X,Y;U), I(X;Y|U)) of one row in bits, each clamped at 0: rounding can leave a zero just below it."""
    return max(float(stats.i_joint[row]), 0.0), max(float(stats.i_cond[row]), 0.0)


def source_info(q):
    """(I(X;Y), min(H(X), H(Y))) of the source, in bits."""
    hx, hy = table_entropy(q.probs.sum(axis=1)), table_entropy(q.probs.sum(axis=0))
    return hx + hy - table_entropy(q.probs), min(hx, hy)


def bracket(value, lo, hi):
    """Diagnostics entries recording whether ``value`` lies in its known bracket."""
    return {"bracket": [lo, hi], "within_bracket": bool(lo - BRACKET_SLACK <= value <= hi + BRACKET_SLACK)}
