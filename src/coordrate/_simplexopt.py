"""The solver run that ``wyner_ci`` and ``ulsr_rate`` share.

``descend`` minimizes over a batch of channels p(u|x,y), one per restart,
of shape (restarts, nx, ny, nu), by exponentiated-gradient descent; each
caller keeps only its objectives, its starts and its answer.  Updates are
multiplicative, so iterates stay inside the (floored) simplex, and are
preconditioned by 1/q(x,y), which makes them scale-free across source
cells.  ``ChannelStats`` takes each log once per iterate and stacks the
gradients of the two information terms; each term is a weighted sum of its
gradient.  An objective returns its value and the weights of its gradient
on the two terms, so ``eg_minimize`` forms that gradient in one einsum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
#: (12.4-14.3 measured, each stacked gradient array counting as two)
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


class Source:
    """The constants of a source q(x,y) that every ``ChannelStats`` of its channels reads.

    For channels p(u|x,y) with ``nu`` symbols: ``q`` is q(x,y) repeated
    along u, shape (nx, ny, nu); the 0/1 ``gather``, (nx + ny + 1, nx ny),
    sums the cells of w = q(x,y) p(u|x,y) into p(x,u), p(y,u) and p(u) in
    one matmul; ``support`` is the 0/1 mask of the cells with q(x,y) > 0,
    shaped like ``q``, or None when every cell has mass.
    """

    def __init__(self, q, nu):
        nx, ny = q.shape
        self.q = np.repeat(q[:, :, None], nu, axis=2)
        self.gather = np.vstack([np.kron(np.eye(nx), np.ones(ny)), np.kron(np.ones(nx), np.eye(ny)), np.ones(nx * ny)])
        self.support = None if (q > 0).all() else (self.q > 0).astype(float)


class ChannelStats:
    """The two information terms of a channel batch and their gradients.

    One natural-log pass gives the preconditioned gradients of I(X,Y;U)
    and I(X;Y|U) w.r.t. p(u|x,y), stacked in ``g`` of shape
    (2, restarts, nx, ny, nu) as ``g_joint`` and ``g_cond`` (nats, zero
    where q(x,y) = 0).  Each term is the w-weighted sum of its gradient,
    w = q(x,y) p(u|x,y), so ``i`` = (``i_joint``, ``i_cond``) (bits) comes
    from the same logs in one batched dot.  ``src`` is the ``Source`` of
    q(x,y) at the batch's ``nu``.
    """

    def __init__(self, src, batch):
        rows, nx, ny, nu = batch.shape
        w = src.q * batch
        # logs of p(x,u), p(y,u) and p(u), in that order along axis 1
        log_m = np.log(np.maximum(src.gather @ w.reshape(rows, nx * ny, nu), 1e-300))
        log_pu = log_m[:, None, None, -1]
        self.g = np.empty((2, *batch.shape))
        self.g_joint, self.g_cond = self.g
        np.maximum(batch, 1e-300, out=self.g_joint)
        np.maximum(w, 1e-300, out=self.g_cond)
        np.log(self.g, out=self.g)
        # g_cond adds the marginals' logs cell by cell in this order, not as
        # one signed matmul: at Wyner's last penalty, 1e7, a rounding change
        # in I(X;Y|U) is worth a whole tol_objective, and another order moves
        # the pinned seeded values by more than their 1e-9 tolerance
        self.g_joint -= log_pu
        self.g_cond += log_pu
        self.g_cond -= log_m[:, :nx, None]
        self.g_cond -= log_m[:, None, nx:-1]
        if src.support is not None:
            self.g *= src.support
        self.i = (self.g.reshape(2, rows, 1, -1) @ w.reshape(rows, -1, 1)).reshape(2, rows) / LN2
        self.i_joint, self.i_cond = self.i


def best_row(values, residuals, batch):
    """Deterministic, order-independent pick: value, then residual, then bytes."""
    return int(min(range(batch.shape[0]), key=lambda r: (values[r], residuals[r], batch[r].tobytes())))


def eg_minimize(q, batch, objective_and_grad, max_iters, tol):
    """Minimize per-restart objectives by exponentiated-gradient descent.

    objective_and_grad(stats) must return (values, coef) with shapes (restarts,)
    and (2, restarts): each row's objective and the weights of its
    gradient on ``stats.g_joint`` and ``stats.g_cond``.  Steps start at
    ``STEP0``; one is accepted, row by row, only if it does not raise the
    objective, so a restart's accepted row is the best iterate it has
    seen, subgradient steps on a kinked objective included.  Each restart
    stops once the objective change per iteration drops below ``tol`` (or
    at ``max_iters``) and is then frozen: its row is written to the output
    and dropped from the working arrays, so each iteration evaluates only
    the live restarts.  Restarts never interact, so the result is
    identical to running them one at a time.

    Returns (batch, stats, frozen_at); the stats describe the returned
    batch, and frozen_at[r] is the iteration at which restart r froze, 0 if
    it was still live at ``max_iters``.
    """
    nu = batch.shape[-1]
    src = Source(q, nu)
    # minus the centring matrix I - 11'/nu: one matmul turns the objective's gradient into the
    # descent direction carried for each live restart, which keeps every row on the simplex
    descent = 1.0 / nu - np.eye(nu)
    row_sum = np.ones((nu, 1))

    def evaluate(stats):
        values, coef = objective_and_grad(stats)
        return values, np.einsum("tr,tr...->r...", coef, stats.g).reshape(values.size, -1, nu) @ descent

    values, heading = evaluate(ChannelStats(src, batch))
    out_batch = np.empty_like(batch)
    frozen_at = np.zeros(batch.shape[0], dtype=int)
    # working set: the live restarts and their row indices in the output
    rows = np.arange(batch.shape[0])
    steps = np.full(rows.size, STEP0)
    small_streak = np.zeros(rows.size, dtype=int)
    for it in range(1, max_iters + 1):
        # rescale instead of clipping so a steep penalty cannot flip the
        # update direction; a single step never multiplies by more than e^CAP
        gmax = np.abs(heading).max(axis=(1, 2))
        step = heading * np.minimum(steps, EXP_CAP / np.maximum(gmax, 1e-300))[:, None, None]
        # the multiplicative update and its row normalization, in place
        proposed = np.exp(step, out=step)
        proposed *= batch.reshape(proposed.shape)
        np.maximum(proposed, FLOOR, out=proposed)
        proposed /= proposed @ row_sum
        proposed = proposed.reshape(batch.shape)
        new_values, new_heading = evaluate(ChannelStats(src, proposed))
        # adaptive step: accept and grow on descent, shrink and stay
        # otherwise; no step exceeds STEP0 * 8, so the cap binds only on growth
        accepted = new_values <= values
        steps = np.minimum(steps * np.where(accepted, GROW, SHRINK), STEP0 * 8.0)
        # a run of sub-tol improvements is required before declaring
        # convergence; single tiny steps also occur while creeping past
        # saddle points and must not stop the descent.  An accepted step
        # extends the run if small and ends it otherwise, a rejected one
        # leaves it
        small_streak = np.where(accepted, (small_streak + 1) * (values - new_values < tol), small_streak)
        converged = (small_streak >= STREAK) | (steps < 1e-14)
        batch = np.where(accepted[:, None, None, None], proposed, batch)
        values = np.where(accepted, new_values, values)
        heading = np.where(accepted[:, None, None], new_heading, heading)
        if converged.any():
            done = rows[converged]
            out_batch[done], frozen_at[done] = batch[converged], it
            live = ~converged
            rows, batch, values, heading = rows[live], batch[live], values[live], heading[live]
            steps, small_streak = steps[live], small_streak[live]
            if not rows.size:
                break
    out_batch[rows] = batch
    return out_batch, ChannelStats(src, out_batch), frozen_at


def descend(q, card_u, starts, stages, opts, exact=()):
    """Run the ``starts``, then seeded random rows up to ``opts.restarts`` (at least one), through ``stages``.

    Each (kind, parameter, objective_and_grad) stage jitters the batch by
    its index, then runs ``eg_minimize``; the runs of ``exact``, given in
    the same form, follow in order without jitter.  Returns (batch, stats,
    each run's ``stage_record``).
    """
    batch = random_channels(*q.shape, card_u, max(opts.restarts - len(starts), 1), opts.seed)
    if starts:
        batch = np.concatenate([normalize_rows(np.stack(starts)), batch])
    records = []
    for index, (kind, parameter, objective_and_grad) in enumerate([*stages, *exact]):
        if index < len(stages):
            batch = jitter_channels(batch, opts.seed, index)
        batch, stats, frozen_at = eg_minimize(q, batch, objective_and_grad, opts.max_iters, opts.tol_objective)
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


def bracket(value, lo, hi):
    """Diagnostics entries recording whether ``value`` lies in its known bracket."""
    return {"bracket": [lo, hi], "within_bracket": bool(lo - BRACKET_SLACK <= value <= hi + BRACKET_SLACK)}
