"""The solver run that ``wyner_ci`` and ``ulsr_rate`` share.

``descend`` minimizes over a batch of channels p(u|x,y), one per restart,
of shape (restarts, nx, ny, nu), by exponentiated-gradient descent; each
caller keeps only its objectives, its starts and its answer.  Updates are
multiplicative, so iterates stay inside the (floored) simplex, and are
preconditioned by 1/q(x,y), which makes them scale-free across source
cells.  ``ChannelStats`` takes each log once per iterate and stacks the
gradients of the two information terms; each term is a weighted sum of its
gradient.  Both solvers' objectives are ``max_objective``s of their term
tables; each returns its value and the weights of its gradient on the
two terms, so ``eg_minimize`` forms that gradient in one einsum.
Each proposal's exponent adds beta times its restart's last accepted
exponent, which a rejection resets to 0: the heavy ball (Polyak 1964),
beta = ((sqrt(m) - 1) / (sqrt(m) + 1))^2 for m the largest gradient weight
of a run's first evaluation, floored at 1.  So beta is 0, and the update
the plain one bit for bit, for weights <= 1, as for every ulsr objective.
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
#: (12.4-16.6 measured, each stacked gradient array counting as two)
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
    noise = np.stack([np.random.default_rng([seed, r, stage, 811]).standard_normal(batch.shape[1:]) for r in range(batch.shape[0])])
    return normalize_rows(batch * np.exp(JITTER_SIGMA * noise))


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
        # logs of p(x,u), p(y,u) and p(u), in that order along axis 1, taken in the gather's output
        log_m = src.gather @ w.reshape(rows, nx * ny, nu)
        np.log(np.maximum(log_m, 1e-300, out=log_m), out=log_m)
        log_pu = log_m[:, None, None, -1]
        self.g = g = np.empty((2, *batch.shape))
        self.g_joint, self.g_cond = g_joint, g_cond = g[0], g[1]
        np.maximum(batch, 1e-300, out=g_joint)
        np.maximum(w, 1e-300, out=g_cond)
        np.log(g, out=g)
        # g_cond adds the marginals' logs cell by cell in this order, not as
        # one signed matmul: at Wyner's last penalty, 1e7, a rounding change
        # in I(X;Y|U) is worth a whole tol_objective, and another order moves
        # the pinned seeded values by more than their 1e-9 tolerance
        g_joint -= log_pu
        g_cond += log_pu
        g_cond -= log_m[:, :nx, None]
        g_cond -= log_m[:, None, nx:-1]
        if src.support is not None:
            g *= src.support
        self.i = i = (g.reshape(2, rows, 1, -1) @ w.reshape(rows, -1, 1)).reshape(2, rows) / LN2
        self.i_joint, self.i_cond = i[0], i[1]


def best_row(values, residuals, batch):
    """Deterministic, order-independent pick: value, then residual, then bytes."""
    return int(min(range(batch.shape[0]), key=lambda r: (values[r], residuals[r], batch[r].tobytes())))


def max_objective(terms, temp=None):
    """The objective max over the rows (c_joint, c_cond) of ``terms`` of c_joint I(X,Y;U) + c_cond I(X;Y|U).

    A log-sum-exp softmax at ``temp`` (1/bits); with None the exact max,
    whose rows within 1e-12 of it share the subgradient equally.  The
    gradient's weights are the last row's plus each other row's excess over
    it times that row's softmax (or subgradient) weight, so a single row is
    its own weights.  Returns the ``eg_minimize`` objective of the terms.
    A single row's value is summed elementwise, as i_joint + lambda *
    i_cond rounds: a matmul may fuse the multiply-add, and so rounded it
    changed the iterations of seeded Wyner stages.  ulsr's coefficients 0,
    1/2 and 1 multiply exactly, so its rows round alike in the matmul.
    """
    terms = np.array(terms, dtype=float)
    last = terms[-1][:, None]
    if len(terms) == 1:
        c_joint, c_cond = terms[0]
        return lambda i: (c_joint * i[0] + c_cond * i[1], last.repeat(i.shape[1], axis=1))
    excess = (terms[:-1] - terms[-1]).T

    def objective_and_grad(i):
        rows = terms @ i
        if temp is None:
            values = rows.max(axis=0)
            share = rows + 1e-12 >= values
            share = share / share.sum(axis=0)
        else:
            scaled = temp * rows
            lse = np.logaddexp2.reduce(scaled, axis=0)
            values, share = lse / temp, np.exp2(scaled - lse)
        return values, last + excess @ share[:-1]

    return objective_and_grad


def eg_minimize(q, batch, objective_and_grad, max_iters, tol):
    """Minimize per-restart objectives by exponentiated-gradient descent.

    objective_and_grad(i), given the (2, restarts) terms ``stats.i`` of the
    batch, must return (values, coef) with shapes (restarts,) and (2,
    restarts): each row's objective and the weights of its gradient on
    ``stats.g_joint`` and ``stats.g_cond``.  Steps start at
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
    size, nx, ny, nu = batch.shape
    src = Source(q, nu)
    # minus the centring matrix I - 11'/nu: one matmul turns the objective's gradient into the
    # descent direction carried for each live restart, which keeps every row on the simplex
    descent = 1.0 / nu - np.eye(nu)
    row_sum = np.ones((nu, 1))
    # a rejected step's factor, then an accepted one's, indexed by the acceptance mask
    factors = np.array([SHRINK, GROW])

    def evaluate(stats):
        values, coef = objective_and_grad(stats.i)
        return values, np.einsum("tr,tr...->r...", coef, stats.g).reshape(values.size, -1, nu) @ descent, coef

    values, heading, coef = evaluate(ChannelStats(src, batch))
    # the heavy ball's beta (module docstring), 0 unless a gradient weight exceeds 1
    root = np.sqrt(max(float(coef.max()), 1.0))
    beta = ((root - 1.0) / (root + 1.0)) ** 2
    # the working set, updated in place: the live restarts' rows (a copy of the caller's batch),
    # values, descent directions, steps and small-step streaks, with their row indices in the output
    rows = np.arange(size)
    batch, values = batch.reshape(heading.shape).copy(), values.copy()
    steps = np.full(size, STEP0)
    small_streak = np.zeros(size, dtype=int)
    carried = np.zeros_like(heading) if beta else None
    out_batch = np.empty_like(heading)
    frozen_at = np.zeros(size, dtype=int)

    def step_scale(x, limit):
        """Per row of ``x``, min(limit, EXP_CAP / max |x|), shaped to multiply ``x``."""
        scale = np.maximum.reduce(np.abs(x).reshape(x.shape[0], -1), axis=1)
        np.maximum(scale, 1e-300, out=scale)
        np.divide(EXP_CAP, scale, out=scale)
        return np.minimum(limit, scale, out=scale)[:, None, None]

    for it in range(1, max_iters + 1):
        # rescale instead of clipping so a steep penalty cannot flip the update direction; with beta
        # times the last accepted exponent (0 after a rejection) added, no step multiplies by more than e^CAP
        step = heading * step_scale(heading, steps)
        if beta:
            step += np.multiply(carried, beta, out=carried)
            step *= step_scale(step, 1.0)
        # the multiplicative update and its row normalization, in place unless the exponent is carried
        proposed = np.exp(step, out=None if beta else step)
        proposed *= batch
        np.maximum(proposed, FLOOR, out=proposed)
        proposed /= proposed @ row_sum
        new_values, new_heading, _ = evaluate(ChannelStats(src, proposed.reshape(-1, nx, ny, nu)))
        # adaptive step: accept and grow on descent, shrink and stay
        # otherwise; no step exceeds STEP0 * 8, so the cap binds only on growth
        accepted = new_values <= values
        steps *= factors.take(accepted.view(np.int8))
        np.minimum(steps, STEP0 * 8.0, out=steps)
        # a run of sub-tol improvements is required before declaring
        # convergence; single tiny steps also occur while creeping past
        # saddle points and must not stop the descent.  An accepted step
        # extends the run if small and ends it otherwise (accepted > small
        # zeroes it), a rejected one leaves it
        small_streak += accepted
        small_streak *= accepted <= (values - new_values < tol)
        converged = (small_streak >= STREAK) | (steps < 1e-14)
        accepted_3d = accepted[:, None, None]
        np.copyto(batch, proposed, where=accepted_3d)
        np.copyto(values, new_values, where=accepted)
        np.copyto(heading, new_heading, where=accepted_3d)
        if beta:
            np.multiply(step, accepted_3d, out=carried)
        if np.count_nonzero(converged):
            done = rows[converged]
            out_batch[done], frozen_at[done] = batch[converged], it
            live = ~converged
            rows, batch, values, heading = rows[live], batch[live], values[live], heading[live]
            steps, small_streak = steps[live], small_streak[live]
            carried = carried[live] if beta else None
            if not rows.size:
                break
    out_batch[rows] = batch
    out_batch = out_batch.reshape(size, nx, ny, nu)
    return out_batch, ChannelStats(src, out_batch), frozen_at


def descend(q, card_u, starts, stages, opts, exact):
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
