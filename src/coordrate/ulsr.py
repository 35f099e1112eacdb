"""Optimal broadcast rate under unlimited shared randomness.

The rate is the minimum over channels p(u|x,y), |U| <= |X||Y| + 2, of
either of two equivalent objectives:

    MAX_PAIR: max{ I(X;Y|U), I(X,Y;U) }
    MAX_AVG:  max{ I(X;Y|U), (I(X,Y;U) + I(X;Y|U)) / 2 }

The max makes the objective kinked exactly where the two terms meet,
which is where the minimizer tends to sit.  The solver anneals a
log-sum-exp softmax of the two terms over increasing temperatures and
finishes with subgradient steps on the exact max, keeping the best exact
iterate.  Multi-start with structured initial channels: the degenerate
auxiliary, a Wyner-minimizing channel, the interpolated family for
symmetric binary sources, uniform rows, plus random rows.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

import numpy as np

from . import _simplexopt as so
from .pmf import AuxChannel, JointPmf, PmfError
from .wyner import STEP0, SolverInfeasibleError, SolverOptions, _bracket, _check_batch_bytes, _evaluate, _source_info, wyner_ci

#: softmax temperatures (1/bits) for annealing the kinked max
TEMPERATURES = (10.0, 100.0, 1000.0)
#: mass left on each unused auxiliary symbol when padding structured starts
PAD_EPS = 1e-3


class UlsrForm(enum.Enum):
    MAX_PAIR = "maxpair"
    MAX_AVG = "maxavg"


@dataclass(frozen=True)
class UlsrResult:
    value: float
    channel: AuxChannel
    term_cond: float
    term_joint: float
    form: UlsrForm
    diagnostics: dict = field(default_factory=dict, compare=False)


def _second_term(joint, cond, form):
    """What I(X;Y|U) is maxed against: I(X,Y;U), or the average of both terms.

    Linear in its inputs, so it maps the two gradients as it maps the terms.
    """
    return joint if form is UlsrForm.MAX_PAIR else 0.5 * (joint + cond)


def _form_value(i_cond, i_joint, form):
    return np.maximum(i_cond, _second_term(i_joint, i_cond, form))


def ulsr_objective(q, ch, form=UlsrForm.MAX_AVG):
    """Evaluate the chosen objective for one channel, no optimization."""
    if not isinstance(q, JointPmf):
        raise PmfError("ulsr_objective: expected a JointPmf")
    if not isinstance(form, UlsrForm):
        form = UlsrForm(form)
    if ch.card_u1 != 1 or ch.card_u2 != 1:
        raise PmfError("ulsr_objective: channel must be a single-auxiliary p(u|x,y)")
    i_joint, i_cond = _evaluate(q, ch)
    return UlsrResult(
        value=float(_form_value(i_cond, i_joint, form)),
        channel=ch,
        term_cond=i_cond,
        term_joint=i_joint,
        form=form,
    )


def _objective(form, temp=None):
    """Objective on max(a, b): log-sum-exp softmax at ``temp``, exact subgradient when None.

    a = I(X;Y|U) and b is its ``_second_term``; the gradient mixes the two
    term gradients with weight wa on a.
    """

    def objective_and_grad(stats):
        a, b = stats.i_cond, _second_term(stats.i_joint, stats.i_cond, form)
        ga, gb = stats.g_cond, _second_term(stats.g_joint, stats.g_cond, form)
        values = np.maximum(a, b)
        if temp is None:
            wa = np.where(a > b + 1e-12, 1.0, np.where(b > a + 1e-12, 0.0, 0.5))
        else:
            # softmax weight of the a-term, numerically stable
            z = np.clip(so.LN2 * temp * (b - a), -60.0, 60.0)
            wa = 1.0 / (1.0 + np.exp(z))
            values = values + np.log2(
                np.exp(np.clip(so.LN2 * temp * (np.minimum(a, b) - values), -60.0, 0.0)) + 1.0
            ) / temp
        grads = wa[:, None, None, None] * ga + (1.0 - wa)[:, None, None, None] * gb
        return values, grads

    return objective_and_grad


def _pad_rows(rows, card_u):
    """Embed an (nx, ny, k) channel, k < card_u, into card_u symbols, eps mass on the rest."""
    nx, ny, k = rows.shape
    out = np.full((nx, ny, card_u), PAD_EPS / (card_u - k))
    out[:, :, :k] = rows * (1.0 - PAD_EPS)
    return out / out.sum(axis=-1, keepdims=True)


def _symmetric_binary_crossover(q):
    """Crossover parameter when q is a symmetric binary source, else None."""
    if q.shape != (2, 2):
        return None
    p = q.probs
    if abs(p[0, 0] - p[1, 1]) > 1e-12 or abs(p[0, 1] - p[1, 0]) > 1e-12:
        return None
    return float(p[0, 1] + p[1, 0])


def _structured_starts(q, card_u, opts):
    nx, ny = q.shape
    starts = []
    # degenerate auxiliary: nearly all mass on the first symbol
    starts.append(_pad_rows(np.ones((nx, ny, 1)), card_u))
    # uniform rows
    starts.append(np.full((nx, ny, card_u), 1.0 / card_u))
    # a Wyner-minimizing channel plus, for symmetric binary sources, points
    # on the interpolated family between it and the uninformative channel;
    # other sources get a reduced-budget solver run instead
    a = _symmetric_binary_crossover(q)
    if a is not None and 0.0 < a < 0.5:
        from .dsbs import interpolated_channel

        for t in (0.0, 0.25, 0.5, 0.75):
            rows = interpolated_channel(a, t).dense(2, 2)[:, :, :, 0, 0]
            starts.append(_pad_rows(rows, card_u))
    else:
        try:
            lite = replace(opts, restarts=min(8, opts.restarts))
            wres = wyner_ci(q, card_u=min(card_u, nx * ny), opts=lite)
            starts.append(_pad_rows(wres.channel.dense(nx, ny)[:, :, :, 0, 0], card_u))
        except SolverInfeasibleError:
            pass
    return starts


def ulsr_rate(q, form=UlsrForm.MAX_AVG, opts=None):
    """Minimize the chosen max-form objective over p(u|x,y), |U| = |X||Y| + 2.

    Always returns the best channel found; convergence information is in
    ``diagnostics``.  Deterministic for fixed (q, form, opts).
    """
    if not isinstance(q, JointPmf):
        raise PmfError("ulsr_rate: expected a JointPmf")
    if not isinstance(form, UlsrForm):
        form = UlsrForm(form)
    opts = opts or SolverOptions()
    nx, ny = q.shape
    card_u = nx * ny + 2
    qarr = q.probs
    # at most six structured starts plus one random row
    _check_batch_bytes("ulsr_rate", max(opts.restarts, 7), nx, ny, card_u)

    structured = _structured_starts(q, card_u, opts)
    n_random = max(opts.restarts - len(structured), 1)
    batch = so.normalize_rows(
        np.concatenate([np.stack(structured), so.random_channels(nx, ny, card_u, n_random, opts.seed)])
    )

    def candidate(batch, stats):
        return batch, _form_value(stats.i_cond, stats.i_joint, form), stats.i_cond

    candidates = [candidate(batch, so.ChannelStats(qarr, batch))]
    schedule = [("temperature", temp, _objective(form, temp)) for temp in TEMPERATURES]
    stages = []
    for batch, stats in so.descend(qarr, batch, schedule, opts, STEP0, stages):
        candidates.append(candidate(batch, stats))
    # polish on the exact kinked objective; its accepted row is the best
    # exact iterate, since the polish objective is the exact value
    batch, stats, frozen_at = so.eg_minimize(qarr, batch, _objective(form), opts.max_iters, opts.tol_objective, STEP0)
    stages.append(so.stage_record("polish", None, frozen_at, opts.max_iters))
    candidates.append(candidate(batch, stats))
    # per restart, the earliest candidate with the lowest exact value
    batches, values, residuals = (np.stack(c) for c in zip(*candidates))
    pick = (values.argmin(axis=0), np.arange(batch.shape[0]))
    best_batch, best_values = batches[pick], values[pick]
    winner = so.best_row(best_values, residuals[pick], best_batch)
    channel = AuxChannel.from_array(best_batch[winner])
    result = ulsr_objective(q, channel, form)
    ixy, h_min = _source_info(q)
    return replace(
        result,
        diagnostics={
            "restarts": best_batch.shape[0],
            "structured_starts": len(structured),
            "card_u": card_u,
            "best_values": np.sort(best_values)[:5].tolist(),
            "stages": stages,
            **_bracket(result.value, 0.5 * ixy, min(ixy, 0.5 * h_min)),
        },
    )
