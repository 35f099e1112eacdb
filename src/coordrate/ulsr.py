"""Optimal broadcast rate under unlimited shared randomness.

The rate is the minimum over channels p(u|x,y), |U| <= |X||Y| + 2, of
either of two equivalent objectives:

    MAX_PAIR: max{ I(X;Y|U), I(X,Y;U) }
    MAX_AVG:  max{ I(X;Y|U), (I(X,Y;U) + I(X;Y|U)) / 2 }

The max makes the objective kinked exactly where the two terms meet,
which is where the minimizer tends to sit.  The solver anneals a
log-sum-exp softmax of the two terms over increasing temperatures and
finishes with subgradient steps on the exact max, the polish; the answer
is the best row the polish returns.  Multi-start with structured initial
channels: the degenerate auxiliary, uniform rows, the interpolated
family for symmetric binary sources, plus random rows.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

import numpy as np

from . import _simplexopt as so
from .dsbs import interpolated_channel
from .pmf import AuxChannel, JointPmf, PmfError

#: softmax temperatures (1/bits) for annealing the kinked max
TEMPERATURES = (10.0, 100.0, 1000.0)
#: mass left on each unused auxiliary symbol when padding structured starts
PAD_EPS = 1e-3


class UlsrForm(enum.Enum):
    MAX_PAIR = "maxpair"
    MAX_AVG = "maxavg"


@dataclass(frozen=True)
class UlsrResult:
    #: the channel's objective, or its bracket's upper end when at most so.BRACKET_SLACK above it
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
    """The exact objective max{I(X;Y|U), _second_term}."""
    return np.maximum(i_cond, _second_term(i_joint, i_cond, form))


def _result(stats, row, channel, form):
    """UlsrResult of ``channel`` from row ``row`` of its ``ChannelStats``."""
    i_joint, i_cond = so.terms(stats, row)
    return UlsrResult(float(_form_value(i_cond, i_joint, form)), channel, i_cond, i_joint, form)


def ulsr_objective(q, ch, form=UlsrForm.MAX_AVG):
    """Evaluate the chosen objective for one channel, no optimization."""
    if not isinstance(q, JointPmf) or not isinstance(ch, AuxChannel):
        raise PmfError("ulsr_objective: expected (JointPmf, AuxChannel)")
    form = UlsrForm(form)
    if ch.probs.shape[:2] != q.shape or ch.card_u1 != 1 or ch.card_u2 != 1:
        raise PmfError("ulsr_objective: channel must be a single-auxiliary p(u|x,y) on the source's grid")
    return _result(so.ChannelStats(q.probs, ch.probs[None, :, :, :, 0, 0]), 0, ch, form)


def _objective(form, temp=None):
    """Objective on max(a, b): log-sum-exp softmax at ``temp``, exact subgradient when None.

    a = I(X;Y|U) and b is its ``_second_term``; the gradient mixes the two
    term gradients with weight wa on a.
    """

    def objective_and_grad(stats):
        a, b = stats.i_cond, _second_term(stats.i_joint, stats.i_cond, form)
        ga, gb = stats.g_cond, _second_term(stats.g_joint, stats.g_cond, form)
        values = _form_value(stats.i_cond, stats.i_joint, form)
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


def _structured_starts(q, card_u):
    # the degenerate auxiliary (nearly all mass on the first symbol) and uniform rows
    starts = [_pad_rows(np.ones((*q.shape, 1)), card_u), np.full((*q.shape, card_u), 1.0 / card_u)]
    # for a symmetric binary source of crossover a in (0, 1/2), points on the
    # interpolated family between the Wyner-minimizing and the uninformative channel
    p = q.probs
    if q.shape == (2, 2) and abs(p[0, 0] - p[1, 1]) <= 1e-12 and abs(p[0, 1] - p[1, 0]) <= 1e-12:
        a = float(p[0, 1] + p[1, 0])
        if 0.0 < a < 0.5:
            for t in (0.0, 0.25, 0.5, 0.75):
                starts.append(_pad_rows(interpolated_channel(a, t).probs[:, :, :, 0, 0], card_u))
    return starts


def ulsr_rate(q, form=UlsrForm.MAX_AVG, opts=None):
    """Minimize the chosen max-form objective over p(u|x,y), |U| = |X||Y| + 2.

    Always returns the best channel found; convergence information is in
    ``diagnostics``.  Deterministic for fixed (q, form, opts).
    """
    if not isinstance(q, JointPmf):
        raise PmfError("ulsr_rate: expected a JointPmf")
    form = UlsrForm(form)
    opts = so.options("ulsr_rate", opts)
    nx, ny = q.shape
    card_u = nx * ny + 2
    # at most six structured starts plus one random row
    so.check_batch_bytes("ulsr_rate", max(opts.restarts, 7), nx, ny, card_u)

    structured = _structured_starts(q, card_u)
    schedule = [("temperature", temp, _objective(form, temp)) for temp in TEMPERATURES]
    # the polish runs on the exact max, so its accepted row is the best exact iterate
    batch, stats, stages = so.descend(q.probs, card_u, structured, schedule, opts, polish=_objective(form))
    values = _form_value(stats.i_cond, stats.i_joint, form)
    best = so.best_row(values, stats.i_cond, batch)
    result = _result(stats, best, AuxChannel(batch[best]), form)
    ixy, h_min = so.source_info(q)
    # the upper end is a theorem, so a value above it within the slack is rounding
    hi = max(min(ixy, 0.5 * h_min), 0.0)
    if hi < result.value <= hi + so.BRACKET_SLACK:
        result = replace(result, value=hi)
    result.diagnostics.update(
        restarts=batch.shape[0],
        structured_starts=len(structured),
        card_u=card_u,
        best_values=np.sort(values)[:5].tolist(),
        stages=stages,
        **so.bracket(result.value, 0.5 * ixy, hi),
    )
    return result
