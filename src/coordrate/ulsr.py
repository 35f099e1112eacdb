"""Optimal broadcast rate under unlimited shared randomness.

The rate is the minimum over channels p(u|x,y), |U| <= |X||Y| + 2, of
either of two equivalent objectives:

    MAX_PAIR: max{ I(X;Y|U), I(X,Y;U) }
    MAX_AVG:  max{ I(X;Y|U), (I(X,Y;U) + I(X;Y|U)) / 2 }

The max makes the objective kinked exactly where the two terms meet,
which is where the minimizer tends to sit.  Both forms run one descent:
it anneals a log-sum-exp softmax of MAX_AVG's two terms over increasing
temperatures, takes subgradient steps on MAX_AVG's exact max, the polish,
and then on MAX_PAIR's, the finish.  The form only picks the objective
that ranks the finish's batch.  The forms are equal wherever I(X;Y|U) >=
I(X,Y;U), and the finish's winners have landed there on every source
tried, so both answer alike.  The polish alone can stall off the kink at
a near-constant U, and where MAX_AVG's minimum is flat it is no answer
for MAX_PAIR: on X = Y, U = X minimizes MAX_AVG at H(X)/2, but MAX_PAIR
reads H(X) there.  Multi-start with structured initial channels: the
degenerate auxiliary, uniform rows, the interpolated family for
symmetric binary sources, plus random rows.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

import numpy as np

from . import _simplexopt as so
from .dsbs import _in_family, interpolated_channel
from .measures import source_info
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


def _objective(form, temp=None):
    """``form``'s ``so.max_objective``: I(X;Y|U)'s row first, the term it is maxed against last."""
    return so.max_objective(((0.0, 1.0), (1.0, 0.0) if form is UlsrForm.MAX_PAIR else (0.5, 0.5)), temp)


def _result(stats, row, channel, form):
    """UlsrResult of ``channel`` from row ``row`` of its ``ChannelStats``."""
    i_joint, i_cond = so.terms(stats, row)
    value = _objective(form)(np.array([[i_joint], [i_cond]]))[0]
    return UlsrResult(float(value[0]), channel, i_cond, i_joint, form)


def _check_form(who, form):
    """``form`` as a UlsrForm, given as a member or its value."""
    try:
        return UlsrForm(form)
    except ValueError as exc:
        raise PmfError(f"{who}: form must be a UlsrForm or one of {[f.value for f in UlsrForm]}, got {form!r}") from exc


def ulsr_objective(q, ch, form=UlsrForm.MAX_AVG):
    """Evaluate the chosen objective for one channel, no optimization."""
    if not isinstance(q, JointPmf) or not isinstance(ch, AuxChannel):
        raise PmfError("ulsr_objective: expected (JointPmf, AuxChannel)")
    form = _check_form("ulsr_objective", form)
    if ch.probs.shape[:2] != q.shape or ch.card_u1 != 1 or ch.card_u2 != 1:
        raise PmfError("ulsr_objective: channel must be a single-auxiliary p(u|x,y) on the source's grid")
    return _result(so.ChannelStats(so.Source(q.probs, ch.card_u), ch.probs[None, :, :, :, 0, 0]), 0, ch, form)


def _pad_rows(rows, card_u):
    """Embed an (nx, ny, k) channel, k < card_u, into card_u symbols, eps mass on the rest."""
    nx, ny, k = rows.shape
    out = np.full((nx, ny, card_u), PAD_EPS / (card_u - k))
    out[:, :, :k] = rows * (1.0 - PAD_EPS)
    return out / out.sum(axis=-1, keepdims=True)


def _structured_starts(q, card_u):
    # the degenerate auxiliary (nearly all mass on the first symbol) and uniform rows
    starts = [_pad_rows(np.ones((*q.shape, 1)), card_u), np.full((*q.shape, card_u), 1.0 / card_u)]
    # for a symmetric binary source whose crossover lies in the channel family's
    # range, points on the family between the Wyner-minimizing and the uninformative channel
    p = q.probs
    if q.shape == (2, 2) and abs(p[0, 0] - p[1, 1]) <= 1e-12 and abs(p[0, 1] - p[1, 0]) <= 1e-12:
        a = float(p[0, 1] + p[1, 0])
        if _in_family(a):
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
    form = _check_form("ulsr_rate", form)
    opts = so.options("ulsr_rate", opts)
    nx, ny = q.shape
    card_u = nx * ny + 2
    # at most six structured starts plus one random row
    so.check_batch_bytes("ulsr_rate", max(opts.restarts, 7), nx, ny, card_u)

    structured = _structured_starts(q, card_u)
    schedule = [("temperature", temp, _objective(UlsrForm.MAX_AVG, temp)) for temp in TEMPERATURES]
    # the exact runs' accepted rows are their best exact iterates
    exact = [("polish", None, _objective(UlsrForm.MAX_AVG)), ("finish", None, _objective(UlsrForm.MAX_PAIR))]
    batch, stats, stages = so.descend(q.probs, card_u, structured, schedule, opts, exact)
    values = _objective(form)(stats.i)[0]
    best = so.best_row(values, stats.i_cond, batch)
    result = _result(stats, best, AuxChannel(batch[best]), form)
    hx, hy, ixy = source_info(q)
    # the upper end is a theorem, so a value above it within the slack is rounding
    hi = max(min(ixy, 0.5 * min(hx, hy)), 0.0)
    if hi < result.value <= hi + so.BRACKET_SLACK:
        result = replace(result, value=hi)
    result.diagnostics.update(
        restarts=batch.shape[0],
        structured_starts=len(structured),
        card_u=card_u,
        best_values=np.sort(values)[:5].tolist(),
        kink_gap=result.term_cond - result.term_joint,
        stages=stages,
        **so.bracket(result.value, 0.5 * ixy, hi),
    )
    return result
