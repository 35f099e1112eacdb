"""Closed forms for the doubly symmetric binary source DSBS(a).

For crossover a the source is q(x,y) with diagonal mass (1-a)/2 and
off-diagonal mass a/2.  The channel family

    p^t(u|x,y) = t * p_flat(u|x,y) + (1-t) * p_w(u|x,y),   t in [0, 1]

interpolates between the uninformative channel p_flat (every row one half)
and the Wyner-minimizing channel p_w.  Along the family, with
b = (1 - sqrt(1 - 2a)) / 2 and alpha = (1-t) b^2 + t (1-a)/2:

    I(X,Y;U) = 1 + h(a) - h4(alpha, a/2, a/2, 1-a-alpha)
    I(X;Y|U) = 2 h(alpha + a/2) - h4(alpha, a/2, a/2, 1-a-alpha)

and the broadcast-rate curve is f(t) = max{I(X;Y|U), (I(X,Y;U)+I(X;Y|U))/2}.
The two information terms cross at a closed-form t*, the minimum of f.

One private kernel evaluates the curve over a whole array of t in one
array pass, with the per-point arithmetic: the plog p terms of the four
cells of h4 summed left to right, 0 log 0 = 0, and h(p) = -p log2 p -
(1-p) log2(1-p).  ``curve_rows`` runs it once on its grid and ``f_of_t``
is its one-point case, so a curve point and the matching ``f_of_t`` are
equal bit for bit.  ``curve_rows`` hands the kernel's arrays out as plain
(t, f, i_joint, i_cond) tuples, ``emit_curve`` names them as
``CurvePoint``s, and ``curve_csv_lines``, the one CSV formatter, takes
either with one ``%.15g`` format a row.

Each crossover range is tested in one place, whose check returns a float:
a source's [0, 1/2] (``pmf._check_crossover``), the channel family's
(0, 1/2) (``_in_family``) and the closed-form curve's (``_check_a``).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .measures import _h, _inverse_h
from .pmf import AuxChannel, PmfError, _check_crossover, _is_int, _is_real

#: most points ``emit_curve`` evaluates; checked before the t grid is allocated
CURVE_POINTS_CAP = 10**5


def _check_a(a):
    lo, hi = 1e-9, 0.5 - 1e-9  # the closed forms hold strictly inside the source's range
    if not (_is_real(a) and lo <= a <= hi):
        raise PmfError(f"crossover must lie in [{lo}, {hi}], got {a!r}")
    return float(a)


def _in_family(a):
    """Is ``a`` a crossover of the channel family, a real strictly inside (0, 1/2)?"""
    return _is_real(a) and 0.0 < a < 0.5


def _check_t(who, t):
    if not (_is_real(t) and 0.0 <= t <= 1.0):
        raise PmfError(f"{who}: t must lie in [0, 1], got {t!r}")
    return float(t)


def _b(a):
    """``crossover_b`` for a float a in [0, 1/2], unchecked."""
    return 0.5 * (1.0 - math.sqrt(1.0 - 2.0 * a))


def crossover_b(a):
    """b = (1 - sqrt(1 - 2a)) / 2, the equivalent additive-noise flip rate, for a crossover a in [0, 1/2]."""
    return _b(_check_crossover("crossover_b", a))


def common_information(a):
    """Wyner's common information C = 1 + h(a) - 2 h(b) of DSBS(a), in bits (Wyner 1975)."""
    a = _check_a(a)
    return 1.0 + _h(a) - 2.0 * _h(_b(a))


class CurvePoint(NamedTuple):
    """One curve point, the tuple (t, f, i_joint, i_cond) of a ``curve_rows`` row with names."""

    t: float
    f: float
    i_joint: float
    i_cond: float


def _wyner_rows(who, a):
    """The (2, 2, 2) table of ``dsbs_wyner_channel``, refused unless ``_in_family(a)``."""
    if not _in_family(a):
        raise PmfError(f"{who}: crossover must lie strictly inside (0, 0.5), got {a!r}")
    a = float(a)
    b = _b(a)
    r = b * b / (1.0 - a)
    return np.array([[[1.0 - r, r], [0.5, 0.5]], [[0.5, 0.5], [r, 1.0 - r]]])


def dsbs_wyner_channel(a):
    """Closed-form minimizing channel for the doubly symmetric binary source.

    With b = ``crossover_b(a)`` the rows are p(0|0,1) = p(1|1,0) = 0.5
    and p(1|0,0) = p(0|1,1) = b^2 / (1 - a), complements accordingly.
    """
    return AuxChannel(_wyner_rows("dsbs_wyner_channel", a))


def interpolated_channel(a, t):
    """The channel p^t: convex combination of the flat and Wyner channels."""
    rows, t = _wyner_rows("interpolated_channel", a), _check_t("interpolated_channel", t)
    return AuxChannel(t * 0.5 + (1.0 - t) * rows)


def _curve(a, t):
    """f, I(X,Y;U) and I(X;Y|U) at every entry of the float array ``t`` in [0, 1], in bits."""
    a = _check_a(a)
    b = _b(a)
    # b^2 <= alpha <= (1-a)/2, so the four cells are >= 0 and sum to 1 up to rounding
    alpha = (1.0 - t) * b * b + 0.5 * t * (1.0 - a)
    cells = np.stack(np.broadcast_arrays(alpha, 0.5 * a, 0.5 * a, 1.0 - a - alpha))
    plogp = cells * np.log2(cells, out=np.zeros_like(cells), where=cells > 0.0)
    h4 = -(((plogp[0] + plogp[1]) + plogp[2]) + plogp[3])
    p = alpha + 0.5 * a
    h_p = -p * np.log2(p) - (1.0 - p) * np.log2(1.0 - p)
    i_joint = 1.0 + _h(a) - h4
    i_cond = 2.0 * h_p - h4
    return np.maximum(i_cond, 0.5 * (i_joint + i_cond)), i_joint, i_cond


def f_of_t(a, t):
    """Curve point: both information terms and f = max{cond, (joint+cond)/2}."""
    t = _check_t("f_of_t", t)
    (f,), (i_joint,), (i_cond,) = (v.tolist() for v in _curve(a, np.array([t], dtype=np.float64)))
    return CurvePoint(t=t, f=f, i_joint=i_joint, i_cond=i_cond)


def t_star(a):
    """Interpolation point where I(X,Y;U) = I(X;Y|U), the minimum of f.

    t* = (h^{-1}((1 + h(a))/2) - a/2 - b^2) / ((1-a)/2 - b^2); over the
    curve's crossover range the denominator is at least 2.2e-5.
    """
    a = _check_a(a)
    b = _b(a)
    return (_inverse_h(0.5 * (1.0 + _h(a))) - 0.5 * a - b * b) / (0.5 * (1.0 - a) - b * b)


def curve_rows(a, num_points):
    """(t, f, i_joint, i_cond) tuples at ``num_points`` (an integer) uniformly spaced t covering both endpoints."""
    if not (_is_int(num_points) and 2 <= num_points <= CURVE_POINTS_CAP):
        raise PmfError(f"curve_rows: need 2 to {CURVE_POINTS_CAP} points, got {num_points!r}")
    t = np.linspace(0.0, 1.0, num_points)
    return list(zip(t.tolist(), *(v.tolist() for v in _curve(a, t))))


def emit_curve(a, num_points):
    """``curve_rows(a, num_points)`` as ``CurvePoint``s."""
    return list(map(CurvePoint._make, curve_rows(a, num_points)))


def curve_csv_lines(points):
    """CSV lines with columns t,f,i_joint,i_cond from ``CurvePoint``s or ``curve_rows`` rows; 15 significant digits, LF endings."""
    yield "t,f,i_joint,i_cond\n"
    yield from map("%.15g,%.15g,%.15g,%.15g\n".__mod__, points)


def write_curve_csv(points, path):
    """Write ``curve_csv_lines(points)`` to ``path``."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(curve_csv_lines(points))
