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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measures import binary_entropy, entropy_vec4, inverse_binary_entropy
from .pmf import AuxChannel, PmfError
from .wyner import dsbs_wyner_channel

#: closed forms hold strictly inside the crossover range
_A_MIN_MARGIN = 1e-9
#: most points ``emit_curve`` evaluates; checked before the t grid is allocated
CURVE_POINTS_CAP = 10**5


def _check_a(a, allow_boundary=False):
    lo, hi = (0.0, 0.5) if allow_boundary else (_A_MIN_MARGIN, 0.5 - _A_MIN_MARGIN)
    if not lo <= a <= hi:
        raise PmfError(f"crossover must lie in ({lo}, {hi}), got {a!r}")


def crossover_b(a):
    """b = (1 - sqrt(1 - 2a)) / 2, the equivalent additive-noise flip rate."""
    return 0.5 * (1.0 - math.sqrt(1.0 - 2.0 * a))


def common_information(a):
    """Wyner's common information C = 1 + h(a) - 2 h(b) of DSBS(a), in bits (Wyner 1975)."""
    _check_a(a)
    return 1.0 + binary_entropy(a) - 2.0 * binary_entropy(crossover_b(a))


@dataclass(frozen=True)
class DsbsParams:
    """Crossover a and interpolation t with the derived b and alpha."""

    a: float
    t: float
    b: float = None
    alpha: float = None

    def __post_init__(self):
        _check_a(self.a)
        if not 0.0 <= self.t <= 1.0:
            raise PmfError(f"DsbsParams: t must lie in [0, 1], got {self.t!r}")
        b = crossover_b(self.a)
        alpha = (1.0 - self.t) * b * b + 0.5 * self.t * (1.0 - self.a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "alpha", alpha)


@dataclass(frozen=True)
class CurvePoint:
    t: float
    f: float
    i_joint: float
    i_cond: float


def interpolated_channel(a, t):
    """The channel p^t: convex combination of the flat and Wyner channels."""
    _check_a(a)
    if not 0.0 <= t <= 1.0:
        raise PmfError(f"interpolated_channel: t must lie in [0, 1], got {t!r}")
    wyner = dsbs_wyner_channel(a)
    rows = np.empty((2, 2, 2))
    for x in range(2):
        for y in range(2):
            rows[x, y] = t * 0.5 + (1.0 - t) * wyner.row(x, y)[:, 0, 0]
    return AuxChannel.from_array(rows)


def _h4(a, alpha):
    return entropy_vec4(alpha, 0.5 * a, 0.5 * a, 1.0 - a - alpha)


def i_joint_closed_form(a, t):
    """I(X,Y;U) under p^t, in bits."""
    p = DsbsParams(a, t)
    return 1.0 + binary_entropy(a) - _h4(a, p.alpha)


def i_cond_closed_form(a, t):
    """I(X;Y|U) under p^t, in bits."""
    p = DsbsParams(a, t)
    return 2.0 * binary_entropy(p.alpha + 0.5 * a) - _h4(a, p.alpha)


def f_of_t(a, t):
    """Curve point: both information terms and f = max{cond, (joint+cond)/2}."""
    i_joint = i_joint_closed_form(a, t)
    i_cond = i_cond_closed_form(a, t)
    return CurvePoint(t=t, f=max(i_cond, 0.5 * (i_joint + i_cond)), i_joint=i_joint, i_cond=i_cond)


def t_star(a):
    """Interpolation point where I(X,Y;U) = I(X;Y|U), the minimum of f.

    t* = (h^{-1}((1 + h(a))/2) - a/2 - b^2) / ((1-a)/2 - b^2).
    """
    _check_a(a)
    b = crossover_b(a)
    denom = 0.5 * (1.0 - a) - b * b
    if denom <= 1e-9:
        raise PmfError(f"t_star: degenerate interpolation range at a={a!r}")
    ts = (inverse_binary_entropy(0.5 * (1.0 + binary_entropy(a))) - 0.5 * a - b * b) / denom
    return ts


def emit_curve(a, num_points):
    """Curve points at uniformly spaced t covering both endpoints."""
    if not 2 <= num_points <= CURVE_POINTS_CAP:
        raise PmfError(f"emit_curve: need 2 to {CURVE_POINTS_CAP} points, got {num_points}")
    return [f_of_t(a, t) for t in np.linspace(0.0, 1.0, num_points)]


def write_curve_csv(points, path):
    """CSV columns t,f,i_joint,i_cond; 15 significant digits, LF endings."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("t,f,i_joint,i_cond\n")
        for p in points:
            fh.write(f"{p.t:.15g},{p.f:.15g},{p.i_joint:.15g},{p.i_cond:.15g}\n")
