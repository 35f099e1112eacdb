"""Achievable rate region membership and bound evaluation.

The inner bound is parametrized by a channel p(u,u1,u2|x,y) whose
composition with the source satisfies the double Markov chain
X - (U,U1) - (U,U2) - Y.  Six lower bounds on linear combinations of
(R, R1, R2) follow, one row of ``COEFFICIENTS`` each; a rate triple is in
the region for that channel when all six hold; ``achievable_bounds``
takes every information term from one memo of marginal entropies.  The
special case X = Y almost surely has an exact region with just two
inequalities.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import starmap

from .measures import MARKOV_TOL, _informations, _query_axes
from .pmf import PmfError, _is_real, compose

#: slack applied to the non-strict membership inequalities
MEMBERSHIP_SLACK = 1e-12
#: the (R, R1, R2) coefficients of the six inequalities' left-hand sides,
#: one row each, in ``RegionBounds`` field order
COEFFICIENTS = (
    (1.0, 1.0, 0.0),
    (1.0, 0.0, 1.0),
    (1.0, 0.0, 0.0),
    (1.0, 1.0, 1.0),
    (2.0, 1.0, 1.0),
    (2.0, 0.0, 0.0),
)
#: the chain's two links, I(X; Y,U2 | U,U1) and I(Y; X,U1 | U,U2), as ``_query_axes`` triples
_LINKS = tuple(starmap(_query_axes, ((("x",), ("y", "u2"), ("u", "u1")), (("y",), ("x", "u1"), ("u", "u2")))))
#: the bounds' terms I(U1;U2|U), I(XY;U), I(XY;U,U1), I(XY;U,U2) and I(XY;U,U1,U2), likewise
_TERMS = tuple(starmap(_query_axes, (
    (("u1",), ("u2",), ("u",)),
    (("x", "y"), ("u",), ()),
    (("x", "y"), ("u", "u1"), ()),
    (("x", "y"), ("u", "u2"), ()),
    (("x", "y"), ("u", "u1", "u2"), ()),
)))


@dataclass(frozen=True)
class RateTriple:
    """Common message rate and the two shared-randomness rates, bits/symbol."""

    r: float
    r1: float
    r2: float

    def __post_init__(self):
        for name, value in (("r", self.r), ("r1", self.r1), ("r2", self.r2)):
            if not (_is_real(value) and value >= 0):
                raise PmfError(f"RateTriple: {name} must be finite and nonnegative, got {value!r}")


@dataclass(frozen=True)
class RegionBounds:
    """Right-hand sides of the six region inequalities, in bits, in the row order of ``COEFFICIENTS``."""

    b_r_r1: float
    b_r_r2: float
    b_r: float
    b_r_r1_r2: float
    b_2r_r1_r2: float
    b_2r: float
    markov_defect: float


def check_markov_quadruple(full):
    """Does X - (U,U1) - (U,U2) - Y hold for this joint?

    Each link, I(X; Y,U2 | U,U1) and I(Y; X,U1 | U,U2), is zero exactly when its factorization
    holds; returns (defect <= MARKOV_TOL, defect), the defect the larger link.  For constant
    U1 and U2 both links are I(X;Y|U), the defect the Wyner solver and the simulator test.
    """
    return _chain(*_informations(full, _LINKS))


def _chain(link_x, link_y):
    defect = max(link_x, link_y, 0.0)
    return defect <= MARKOV_TOL, defect


def achievable_bounds(q, aux):
    """Evaluate the six region bounds for a source and a certifying channel.

    Both links of the composed joint's double Markov chain and the five
    information terms share one memo, so each of their 13 distinct
    marginals is summed once; every value is bit for bit its own
    ``conditional_mutual_information``.  Raises when either link exceeds
    ``MARKOV_TOL`` bits, since the bound formulas presume the chain.
    """
    full = compose(q, aux)
    link_x, link_y, i_cond_sides, i_u, i_u_u1, i_u_u2, i_all = _informations(full, _LINKS + _TERMS)
    ok, defect = _chain(link_x, link_y)
    if not ok:
        raise PmfError(
            f"achievable_bounds: channel violates X-(U,U1)-(U,U2)-Y, defect {defect:.3e} bits"
        )
    return RegionBounds(
        b_r_r1=i_u_u1,
        b_r_r2=i_u_u2,
        b_r=i_cond_sides,
        b_r_r1_r2=i_cond_sides + i_all,
        b_2r_r1_r2=i_cond_sides + i_u + i_all,
        b_2r=i_cond_sides + i_u,
        markov_defect=defect,
    )


def in_achievable_region(q, aux, rates):
    """Does each row of ``COEFFICIENTS`` hold against the channel's bounds, non-strict with 1e-12 slack?"""
    if not isinstance(rates, RateTriple):
        raise PmfError(f"in_achievable_region: rates must be a RateTriple, got {type(rates).__name__}")
    bd = achievable_bounds(q, aux)
    bounds = (bd.b_r_r1, bd.b_r_r2, bd.b_r, bd.b_r_r1_r2, bd.b_2r_r1_r2, bd.b_2r)
    return all(
        a * rates.r + b * rates.r1 + c * rates.r2 >= bound - MEMBERSHIP_SLACK
        for (a, b, c), bound in zip(COEFFICIENTS, bounds)
    )


def xy_equal_region(hx, rates):
    """Exact region for X = Y almost surely: R + min{R1, R2} >= H(X), R >= H(X)/2."""
    if not (_is_real(hx) and hx >= 0):
        raise PmfError(f"xy_equal_region: entropy must be finite and nonnegative, got {hx!r}")
    if not isinstance(rates, RateTriple):
        raise PmfError(f"xy_equal_region: rates must be a RateTriple, got {type(rates).__name__}")
    s = MEMBERSHIP_SLACK
    return (
        rates.r + min(rates.r1, rates.r2) >= hx - s
        and rates.r >= 0.5 * hx - s
    )
