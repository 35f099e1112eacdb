"""Achievable rate region membership and bound evaluation.

The inner bound is parametrized by a channel p(u,u1,u2|x,y) whose
composition with the source satisfies the double Markov chain
X - (U,U1) - (U,U2) - Y.  Six lower bounds on linear combinations of
(R, R1, R2) follow, one row of ``COEFFICIENTS`` each; a rate triple is in
the region for that channel when all six hold.  The special case X = Y
almost surely has an exact region with just two inequalities.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass

from .measures import MARKOV_TOL, conditional_mutual_information, mutual_information
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
    defect = max(conditional_mutual_information(full, ("x",), ("y", "u2"), ("u", "u1")),
                 conditional_mutual_information(full, ("y",), ("x", "u1"), ("u", "u2")), 0.0)
    return defect <= MARKOV_TOL, defect


def achievable_bounds(q, aux):
    """Evaluate the six region bounds for a source and a certifying channel.

    Raises when either link of the composed joint's double Markov chain
    exceeds ``MARKOV_TOL`` bits, since the bound formulas presume the chain.
    """
    full = compose(q, aux)
    ok, defect = check_markov_quadruple(full)
    if not ok:
        raise PmfError(
            f"achievable_bounds: channel violates X-(U,U1)-(U,U2)-Y, defect {defect:.3e} bits"
        )
    i_cond_sides = conditional_mutual_information(full, ("u1",), ("u2",), ("u",))
    i_u = mutual_information(full, ("x", "y"), ("u",))
    i_u_u1 = mutual_information(full, ("x", "y"), ("u", "u1"))
    i_u_u2 = mutual_information(full, ("x", "y"), ("u", "u2"))
    i_all = mutual_information(full, ("x", "y"), ("u", "u1", "u2"))
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
    bounds = astuple(achievable_bounds(q, aux))[: len(COEFFICIENTS)]
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
