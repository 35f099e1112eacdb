"""Wyner common information C(X;Y) by penalized min over p(u|x,y).

C(X;Y) is the minimum of I(X,Y;U) over auxiliary channels making X and Y
conditionally independent given U; it also equals the optimal broadcast
rate when the processors share no randomness.  The conditional
independence constraint is equivalent to I(X;Y|U) = 0, so the solver
minimizes I(X,Y;U) + lambda * I(X;Y|U) with lambda swept over PENALTIES,
warm-starting each stage, and requires the final residual I(X;Y|U) <=
MARKOV_TOL = 1e-6 bits for a restart to count as feasible.

The problem is not convex; the returned value is the best feasible point
over independently seeded restarts.  The last stage, lambda = 1e7, leaves
residuals below 1e-12 bits.  On DSBS(a), a = 0.05 to 0.4 at 16 restarts and
seeds 0-11, the value lay in [C - 3.7e-8, C + 4.3e-7] bits, so it is not a
certified upper bound on C; the tests bound it below by C - 1e-6.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import _simplexopt as so
from .measures import MARKOV_TOL, table_entropy
from .pmf import AuxChannel, JointPmf, PmfError, _is_int, _is_real

#: increasing penalty weights lambda on I(X;Y|U), one warm-started stage each
PENALTIES = (1.0, 10.0, 100.0, 1e3, 1e4, 1e5, 1e6, 1e7)
#: base step size for the exponentiated-gradient updates
STEP0 = 2.0
#: slack in bits when checking a solver value against its known bracket
BRACKET_SLACK = 1e-9
#: cap on the solver working memory: the solvers hold at most 32 float64
#: arrays of the (restarts, nx, ny, card_u) batch at once, 256 bytes per cell
BATCH_BYTES_CAP = 2**30


def _check_int(who, name, value, low):
    """``value`` as an int when it is an integer, not a bool, and >= ``low``; else PmfError."""
    if not (_is_int(value) and value >= low):
        raise PmfError(f"{who}: {name} must be an integer >= {low}, got {value!r}")
    return int(value)


class SolverInfeasibleError(RuntimeError):
    """No restart reached the conditional-independence tolerance."""


@dataclass(frozen=True)
class SolverOptions:
    restarts: int = 50
    max_iters: int = 5000
    tol_objective: float = 1e-9
    seed: int = 0

    def __post_init__(self):
        for name, low in (("restarts", 1), ("max_iters", 1), ("seed", 0)):
            object.__setattr__(self, name, _check_int("SolverOptions", name, getattr(self, name), low))
        if not (_is_real(self.tol_objective) and self.tol_objective > 0):
            raise PmfError(f"SolverOptions: tol_objective must be finite and > 0, got {self.tol_objective!r}")


@dataclass(frozen=True)
class WynerResult:
    value: float
    channel: AuxChannel
    markov_defect: float
    diagnostics: dict = field(default_factory=dict, compare=False)


def _source_info(q):
    """(I(X;Y), min(H(X), H(Y))) of the source, in bits."""
    hx, hy = table_entropy(q.probs.sum(axis=1)), table_entropy(q.probs.sum(axis=0))
    return hx + hy - table_entropy(q.probs), min(hx, hy)


def _bracket(value, lo, hi):
    """Diagnostics entries recording whether ``value`` lies in its known bracket."""
    return {"bracket": [lo, hi], "within_bracket": bool(lo - BRACKET_SLACK <= value <= hi + BRACKET_SLACK)}


def _check_batch_bytes(who, restarts, nx, ny, card_u):
    """Refuse a restart batch whose solver working arrays would exceed BATCH_BYTES_CAP."""
    need = 256 * restarts * nx * ny * card_u
    if need > BATCH_BYTES_CAP:
        raise PmfError(
            f"{who}: {restarts} restarts of {nx}x{ny}x{card_u} channels need {need} bytes, cap is {BATCH_BYTES_CAP}"
        )


def _penalized(lam, stats):
    """Objective I(X,Y;U) + lam * I(X;Y|U) and its gradient."""
    return stats.i_joint + lam * stats.i_cond, stats.g_joint + lam * stats.g_cond


def wyner_ci(q, card_u=None, opts=None):
    """Best upper bound on C(X;Y) found over multi-start penalized descent.

    ``card_u`` defaults to |X||Y|, which suffices for the minimization.
    Raises SolverInfeasibleError when no restart ends with
    I(X;Y|U) <= 1e-6 bits, e.g. when ``card_u`` is too small.
    Deterministic for fixed (q, card_u, opts).
    """
    if not isinstance(q, JointPmf):
        raise PmfError("wyner_ci: expected a JointPmf")
    opts = opts or SolverOptions()
    nx, ny = q.shape
    card_u = _check_int("wyner_ci", "card_u", card_u, 1) if card_u is not None else nx * ny
    _check_batch_bytes("wyner_ci", opts.restarts, nx, ny, card_u)

    schedule = [("penalty", lam, partial(_penalized, lam)) for lam in PENALTIES]
    stages = []
    # the start batch goes in unnamed, so it is freed once the first stage replaces it
    batch, stats = so.descend(q.probs, so.random_channels(nx, ny, card_u, opts.restarts, opts.seed), schedule, opts, STEP0, stages)
    feasible = stats.i_cond <= MARKOV_TOL
    if not feasible.any():
        raise SolverInfeasibleError(
            f"wyner_ci: no restart reached I(X;Y|U) <= {MARKOV_TOL} bits at penalty {PENALTIES[-1]:g} "
            f"with |U| = {card_u}; best residual {stats.i_cond.min():.3e} bits"
        )
    best = so.best_row(np.where(feasible, stats.i_joint, np.inf), stats.i_cond, batch)
    # both terms are nonnegative; rounding can leave a zero just below it
    value, defect = max(float(stats.i_joint[best]), 0.0), max(float(stats.i_cond[best]), 0.0)
    ixy, h_min = _source_info(q)
    return WynerResult(
        value=value,
        channel=AuxChannel(batch[best]),
        markov_defect=defect,
        diagnostics={
            "restarts": opts.restarts,
            "feasible_restarts": int(feasible.sum()),
            "card_u": card_u,
            "values": np.sort(stats.i_joint[feasible])[: min(5, int(feasible.sum()))].tolist(),
            "stages": stages,
            **_bracket(value, ixy, h_min),
        },
    )


def no_sr_rate(q, opts=None):
    """Optimal broadcast rate with zero shared randomness: C(X;Y) with |U| = |X||Y| + 2."""
    if not isinstance(q, JointPmf):
        raise PmfError("no_sr_rate: expected a JointPmf")
    nx, ny = q.shape
    return wyner_ci(q, card_u=nx * ny + 2, opts=opts)
