"""Wyner common information C(X;Y) by penalized min over p(u|x,y).

C(X;Y) is the minimum of I(X,Y;U) over auxiliary channels making X and Y
conditionally independent given U; it also equals the optimal broadcast
rate when the processors share no randomness.  That constraint is
I(X;Y|U) = 0, so the solver minimizes I(X,Y;U) + lambda * I(X;Y|U) over
PENALTIES: jittered warm-started stages at lambda = 1 to 1e3, then one
exact run at 1e7.  A restart counts as feasible when its final residual
I(X;Y|U) is <= MARKOV_TOL = 1e-6 bits; at 1e7 it falls below 1e-12.

The problem is not convex; the returned value is the best feasible point
over independently seeded restarts.  Off the feasible set I(X;Y|U) grows
quadratically and I(X,Y;U) can fall linearly, so the penalized minimum
lies just below C.  On DSBS(a), a = 0.05 to 0.4, at the default |U| = 4
the value lay in [C - 8.7e-8, C + 5.6e-9] bits at 16 restarts (seeds
0-11) and in [C - 8.7e-8, C - 8.7e-10] at the default 50 (seeds 0-3); at
|U| = 2, in [C - 1.41e-7, C - 1.4e-9] and [C - 1.41e-7, C - 3.8e-9]: it
is not a certified upper bound on C, and the tests bound it below by
C - 1e-6.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _simplexopt as so
from ._simplexopt import SolverOptions  # noqa: F401  (re-exported: the CLI, the package and perfbench read it here)
from .measures import MARKOV_TOL, source_info
from .pmf import AuxChannel, JointPmf, PmfError

#: increasing penalty weights lambda on I(X;Y|U), one warm-started run each; the last is not jittered
PENALTIES = (1.0, 10.0, 100.0, 1e3, 1e7)


class SolverInfeasibleError(RuntimeError):
    """No restart reached the conditional-independence tolerance."""


@dataclass(frozen=True)
class WynerResult:
    value: float
    channel: AuxChannel
    markov_defect: float
    diagnostics: dict = field(default_factory=dict, compare=False)


def wyner_ci(q, card_u=None, opts=None):
    """Best upper bound on C(X;Y) found over multi-start penalized descent.

    ``card_u`` defaults to |X||Y|, which suffices for the minimization.
    Raises SolverInfeasibleError when no restart ends with
    I(X;Y|U) <= 1e-6 bits, e.g. when ``card_u`` is too small.
    Deterministic for fixed (q, card_u, opts).
    """
    if not isinstance(q, JointPmf):
        raise PmfError("wyner_ci: expected a JointPmf")
    opts = so.options("wyner_ci", opts)
    nx, ny = q.shape
    card_u = so.check_int("wyner_ci", "card_u", card_u, 1) if card_u is not None else nx * ny
    so.check_batch_bytes("wyner_ci", opts.restarts, nx, ny, card_u)

    schedule = [("penalty", lam, so.max_objective(((1.0, lam),))) for lam in PENALTIES]
    batch, stats, stages = so.descend(q.probs, card_u, (), schedule[:-1], opts, schedule[-1:])
    feasible = stats.i_cond <= MARKOV_TOL
    if not feasible.any():
        raise SolverInfeasibleError(
            f"wyner_ci: no restart reached I(X;Y|U) <= {MARKOV_TOL} bits at penalty {PENALTIES[-1]:g} "
            f"with |U| = {card_u}; best residual {stats.i_cond.min():.3e} bits"
        )
    best = so.best_row(np.where(feasible, stats.i_joint, np.inf), stats.i_cond, batch)
    value, defect = so.terms(stats, best)
    hx, hy, ixy = source_info(q)
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
            **so.bracket(value, ixy, min(hx, hy)),
        },
    )

