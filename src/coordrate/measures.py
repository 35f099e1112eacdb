"""Shannon information quantities over finite joints, in bits.

All logarithms are base 2 and 0 * log 0 = 0 throughout.  ``source_info``
gives a source's H(X), H(Y) and I(X;Y) for the solvers' brackets and the
CLI.  The group-wise mutual informations operate on the five named axes of
a FullJoint.  The region bounds and the simulator use them; the solvers'
terms are tested against them.
"""

from __future__ import annotations

import itertools

import numpy as np

from .pmf import AXES, FullJoint, Pmf, PmfError, _is_real

#: tolerance on I(X;Y|U) in bits, for wyner_ci's feasibility, the simulator and each link of the region's chain alike
MARKOV_TOL = 1e-6
#: max iterations for the binary-entropy inversion bisection; the interval
#: tolerance sits at float resolution so steep regions still invert exactly
_INV_H_ITERS = 200
_INV_H_TOL = 1e-15


def table_entropy(arr):
    """Shannon entropy in bits of any nonnegative array summing to ~1."""
    arr = np.asarray(arr, dtype=np.float64)
    pos = arr[arr > 0]
    return float(-(pos * np.log2(pos)).sum())


def entropy(p):
    """Entropy H(p) of a Pmf in bits."""
    if not isinstance(p, Pmf):
        p = Pmf(p)
    return table_entropy(p.probs)


def source_info(q):
    """(H(X), H(Y), I(X;Y)) of a JointPmf q(x,y), in bits."""
    hx, hy = table_entropy(q.probs.sum(axis=1)), table_entropy(q.probs.sum(axis=0))
    return hx, hy, hx + hy - table_entropy(q.probs)


def _h(a):
    """h(a) for a float a in [0, 1], unchecked."""
    if a == 0.0 or a == 1.0:
        return 0.0
    return float(-a * np.log2(a) - (1.0 - a) * np.log2(1.0 - a))


def _check_unit(who, value):
    if not (_is_real(value) and 0.0 <= value <= 1.0):
        raise PmfError(f"{who}: argument must be a real in [0, 1], got {value!r}")
    return float(value)


def binary_entropy(a):
    """h(a) = -a log2 a - (1-a) log2(1-a) for a real a in [0, 1]."""
    return _h(_check_unit("binary_entropy", a))


def inverse_binary_entropy(y):
    """The unique x in [0, 0.5] with h(x) = y, by bisection."""
    return _inverse_h(_check_unit("inverse_binary_entropy", y))


def _inverse_h(y):
    """``inverse_binary_entropy`` for a float y in [0, 1], unchecked."""
    if y == 0.0:
        return 0.0
    if y == 1.0:
        return 0.5
    lo, hi = 0.0, 0.5
    for _ in range(_INV_H_ITERS):
        mid = 0.5 * (lo + hi)
        if _h(mid) < y:
            lo = mid
        else:
            hi = mid
        if hi - lo < _INV_H_TOL:
            break
    return 0.5 * (lo + hi)


def _group_axes(arg, group):
    if isinstance(group, str):
        group = (group,)
    try:
        names = list(group)
    except TypeError as exc:
        raise PmfError(f"mutual information: {arg} must be an axis name or a sequence of them, got {group!r}") from exc
    idx = []
    for name in names:
        if name not in AXES:
            raise PmfError(f"unknown axis {name!r}; valid axes are {AXES}")
        idx.append(AXES.index(name))
    return idx


def _joint_entropy(full, axis_idx):
    """H of the marginal of a FullJoint on the given (nonempty) axis indices (bits)."""
    drop = tuple(i for i in range(5) if i not in axis_idx)
    table = full.probs.sum(axis=drop) if drop else full.probs
    return table_entropy(table)


def mutual_information(full, group_a, group_b):
    """I(A; B) for two disjoint groups of named axes of a FullJoint."""
    return conditional_mutual_information(full, group_a, group_b, ())


def conditional_mutual_information(full, group_a, group_b, group_c):
    """I(A; B | C) for pairwise disjoint groups of named axes (C may be empty)."""
    return _informations(full, [_query_axes(group_a, group_b, group_c)])[0]


def _query_axes(group_a, group_b, group_c):
    """The axis-index lists (A, B, C) of a query of named axes, refused unless A and B are nonempty and all three disjoint."""
    named = [(g, _group_axes(arg, g)) for arg, g in zip(("group_a", "group_b", "group_c"), (group_a, group_b, group_c))]
    (_, a), (_, b), (_, c) = named
    if not a or not b:
        raise PmfError(f"mutual information needs nonempty groups A and B, got {group_a!r} and {group_b!r}")
    for (g1, axes1), (g2, axes2) in itertools.combinations(named, 2):
        if set(axes1) & set(axes2):
            raise PmfError(f"mutual information needs disjoint groups, got {g1!r} and {g2!r}")
    return a, b, c


def _informations(full, queries):
    """I(A; B | C) of a FullJoint for each ``_query_axes`` triple (A, B, C) of ``queries``.

    The marginal entropies come from one memo keyed by axis set, so a
    marginal that several queries share is summed once; each value is
    H(A,C) + H(B,C) - H(A,B,C) - H(C), bit for bit its query's alone.
    """
    if not isinstance(full, FullJoint):
        raise PmfError(f"mutual information needs a FullJoint, got {type(full).__name__}")
    memo = {(): 0.0}

    def h(axis_idx):
        key = tuple(sorted(axis_idx))
        if key not in memo:
            memo[key] = _joint_entropy(full, key)
        return memo[key]

    return [h(a + c) + h(b + c) - h(a + b + c) - h(c) for a, b, c in queries]
