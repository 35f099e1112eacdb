"""Exact finite-alphabet probability objects and file I/O.

Everything downstream (information measures, solvers, region checks, the
simulator) works on the types defined here: plain pmf vectors, joint
|X| x |Y| tables, conditional channels p(u,u1,u2|x,y) and dense joints
over the five coordinates (x, y, u, u1, u2).

Probabilities are float64.  Inputs are validated against the simplex with
tolerance 1e-9 and never silently renormalized; compositions are checked
at 1e-12.  All objects are immutable after construction, so they are safe
to share across threads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

SUM_TOL = 1e-9
COMPOSE_TOL = 1e-12

#: axis order of a full joint table
AXES = ("x", "y", "u", "u1", "u2")


class PmfError(ValueError):
    """Invalid probability data: negative mass, bad normalization, bad shape."""


def _check_simplex(arr, what, tol=SUM_TOL):
    arr = np.asarray(arr, dtype=np.float64)
    if arr.size == 0:
        raise PmfError(f"{what}: empty probability table")
    if not np.all(np.isfinite(arr)):
        raise PmfError(f"{what}: non-finite entry")
    if np.any(arr < 0):
        raise PmfError(f"{what}: negative entry {arr.min()!r}")
    total = float(arr.sum())
    if abs(total - 1.0) > tol:
        raise PmfError(f"{what}: entries sum to {total!r}, expected 1 within {tol}")
    return arr


def _frozen(arr):
    out = np.array(arr, dtype=np.float64)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Pmf:
    """Probability mass function on a finite alphabet."""

    probs: np.ndarray

    def __post_init__(self):
        arr = _check_simplex(self.probs, "Pmf")
        if arr.ndim != 1:
            raise PmfError(f"Pmf: expected 1-d vector, got shape {arr.shape}")
        object.__setattr__(self, "probs", _frozen(arr))

    @property
    def alphabet_size(self):
        return self.probs.shape[0]


@dataclass(frozen=True)
class JointPmf:
    """Joint distribution q(x, y) on an |X| x |Y| grid, row index = x."""

    probs: np.ndarray
    labels_x: tuple[str, ...] | None = None
    labels_y: tuple[str, ...] | None = None

    def __post_init__(self):
        arr = _check_simplex(self.probs, "JointPmf")
        if arr.ndim != 2:
            raise PmfError(f"JointPmf: expected 2-d matrix, got shape {arr.shape}")
        object.__setattr__(self, "probs", _frozen(arr))
        for name, labels, size in (
            ("labels_x", self.labels_x, arr.shape[0]),
            ("labels_y", self.labels_y, arr.shape[1]),
        ):
            if labels is not None:
                labels = tuple(str(s) for s in labels)
                if len(labels) != size:
                    raise PmfError(f"JointPmf: {name} has {len(labels)} entries for axis of size {size}")
                object.__setattr__(self, name, labels)

    @property
    def shape(self):
        return self.probs.shape


@dataclass(frozen=True)
class AuxChannel:
    """Conditional pmf p(u, u1, u2 | x, y), one row per source cell.

    ``cond`` maps (x, y) index pairs to arrays of shape
    (card_u, card_u1, card_u2).  Rows may be omitted for cells that carry
    no source probability; coverage is checked when composing with a
    concrete joint.  The common single-auxiliary case is card_u1 = card_u2 = 1.
    """

    cond: dict[tuple[int, int], np.ndarray]
    card_u: int
    card_u1: int = 1
    card_u2: int = 1

    def __post_init__(self):
        for card, name in ((self.card_u, "card_u"), (self.card_u1, "card_u1"), (self.card_u2, "card_u2")):
            if not isinstance(card, (int, np.integer)) or card < 1:
                raise PmfError(f"AuxChannel: {name} must be a positive integer, got {card!r}")
        shape = (self.card_u, self.card_u1, self.card_u2)
        rows = {}
        for key, row in self.cond.items():
            x, y = key
            if x < 0 or y < 0:
                raise PmfError(f"AuxChannel: negative cell index {key}")
            arr = _check_simplex(row, f"AuxChannel row {key}")
            arr = arr.reshape(shape) if arr.size == np.prod(shape) else arr
            if arr.shape != shape:
                raise PmfError(
                    f"AuxChannel row {key}: size {arr.size} does not match cardinalities {shape}"
                )
            rows[(int(x), int(y))] = _frozen(arr)
        object.__setattr__(self, "cond", rows)

    @classmethod
    def from_array(cls, rows, card_u=None, card_u1=1, card_u2=1):
        """Build from a dense (nx, ny, card_u[, card_u1, card_u2]) array."""
        rows = np.asarray(rows, dtype=np.float64)
        if rows.ndim == 3:
            rows = rows[:, :, :, None, None]
        if rows.ndim != 5:
            raise PmfError(f"AuxChannel.from_array: expected 3-d or 5-d array, got {rows.ndim}-d")
        cu = rows.shape[2] if card_u is None else card_u
        cond = {
            (x, y): rows[x, y]
            for x in range(rows.shape[0])
            for y in range(rows.shape[1])
        }
        return cls(cond=cond, card_u=cu, card_u1=rows.shape[3], card_u2=rows.shape[4])

    def row(self, x, y):
        return self.cond[(int(x), int(y))]

    def has_row(self, x, y):
        return (int(x), int(y)) in self.cond

    def dense(self, nx, ny):
        """Dense (nx, ny, card_u, card_u1, card_u2) view; missing rows become uniform."""
        out = np.full(
            (nx, ny, self.card_u, self.card_u1, self.card_u2),
            1.0 / (self.card_u * self.card_u1 * self.card_u2),
        )
        for (x, y), row in self.cond.items():
            if x < nx and y < ny:
                out[x, y] = row
        return out


@dataclass(frozen=True)
class FullJoint:
    """Dense joint over (x, y, u, u1, u2); degenerate axes have size 1."""

    probs: np.ndarray
    labels_x: tuple[str, ...] | None = field(default=None, compare=False)
    labels_y: tuple[str, ...] | None = field(default=None, compare=False)

    def __post_init__(self):
        arr = _check_simplex(self.probs, "FullJoint")
        if arr.ndim != 5:
            raise PmfError(f"FullJoint: expected 5-d table over {AXES}, got shape {arr.shape}")
        object.__setattr__(self, "probs", _frozen(arr))

    @property
    def shape(self):
        return self.probs.shape

    def axis(self, name):
        try:
            return AXES.index(name)
        except ValueError:
            raise PmfError(f"FullJoint: unknown axis {name!r}; valid axes are {AXES}") from None


def dsbs_joint(a):
    """Doubly symmetric binary source: diagonal mass (1-a)/2, off-diagonal a/2."""
    if not 0.0 <= a <= 0.5:
        raise PmfError(f"dsbs_joint: crossover must lie in [0, 0.5], got {a!r}")
    d, o = 0.5 * (1.0 - a), 0.5 * a
    return JointPmf(np.array([[d, o], [o, d]]), labels_x=("0", "1"), labels_y=("0", "1"))


def tv_distance(p, q):
    """Total variation distance: half the L1 difference of two same-shape pmfs."""
    pa, qa = (obj.probs if hasattr(obj, "probs") else np.asarray(obj, dtype=np.float64) for obj in (p, q))
    if pa.shape != qa.shape:
        raise PmfError(f"tv_distance: shape mismatch {pa.shape} vs {qa.shape}")
    return 0.5 * float(np.abs(pa - qa).sum())


def marginal(p, axes):
    """Sum out all axes not named in ``axes``.

    For a JointPmf the axis names are 'x' and 'y'; for a FullJoint any of
    ('x', 'y', 'u', 'u1', 'u2').  Returns a Pmf for a single kept axis and
    a JointPmf for two kept axes (in the listed order).
    """
    if isinstance(axes, str):
        axes = (axes,)
    axes = tuple(axes)
    if not axes:
        raise PmfError("marginal: empty axis set")
    if len(set(axes)) != len(axes):
        raise PmfError(f"marginal: duplicate axes in {axes}")

    if isinstance(p, JointPmf):
        valid = ("x", "y")
    elif isinstance(p, FullJoint):
        valid = AXES
    else:
        raise PmfError(f"marginal: expected JointPmf or FullJoint, got {type(p).__name__}")
    for name in axes:
        if name not in valid:
            raise PmfError(f"marginal: unknown axis {name!r} for {type(p).__name__}")

    keep = [valid.index(name) for name in axes]
    drop = tuple(i for i in range(len(valid)) if i not in keep)
    table = p.probs.sum(axis=drop) if drop else p.probs
    # summing leaves the kept axes in original order; permute to caller's order
    table = np.transpose(table, axes=[sorted(keep).index(k) for k in keep])
    if len(axes) == 1:
        return Pmf(table)
    if len(axes) == 2:
        return JointPmf(table)
    raise PmfError("marginal: at most two axes can be kept")


def compose(q, aux):
    """Chain rule q(x,y) * p(u,u1,u2|x,y) as a dense FullJoint.

    Every source cell with q(x,y) > 0 must have a conditional row; rows on
    zero-probability cells are ignored.  The (x, y) marginal of the result
    matches q to within 1e-12 by construction.
    """
    if not isinstance(q, JointPmf) or not isinstance(aux, AuxChannel):
        raise PmfError("compose: expected (JointPmf, AuxChannel)")
    nx, ny = q.shape
    out = np.zeros((nx, ny, aux.card_u, aux.card_u1, aux.card_u2))
    for x in range(nx):
        for y in range(ny):
            mass = q.probs[x, y]
            if mass == 0.0:
                continue
            if not aux.has_row(x, y):
                raise PmfError(f"compose: missing conditional row for support cell ({x}, {y})")
            out[x, y] = mass * aux.row(x, y)
    full = FullJoint(out, labels_x=q.labels_x, labels_y=q.labels_y)
    back = full.probs.sum(axis=(2, 3, 4))
    if np.abs(back - q.probs).max() > COMPOSE_TOL:
        raise PmfError("compose: (x, y) marginal drifted beyond 1e-12")
    return full


def degenerate_channel(nx, ny):
    """Trivial channel with a single auxiliary symbol on every cell."""
    return AuxChannel.from_array(np.ones((nx, ny, 1, 1, 1)))


# ---------------------------------------------------------------------------
# file formats


def load_joint_pmf(path):
    """Read a joint distribution from a JSON file.

    Expected fields: ``alphabet_x`` and ``alphabet_y`` (lists of symbol
    names) and ``pmf`` (row-major matrix of decimals, row index = x).
    Invalid data raises PmfError; nothing is renormalized.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise PmfError(f"load_joint_pmf: cannot parse {path}: {exc}") from exc
    try:
        arr = np.asarray(doc["pmf"], dtype=np.float64)
        labels = (doc.get("alphabet_x"), doc.get("alphabet_y"))
        labels_x, labels_y = (None if v is None else tuple(v) for v in labels)
    except (TypeError, KeyError, ValueError) as exc:
        raise PmfError(f"load_joint_pmf: missing or bad field in {path}: {exc}") from exc
    if arr.ndim != 2:
        raise PmfError(f"load_joint_pmf: pmf must be a matrix, got shape {arr.shape}")
    return JointPmf(arr, labels_x=labels_x, labels_y=labels_y)


def save_joint_pmf(q, path):
    doc = {
        "alphabet_x": list(q.labels_x) if q.labels_x else [str(i) for i in range(q.shape[0])],
        "alphabet_y": list(q.labels_y) if q.labels_y else [str(i) for i in range(q.shape[1])],
        "pmf": q.probs.tolist(),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def load_aux_channel(path):
    """Read an auxiliary channel from a JSON file.

    Expected fields: ``card_u``, ``card_u1``, ``card_u2`` and ``cond``, a
    map from "x,y" index pairs to flattened probability vectors over
    (u, u1, u2) in row-major order.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise PmfError(f"load_aux_channel: cannot parse {path}: {exc}") from exc
    try:
        cards = (int(doc["card_u"]), int(doc.get("card_u1", 1)), int(doc.get("card_u2", 1)))
        raw = doc["cond"]
    except (TypeError, KeyError, ValueError) as exc:
        raise PmfError(f"load_aux_channel: missing or bad field in {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise PmfError(f"load_aux_channel: cond in {path} must map 'x,y' keys to probability vectors")
    cond = {}
    for key, vec in raw.items():
        try:
            x_s, y_s = key.split(",")
            cell = (int(x_s), int(y_s))
        except ValueError as exc:
            raise PmfError(f"load_aux_channel: bad cell key {key!r}, expected 'x,y' indices") from exc
        try:
            cond[cell] = np.asarray(vec, dtype=np.float64).reshape(cards)
        except (TypeError, ValueError) as exc:
            raise PmfError(f"load_aux_channel: row {key!r} is not {cards} probabilities: {exc}") from exc
    return AuxChannel(cond=cond, card_u=cards[0], card_u1=cards[1], card_u2=cards[2])


def save_aux_channel(aux, path):
    doc = {
        "card_u": aux.card_u,
        "card_u1": aux.card_u1,
        "card_u2": aux.card_u2,
        "cond": {f"{x},{y}": row.ravel().tolist() for (x, y), row in sorted(aux.cond.items())},
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
