"""Exact finite-alphabet probability objects and file I/O.

Everything downstream (information measures, solvers, region checks, the
simulator) works on the types defined here: plain pmf vectors, joint
|X| x |Y| tables, conditional channels p(u,u1,u2|x,y) and dense joints
over the five coordinates (x, y, u, u1, u2).

Probabilities are float64.  Inputs are validated against the simplex with
tolerance 1e-9 and never silently renormalized.  All objects are immutable
after construction, so they are safe to share across threads.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass

import numpy as np

SUM_TOL = 1e-9
#: most bytes of the table ``load_aux_channel`` builds; ``region check`` and ``simulate`` peak at about 3 and 5 times it
AUX_TABLE_BYTES_CAP = 2**27

#: axis order of a full joint table
AXES = ("x", "y", "u", "u1", "u2")


class PmfError(ValueError):
    """Invalid probability data: negative mass, bad normalization, bad shape."""


def _is_int(value):
    """Is ``value`` a Python or numpy integer other than a bool?"""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_real(value):
    """Is ``value`` a Python or numpy real other than a bool, and finite as a float64?"""
    try:
        return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)
    except OverflowError:  # an int beyond the float64 range
        return False


def _float_array(value, who):
    """``value`` as a float64 array; PmfError naming ``who`` when it is ragged or holds a non-number."""
    try:
        return np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise PmfError(f"{who} must be an array of real numbers: {exc}") from exc


def _check_simplex(arr, what):
    arr = _float_array(arr, f"{what}: probs")
    if arr.size == 0:
        raise PmfError(f"{what}: empty probability table")
    if not np.all(np.isfinite(arr)):
        raise PmfError(f"{what}: non-finite entry")
    if np.any(arr < 0):
        raise PmfError(f"{what}: negative entry {arr.min()!r}")
    total = float(arr.sum())
    if abs(total - 1.0) > SUM_TOL:
        raise PmfError(f"{what}: entries sum to {total!r}, expected 1 within {SUM_TOL}")
    return arr


def _frozen(arr):
    out = np.array(arr, dtype=np.float64)
    out.setflags(write=False)
    return out


def _of_checked_factors(cls, arr):
    """A ``cls`` (Pmf or FullJoint) holding ``arr``, a new array derived from checked tables, unchecked.

    A product of two factors within ``SUM_TOL`` of 1 can miss 1 by twice
    it, so a second check would refuse inputs that passed every check.
    """
    out = object.__new__(cls)
    arr.setflags(write=False)
    object.__setattr__(out, "probs", arr)
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
                try:
                    labels = tuple(str(s) for s in labels)
                except TypeError as exc:
                    raise PmfError(f"JointPmf: {name} must be a sequence of symbol names, got {labels!r}") from exc
                if len(labels) != size:
                    raise PmfError(f"JointPmf: {name} has {len(labels)} entries for axis of size {size}")
                seen = set()
                for label in labels:
                    if label in seen:
                        raise PmfError(f"JointPmf: {name} names symbol {label!r} twice")
                    seen.add(label)
                object.__setattr__(self, name, labels)

    @property
    def shape(self):
        return self.probs.shape


@dataclass(frozen=True)
class AuxChannel:
    """Conditional pmf p(u, u1, u2 | x, y) as a dense table.

    ``probs`` has shape (nx, ny, card_u, card_u1, card_u2) with one row
    per source cell; a 3-d (nx, ny, card_u) array is the common
    single-auxiliary case card_u1 = card_u2 = 1.
    """

    probs: np.ndarray

    def __post_init__(self):
        arr = _float_array(self.probs, "AuxChannel: probs")
        if arr.ndim == 3:
            arr = arr[:, :, :, None, None]
        if arr.ndim != 5 or arr.size == 0:
            raise PmfError(f"AuxChannel: expected a nonempty 3-d or 5-d table, got shape {arr.shape}")
        # NaN fails both tests, and an infinite entry fails one of them
        rows_ok = (arr >= 0).all(axis=(2, 3, 4)) & (np.abs(arr.sum(axis=(2, 3, 4)) - 1.0) <= SUM_TOL)
        if not rows_ok.all():
            x, y = np.argwhere(~rows_ok)[0]
            raise PmfError(f"AuxChannel row ({x}, {y}): entries must be finite, >= 0 and sum to 1 within {SUM_TOL}")
        object.__setattr__(self, "probs", _frozen(arr))

    @classmethod
    def from_array(cls, rows):
        """The constructor under its older name, ``AuxChannel(rows)``; ``perfbench/workloads.py`` is its last caller."""
        return cls(rows)

    @property
    def card_u(self):
        return self.probs.shape[2]

    @property
    def card_u1(self):
        return self.probs.shape[3]

    @property
    def card_u2(self):
        return self.probs.shape[4]


@dataclass(frozen=True)
class FullJoint:
    """Dense joint over (x, y, u, u1, u2); degenerate axes have size 1."""

    probs: np.ndarray

    def __post_init__(self):
        arr = _check_simplex(self.probs, "FullJoint")
        if arr.ndim != 5:
            raise PmfError(f"FullJoint: expected 5-d table over {AXES}, got shape {arr.shape}")
        object.__setattr__(self, "probs", _frozen(arr))

    @property
    def shape(self):
        return self.probs.shape


def _check_crossover(who, a):
    """``a`` as a float, refused unless it is a DSBS crossover: a real in [0, 1/2]."""
    if not (_is_real(a) and 0.0 <= a <= 0.5):
        raise PmfError(f"{who}: crossover must lie in [0, 0.5], got {a!r}")
    return float(a)


def dsbs_joint(a):
    """Doubly symmetric binary source: diagonal mass (1-a)/2, off-diagonal a/2."""
    a = _check_crossover("dsbs_joint", a)
    d, o = 0.5 * (1.0 - a), 0.5 * a
    return JointPmf(np.array([[d, o], [o, d]]), labels_x=("0", "1"), labels_y=("0", "1"))


def tv_distance(p, q):
    """Total variation distance: half the L1 difference of two same-shape pmfs of finite entries.

    Two JointPmfs are compared symbol by symbol: on an axis where both name
    their symbols (``JointPmf`` names each once), q's entries are taken in
    p's label order, and labels that are not the same set of names are
    refused.  An axis unlabeled on either side is compared by position.
    """
    pa, qa = (_float_array(getattr(obj, "probs", obj), f"tv_distance: {name}") for name, obj in (("p", p), ("q", q)))
    for name, arr in (("p", pa), ("q", qa)):
        if not np.isfinite(arr).all():
            raise PmfError(f"tv_distance: {name} has a non-finite entry")
    if pa.shape != qa.shape:
        raise PmfError(f"tv_distance: shape mismatch {pa.shape} vs {qa.shape}")
    if isinstance(p, JointPmf) and isinstance(q, JointPmf):
        for axis, mine, theirs in ((0, p.labels_x, q.labels_x), (1, p.labels_y, q.labels_y)):
            if mine is None or theirs is None or mine == theirs:
                continue
            where = {s: i for i, s in enumerate(theirs)}
            if set(mine) != where.keys():
                raise PmfError(f"tv_distance: q's {AXES[axis]} symbols {list(theirs)} are not p's {list(mine)} reordered")
            qa = np.take(qa, [where[s] for s in mine], axis=axis)
    return 0.5 * float(np.abs(pa - qa).sum())


def marginal(p, axes):
    """Sum out all axes not named in ``axes``.

    For a JointPmf the axis names are 'x' and 'y'; for a FullJoint any of
    ('x', 'y', 'u', 'u1', 'u2').  Returns a Pmf for a single kept axis and
    a JointPmf for two kept axes (in the listed order).
    """
    if isinstance(axes, str):
        axes = (axes,)
    try:
        axes = tuple(axes)
    except TypeError as exc:
        raise PmfError(f"marginal: axes must be an axis name or a sequence of them, got {axes!r}") from exc
    if not axes:
        raise PmfError("marginal: empty axis set")

    if isinstance(p, JointPmf):
        valid = ("x", "y")
    elif isinstance(p, FullJoint):
        valid = AXES
    else:
        raise PmfError(f"marginal: expected JointPmf or FullJoint, got {type(p).__name__}")
    for name in axes:
        if not (isinstance(name, str) and name in valid):
            raise PmfError(f"marginal: unknown axis {name!r} for {type(p).__name__}")
    if len(set(axes)) != len(axes):
        raise PmfError(f"marginal: duplicate axes in {axes}")

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

    The channel's (x, y) grid must be q's.  Each channel row sums to 1
    within ``SUM_TOL`` (``AuxChannel`` checks it), so the (x, y) marginal
    of the result is within q(x,y) * ``SUM_TOL`` of q and the whole table,
    which is not checked again, sums to 1 within about 2 ``SUM_TOL``.
    """
    if not isinstance(q, JointPmf) or not isinstance(aux, AuxChannel):
        raise PmfError("compose: expected (JointPmf, AuxChannel)")
    if aux.probs.shape[:2] != q.shape:
        raise PmfError(f"compose: channel grid {aux.probs.shape[:2]} does not match source shape {q.shape}")
    return _of_checked_factors(FullJoint, q.probs[:, :, None, None, None] * aux.probs)


def degenerate_channel(nx, ny):
    """Trivial channel with a single auxiliary symbol on every cell."""
    for name, size in (("nx", nx), ("ny", ny)):
        if not (_is_int(size) and size >= 1):
            raise PmfError(f"degenerate_channel: {name} must be an integer >= 1, got {size!r}")
    return AuxChannel(np.ones((nx, ny, 1, 1, 1)))


# ---------------------------------------------------------------------------
# file formats


def _unique_keys(pairs):
    """A JSON object's (key, value) pairs as a dict; ValueError on a key given twice, which ``json`` would keep the last of."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ValueError(f"key {key!r} is given twice in one object")
        doc[key] = value
    return doc


#: one decoder for every file, as ``json.load`` keeps one for its defaults
_DECODER = json.JSONDecoder(object_pairs_hook=_unique_keys)


def _read_json(path, who):
    # ValueError covers bad JSON, bad UTF-8, repeated keys and integers beyond Python's digit limit
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return _DECODER.decode(fh.read())
    except (OSError, ValueError, RecursionError) as exc:
        raise PmfError(f"{who}: cannot parse {path}: {exc}") from exc


def _json_floats(value):
    """Nested JSON lists of numbers as a float64 array; TypeError on any other entry, e.g. true, which numpy reads as 1."""
    arr = np.asarray(value, dtype=np.float64)
    entries = [value]
    for _ in range(arr.ndim):
        entries = [v for row in entries for v in row]
    bad = [v for v in entries if type(v) not in (int, float)]
    if bad:
        raise TypeError(f"entries must be JSON numbers, got {bad[0]!r}")
    return arr


def _write_json(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def load_joint_pmf(path):
    """Read a joint distribution from a JSON file.

    Expected fields: ``alphabet_x`` and ``alphabet_y`` (lists of symbol
    names, each named once) and ``pmf`` (row-major matrix of decimals, row
    index = x).  Invalid data, a key given twice in one object included,
    raises PmfError; nothing is renormalized.
    """
    doc = _read_json(path, "load_joint_pmf")
    try:
        arr = _json_floats(doc["pmf"])
        labels_x, labels_y = doc.get("alphabet_x"), doc.get("alphabet_y")
    except (TypeError, KeyError, ValueError, OverflowError) as exc:
        raise PmfError(f"load_joint_pmf: missing or bad field in {path}: {exc}") from exc
    if not all(v is None or isinstance(v, list) for v in (labels_x, labels_y)):
        raise PmfError(f"load_joint_pmf: alphabet_x and alphabet_y in {path} must be lists of symbol names")
    return JointPmf(arr, labels_x=labels_x, labels_y=labels_y)


def save_joint_pmf(q, path):
    if not isinstance(q, JointPmf):
        raise PmfError(f"save_joint_pmf: q must be a JointPmf, got {type(q).__name__}")
    doc = {
        "alphabet_x": list(q.labels_x) if q.labels_x else [str(i) for i in range(q.shape[0])],
        "alphabet_y": list(q.labels_y) if q.labels_y else [str(i) for i in range(q.shape[1])],
        "pmf": q.probs.tolist(),
    }
    _write_json(path, doc)


def load_aux_channel(path, q):
    """Read the auxiliary channel for source ``q`` from a JSON file.

    Expected fields: ``card_u``, ``card_u1`` and ``card_u2`` (JSON integers
    >= 1; the last two default to 1) and ``cond``, a map from "x,y" index
    pairs to flattened probability vectors over (u, u1, u2) in row-major
    order.  Rows are resolved against q here: every cell with q(x,y) > 0
    needs a row, an omitted zero-mass cell gets the uniform row, and a row
    for a cell outside q's grid is ignored.  A cell given twice, under one
    key or two ("0,0" and " 0,0"), is refused.  A table past
    ``AUX_TABLE_BYTES_CAP`` is refused unbuilt.
    """
    if not isinstance(q, JointPmf):
        raise PmfError(f"load_aux_channel: q must be a JointPmf, got {type(q).__name__}")
    doc = _read_json(path, "load_aux_channel")
    if not isinstance(doc, dict) or not isinstance(doc.get("cond"), dict):
        raise PmfError(f"load_aux_channel: cond in {path} must map 'x,y' keys to probability vectors")
    cards = (doc.get("card_u"), doc.get("card_u1", 1), doc.get("card_u2", 1))
    if not all(type(c) is int and c >= 1 for c in cards):
        raise PmfError(f"load_aux_channel: card_u, card_u1 and card_u2 in {path} must be integers >= 1, got {cards}")
    size = math.prod(cards)
    nx, ny = q.shape
    need = 8 * nx * ny * size  # each omitted zero-mass cell becomes a full row too
    if need > AUX_TABLE_BYTES_CAP:
        raise PmfError(f"load_aux_channel: a {nx}x{ny} table of {cards} rows needs {need} bytes, cap is {AUX_TABLE_BYTES_CAP}")
    rows = {}
    for key, vec in doc["cond"].items():
        try:
            x, y = (int(i) for i in key.split(","))
        except ValueError as exc:
            raise PmfError(f"load_aux_channel: bad cell key {key!r}, expected 'x,y' indices") from exc
        if x < 0 or y < 0:
            raise PmfError(f"load_aux_channel: negative cell index in key {key!r}")
        try:
            row = _json_floats(vec)
        except (TypeError, ValueError, OverflowError) as exc:
            raise PmfError(f"load_aux_channel: row {key!r} is not {size} probabilities: {exc}") from exc
        if row.size != size:
            raise PmfError(f"load_aux_channel: row {key!r} has {row.size} entries, cardinalities {cards} need {size}")
        if (x, y) in rows:
            raise PmfError(f"load_aux_channel: cell ({x}, {y}) is given twice, the second time as key {key!r}")
        rows[x, y] = row.reshape(cards)
    for x, y in np.argwhere(q.probs > 0):
        if (x, y) not in rows:
            raise PmfError(f"load_aux_channel: missing conditional row for support cell ({x}, {y})")
    probs = np.full((nx, ny, *cards), 1.0 / size)
    for (x, y), row in rows.items():
        if x < nx and y < ny:
            probs[x, y] = row
    return AuxChannel(probs)


def save_aux_channel(aux, path):
    if not isinstance(aux, AuxChannel):
        raise PmfError(f"save_aux_channel: aux must be an AuxChannel, got {type(aux).__name__}")
    doc = {
        "card_u": aux.card_u,
        "card_u1": aux.card_u1,
        "card_u2": aux.card_u2,
        "cond": {f"{x},{y}": aux.probs[x, y].ravel().tolist() for x, y in np.ndindex(aux.probs.shape[:2])},
    }
    _write_json(path, doc)
