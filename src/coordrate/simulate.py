"""Seeded Monte Carlo implementation of the coordination coding scheme.

One trial mirrors the operational scheme: shared randomness gives each
processor half of a common bin index m0 = (m01, m02) plus a private
codeword index b_i.  Codebooks are drawn per the generation order
u ~ p(u), then x | u and y | u conditionally independently.  The
coordinator searches the bin for the first candidate index m* whose
codeword triple is typical for the composed target joint, broadcasts
(m01 XOR m02, m*), and each processor reconstructs m0 from its own half
and emits its codeword.  That reconstruction is exact by construction, so
``run_trials`` emits the rows the coordinator's search drew; processor 1's
row is a function of (m01, m02, b1, m*) alone and processor 2's of
(m01, m02, b2, m*), which the isolation test pins.  Rates follow the
accounting R = R0/2 + R*, R_i = Rt_i + R0/2.

A run holds the codebooks fixed and varies only the shared-randomness
draws across trials: the induced distribution being estimated is that of
one concrete code, which is what makes insufficient rates measurable (too
few codewords get reused and their sampling noise never averages out).
Codewords are never materialized as full tables: each codebook block is a
deterministic function of (seed, code stream, indices) through the stream
of numpy's ``default_rng([seed, 0, stream, *indices])``, which keeps
memory flat while preserving the i.i.d. codebook statistics and exact
reproducibility; blocks are drawn from the calling thread's generator, so
threads may share one code.  A seeded result does not depend on how
``run_trials`` chunks and orders the trials or on how ``_search`` splits
their bin searches into parts.

The report pools the per-position (x, y) pairs over all trials into an
empirical per-letter joint.  Its distance to the target lower-bounds the
block-level criterion, so a large value certifies failure while a small
value is necessary for success.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from ._seeding import _srandom, draw_integers, draw_uniforms, seed_words
from .measures import MARKOV_TOL, conditional_mutual_information
from .pmf import AuxChannel, JointPmf, Pmf, _is_int, _is_real, _of_checked_factors, _write_json, compose, tv_distance

#: hard cap on each index-set size (desk-scale memory guard)
INDEX_CAP = 2**20
#: cap on the bytes of one search row plus one trial's emitted rows, which is
#: the least ``run_trials`` holds
BLOCK_BYTES_CAP = 2**30
#: cap on the symbols a run may test, trials * n* * n: every trial's search
#: failing tests all n* rows of n symbols
WORK_CAP = 2**32

_W_STREAM, _U_STREAM, _X_STREAM, _Y_STREAM = 0, 1, 2, 3
#: cap on the bytes of the arrays one part of a search round holds, and on
#: those one chunk of trials holds (at least one row or trial each)
_ROUND_BYTES = 2**18


class SimulationError(ValueError):
    """Invalid simulator configuration."""


def _index_size(name, n, rate):
    """ceil(2^(n*rate)) entries, refused before exponentiating if above INDEX_CAP."""
    exponent = n * rate
    if exponent > math.log2(INDEX_CAP):
        raise SimulationError(
            f"SimConfig: {name} index set needs 2^{exponent:g} entries, cap is 2^{math.log2(INDEX_CAP):g}"
        )
    return max(1, math.ceil(2.0 ** exponent - 1e-9))


@dataclass(frozen=True)
class SimRates:
    """Scheme rates in bits/symbol: bin rate r0, index rate r_star, codeword rates rt1, rt2."""

    r0: float
    r_star: float
    rt1: float
    rt2: float

    def __post_init__(self):
        for name in ("r0", "r_star", "rt1", "rt2"):
            value = getattr(self, name)
            if not (_is_real(value) and value >= 0):
                raise SimulationError(f"SimRates: {name} must be finite and nonnegative, got {value!r}")

    @property
    def r(self):
        """Common message rate R = R0/2 + R*."""
        return 0.5 * self.r0 + self.r_star

    @property
    def r1(self):
        """Shared randomness rate of processor 1: Rt1 + R0/2."""
        return self.rt1 + 0.5 * self.r0

    @property
    def r2(self):
        return self.rt2 + 0.5 * self.r0


@dataclass(frozen=True)
class SimConfig:
    q: JointPmf
    channel: AuxChannel
    n: int
    rates: SimRates
    eps_typ: float = 0.1
    trials: int = 1
    seed: int = 0
    max_markov_defect: float = MARKOV_TOL

    def __post_init__(self):
        for name, kind in (("q", JointPmf), ("channel", AuxChannel), ("rates", SimRates)):
            value = getattr(self, name)
            if not isinstance(value, kind):
                raise SimulationError(f"SimConfig: {name} must be a {kind.__name__}, got {type(value).__name__}")
        for name, low, high, rule in (
            ("seed", 0, math.inf, "must be a nonnegative integer"),
            ("n", 1, math.inf, "(block length) must be an integer >= 1"),
            # a trial number is one 32-bit word of its stream key
            ("trials", 1, 2**32, "must lie in [1, 2^32] and be an integer"),
        ):
            value = getattr(self, name)
            if not (_is_int(value) and low <= value <= high):
                raise SimulationError(f"SimConfig: {name} {rule}, got {value!r}")
            object.__setattr__(self, name, int(value))
        if not (_is_real(self.eps_typ) and self.eps_typ > 0):
            raise SimulationError(f"SimConfig: eps_typ must be finite and > 0, got {self.eps_typ!r}")
        _check_max_defect("SimConfig: max_markov_defect", self.max_markov_defect)
        if self.channel.card_u1 != 1 or self.channel.card_u2 != 1:
            raise SimulationError("SimConfig: scheme uses a single auxiliary, need card_u1 = card_u2 = 1")

    def _row_bytes(self):
        """Search row bytes: 57 a symbol (3 uniforms, 3 symbols, a threshold, a mask byte), 24 a ``_typical_mask`` cell."""
        return 57 * self.n + 24 * self.channel.card_u * self.q.probs.size

    def index_sizes(self):
        """Sizes (n01, nstar, nb1, nb2); m0 ranges over n01 * n01 pairs.

        Refused with SimulationError when an index set exceeds INDEX_CAP,
        one search row (``_row_bytes``) plus one trial's emitted pair cells
        (8 bytes a symbol) would exceed BLOCK_BYTES_CAP, or trials * n* * n,
        the symbols a run tests when every search fails, would exceed WORK_CAP.
        """
        n = self.n
        sizes = (
            _index_size("m0 half", n, 0.5 * self.rates.r0),
            _index_size("m*", n, self.rates.r_star),
            _index_size("b1", n, self.rates.rt1),
            _index_size("b2", n, self.rates.rt2),
        )
        row_bytes = self._row_bytes() + 8 * n
        if row_bytes > BLOCK_BYTES_CAP:
            raise SimulationError(
                f"SimConfig: one search row and one trial's emitted rows at n = {n} "
                f"need {row_bytes} bytes, cap is {BLOCK_BYTES_CAP}"
            )
        work = self.trials * sizes[1] * n
        if work > WORK_CAP:
            raise SimulationError(
                f"SimConfig: trials * n* * n = {self.trials} * {sizes[1]} * {n} = {work} symbols "
                f"tested when every search fails, cap is {WORK_CAP}"
            )
        return sizes


@dataclass(frozen=True)
class SimReport:
    empirical_joint: JointPmf
    tv_per_letter: float
    mstar_failure_rate: float
    trials_run: int
    config_echo: dict = field(default_factory=dict, compare=False)

    def to_dict(self):
        return {
            "empirical_joint": self.empirical_joint.probs.tolist(),
            "tv_per_letter": self.tv_per_letter,
            "mstar_failure_rate": self.mstar_failure_rate,
            "trials_run": self.trials_run,
            "config_echo": self.config_echo,
        }

    def save(self, path):
        _write_json(path, self.to_dict())


def _check_max_defect(name, value):
    """Refuse a bound on I(X;Y|U) that is not a finite real >= 0 (a bool or a string is not one)."""
    if not (_is_real(value) and value >= 0):
        raise SimulationError(f"{name} must be a finite real >= 0, got {value!r}")


def derive_components(channel, q, max_defect=MARKOV_TOL):
    """Per-letter generation components of the composed joint.

    Returns (p_u, p_x_given_u, p_y_given_u) where the conditionals are
    (card_u, |X|) and (card_u, |Y|) arrays.  The scheme draws x and y
    conditionally independently given u, so the composed joint must be
    close to a chain X - U - Y; the residual I(X;Y|U) may not exceed
    ``max_defect`` bits.
    """
    return _generation(compose(q, channel), max_defect)[1:]


def _generation(full, max_defect):
    """(joint_uxy, p_u, p_x_given_u, p_y_given_u) of a composed joint."""
    _check_max_defect("derive_components: max_defect", max_defect)
    defect = conditional_mutual_information(full, ("x",), ("y",), ("u",))
    if defect > max_defect:
        raise SimulationError(
            f"derive_components: composed channel has I(X;Y|U) = {defect:.3e} bits "
            f"> {max_defect}; the scheme presumes X - U - Y"
        )
    joint_uxy = full.probs[:, :, :, 0, 0].transpose(2, 0, 1)
    p_u = joint_uxy.sum(axis=(1, 2))
    # conditionals on zero-mass auxiliary symbols are never sampled; keep uniform
    safe = np.maximum(p_u, 1e-300)
    p_x_given_u = joint_uxy.sum(axis=2) / safe[:, None]
    p_y_given_u = joint_uxy.sum(axis=1) / safe[:, None]
    zero = p_u <= 0
    p_x_given_u[zero] = 1.0 / joint_uxy.shape[1]
    p_y_given_u[zero] = 1.0 / joint_uxy.shape[2]
    return joint_uxy, _of_checked_factors(Pmf, p_u), p_x_given_u, p_y_given_u


def _sample(cum, uniforms, given):
    """Inverse-CDF sampling: the number of entries of row ``given`` of ``cum`` at or below each uniform, as int64.

    ``cum`` is a (rows, k) table whose rows are nondecreasing and end at
    exactly 1, which no uniform in [0, 1) reaches, so the count is the first
    index whose entry exceeds the uniform.  ``given`` is each uniform's row
    (or one for all), read one threshold at a time: 9 bytes a uniform for any k.
    """
    idx = np.empty(uniforms.shape, dtype=np.int64)
    np.greater_equal(uniforms, np.take(cum[:, 0], given), out=idx)
    for j in range(1, cum.shape[1] - 1):
        idx += uniforms >= np.take(cum[:, j], given)
    return idx


def _int_array(who, value):
    """``value`` as an array, refused before any cast unless it is rectangular of an integer dtype (not bool)."""
    try:
        array = np.asarray(value)
    except ValueError:  # ragged
        array = np.asarray(None)
    if array.dtype.kind in "iu":  # bool's kind is "b"
        return array
    raise SimulationError(f"{who} must be a rectangular array of integers, got dtype {array.dtype}")


class Codebooks:
    """Keyed access to the codeword tables of one code, in the generation order u, then x | u and y | u.

    Each (nstar, n) block is a deterministic function of its indices through
    a seeded stream, so coordinator and processors read the same codewords.
    Blocks for distinct indices come from distinct seeded streams and are
    therefore independent, matching a single i.i.d. codebook draw.  No block
    is stored: ``states`` keys the u, x and y blocks of many trials in one
    table, and ``rows`` samples rows [start, stop) of all of them, each from
    the block's stream advanced to where row ``start`` begins, so any range
    equals the same rows of a full draw.  A ``Codebooks`` holds no generator
    and nothing in it changes after construction, so threads may share one.
    """

    def __init__(self, cfg):
        if not isinstance(cfg, SimConfig):
            raise SimulationError(f"Codebooks: cfg must be a SimConfig, got {type(cfg).__name__}")
        self.cfg = cfg
        # the size refusals come first: they cost no composition
        self.n01, self.nstar, self.nb1, self.nb2 = cfg.index_sizes()
        self.target_uxy, self.p_u, self.p_x_given_u, self.p_y_given_u = _generation(
            compose(cfg.q, cfg.channel), cfg.max_markov_defect
        )
        #: exclusive bounds of a trial row (m01, m02, b1, b2)
        self.bounds = (self.n01, self.n01, self.nb1, self.nb2)
        #: inverse-CDF tables of u (one row), x and y (one row per u symbol)
        self._cum = tuple(np.cumsum(p, axis=1) for p in (self.p_u.probs[None], self.p_x_given_u, self.p_y_given_u))
        for cum in self._cum:
            cum[:, -1] = 1.0

    def states(self, table):
        """(3, trials, 4) ``_srandom`` rows of the u, x and y blocks of the trial rows (m01, m02, b1, b2) of ``table``.

        All 3 · trials keys are hashed in one ``seed_words`` pass, whose
        output rows ``_srandom`` seeds in place; the table is stored a word
        at a time, which ``rows`` gathers into C-contiguous rows.
        """
        table = _int_array("Codebooks.states: table", table)
        if table.ndim != 2 or table.shape[1] != 4 or ((table < 0) | (table >= self.bounds)).any():
            raise SimulationError(f"Codebooks.states: table rows must be (m01, m02, b1, b2) within {self.bounds}")
        # keys [stream, m01, m02, b_i] after the prefix [seed, 0], hashed in
        # one pass; the u keys come first and end at m02, one word early
        trials = len(table)
        keys = np.zeros((4, 3, trials), dtype=np.uint32)  # word-major: one contiguous row per word
        keys[0], keys[1:3] = [[_U_STREAM], [_X_STREAM], [_Y_STREAM]], table.T[:2, None]
        keys[3, 1:] = table.T[2:]
        words = seed_words((self.cfg.seed, 0), keys.reshape(4, -1).T, short=trials)
        del keys  # freed before _srandom's scratch
        return _srandom(words).reshape(3, trials, 4)

    def rows(self, states, start, stop):
        """Rows [start, stop) of the u, x and y blocks of a ``states`` table: three (blocks, stop - start, n) arrays.

        Adjacent blocks with equal u states share one u stream, so each run
        of them draws its u rows once and every block of the run reads them.
        Each x and y symbol is drawn against the CDF row of its u symbol.  The
        uniforms come from the calling thread's generator
        (``_seeding.draw_uniforms``), whose first draw checks numpy's PCG64
        state layout and raises ``StateLayoutError`` on a mismatch.
        """
        n = self.cfg.n
        if not (_is_int(start) and _is_int(stop) and 0 <= start < stop <= self.nstar):
            raise SimulationError(f"Codebooks.rows: need integers 0 <= start < stop <= {self.nstar}, got {start!r}, {stop!r}")
        states = np.ascontiguousarray(_int_array("Codebooks.rows: states", states), dtype=np.uint64)
        if states.ndim != 3 or states.shape[0] != 3 or states.shape[2] != 4:
            raise SimulationError(f"Codebooks.rows: states must be (3, blocks, 4) _srandom rows, got shape {states.shape}")
        blocks = states.shape[1]
        first = np.ones(blocks, dtype=bool)  # where each run of equal u states begins
        first[1:] = (states[0, 1:] != states[0, :-1]).any(axis=1)
        runs = int(first.sum())
        if runs < blocks:
            states = np.concatenate((states[0, first], states[1:].reshape(-1, 4)))
        uniforms = draw_uniforms(states.reshape(-1, 4), start * n, np.empty((runs + 2 * blocks, stop - start, n)))
        cum_u, cum_x, cum_y = self._cum
        u = _sample(cum_u, uniforms[:runs], 0)
        if runs < blocks:
            u = u[np.cumsum(first) - 1]  # the runs' rows are freed here, so the part holds no more than _row_bytes counts
        return u, _sample(cum_x, uniforms[runs : runs + blocks], u), _sample(cum_y, uniforms[runs + blocks :], u)


def _typical_mask(cells, p, eps_typ):
    """Typicality of each candidate row of ``cells``, a (rows, n) array of (u, x, y) cell indices (u·|X| + x)·|Y| + y.

    A row is typical when its empirical type is within ``eps_typ`` of ``p``,
    the composed per-letter joint indexed [u, x, y], in every cell, and no
    zero-probability cell occurs in it.
    """
    rows, n = cells.shape
    p = p.ravel()
    flat = cells + np.arange(0, rows * p.size, p.size)[:, None]
    counts = np.bincount(flat.ravel(), minlength=rows * p.size).reshape(rows, p.size)
    bad = (np.abs(counts / n - p) > eps_typ) | ((counts > 0) & (p <= 0.0))
    return ~bad.any(axis=1)


def _search(books, table):
    """The coordinator's bin search for each trial (m01, m02, b1, b2) in the rows of ``table``.

    The trials search together in rounds: a round draws and tests rows
    [tested, rows) of every trial still searching, in parts of trials whose
    ``cfg._row_bytes`` a row fit ``_ROUND_BYTES`` (a round ends early where
    one trial's rows would not fit), each part's rows from one
    ``Codebooks.rows`` call, tested as one array of (u, x, y) cells.  The
    first round takes as many rows as all trials fit in one part (at least
    1, at most n*), and each later round doubles the rows tested, up to n*.
    A trial's m* is its first row typical within ``cfg.eps_typ``; with
    none, all rows are tested once, m* falls back to 0 and the trial is
    flagged.  Returns (m_star, failed, pairs), ``pairs`` the
    (trials, n) emitted cells x·|Y| + y; ``run_trials`` sizes ``table`` so they fit ``_ROUND_BYTES``.
    """
    n, nstar, eps_typ = books.cfg.n, books.nstar, books.cfg.eps_typ
    _, nx, ny = books.target_uxy.shape
    states = books.states(table)
    m_star, failed = np.zeros(len(table), dtype=np.int64), np.ones(len(table), dtype=bool)
    pairs = np.empty((len(table), n), dtype=np.int64)
    cap = max(1, _ROUND_BYTES // books.cfg._row_bytes())  # rows one part of a round may hold
    live = np.arange(len(table))
    tested, rows = 0, min(nstar, max(1, cap // max(1, live.size)))  # the first round fills one part
    while live.size and tested < nstar:
        step = max(1, cap // (rows - tested))
        for part in (live[i : i + step] for i in range(0, live.size, step)):
            u, x, y = books.rows(states[:, part], tested, rows)
            xy = x * ny + y  # each symbol's (x, y) cell; its (u, x, y) cell adds u·|X||Y|
            mask = _typical_mask((u * (nx * ny) + xy).reshape(-1, n), books.target_uxy, eps_typ).reshape(part.size, -1)
            if not tested:
                pairs[part] = xy[:, 0]
            hit = mask.any(axis=1)
            first, found = mask.argmax(axis=1)[hit], part[hit]
            m_star[found], failed[found] = tested + first, False
            pairs[found] = xy[hit, first]
        live = live[failed[live]]
        tested, rows = rows, min(2 * rows, nstar, rows + cap)
    return m_star, failed, pairs


def run_trials(cfg):
    """Run all trials against one fixed code, pooling per-letter (x, y) pairs.

    The codebooks are drawn once per run; each trial k draws fresh shared
    randomness (w1, w2) from the stream of ``default_rng([seed, k, 0])``.
    This estimates the induced per-letter distribution of a single code,
    the quantity the coordination criterion constrains.  Trials run in
    chunks, as many as fit ``_ROUND_BYTES`` both while their u, x and y
    stream states are hashed, in one pass, and while they search, holding
    their states and emitted pair cells.  A chunk's (m01, m02, b1, b2) are
    drawn in one array pass over its w streams (``draw_integers``, numpy
    drawing a rare rejected trial), bit-identical to one
    ``default_rng([seed, k, 0])`` per trial, ordered by bin m01 * n01 + m02
    (stable), so that the trials of one bin share their u draws, and its
    bin searches run together (``_search``), whose pair cells x·|Y| + y one
    ``bincount`` counts; the counts and failures pool over trials, so the
    order does not change the report.
    """
    books = Codebooks(cfg)
    nx, ny = cfg.q.shape
    counts = np.zeros(nx * ny, dtype=np.int64)
    failures = 0
    # trials a chunk may hold: a trial's search holds its emitted pair cells, 8 bytes a symbol,
    # and 154 of states, trial row, indices and flags; hashing its states peaks at 352 (139 and 332 measured)
    chunk = max(1, _ROUND_BYTES // max(8 * cfg.n + 154, 352))
    for start in range(0, cfg.trials, chunk):
        ks = np.arange(start, min(start + chunk, cfg.trials))
        table = draw_integers((cfg.seed,), np.column_stack((ks, np.full_like(ks, _W_STREAM))), books.bounds)
        del ks  # dead before the search
        table = table[np.argsort(table[:, 0] * books.n01 + table[:, 1], kind="stable")]
        _, failed, pairs = _search(books, table)
        counts += np.bincount(pairs.ravel(), minlength=nx * ny)
        failures += int(failed.sum())
        del pairs  # freed before the next chunk's search allocates its own
    empirical = JointPmf((counts / (cfg.trials * cfg.n)).reshape(nx, ny), labels_x=cfg.q.labels_x, labels_y=cfg.q.labels_y)
    return SimReport(
        empirical_joint=empirical,
        tv_per_letter=tv_distance(empirical, cfg.q),
        mstar_failure_rate=failures / cfg.trials,
        trials_run=cfg.trials,
        config_echo={
            "n": cfg.n,
            "trials": cfg.trials,
            "seed": cfg.seed,
            "eps_typ": cfg.eps_typ,
            "rates": {**asdict(cfg.rates), "r": cfg.rates.r, "r1": cfg.rates.r1, "r2": cfg.rates.r2},
            "index_sizes": dict(zip(("m0_half", "m_star", "b1", "b2"), (books.n01, books.nstar, books.nb1, books.nb2))),
        },
    )
