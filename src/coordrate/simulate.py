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
one concrete code, which is what makes insufficient rates measurable
(too few codewords get reused and their sampling noise never averages
out).  Codewords are never materialized as full tables: each codebook
block is a deterministic function of (seed, code stream, indices) through
the stream of numpy's ``default_rng([seed, 0, stream, *indices])``, which
keeps memory flat while preserving the i.i.d. codebook statistics and
exact reproducibility.  The shared randomness of a chunk of trials is
drawn in one array pass (``_seeding.draw_integers``), bit-identical to one
``default_rng([seed, k, 0])`` per trial k.  The trials of a chunk are
ordered by bin and search their bins together, as arrays (``_search``),
drawing each row once, the u, x and y rows of a search part in one
``Codebooks.rows`` call; the u block depends on the bin alone, so the
trials of one bin in a part share its u rows.  A row's uniforms continue
its block's stream from where the row begins, so the seeded results do
not depend on how far a search went or how the trials were grouped.

The report pools the per-position (x, y) pairs over all trials into an
empirical per-letter joint.  Its distance to the target lower-bounds the
block-level criterion, so a large value certifies failure while a small
value is necessary for success.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from ._seeding import _srandom, draw_integers, seed_words, state_address
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
        """Bytes a search row holds: 8 a symbol (3 uniforms, 3 symbols, k CDF entries), 24 a ``_typical_mask`` table cell."""
        return 8 * (6 + max(self.q.shape)) * self.n + 24 * self.channel.card_u * self.q.probs.size

    def index_sizes(self):
        """Sizes (n01, nstar, nb1, nb2); m0 ranges over n01 * n01 pairs.

        Refused with SimulationError when an index set exceeds INDEX_CAP,
        one search row plus one trial's emitted rows would exceed
        BLOCK_BYTES_CAP bytes, or trials * n* * n, the symbols a run tests
        when every search fails, would exceed WORK_CAP.
        """
        n = self.n
        sizes = (
            _index_size("m0 half", n, 0.5 * self.rates.r0),
            _index_size("m*", n, self.rates.r_star),
            _index_size("b1", n, self.rates.rt1),
            _index_size("b2", n, self.rates.rt2),
        )
        row_bytes = self._row_bytes() + 16 * n
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


def _sample(cum, uniforms):
    """Inverse-CDF sampling: the number of CDF entries at or below each uniform, as int64.

    ``cum`` rows must be nondecreasing and end at exactly 1, which no uniform
    in [0, 1) reaches, so the count is the first index whose entry exceeds
    the uniform.  ``cum`` is one table or a table per uniform (trailing axis).
    """
    idx = np.empty(uniforms.shape, dtype=np.int64)
    np.greater_equal(uniforms, cum[..., 0], out=idx)
    for j in range(1, cum.shape[-1] - 1):
        idx += uniforms >= cum[..., j]
    return idx


class Codebooks:
    """Keyed access to the codeword tables of one code, in the generation order u, then x | u and y | u.

    Each (nstar, n) block is a deterministic function of its indices through
    a seeded stream, so coordinator and processors read the same codewords.
    Blocks for distinct indices come from distinct seeded streams and are
    therefore independent, matching a single i.i.d. codebook draw.  No block
    is stored: ``states`` keys the u, x and y blocks of many trials in one
    table, and ``rows`` samples rows [start, stop) of all of them, each from
    the block's stream advanced to where row ``start`` begins, so any range
    equals the same rows of a full draw.  Every block is drawn from one
    reused generator, which makes one ``Codebooks`` the property of one
    thread: a block's ``_srandom`` row is written into the generator's
    PCG64 (state, inc) through a memoryview over the 32 bytes at the
    address numpy's ``pcg64_state`` points to, built once from
    ``_seeding.state_address``, which checks that layout once per process
    and raises ``StateLayoutError`` on a mismatch.
    """

    def __init__(self, cfg):
        if not isinstance(cfg, SimConfig):
            raise SimulationError(f"Codebooks: cfg must be a SimConfig, got {type(cfg).__name__}")
        self.cfg = cfg
        self.target_uxy, self.p_u, self.p_x_given_u, self.p_y_given_u = _generation(
            compose(cfg.q, cfg.channel), cfg.max_markov_defect
        )
        self.n01, self.nstar, self.nb1, self.nb2 = cfg.index_sizes()
        #: exclusive bounds of a trial row (m01, m02, b1, b2)
        self.bounds = (self.n01, self.n01, self.nb1, self.nb2)
        #: inverse-CDF tables of u, x and y, one row per u symbol for x and y
        self._cum = tuple(np.cumsum(p, axis=-1) for p in (self.p_u.probs, self.p_x_given_u, self.p_y_given_u))
        for cum in self._cum:
            cum[..., -1] = 1.0
        #: the generator every block is drawn from, and its PCG64 (state, inc) as 32 writable bytes
        self._gen = np.random.Generator(np.random.PCG64(0))
        self._state = memoryview((ctypes.c_char * 32).from_address(state_address(self._gen))).cast("B")

    def states(self, table):
        """(3, trials, 4) ``_srandom`` rows of the u, x and y blocks of the trial rows (m01, m02, b1, b2) of ``table``."""
        table = np.asarray(table)
        if table.ndim != 2 or table.shape[1] != 4 or ((table < 0) | (table >= self.bounds)).any():
            raise SimulationError(f"Codebooks.states: table rows must be (m01, m02, b1, b2) within {self.bounds}")
        # rows [stream, m01, m02, b_i] after the prefix [seed, 0]; a u key ends
        # at m02, and the x and y keys, of one length, hash in one pass
        keys = np.empty((3, len(table), 4), dtype=np.int64)
        keys[..., 0], keys[..., 1:3] = [[_U_STREAM], [_X_STREAM], [_Y_STREAM]], table[:, :2]
        keys[1:, :, 3] = table[:, 2:].T
        words = [seed_words((self.cfg.seed, 0), k) for k in (keys[0, :, :3], keys[1:].reshape(-1, 4))]
        return _srandom(np.concatenate(words)).reshape(keys.shape)

    def rows(self, states, start, stop):
        """Rows [start, stop) of the u, x and y blocks of a ``states`` table: three (blocks, stop - start, n) arrays.

        Adjacent blocks with equal u states share one u stream, so each run
        of them draws its u rows once and every block of the run reads them.
        x and y symbols are drawn from p(.|u) per symbol of the u rows.
        """
        n, gen = self.cfg.n, self._gen
        if not (_is_int(start) and _is_int(stop) and 0 <= start < stop <= self.nstar):
            raise SimulationError(f"Codebooks.rows: need integers 0 <= start < stop <= {self.nstar}, got {start!r}, {stop!r}")
        states = np.ascontiguousarray(states, dtype=np.uint64)
        if states.ndim != 3 or states.shape[0] != 3 or states.shape[2] != 4:
            raise SimulationError(f"Codebooks.rows: states must be (3, blocks, 4) _srandom rows, got shape {states.shape}")
        blocks = states.shape[1]
        first = np.ones(blocks, dtype=bool)  # where each run of equal u states begins
        first[1:] = (states[0, 1:] != states[0, :-1]).any(axis=1)
        runs = int(first.sum())
        if runs < blocks:
            states = np.concatenate((states[0, first], states[1:].reshape(-1, 4)))
        uniforms = np.empty((runs + 2 * blocks, stop - start, n))
        words = memoryview(states).cast("B")
        for i, out in enumerate(uniforms):
            # the whole (state, inc) is written, so nothing carries over from the
            # last block; has_uint32 stays as it was: random and advance never set it
            self._state[:] = words[32 * i : 32 * i + 32]
            if start:
                gen.bit_generator.advance(start * n)
            gen.random(out=out)
        cum_u, cum_x, cum_y = self._cum
        u = _sample(cum_u, uniforms[:runs])
        if runs < blocks:
            u = u[np.cumsum(first) - 1]  # the runs' rows are freed here, so the part holds no more than _row_bytes counts
        x = _sample(np.take(cum_x, u, axis=0), uniforms[runs : runs + blocks])
        return u, x, _sample(np.take(cum_y, u, axis=0), uniforms[runs + blocks :])


def _typical_mask(ub, xb, yb, p, eps_typ):
    """Typicality of each candidate row triple of the (rows, n) arrays ``ub``, ``xb``, ``yb``.

    A triple is typical when its empirical type is within ``eps_typ`` of
    ``p``, the composed per-letter joint indexed [u, x, y], in every cell,
    and no zero-probability cell occurs in it.
    """
    rows, n = ub.shape
    _, nx, ny = p.shape
    p = p.ravel()
    flat = ((ub * nx + xb) * ny + yb) + np.arange(0, rows * p.size, p.size)[:, None]
    counts = np.bincount(flat.ravel(), minlength=rows * p.size).reshape(rows, p.size)
    bad = (np.abs(counts / n - p) > eps_typ) | ((counts > 0) & (p <= 0.0))
    return ~bad.any(axis=1)


def _search(books, table):
    """The coordinator's bin search for each trial (m01, m02, b1, b2) in the rows of ``table``.

    The trials search together in rounds: a round draws and tests rows
    [tested, rows) of every trial still searching, row 0 and then doubling
    up to n*, in parts of trials whose ``cfg._row_bytes`` a row fit
    ``_ROUND_BYTES`` (a round ends early where one trial's rows would not
    fit), each part's u, x and y rows from one ``Codebooks.rows`` call.  A
    trial's m* is its first row typical within ``cfg.eps_typ``; with none,
    all rows are tested once, m* falls back to 0 and the trial is flagged.
    Returns (m_star, failed, x, y), x and y the (trials, n) emitted codewords,
    read from the rows the search drew; ``run_trials`` sizes ``table`` so they fit ``_ROUND_BYTES``.
    """
    n, nstar, eps_typ = books.cfg.n, books.nstar, books.cfg.eps_typ
    states = books.states(table)
    m_star, failed = np.zeros(len(table), dtype=np.int64), np.ones(len(table), dtype=bool)
    x_out, y_out = np.empty((2, len(table), n), dtype=np.int64)
    cap = max(1, _ROUND_BYTES // books.cfg._row_bytes())  # rows one part of a round may hold
    live = np.arange(len(table))
    tested, rows = 0, 1
    while live.size and tested < nstar:
        step = max(1, cap // (rows - tested))
        for part in (live[i : i + step] for i in range(0, live.size, step)):
            u, x, y = books.rows(states[:, part], tested, rows)
            mask = _typical_mask(*(a.reshape(-1, n) for a in (u, x, y)), books.target_uxy, eps_typ)
            mask = mask.reshape(part.size, -1)
            if not tested:
                x_out[part], y_out[part] = x[:, 0], y[:, 0]
            hit = mask.any(axis=1)
            first, found = mask.argmax(axis=1)[hit], part[hit]
            m_star[found], failed[found] = tested + first, False
            x_out[found], y_out[found] = x[hit, first], y[hit, first]
        live = live[failed[live]]
        tested, rows = rows, min(2 * rows, nstar, rows + cap)
    return m_star, failed, x_out, y_out


def run_trials(cfg):
    """Run all trials against one fixed code, pooling per-letter (x, y) pairs.

    The codebooks are drawn once per run; each trial k draws fresh shared
    randomness (w1, w2) from the stream of ``default_rng([seed, k, 0])``.
    This estimates the induced per-letter distribution of a single code,
    the quantity the coordination criterion constrains.  Trials run in
    chunks, as many as their emitted rows, keys and stream states fit
    ``_ROUND_BYTES``.  A chunk's (m01, m02, b1, b2) are drawn in one array
    pass over its w streams (``draw_integers``), bit-identical to one
    ``default_rng([seed, k, 0])`` per trial, ordered by bin
    m01 * n01 + m02 (stable), so that the trials of one bin share their
    u draws, and its bin searches run together (``_search``); the counts
    and failures pool over trials, so the order does not change the report.
    """
    books = Codebooks(cfg)
    nx, ny = cfg.q.shape
    counts = np.zeros(nx * ny, dtype=np.int64)
    failures = 0
    sizes = books.n01, books.nstar, books.nb1, books.nb2
    # trials a chunk may hold: a trial's search holds its emitted x and y rows, 16 bytes a symbol,
    # and 192 of keys, states and indices; hashing its states peaks at 704 (185 and 699 measured)
    chunk = max(1, _ROUND_BYTES // max(16 * cfg.n + 192, 704))
    for start in range(0, cfg.trials, chunk):
        ks = np.arange(start, min(start + chunk, cfg.trials))
        keys = seed_words((cfg.seed,), np.column_stack((ks, np.full_like(ks, _W_STREAM))))
        # each trial's (m01, m02, b1, b2), as integers(size) per index on its w stream draws them
        table = draw_integers(keys, books.bounds)
        # ordered by bin, so the trials of one bin share their u draws; the counts pool over trials
        table = table[np.argsort(table[:, 0] * books.n01 + table[:, 1], kind="stable")]
        _, failed, x, y = _search(books, table)
        x *= ny
        x += y  # each pair's cell index, in place
        counts += np.bincount(x.ravel(), minlength=nx * ny)
        failures += int(failed.sum())
        del x, y  # freed before the next chunk's search allocates its own
    total = cfg.trials * cfg.n
    empirical = JointPmf(
        (counts / total).reshape(nx, ny), labels_x=cfg.q.labels_x, labels_y=cfg.q.labels_y
    )
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
            "index_sizes": dict(zip(("m0_half", "m_star", "b1", "b2"), sizes)),
        },
    )
