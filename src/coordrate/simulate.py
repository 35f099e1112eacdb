"""Seeded Monte Carlo implementation of the coordination coding scheme.

One trial mirrors the operational scheme: shared randomness gives each
processor half of a common bin index m0 = (m01, m02) plus a private
codeword index b_i.  Codebooks are drawn per the generation order
u ~ p(u), then x | u and y | u conditionally independently.  The
coordinator searches the bin for the first candidate index m* whose
codeword triple is typical for the composed target joint, broadcasts
(m01 XOR m02, m*), and each processor reconstructs m0 from its own half
and emits its codeword.  Rates follow the accounting
R = R0/2 + R*, R_i = Rt_i + R0/2.

A run holds the codebooks fixed and varies only the shared-randomness
draws across trials: the induced distribution being estimated is that of
one concrete code, which is what makes insufficient rates measurable
(too few codewords get reused and their sampling noise never averages
out).  Codewords are never materialized as full tables: each codebook
block is a deterministic function of (seed, code stream, indices) through
a seeded stream, which keeps memory flat while preserving the i.i.d.
codebook statistics and exact reproducibility.  The streams are those of
numpy's ``default_rng([seed, 0, stream, *indices])``; their PCG64 states
are derived in bulk for a chunk of trials at a time and set on one reused
generator per stream.  A block's rows are drawn
in order and only as far as a trial needs them: the coordinator draws and
tests the candidates in doubling chunks and stops at the first typical
one, so a trial whose m* is early draws a short prefix of each of its u,
x and y blocks, and the processors read their codewords from the rows the
coordinator drew.  Any prefix equals the same rows of a full draw, so the
seeded results do not depend on how far a search went.

The report pools the per-position (x, y) pairs over all trials into an
empirical per-letter joint.  Its distance to the target lower-bounds the
block-level criterion, so a large value certifies failure while a small
value is necessary for success.
"""

from __future__ import annotations

import math
import operator
from dataclasses import asdict, dataclass, field

import numpy as np

from ._seeding import seed_words, set_state
from .measures import conditional_mutual_information
from .pmf import AuxChannel, JointPmf, Pmf, _is_int, _is_real, _write_json, compose, tv_distance

#: hard cap on each index-set size (desk-scale memory guard)
INDEX_CAP = 2**20
#: cap on the bytes of one trial's blocks: 32 * nstar * n covers the three
#: int64 (nstar, n) u/x/y blocks plus the float64 uniforms drawn for one
BLOCK_BYTES_CAP = 2**30
#: default tolerance on I(X;Y|U) of the composed channel, in bits
MARKOV_DEFECT_TOL = 1e-6

_W_STREAM, _U_STREAM, _X_STREAM, _Y_STREAM = 0, 1, 2, 3
#: candidate rows the coordinator draws and tests before its first doubling
_FIRST_CHUNK = 16
#: trials whose stream states are derived together; bounds the derivation's memory
_SEED_CHUNK = 256


class SimulationError(ValueError):
    """Invalid simulator configuration or index out of range."""


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
    max_markov_defect: float = MARKOV_DEFECT_TOL

    def __post_init__(self):
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
        if self.channel.card_u1 != 1 or self.channel.card_u2 != 1:
            raise SimulationError("SimConfig: scheme uses a single auxiliary, need card_u1 = card_u2 = 1")

    def index_sizes(self):
        """Sizes (n01, nstar, nb1, nb2); m0 ranges over n01 * n01 pairs.

        Refused with SimulationError when an index set exceeds INDEX_CAP or
        one trial's (nstar, n) blocks would exceed BLOCK_BYTES_CAP bytes.
        """
        n = self.n
        sizes = (
            _index_size("m0 half", n, 0.5 * self.rates.r0),
            _index_size("m*", n, self.rates.r_star),
            _index_size("b1", n, self.rates.rt1),
            _index_size("b2", n, self.rates.rt2),
        )
        block_bytes = 32 * sizes[1] * n
        if block_bytes > BLOCK_BYTES_CAP:
            raise SimulationError(
                f"SimConfig: (m*, n) = ({sizes[1]}, {n}) blocks need {block_bytes} bytes, cap is {BLOCK_BYTES_CAP}"
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


def derive_components(channel, q, max_defect=MARKOV_DEFECT_TOL):
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
    if not (_is_real(max_defect) and max_defect >= 0):
        raise SimulationError(f"derive_components: max_defect must be a finite real >= 0, got {max_defect!r}")
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
    return joint_uxy, Pmf(p_u), p_x_given_u, p_y_given_u


def _sample(cum, uniforms, out=None):
    """Inverse-CDF sampling: the number of CDF entries at or below each uniform.

    ``cum`` rows must be nondecreasing and end at exactly 1, which no uniform
    in [0, 1) reaches, so the count is the first index whose entry exceeds
    the uniform.  ``cum`` is one table or a table per uniform (trailing axis).
    The int64 indices are written to ``out`` when given.
    """
    idx = np.empty(uniforms.shape, dtype=np.int64) if out is None else out
    np.greater_equal(uniforms, cum[..., 0], out=idx)
    for j in range(1, cum.shape[-1] - 1):
        idx += uniforms >= cum[..., j]
    return idx


class Codebooks:
    """Keyed access to the codeword tables of one code.

    Each (nstar, n) block is a deterministic function of its indices through
    a seeded stream, so coordinator and processors read the same codewords.
    Blocks for distinct indices come from distinct seeded streams and are
    therefore independent, matching a single i.i.d. codebook draw.  Rows
    are drawn in order and only when first asked for: a call for the first
    ``rows`` rows draws just the missing ones from the stream's generator,
    so any prefix equals the same rows of a full draw.  Each stream draws
    every block from one reused generator and keeps its last block
    (indices, generator, rows drawn so far), filled in place in a buffer of
    the full block size, and returns read-only views of it.  ``seed_trials``
    derives the stream states of a chunk of trials' blocks at once; a block
    outside the chunk gets its state from numpy's own ``SeedSequence``.
    This generator state makes one ``Codebooks`` the property of one thread.
    """

    def __init__(self, cfg):
        self.cfg = cfg
        self.target_uxy, self.p_u, self.p_x_given_u, self.p_y_given_u = _generation(
            compose(cfg.q, cfg.channel), cfg.max_markov_defect
        )
        self.n01, self.nstar, self.nb1, self.nb2 = cfg.index_sizes()
        self._cum_u = np.cumsum(self.p_u.probs)
        self._cum_u[-1] = 1.0
        self._cum_x = np.cumsum(self.p_x_given_u, axis=1)
        self._cum_x[:, -1] = 1.0
        self._cum_y = np.cumsum(self.p_y_given_u, axis=1)
        self._cum_y[:, -1] = 1.0
        #: stream -> [indices, generator, (nstar, n) buffer, read-only view of the rows drawn]
        self._last = {}
        #: stream -> the generator every block of the stream is drawn from
        self._gens = {s: np.random.Generator(np.random.PCG64(s)) for s in (_U_STREAM, _X_STREAM, _Y_STREAM)}
        #: stream -> ({indices: row}, seed_words rows) of the current chunk of trials
        self._states = {}

    def seed_trials(self, trials):
        """Derive the u, x and y block states of a chunk of trials' (m01, m02, b1, b2).

        The previous chunk's states are dropped first.
        """
        self._states = {}
        table = np.array(trials, dtype=np.int64).reshape(-1, 4)
        for stream, cols in ((_U_STREAM, (0, 1)), (_X_STREAM, (0, 1, 2)), (_Y_STREAM, (0, 1, 3))):
            rows = {key: row for row, key in enumerate(map(operator.itemgetter(*cols), trials))}
            self._states[stream] = rows, seed_words((self.cfg.seed, 0, stream), table[:, cols])

    def _rng(self, stream, *idx):
        """The stream's generator, positioned at the start of the block at ``idx``."""
        rows, words = self._states.get(stream, ({}, None))
        row = rows.get(idx)
        if row is None:
            state = np.random.SeedSequence([self.cfg.seed, 0, stream, *idx]).generate_state(4, np.uint64)
        else:
            state = words[row]
        return set_state(self._gens[stream], state.tolist())

    def _check(self, name, value, size):
        if not 0 <= value < size:
            raise SimulationError(f"Codebooks: {name} index {value} outside [0, {size})")

    def _block(self, stream, idx, cum, rows, u=None):
        """The first ``rows`` rows of the block of ``stream`` at ``idx``.

        ``cum`` is the inverse-CDF table, per u symbol when the u rows ``u``
        are given.
        """
        last = self._last.get(stream)
        if last is None or last[0] != idx:
            buf = np.empty((self.nstar, self.cfg.n), dtype=np.int64)
            last = self._last[stream] = [idx, self._rng(stream, *idx), buf, buf[:0]]
        _, rng, buf, drawn = last
        done = len(drawn)
        if rows > done:
            uniforms = rng.random((rows - done, self.cfg.n))
            _sample(cum if u is None else np.take(cum, u[done:], axis=0), uniforms, out=buf[done:rows])
            drawn = last[3] = buf[:rows]
            drawn.setflags(write=False)
        return drawn if rows == len(drawn) else drawn[:rows]

    def u_block(self, m01, m02, rows=None):
        """u-codewords of the first ``rows`` m* candidates (all by default) of bin m0 = (m01, m02)."""
        self._check("m01", m01, self.n01)
        self._check("m02", m02, self.n01)
        rows = self.nstar if rows is None else operator.index(rows)
        if not 1 <= rows <= self.nstar:
            raise SimulationError(f"Codebooks: rows {rows} outside [1, {self.nstar}]")
        return self._block(_U_STREAM, (int(m01), int(m02)), self._cum_u, rows)

    def x_block(self, m01, m02, b1, rows=None):
        """x-codewords of the first ``rows`` m* candidates at fixed (m0, b1), drawn per symbol from p(x|u)."""
        self._check("b1", b1, self.nb1)
        u = self.u_block(m01, m02, rows)
        return self._block(_X_STREAM, (int(m01), int(m02), int(b1)), self._cum_x, len(u), u)

    def y_block(self, m01, m02, b2, rows=None):
        self._check("b2", b2, self.nb2)
        u = self.u_block(m01, m02, rows)
        return self._block(_Y_STREAM, (int(m01), int(m02), int(b2)), self._cum_y, len(u), u)


@dataclass(frozen=True)
class Message:
    """Common broadcast: XOR of the two m0 halves plus the selected index."""

    m0_xor: int
    m_star: int


def typicality_test(u, x, y, p, eps_typ):
    """Is the empirical type of (u,x,y) within eps of p in every cell?

    Also rejects any occurrence of a zero-probability cell.  ``p`` is the
    composed per-letter joint indexed [u, x, y].
    """
    u, x, y = (np.asarray(s, dtype=np.int64) for s in (u, x, y))
    if not (u.shape == x.shape == y.shape and u.ndim == 1 and u.size):
        raise SimulationError("typicality_test: sequences must share one nonzero length")
    return bool(_typical_mask(u[None], x[None], y[None], np.asarray(p, dtype=np.float64), eps_typ)[0])


def _typical_mask(ub, xb, yb, p, eps_typ):
    """Vectorized typicality of each candidate row triple."""
    rows, n = ub.shape
    _, nx, ny = p.shape
    p = p.ravel()
    flat = ((ub * nx + xb) * ny + yb) + np.arange(0, rows * p.size, p.size)[:, None]
    counts = np.bincount(flat.ravel(), minlength=rows * p.size).reshape(rows, p.size)
    bad = (np.abs(counts / n - p) > eps_typ) | ((counts > 0) & (p <= 0.0))
    return ~bad.any(axis=1)


def coordinator_select(w1, w2, books, eps_typ):
    """Pick the first m* in the bin whose codeword triple is typical.

    Candidates are drawn and tested in chunks, each doubling the rows drawn
    so far, and the search stops at the first chunk holding a typical row.
    Returns (Message, failed).  When no candidate passes, every row has been
    tested once, m* falls back to the first index and the trial is flagged
    instead of raising.
    """
    m01, b1 = (int(v) for v in w1)
    m02, b2 = (int(v) for v in w2)
    tested, rows = 0, min(_FIRST_CHUNK, books.nstar)
    while tested < books.nstar:
        ub = books.u_block(m01, m02, rows)[tested:]
        xb = books.x_block(m01, m02, b1, rows)[tested:]
        yb = books.y_block(m01, m02, b2, rows)[tested:]
        mask = _typical_mask(ub, xb, yb, books.target_uxy, eps_typ)
        if mask.any():
            return Message(m0_xor=m01 ^ m02, m_star=tested + int(mask.argmax())), False
        tested, rows = rows, min(2 * rows, books.nstar)
    return Message(m0_xor=m01 ^ m02, m_star=0), True


def processor_output(which, message, w_i, books):
    """Reconstruct m0 from the XOR and this processor's half, emit the codeword.

    Processor 1 sees w1 = (m01, b1) and never touches w2; symmetrically for
    processor 2.
    """
    half, b = (int(v) for v in w_i)
    other = message.m0_xor ^ half
    if not 0 <= other < books.n01:
        raise SimulationError(f"processor_output: recovered m0 half {other} outside [0, {books.n01})")
    # numpy would wrap a negative row index silently
    if not 0 <= message.m_star < books.nstar:
        raise SimulationError(f"processor_output: m* index {message.m_star} outside [0, {books.nstar})")
    rows = message.m_star + 1
    if which == 1:
        return books.x_block(half, other, b, rows)[message.m_star]
    if which == 2:
        return books.y_block(other, half, b, rows)[message.m_star]
    raise SimulationError(f"processor_output: processor must be 1 or 2, got {which!r}")


def run_trials(cfg):
    """Run all trials against one fixed code, pooling per-letter (x, y) pairs.

    The codebooks are drawn once per run; each trial k draws fresh shared
    randomness (w1, w2) from its own substream, that of
    ``default_rng([seed, k, 0])``.  This estimates the induced
    per-letter distribution of a single code, the quantity the coordination
    criterion constrains.  Trials run in chunks of ``_SEED_CHUNK``: the
    chunk's shared randomness is drawn first, then the stream states of
    every block it indexes are derived at once.
    """
    if not isinstance(cfg, SimConfig):
        raise SimulationError("run_trials: expected a SimConfig")
    books = Codebooks(cfg)
    nx, ny = cfg.q.shape
    counts = np.zeros(nx * ny, dtype=np.int64)
    failures = 0
    n01, nstar, nb1, nb2 = sizes = cfg.index_sizes()
    rng_w = np.random.Generator(np.random.PCG64(_W_STREAM))
    for start in range(0, cfg.trials, _SEED_CHUNK):
        ks = np.arange(start, min(start + _SEED_CHUNK, cfg.trials))
        chunk = []
        for words in seed_words((cfg.seed,), np.column_stack((ks, np.full_like(ks, _W_STREAM)))):
            set_state(rng_w, words.tolist())
            m01, m02 = int(rng_w.integers(n01)), int(rng_w.integers(n01))
            chunk.append((m01, m02, int(rng_w.integers(nb1)), int(rng_w.integers(nb2))))
        books.seed_trials(chunk)
        for m01, m02, b1, b2 in chunk:
            message, failed = coordinator_select((m01, b1), (m02, b2), books, cfg.eps_typ)
            x = processor_output(1, message, (m01, b1), books)
            y = processor_output(2, message, (m02, b2), books)
            counts += np.bincount(x * ny + y, minlength=nx * ny)
            failures += failed
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
