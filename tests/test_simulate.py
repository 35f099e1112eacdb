import itertools
import json
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random.bit_generator import ISeedSequence

from conftest import near_tolerance_pair, processor_isolation
from coordrate import _seeding, measures, simulate, wyner
from coordrate._seeding import StateLayoutError, _srandom, draw_integers, seed_words
from coordrate.dsbs import dsbs_wyner_channel, f_of_t, interpolated_channel
from coordrate.pmf import AuxChannel, JointPmf, compose, degenerate_channel, dsbs_joint, tv_distance
from coordrate.simulate import (
    Codebooks,
    SimConfig,
    SimRates,
    SimulationError,
    _sample,
    _search,
    _typical_mask,
    derive_components,
    run_trials,
)

I_JOINT_02 = 0.705904900983266   # I(X,Y;U) of the minimizing channel at a=0.2


def dsbs_cfg(n=16, trials=10, seed=0, r0=None, r_star=0.3, rt1=0.5, rt2=0.5, eps=0.1, a=0.2):
    q = dsbs_joint(a)
    ch = dsbs_wyner_channel(a)
    rates = SimRates(r0=I_JOINT_02 if r0 is None else r0, r_star=r_star, rt1=rt1, rt2=rt2)
    return SimConfig(q=q, channel=ch, n=n, rates=rates, eps_typ=eps, trials=trials, seed=seed)


#: a bin search that reaches every round: n* = 85 candidates at n = 16 and a
#: tolerance finer than one symbol's share (1/16), so trials hit past row 16,
#: past row 64, or not at all
DEEP = dict(n=16, r0=0.6, r_star=0.4, eps=0.04)

#: one trial row (m01, m02, b1, b2) of the hand-picked searches below
KEY = np.array([(2, 0, 1, 3)])


#: bytes a trial ``run_trials`` counts for hashing a chunk's stream states, the trial rows included
HASH_BYTES = 352


def chunk_trials(n):
    """Trials ``run_trials`` holds in one chunk at block length ``n``: 8 bytes a symbol and 154 a trial, or HASH_BYTES."""
    return simulate._ROUND_BYTES // max(8 * n + 154, HASH_BYTES)


def blocks(books, table, start=0, stop=None):
    """Rows [start, stop) (all n* by default) of the u, x and y blocks of each trial row of ``table``."""
    return books.rows(books.states(table), start, books.nstar if stop is None else stop)


def reference_blocks(cfg):
    """A function giving the full u, x and y blocks of a trial row (m01, m02, b1, b2) of ``cfg``.

    Each block is drawn from its own default_rng and sampled as the number
    of CDF entries at or below each uniform, by argmax.
    """
    p_u, p_x_u, p_y_u = derive_components(cfg.channel, cfg.q, cfg.max_markov_defect)
    cum_u, cum_x, cum_y = (np.cumsum(p, axis=-1) for p in (p_u.probs, p_x_u, p_y_u))
    for cum in (cum_u, cum_x, cum_y):
        cum[..., -1] = 1.0
    nstar = cfg.index_sizes()[1]

    def block(stream, idx, table):
        uniforms = np.random.default_rng([cfg.seed, 0, stream, *idx]).random((nstar, cfg.n))
        return (uniforms[..., None] < table).argmax(-1)

    def draw(key):
        m01, m02, b1, b2 = (int(k) for k in key)
        u = block(1, (m01, m02), cum_u)
        return u, block(2, (m01, m02, b1), cum_x[u]), block(3, (m01, m02, b2), cum_y[u])

    return draw


def cells(u, x, y, p):
    """Flat (u, x, y) cell indices of the joint ``p`` indexed [u, x, y]."""
    _, nx, ny = p.shape
    return (np.asarray(u) * nx + x) * ny + y


def reference_search(cfg, key):
    """(m_star, failed, x, y) of the bin search of trial row ``key``, every row of its blocks tested at once."""
    target = compose(cfg.q, cfg.channel).probs[:, :, :, 0, 0].transpose(2, 0, 1)
    u, x, y = reference_blocks(cfg)(key)
    mask = _typical_mask(cells(u, x, y, target), target, cfg.eps_typ)
    m_star = int(mask.argmax())
    return m_star, not mask.any(), x[m_star], y[m_star]


def reference_trials(cfg):
    """Each trial of ``cfg`` from one default_rng per trial and per block.

    Every block is drawn in full and all its rows are tested at once.
    Returns a list of ((m01, m02, b1, b2), m_star, failed, x, y).
    """
    n01, nstar, nb1, nb2 = cfg.index_sizes()
    out = []
    for k in range(cfg.trials):
        rng_w = np.random.default_rng([cfg.seed, k, 0])
        key = tuple(int(rng_w.integers(size)) for size in (n01, n01, nb1, nb2))
        out.append((key, *reference_search(cfg, key)))
    return out


class TestRates:
    def test_accounting_identities(self):
        rates = SimRates(r0=0.8, r_star=0.25, rt1=0.4, rt2=0.7)
        assert rates.r == 0.8 / 2 + 0.25
        assert rates.r1 == 0.4 + 0.8 / 2
        assert rates.r2 == 0.7 + 0.8 / 2

    def test_rejects_negative(self):
        with pytest.raises(SimulationError):
            SimRates(r0=-0.1, r_star=0, rt1=0, rt2=0)

    @pytest.mark.parametrize("value", ["0.5", True, None])
    def test_rates_must_be_reals(self, value):
        with pytest.raises(SimulationError, match="SimRates: r0 must be finite and nonnegative"):
            SimRates(r0=value, r_star=0.3, rt1=0.5, rt2=0.5)

    def test_index_sizes_round_up(self):
        cfg = dsbs_cfg(n=8, r0=0.5, r_star=0.25, rt1=0.0, rt2=1.0)
        assert cfg.index_sizes() == (4, 4, 1, 256)


class TestConfig:
    @pytest.mark.parametrize("seed", [-1, 2.5, True, np.float64(3.0), "3", None])
    def test_seed_must_be_nonnegative_integer(self, seed):
        with pytest.raises(SimulationError, match="SimConfig: seed must be a nonnegative integer"):
            dsbs_cfg(seed=seed)

    @pytest.mark.parametrize("seed", [0, np.int64(7), np.uint64(2**63), 2**70])
    def test_integer_seeds_are_plain_ints(self, seed):
        cfg = dsbs_cfg(seed=seed)
        assert type(cfg.seed) is int and cfg.seed == int(seed)

    @pytest.mark.parametrize("trials", [0, 2**32 + 1])
    def test_trials_must_fit_one_word(self, trials):
        # a trial number is one 32-bit word of its w-stream key
        with pytest.raises(SimulationError, match=r"SimConfig: trials must lie in \[1, 2\^32\]"):
            dsbs_cfg(trials=trials)

    def test_largest_trial_count_is_accepted(self):
        # built only, never run
        assert dsbs_cfg(trials=2**32).trials == 2**32

    @pytest.mark.parametrize("eps", [0.0, -0.1, float("inf"), float("nan"), "0.1", True])
    def test_eps_typ_must_be_finite_and_positive(self, eps):
        with pytest.raises(SimulationError, match="SimConfig: eps_typ must be finite and > 0"):
            dsbs_cfg(eps=eps)

    @pytest.mark.parametrize("field, value", [("n", 2.5), ("n", True), ("n", "4"), ("trials", 1.5), ("trials", "3")])
    def test_integer_fields_are_checked(self, field, value):
        with pytest.raises(SimulationError, match=f"SimConfig: {field} .*must .*integer"):
            dsbs_cfg(**{field: value})

    def test_integer_fields_are_plain_ints(self):
        cfg = dsbs_cfg(n=np.int64(16), trials=np.uint32(10))
        assert (type(cfg.n), type(cfg.trials)) == (int, int) and (cfg.n, cfg.trials) == (16, 10)

    @pytest.mark.parametrize(
        "field, value, kind",
        [
            ("q", np.array([[0.4, 0.1], [0.1, 0.4]]), "JointPmf"),
            ("channel", np.full((2, 2, 2), 0.5), "AuxChannel"),
            ("rates", (0.5, 0.3, 0.5, 0.5), "SimRates"),
        ],
    )
    def test_component_types_are_checked(self, field, value, kind):
        cfg = dsbs_cfg()
        with pytest.raises(SimulationError, match=f"SimConfig: {field} must be a {kind}, got"):
            SimConfig(**{**{f: getattr(cfg, f) for f in ("q", "channel", "n", "rates")}, field: value})

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0, "1e-6", True])
    def test_markov_defect_tolerance_is_checked(self, tol):
        # the degenerate channel has I(X;Y|U) = 0.278 bits on DSBS(0.2): a
        # tolerance that compares false against it must not let it through;
        # a SimConfig refuses it when it is built, not when it is run
        q, ch = dsbs_joint(0.2), degenerate_channel(2, 2)
        rates = SimRates(r0=0.5, r_star=0.25, rt1=0.5, rt2=0.5)
        with pytest.raises(SimulationError, match="SimConfig: max_markov_defect must be a finite real >= 0"):
            SimConfig(q=q, channel=ch, n=4, rates=rates, max_markov_defect=tol)
        match = "max_defect must be a finite real >= 0"
        with pytest.raises(SimulationError, match=match):
            derive_components(ch, q, max_defect=tol)


class TestDeriveComponents:
    def test_wyner_channel_uniform_auxiliary(self):
        p_u, p_x_u, p_y_u = derive_components(dsbs_wyner_channel(0.1), dsbs_joint(0.1))
        assert np.allclose(p_u.probs, [0.5, 0.5])
        # x disagrees with u at the equivalent flip rate b
        b = 0.5 * (1 - np.sqrt(0.8))
        assert p_x_u[0, 1] == pytest.approx(b, abs=1e-12)
        assert p_y_u[1, 0] == pytest.approx(b, abs=1e-12)

    def test_degenerate_channel_gives_marginals(self):
        q = JointPmf(np.outer([0.3, 0.7], [0.6, 0.4]))
        p_u, p_x_u, p_y_u = derive_components(degenerate_channel(2, 2), q)
        assert np.allclose(p_x_u[0], [0.3, 0.7])
        assert np.allclose(p_y_u[0], [0.6, 0.4])

    def test_copy_channel_deterministic_conditional(self):
        from coordrate.pmf import AuxChannel

        rows = np.zeros((2, 2, 2))
        for x in range(2):
            for y in range(2):
                rows[x, y, x] = 1.0
        q = JointPmf(np.outer([0.5, 0.5], [0.5, 0.5]))
        p_u, p_x_u, _ = derive_components(AuxChannel.from_array(rows), q)
        assert np.allclose(p_x_u, np.eye(2))

    def test_rejects_non_chain_channel(self):
        with pytest.raises(SimulationError):
            derive_components(degenerate_channel(2, 2), dsbs_joint(0.2))

    def test_relaxed_tolerance_admits_it(self):
        derive_components(degenerate_channel(2, 2), dsbs_joint(0.2), max_defect=1.0)

    def test_default_tolerance_is_the_solvers(self):
        # one tolerance on I(X;Y|U): the simulator accepts what wyner_ci certifies
        assert wyner.MARKOV_TOL is measures.MARKOV_TOL
        assert dsbs_cfg().max_markov_defect == measures.MARKOV_TOL
        assert derive_components.__defaults__ == (measures.MARKOV_TOL,)


class TestCodebooks:
    def test_deterministic_rebuild(self):
        cfg = dsbs_cfg(n=4, r0=0.5, r_star=0.5)
        table = [(1, 0, 2, 2)]
        for first, again in zip(blocks(Codebooks(cfg), table), blocks(Codebooks(cfg), table)):
            assert np.array_equal(first, again)

    def test_different_seeds_differ(self):
        b1 = Codebooks(dsbs_cfg(n=16, r0=0.5, r_star=0.5, seed=0))
        b2 = Codebooks(dsbs_cfg(n=16, r0=0.5, r_star=0.5, seed=1))
        table = [(0, 0, 0, 0)]
        assert not np.array_equal(blocks(b1, table)[0], blocks(b2, table)[0])

    def test_zero_rates_single_codeword(self):
        cfg = dsbs_cfg(n=8, r0=0.0, r_star=0.0, rt1=0.0, rt2=0.0)
        books = Codebooks(cfg)
        assert blocks(books, [(0, 0, 0, 0)])[0].shape == (1, 1, 8)
        assert (books.n01, books.nstar, books.nb1, books.nb2) == (1, 1, 1, 1)

    def test_conditional_agreement_rate(self):
        # symbols of the x codeword copy the u codeword except at the flip rate
        cfg = dsbs_cfg(n=8, r0=1.0, r_star=1.0, trials=1)
        books = Codebooks(cfg)
        b = 0.5 * (1 - np.sqrt(1 - 2 * 0.2))
        u, x, _ = blocks(books, [(m01, 0, 0, 0) for m01 in range(books.n01)])
        assert (u == x).mean() == pytest.approx(1 - b, abs=0.05)

    def test_index_guard(self):
        with pytest.raises(SimulationError):
            Codebooks(dsbs_cfg(n=64, r0=1.0, r_star=0.0))  # 2^32 m0 halves

    def test_index_guard_before_float_overflow(self):
        # 2^2000 is past the float range; the guard must fire on the exponent
        cfg = dsbs_cfg(n=4000, r0=1.0, r_star=0.0, rt1=0.0, rt2=0.0)
        with pytest.raises(SimulationError, match=r"m0 half index set needs 2\^2000 entries"):
            cfg.index_sizes()
        with pytest.raises(SimulationError, match=r"cap is 2\^20"):
            Codebooks(cfg)

    def test_index_guard_boundary(self):
        # exactly INDEX_CAP entries is allowed, one bit more is not
        assert dsbs_cfg(n=20, r0=0.0, r_star=1.0).index_sizes()[1] == 2**20
        with pytest.raises(SimulationError):
            dsbs_cfg(n=21, r0=0.0, r_star=1.0).index_sizes()

    def test_block_bytes_guard(self):
        # the 2^20 candidates of a bin at n = 40 would take 32 * 2^20 * 40
        # bytes = 1.25 GiB as full blocks, but a run holds only the rows one
        # part of a search round draws, so the guard accepts them
        kwargs = dict(n=40, r0=0.7, r_star=0.5, rt1=0.5, rt2=0.5)
        cfg = dsbs_cfg(trials=50, **kwargs)
        assert cfg.index_sizes()[1] == 2**20
        run_trials(dsbs_cfg(trials=1, **kwargs))
        tracemalloc.start()
        try:
            rep = run_trials(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.trials_run == 50
        assert peak <= 2 * simulate._ROUND_BYTES + 256 * 1024

    def test_search_parts_count_the_typicality_table(self):
        # a row is counted in a (card_u * |X| * |Y|) table of 24 bytes a cell,
        # here 3.5 MB against the 256 KiB parts: a part holds one row, and a
        # run holds a few copies of the 1.1 MB channel table, not one per row
        q = np.zeros((60, 60))
        q[0, 0] = 1.0
        channel = AuxChannel(np.full((60, 60, 40), 1 / 40))

        def cfg(trials):
            return SimConfig(q=JointPmf(q), channel=channel, n=8, rates=SimRates(1, 0.25, 0.5, 0.5), trials=trials)

        run_trials(cfg(1))
        tracemalloc.start()
        try:
            rep = run_trials(cfg(5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.trials_run == 5
        assert peak <= 8 * channel.probs.nbytes + 2 * simulate._ROUND_BYTES + 256 * 1024

    def test_work_guard_boundary(self):
        # at n = 32 and n* = 2^20 a failed search tests 2^25 symbols, so 128
        # trials reach WORK_CAP = 2^32 exactly and 129 pass it
        kwargs = dict(n=32, r0=0.0, r_star=0.625, rt1=0.0, rt2=0.0)
        assert dsbs_cfg(trials=128, **kwargs).index_sizes()[1] == 2**20
        cfg = dsbs_cfg(trials=129, **kwargs)
        match = (
            r"trials \* n\* \* n = 129 \* 1048576 \* 32 = 4328521728 symbols tested "
            r"when every search fails, cap is 4294967296"
        )
        with pytest.raises(SimulationError, match=match):
            cfg.index_sizes()
        with pytest.raises(SimulationError, match=match):
            Codebooks(cfg)

    def test_search_row_bytes_guard(self):
        # one search row plus one trial's emitted rows take 65 * n bytes on
        # binary alphabets and 24 bytes for each of the 8 cells of the (u, x, y)
        # table the row is counted in: 520 MiB at n = 2^23, 1040 MiB at n = 2^24
        dsbs_cfg(n=2**23, r0=0.0, r_star=0.0, rt1=0.0, rt2=0.0).index_sizes()
        cfg = dsbs_cfg(n=2**24, r0=0.0, r_star=0.0, rt1=0.0, rt2=0.0)
        match = r"one search row and one trial's emitted rows at n = 16777216 need 1090519232 bytes, cap is 1073741824"
        with pytest.raises(SimulationError, match=match):
            cfg.index_sizes()
        with pytest.raises(SimulationError, match=match):
            Codebooks(cfg)

    def test_row_bytes_cap_boundary(self):
        # on binary alphabets with a two-symbol U a row and the emitted pair
        # cells take 65 * n + 192 bytes, so n = 16519102 is the last to fit 2^30
        zero = dict(r0=0.0, r_star=0.0, rt1=0.0, rt2=0.0)
        assert 65 * 16519102 + 192 <= simulate.BLOCK_BYTES_CAP < 65 * 16519103 + 192
        assert dsbs_cfg(n=16519102, **zero).index_sizes() == (1, 1, 1, 1)
        match = r"emitted rows at n = 16519103 need 1073741887 bytes, cap is 1073741824"
        with pytest.raises(SimulationError, match=match):
            dsbs_cfg(n=16519103, **zero).index_sizes()

    def test_row_bytes_do_not_grow_with_the_alphabet(self):
        # on a 60 x 60 source, X - U - Y through a two-symbol U, a row is counted
        # as 57 bytes a symbol and 24 a cell of the (u, x, y) table, and a
        # Codebooks.rows call peaks within 57 bytes a drawn (u, x, y) position
        # (three uniforms, three symbols, one threshold and one mask byte) plus
        # 16 KiB; a copy of each symbol's 60-entry CDF row would take 480 more
        rng = np.random.default_rng(3)
        p_x_u, p_y_u = rng.dirichlet(np.ones(60), size=2), rng.dirichlet(np.ones(60), size=2)
        joint = np.einsum("u,ux,uy->xyu", [0.4, 0.6], p_x_u, p_y_u)
        q = joint.sum(axis=2)
        cfg = SimConfig(q=JointPmf(q), channel=AuxChannel(joint / q[..., None]), n=64, rates=SimRates(0.5, 0.25, 0.25, 0.25))
        assert cfg._row_bytes() == 57 * 64 + 24 * 2 * 60 * 60
        books = Codebooks(cfg)
        states = books.states([(k, k, k, k) for k in range(16)])
        books.rows(states, 0, 8)
        tracemalloc.start()
        try:
            books.rows(states, 0, 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 57 * 16 * 8 * 64 + 16 * 1024

    @staticmethod
    def _draws_of_a_run(monkeypatch):
        """The u, x and y uniforms each ``_sample`` call of a 60-trial run took
        and the u states and rows [start, stop) of each ``Codebooks.rows`` call.

        Asserts that the run draws each row of a trial's x and y blocks once,
        up to the end of the round that found m* (all n* rows on a failure),
        and each row of a u block once per run of its bin in a part, and
        emits from those rows without drawing again.
        """
        cfg = dsbs_cfg(trials=60, seed=4, **DEEP)
        uniforms, parts = [], []
        rows = Codebooks.rows

        def recording_rows(books, states, start, stop):
            parts.append((np.array(states[0]), start, stop))
            return rows(books, states, start, stop)

        def recording_sample(cum, u, given):
            uniforms.append(u.reshape(-1, cfg.n))
            return _sample(cum, u, given)

        monkeypatch.setattr(Codebooks, "rows", recording_rows)
        monkeypatch.setattr(simulate, "_sample", recording_sample)
        run_trials(cfg)
        trials = reference_trials(cfg)
        # rounds end at rows 1, 2, 4, ..., 64 and 85; a failed search draws them all,
        # and the m* of these trials lie past row 7
        round_ends = (1, 2, 4, 8, 16, 32, 64, 85)
        ends = [85 if failed else next(e for e in round_ends if e > m_star) for _, m_star, failed, _, _ in trials]
        assert set(ends) == {8, 16, 32, 64, 85} and any(failed for _, _, failed, _, _ in trials)
        # u, x and y draws alternate, one each per part
        assert len(uniforms) == 3 * len(parts)

        def stream_rows(stream, key, start, stop):
            rng = np.random.default_rng([cfg.seed, 0, stream, *key])
            rng.bit_generator.advance(start * cfg.n)
            return list(rng.random((stop - start, cfg.n)))

        def multiset(rows):
            return sorted(r.tobytes() for r in rows)

        for stream, col in ((2, 2), (3, 3)):
            expect = [r for (key, *_), end in zip(trials, ends) for r in stream_rows(stream, (*key[:2], key[col]), 0, end)]
            assert multiset(np.concatenate(uniforms[stream - 1 :: 3])) == multiset(expect)
        # a part draws its u rows once per run of adjacent trials of one bin
        keys = np.array([key for key, *_ in trials])
        bins = {state.tobytes(): tuple(key[:2]) for state, key in zip(Codebooks(cfg).states(keys)[0], keys)}
        expect = [
            r
            for states, start, stop in parts
            for key, _ in itertools.groupby(bins[state.tobytes()] for state in states)
            for r in stream_rows(1, key, start, stop)
        ]
        drawn = np.concatenate(uniforms[::3])
        assert multiset(drawn) == multiset(expect)
        # and the parts of a round draw the rows of each bin its live trials hold
        needed = {
            r.tobytes()
            for begin, end in zip((0, *round_ends), round_ends)
            for key in {tuple(key[:2]) for (key, *_), last in zip(trials, ends) if last >= end}
            for r in stream_rows(1, key, begin, end)
        }
        assert set(multiset(drawn)) == needed
        return uniforms, parts

    def test_each_block_drawn_once_per_trial(self, monkeypatch):
        # parts hold 215 rows at n = 16, so the rounds from [4, 8) on split
        # into parts, and a part draws only the bins of its own trials
        _, parts = self._draws_of_a_run(monkeypatch)
        assert len(parts) > 8

    def test_whole_rounds_draw_each_bin_once(self, monkeypatch):
        # parts of 3449 rows hold each of the 8 rounds whole; two bins hold two
        # trials each, live in every round, so u draws 2 * 85 rows fewer than x
        monkeypatch.setattr(simulate, "_ROUND_BYTES", 2**22)
        uniforms, parts = self._draws_of_a_run(monkeypatch)
        assert len(parts) == 8
        assert sum(map(len, uniforms[::3])) == sum(map(len, uniforms[1::3])) - 2 * 85

    @pytest.mark.parametrize("rows", [1, 15, 16, 17, 33, 85])
    def test_prefix_rows_match_full_block(self, rows):
        # chunks end at rows 16, 32 and 64 of the 85-row block
        cfg = dsbs_cfg(n=16, r0=0.6, r_star=0.4, seed=4)
        lazy, full = Codebooks(cfg), Codebooks(cfg)
        assert lazy.nstar == 85
        whole = blocks(full, KEY)
        for prefix, block in zip(blocks(lazy, KEY, 0, rows), whole):
            assert np.array_equal(prefix, block[:, :rows])
        # the last row drawn alone, from the same streams
        for last, block in zip(blocks(lazy, KEY, rows - 1, rows), whole):
            assert np.array_equal(last, block[:, rows - 1 : rows])

    def test_hand_traced_codeword(self):
        # regenerate the same slice from the raw uniform stream by hand
        cfg = dsbs_cfg(n=4, r0=1.0, r_star=0.5, seed=9)
        books = Codebooks(cfg)
        u = blocks(books, [(1, 0, 0, 0)])[0][0]
        rng = np.random.default_rng([9, 0, 1, 1, 0])
        uniforms = rng.random((books.nstar, 4))
        cum = np.cumsum(books.p_u.probs)
        cum[-1] = 1.0
        byhand = (uniforms[..., None] < cum).argmax(-1)
        assert np.array_equal(u, byhand)

    def test_threads_may_share_codebooks(self):
        # every thread draws from its own generator, so one code serves all
        books = Codebooks(dsbs_cfg(n=32))
        tables = [np.random.default_rng(k).integers(books.bounds, size=(3, 4)) for k in range(30)]
        expect = [books.rows(books.states(t), 0, 4) for t in tables]
        start = threading.Barrier(8, timeout=60)

        def draws():
            start.wait()
            return [books.rows(books.states(t), 0, 4) for t in tables]

        with ThreadPoolExecutor(8) as pool:
            results = [future.result() for future in [pool.submit(draws) for _ in range(8)]]
        for got in results:
            assert len(got) == len(expect)
            for rows, want in zip(got, expect):
                assert all(np.array_equal(a, b) for a, b in zip(rows, want))


#: probability masses with zero-mass symbols, which repeat CDF entries
_MASS = st.one_of(st.just(0.0), st.floats(1e-3, 1.0))


@st.composite
def _cdf_tables_and_uniforms(draw):
    """Per-u CDF tables built as Codebooks builds them, u rows and uniforms,
    some of them exactly at a CDF entry."""
    k, card_u = draw(st.integers(1, 5)), draw(st.integers(1, 3))
    masses = np.array(draw(st.lists(_MASS, min_size=card_u * k, max_size=card_u * k))).reshape(card_u, k)
    masses[masses.sum(axis=1) == 0, -1] = 1.0
    cum = np.cumsum(masses / masses.sum(axis=1, keepdims=True), axis=1)
    cum[:, -1] = 1.0
    rows, n = draw(st.integers(1, 4)), draw(st.integers(1, 8))
    entries = [float(c) for c in cum.ravel() if c < 1.0] or [0.0]
    uniform = st.one_of(st.floats(0.0, 1.0, exclude_max=True), st.sampled_from(entries))
    uniforms = np.array(draw(st.lists(uniform, min_size=rows * n, max_size=rows * n))).reshape(rows, n)
    u = np.array(draw(st.lists(st.integers(0, card_u - 1), min_size=rows * n, max_size=rows * n))).reshape(rows, n)
    return cum, u, uniforms


class TestSample:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(_cdf_tables_and_uniforms())
    def test_matches_argmax_reference(self, case):
        # the first entry above each uniform of its CDF row, row 0 for all or
        # row u per uniform, as test_hand_traced_codeword writes it
        cum, u, uniforms = case
        for given in (0, u):
            expect = (uniforms[..., None] < cum[given]).argmax(-1)
            assert np.array_equal(_sample(cum, uniforms, given), expect)


#: entropy entries of one 32-bit word, as a key's tail holds them
_WORD = st.one_of(st.just(0), st.integers(1, 2**32 - 1))


@st.composite
def _keyed_entropy(draw):
    """A shared prefix of any ints up to 2^100 and a batch of one-word key tails, 1-6 entries in all."""
    prefix = draw(st.lists(st.one_of(_WORD, st.integers(2**32, 2**100)), max_size=3))
    width = draw(st.integers(max(0, 1 - len(prefix)), 6 - len(prefix)))
    tails = draw(st.lists(st.lists(_WORD, min_size=width, max_size=width), min_size=1, max_size=5))
    return prefix, tails


#: bounds of the bounded draws: 1 takes no half of a raw output, 3 * 2^30 + 1
#: rejects about a quarter of its draws, 2^32 takes a half as it is
_HIGHS = st.sampled_from([1, 2, 3, 2**20, 3 * 2**30 + 1, 2**32])


#: 64-bit seed words of PCG64's seeding, the all-zero and all-ones words among them
_SEED_WORD = st.one_of(st.just(0), st.just(2**64 - 1), st.integers(0, 2**64 - 1))


class _FixedSeedSequence(ISeedSequence):
    """Hands PCG64 four given seed words, as ``generate_state(4, uint64)`` would."""

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        assert (n_words, dtype) == (4, np.uint64)
        return np.array(self.words, dtype=np.uint64)


def _state_words(gen):
    """The PCG64 state and increment of ``gen`` as a ``_srandom`` row: state lo, state hi, inc lo, inc hi."""
    pcg = gen.bit_generator.state["state"]
    return [pcg["state"] & (2**64 - 1), pcg["state"] >> 64, pcg["inc"] & (2**64 - 1), pcg["inc"] >> 64]


def _steps_taken(gen, key):
    """Raw outputs ``gen`` drew since ``default_rng(key)``, counted by advancing a fresh one to its state."""
    fresh = np.random.default_rng(key)
    state = gen.bit_generator.state["state"]
    for steps in range(64):
        if fresh.bit_generator.state["state"] == state:
            return steps
        fresh.bit_generator.advance(1)
    raise AssertionError("more than 64 raw outputs drawn")


def _in_new_thread(fn):
    """Run ``fn`` in a thread of its own, which has no generator yet, and raise what it raised."""
    with ThreadPoolExecutor(1) as pool:
        pool.submit(fn).result()


class TestStateLayout:
    """The per-thread check of numpy's PCG64 state layout, which ``_seeding.draw_uniforms`` writes into."""

    def test_words_high_first_raise_before_writing(self):
        # the high word of each 128-bit value first, as emulated-128-bit builds store it
        gen = np.random.Generator(np.random.PCG64(5))
        words = bytearray(np.array([_state_words(gen)[i] for i in (1, 0, 3, 2)], dtype=np.uint64).tobytes())
        found = bytes(words)
        with pytest.raises(StateLayoutError, match="state words read"):
            _seeding._check_layout(gen, memoryview(words))
        assert words == found

    def test_row_order_mismatch_raises_on_every_draw(self, monkeypatch):
        # rows in that word order, which then disagree with the generator's own
        srandom = _seeding._srandom
        monkeypatch.setattr(_seeding, "_srandom", lambda words: srandom(words)[:, [1, 0, 3, 2]])

        def draw_twice():
            # a failed check keeps no generator, so the second run checks again
            for _ in range(2):
                with pytest.raises(StateLayoutError, match="drew"):
                    run_trials(dsbs_cfg())

        _in_new_thread(draw_twice)

    def test_check_runs_once_per_thread(self, monkeypatch):
        check, calls = _seeding._check_layout, []
        monkeypatch.setattr(_seeding, "_check_layout", lambda gen, view: calls.append(gen) or check(gen, view))

        def three_codes():
            for seed in range(3):
                run_trials(dsbs_cfg(seed=seed))

        for _ in range(2):
            _in_new_thread(three_codes)
        assert len(calls) == 2 and calls[0] is not calls[1]


class TestSeedStreams:
    """Bulk-derived stream states against ``np.random.default_rng``."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_keyed_entropy())
    def test_matches_default_rng(self, case):
        # each key's state, written into the thread's generator as
        # draw_uniforms writes it, seeds the stream of default_rng on that key
        prefix, tails = case
        states = _srandom(seed_words(prefix, np.array(tails, dtype=np.int64).reshape(len(tails), -1)))
        gen, view = _seeding._thread_generator()
        for tail, row in zip(tails, states):
            view[:] = row.tobytes()
            expect = np.random.default_rng([*prefix, *tail])
            assert gen.bit_generator.state == expect.bit_generator.state
            assert gen.random() == expect.random()
            assert gen.bit_generator.random_raw() == expect.bit_generator.random_raw()

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.lists(_SEED_WORD, min_size=4, max_size=4), min_size=1, max_size=5))
    def test_srandom_matches_pcg64_seeding(self, rows):
        # any seed words, all-zero and all-ones rows included, seed PCG64 as
        # numpy seeds it from generate_state(4, uint64)
        rows = [[0] * 4, [2**64 - 1] * 4, *rows]
        states = _srandom(np.array(rows, dtype=np.uint64))
        assert states.dtype == np.uint64 and states.shape == (len(rows), 4) and states.flags.c_contiguous
        for row, state in zip(rows, states.tolist()):
            assert state == _state_words(np.random.Generator(np.random.PCG64(_FixedSeedSequence(row))))

    def test_draw_integers_matches_generator(self):
        # (rejected, raw outputs drawn) of every key over all examples
        keys = []

        @settings(max_examples=200, deadline=None, derandomize=True, database=None)
        @given(_keyed_entropy(), st.lists(_HIGHS, min_size=1, max_size=6))
        def check(case, highs):
            prefix, tails = case
            words = seed_words(prefix, np.array(tails, dtype=np.int64).reshape(len(tails), -1))
            drawn = draw_integers(words, highs)
            assert drawn.dtype == np.int64 and drawn.shape == (len(tails), len(highs))
            for tail, got in zip(tails, drawn):
                gen = np.random.default_rng([*prefix, *tail])
                assert np.array_equal(got, gen.integers(np.array(highs)))
                steps = _steps_taken(gen, [*prefix, *tail])
                taken = 2 * steps - gen.bit_generator.state["has_uint32"]  # 32-bit halves
                keys.append((taken > sum(high > 1 for high in highs), steps))

        check()
        # a rejection happened, and one drew a third raw output on demand
        assert any(rejected for rejected, _ in keys)
        assert any(rejected and steps >= 3 for rejected, steps in keys)

    @pytest.mark.parametrize("prefix", [(), (7,), (7, 2**40)], ids=["padding", "last-pool-word", "folded"])
    def test_short_keys_end_one_word_early(self, prefix):
        # the first keys of a pass leave out the table's last entry, whether
        # that word would sit in the pool, which pads it with zero, or be
        # folded in past it
        table = np.array([[3, 9, 11], [4, 0, 12], [5, 6, 7], [8, 1, 2]])
        states = _srandom(seed_words(prefix, table, short=2))
        keys = [[*prefix, *row[:2]] for row in table[:2].tolist()] + [[*prefix, *row] for row in table[2:].tolist()]
        for key, row in zip(keys, states.tolist()):
            assert row == _state_words(np.random.default_rng(key)), key

    @pytest.mark.parametrize("high", [0, -1, 2**32 + 1, 2.0, 2.5, "3", True])
    def test_draw_integers_refuses_bounds(self, high):
        with pytest.raises(ValueError, match=r"bounds must be integers in \[1, 2\^32\]"):
            draw_integers(seed_words((7,), [[0]]), [5, high])

    @pytest.mark.parametrize("entry", [2**32, -1])
    def test_entries_beyond_one_word_are_refused(self, entry):
        # numpy would wrap them into another key's words
        with pytest.raises(ValueError, match=r"table entries must lie in \[0, 2\^32\)"):
            seed_words((7,), [[0, entry]])

    @pytest.mark.parametrize("name, stream, idx", [("u", 1, (2, 0)), ("x", 2, (2, 0, 1)), ("y", 3, (2, 0, 3))])
    def test_lone_block_matches_seeded_chunk(self, name, stream, idx):
        # a block drawn alone from the stream keyed by its own indices equals
        # its rows in a draw of a chunk of trials' blocks, whole and over any
        # range, at a seed of two words; the lone triple of trial (2, 0, 1, 3)
        # is built from its keys written out, x and y drawn given its u
        cfg = dsbs_cfg(n=16, r0=0.6, r_star=0.4, seed=2**32 + 4)
        books = Codebooks(cfg)
        table = np.array([(1, 3, 0, 2), (2, 0, 1, 3)])
        keys = [(2, 0), (2, 0, 1), (2, 0, 3)]
        assert keys[stream - 1] == idx
        lone = np.stack([_srandom(seed_words((cfg.seed, 0, s), [key])) for s, key in enumerate(keys, start=1)])
        for start, stop in ((0, books.nstar), (17, 40)):
            drawn = books.rows(lone, start, stop)[stream - 1]
            assert np.array_equal(blocks(books, table, start, stop)[stream - 1][1], drawn[0]), name

    @pytest.mark.parametrize(
        "table, runs",
        [
            pytest.param([(1, 3, 0, 2), (1, 3, 5, 7), (1, 3, 0, 9), (2, 0, 1, 3)], 2, id="adjacent"),
            pytest.param([(1, 3, 0, 2), (2, 0, 1, 3), (1, 3, 5, 7), (2, 0, 4, 4)], 4, id="non-adjacent"),
            pytest.param([(2, 0, 1, 3), (2, 0, 1, 3), (2, 0, 6, 0)], 1, id="all-equal"),
            pytest.param([(1, 3, 0, 2), (2, 0, 1, 3), (0, 0, 0, 0)], 3, id="all-distinct"),
        ],
    )
    @pytest.mark.parametrize("start, stop", [(0, 85), (0, 1), (17, 40)])
    def test_repeated_bins_draw_the_same_rows(self, table, runs, start, stop, monkeypatch):
        # each run of adjacent trials of one bin draws its u rows once, and
        # every u, x and y row equals that of its block's own default_rng
        cfg = dsbs_cfg(n=16, r0=0.6, r_star=0.4, seed=4)
        books = Codebooks(cfg)
        draws = []

        def recording_sample(cum, uniforms, given):
            draws.append(len(uniforms))
            return _sample(cum, uniforms, given)

        monkeypatch.setattr(simulate, "_sample", recording_sample)
        u, x, y = blocks(books, table, start, stop)
        assert draws == [runs, len(table), len(table)]
        reference = reference_blocks(cfg)
        for k, key in enumerate(table):
            for drawn, block in zip((u[k], x[k], y[k]), reference(key)):
                assert np.array_equal(drawn, block[start:stop]), (key, start)

    @pytest.mark.parametrize("round_bytes", [None, 20 * 1024], ids=["parts", "small-parts"])
    def test_search_results_follow_their_trials(self, round_bytes, monkeypatch):
        # 60 trials in 4 bins search the same as each trial alone, in any
        # order: random, by bin as run_trials orders them, and reversed
        if round_bytes:
            monkeypatch.setattr(simulate, "_ROUND_BYTES", round_bytes)
        cfg = dsbs_cfg(seed=4, **DEEP)
        books = Codebooks(cfg)
        rng = np.random.default_rng(5)
        table = np.column_stack((rng.integers(2, size=(60, 2)), rng.integers(books.nb1, size=(60, 2))))
        base = _search(books, table)
        expect = [reference_search(cfg, key) for key in table]
        assert 0 < sum(failed for _, failed, _, _ in expect) < 60
        for k, (m_star, failed, x, y) in enumerate(expect):
            assert (base[0][k], base[1][k]) == (m_star, failed)
            assert np.array_equal(np.divmod(base[2][k], 2), (x, y))
        for order in (np.argsort(table[:, 0] * books.n01 + table[:, 1], kind="stable"), np.arange(60)[::-1]):
            for got, want in zip(_search(books, table[order]), base):
                assert np.array_equal(got, want[order])

    def test_shared_u_rows_hold_no_more_than_distinct_ones(self):
        # a part whose trials share u blocks draws fewer uniforms and frees the
        # runs' u rows once they are gathered, so it peaks no higher than a part
        # of distinct blocks, which SimConfig._row_bytes counts
        cfg = dsbs_cfg(n=256, r0=0.05, r_star=0.01, rt1=0.05, rt2=0.05)
        books = Codebooks(cfg)
        distinct = np.array([(k, 0, k, k) for k in range(40)])

        def peak(runs):
            table = distinct.copy()
            table[runs:, :2] = table[runs - 1, :2]
            states = books.states(table)
            books.rows(states, 0, books.nstar)
            tracemalloc.start()
            try:
                books.rows(states, 0, books.nstar)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert (books.n01, books.nstar) == (85, 6)
        assert max(peak(runs) for runs in (1, 2, 20, 39)) <= peak(40)

    @pytest.mark.parametrize("states", [np.zeros(shape, dtype=np.uint64) for shape in ((2, 3), 4, (1, 2, 4), (2, 2, 4))])
    def test_draw_refuses_states_of_another_shape(self, states):
        # each state is copied to the generator as 32 bytes, so a row must
        # hold four words, and every block has a u, an x and a y state
        with pytest.raises(ValueError, match=r"states must be \(3, blocks, 4\) _srandom rows"):
            Codebooks(dsbs_cfg()).rows(states, 0, 1)

    @pytest.mark.parametrize("start, stop", [(0, 7), (-1, 1), (2, 1), (0, 0), (4, 5), (0.0, 1), (0, 2.5)])
    def test_rows_refuses_ranges_outside_the_bin(self, start, stop):
        # n* = 4: rows past the bin, before the block, or an empty or reversed range
        books = Codebooks(dsbs_cfg(n=8, r0=0.5, r_star=0.25))
        assert (books.nstar, books.n01) == (4, 4)
        states = books.states([(0, 0, 0, 0)])
        with pytest.raises(SimulationError, match=r"Codebooks.rows: need integers 0 <= start < stop <= 4"):
            books.rows(states, start, stop)

    @pytest.mark.parametrize(
        "table", [[(99, 0, 0, 0)], [(0, 4, 0, 0)], [(0, 0, 16, 0)], [(0, 0, 0, 16)], [(0, -1, 0, 0)], [(0, 0, 0)], [0, 0, 0, 0]]
    )
    def test_states_refuses_indices_outside_the_code(self, table):
        books = Codebooks(dsbs_cfg(n=8, r0=0.5, r_star=0.25))
        assert books.bounds == (4, 4, 16, 16)
        with pytest.raises(SimulationError, match=r"Codebooks.states: table rows must be \(m01, m02, b1, b2\) within \(4, 4, 16, 16\)"):
            books.states(table)

    def test_states_are_keyed_by_stream_and_indices(self):
        # row k of stream s is the PCG64 state of default_rng on the key
        # [seed, 0, s, m01, m02] (u), with b1 (x) or b2 (y) appended, written
        # out here, at a seed of two words
        cfg = dsbs_cfg(n=16, r0=0.6, r_star=0.4, seed=2**32 + 4)
        states = Codebooks(cfg).states([(1, 3, 0, 2), (2, 0, 1, 3)])
        keys = [[(1, 3), (1, 3, 0), (1, 3, 2)], [(2, 0), (2, 0, 1), (2, 0, 3)]]
        assert states.shape == (3, 2, 4)
        for k, trial in enumerate(keys):
            for s, key in enumerate(trial, start=1):
                expect = _state_words(np.random.default_rng([cfg.seed, 0, s, *key]))
                assert states[s - 1, k].tolist() == expect, (k, s)

    @pytest.mark.parametrize(
        "kwargs, round_bytes",
        [
            pytest.param(dict(n=32, seed=7, r0=I_JOINT_02 - 0.6, r_star=0.0), None, id="7"),
            pytest.param(dict(n=32, seed=2**32 + 5, r0=I_JOINT_02 - 0.6, r_star=0.0), None, id="4294967301"),
            pytest.param(dict(seed=7, **DEEP), None, id="deep"),
            pytest.param(dict(seed=2**32 + 5, **DEEP), None, id="deep-two-word-seed"),
            # 20 rows a part at n = 16: rounds split by trials and long rounds by rows
            pytest.param(dict(seed=7, **DEEP), 20 * 1024, id="deep-small-parts"),
            # r0 = 0 and rt1 = 0 give n01 = nb1 = 1: draws of size 1 take nothing
            # from the w stream, so b2 comes from its first half
            pytest.param(dict(n=32, seed=7, r0=0.0, r_star=0.0, rt1=0.0), None, id="one-entry-indices"),
        ],
    )
    def test_run_trials_matches_per_block_generators(self, kwargs, round_bytes, monkeypatch):
        # the streams of one default_rng per trial and per block, over three
        # chunks, of 200 trials at n = 32 and 232 at n = 16, or more, smaller
        # chunks at the small parts
        monkeypatch.setattr(simulate, "_ROUND_BYTES", round_bytes or 200 * 410)
        cfg = dsbs_cfg(trials=513, **kwargs)
        assert cfg.trials > 2 * chunk_trials(cfg.n)
        trials = reference_trials(cfg)
        # an m* past row 32 is found in the seventh round, [32, 64), or later
        if cfg.index_sizes()[1] > 32:
            assert any(m_star > 32 for _, m_star, _, _, _ in trials)
            assert 0 < sum(failed for _, _, failed, _, _ in trials) < cfg.trials
        counts, failures = np.zeros((2, 2), dtype=np.int64), 0
        for _, _, failed, x, y in trials:
            np.add.at(counts, (x, y), 1)
            failures += failed
        rep = run_trials(cfg)
        assert np.array_equal(rep.empirical_joint.probs, counts / (cfg.trials * cfg.n))
        assert rep.mstar_failure_rate == failures / cfg.trials

    @pytest.mark.parametrize("round_bytes", [None, 20 * 1024], ids=["one-chunk", "small-chunks"])
    def test_three_symbol_alphabets_match_per_block_generators(self, round_bytes, monkeypatch):
        # a 3 x 3 source through a three-symbol U with X - U - Y exact, so
        # every CDF the sampler reads has three entries; 200 trials share 36
        # bins, some hit past row 16 and some fail, all as one default_rng
        # per trial and per block draws them
        if round_bytes:
            monkeypatch.setattr(simulate, "_ROUND_BYTES", round_bytes)
        p_u = np.array([0.5, 0.3, 0.2])
        p_x_u = np.array([[0.8, 0.1, 0.1], [0.1, 0.7, 0.2], [0.2, 0.2, 0.6]])
        p_y_u = np.array([[0.7, 0.2, 0.1], [0.15, 0.7, 0.15], [0.1, 0.3, 0.6]])
        joint = p_u[:, None, None] * p_x_u[:, :, None] * p_y_u[:, None, :]
        q = joint.sum(axis=0)
        rates = SimRates(r0=0.3, r_star=0.4, rt1=0.5, rt2=0.5)
        cfg = SimConfig(q=JointPmf(q), channel=AuxChannel((joint / q).transpose(1, 2, 0)), n=16, rates=rates, eps_typ=0.08, trials=200, seed=3)
        trials = reference_trials(cfg)
        assert 0 < sum(failed for _, _, failed, _, _ in trials) < cfg.trials
        assert any(m_star > 16 for _, m_star, _, _, _ in trials)
        counts, failures = np.zeros((3, 3), dtype=np.int64), 0
        for _, _, failed, x, y in trials:
            np.add.at(counts, (x, y), 1)
            failures += failed
        assert (counts > 0).all()
        rep = run_trials(cfg)
        assert np.array_equal(rep.empirical_joint.probs, counts / (cfg.trials * cfg.n))
        assert rep.mstar_failure_rate == failures / cfg.trials
        m_star, failed, pairs = _search(Codebooks(cfg), np.array([key for key, *_ in trials]))
        for k, (_, m, fail, x, y) in enumerate(trials):
            assert (m_star[k], failed[k]) == (m, fail)
            assert np.array_equal(np.divmod(pairs[k], 3), (x, y))

    def test_hashing_fits_the_chunk_count(self):
        # the tracemalloc peak a trial of hashing a chunk's stream states,
        # the slope between a small table and a full chunk at n = 1, plus the
        # 32 bytes of trial rows run_trials holds meanwhile, is within the
        # HASH_BYTES the chunk count reads
        books = Codebooks(dsbs_cfg(n=1, seed=1, r0=I_JOINT_02 - 0.6, r_star=0.0))
        rng = np.random.default_rng(3)

        def peak(trials):
            table = np.column_stack((rng.integers(books.n01, size=(trials, 2)), rng.integers(books.nb1, size=(trials, 2))))
            books.states(table)
            tracemalloc.start()
            try:
                books.states(table)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = 100, chunk_trials(1)
        assert (peak(large) - peak(small)) / (large - small) + 32 <= HASH_BYTES

    def test_chunks_and_hash_passes_follow_the_chunk_count(self, monkeypatch):
        # run_trials' chunks are those chunk_trials counts: 1000 trials at
        # n = 32 run in two chunks, each hashed in one pass over its w keys
        # and one over its u, x and y keys, and searched in 5 + 3 parts
        passes, chunks, parts = [], [], []
        seed_words, search, rows = simulate.seed_words, simulate._search, Codebooks.rows
        monkeypatch.setattr(simulate, "seed_words", lambda prefix, table, **kw: passes.append(len(table)) or seed_words(prefix, table, **kw))
        monkeypatch.setattr(simulate, "_search", lambda books, table: chunks.append(len(table)) or search(books, table))
        monkeypatch.setattr(Codebooks, "rows", lambda self, states, *span: parts.append(states.shape[1]) or rows(self, states, *span))
        run_trials(dsbs_cfg(n=32, trials=1000, seed=1, r0=I_JOINT_02 - 0.6, r_star=0.0))
        assert chunks == [chunk_trials(32), 1000 - chunk_trials(32)] == [639, 361]
        assert passes == [639, 3 * 639, 361, 3 * 361]
        assert len(parts) == 8 and sum(parts) == 1000

    def test_memory_is_flat_in_trials(self):
        # the stream states of one chunk are kept at a time
        def peak(trials):
            cfg = dsbs_cfg(n=32, trials=trials, seed=1, r0=I_JOINT_02 - 0.6, r_star=0.0)
            tracemalloc.start()
            try:
                run_trials(cfg)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # warm the interpreter's and numpy's one-time caches first
        chunk = chunk_trials(32)
        run_trials(dsbs_cfg(n=32, trials=chunk, seed=2, r0=I_JOINT_02 - 0.6, r_star=0.0))
        assert peak(20 * chunk) <= peak(chunk) + 64 * 1024

    def test_short_blocks_run_in_capped_chunks(self):
        # at n = 1 a chunk holds 744 trials: their stream states, hashed at
        # 332 bytes a trial with their trial rows, fit the round cap, where a
        # count of emitted rows alone would put 16384 trials in a chunk
        kwargs = dict(n=1, seed=1, r0=I_JOINT_02 - 0.6, r_star=0.0)
        run_trials(dsbs_cfg(trials=3, **kwargs))
        tracemalloc.start()
        try:
            rep = run_trials(dsbs_cfg(trials=4000, **kwargs))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.trials_run == 4000 and chunk_trials(1) == 744
        assert peak <= 2 * simulate._ROUND_BYTES + 256 * 1024

    @pytest.mark.parametrize(
        "trials, eps, failure_rate", [(8, 0.001, 1.0), (257, 0.1, 0.0)], ids=["failing", "full-chunk"]
    )
    def test_long_blocks_run_in_capped_parts(self, trials, eps, failure_rate):
        # at n = 4096 one part of a search round holds one row of the 71-row
        # blocks and a chunk holds 7 trials, whose emitted rows fit the round
        # cap too; whole blocks would take 32 * 71 * n bytes and the emitted
        # rows of all 257 trials 8 MiB
        kwargs = dict(n=4096, seed=1, r0=0.001, r_star=0.0015, rt1=0.001, rt2=0.001)
        cfg = dsbs_cfg(trials=trials, eps=eps, **kwargs)
        assert cfg.index_sizes()[1] == 71 and chunk_trials(cfg.n) == 7
        run_trials(dsbs_cfg(trials=1, **kwargs))
        tracemalloc.start()
        try:
            rep = run_trials(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.mstar_failure_rate == failure_rate
        assert peak <= 2 * simulate._ROUND_BYTES + 256 * 1024


def typical(u, x, y, p, eps_typ):
    """``_typical_mask`` of one row triple."""
    return bool(_typical_mask(cells(u, x, y, p)[None], p, eps_typ)[0])


class TestTypicality:
    def setup_method(self):
        full = compose(dsbs_joint(0.2), dsbs_wyner_channel(0.2))
        self.p = full.probs[:, :, :, 0, 0].transpose(2, 0, 1)
        self.flat = self.p.ravel()

    def _draw(self, rng, n):
        draw = rng.choice(len(self.flat), size=n, p=self.flat)
        return draw // 4, (draw // 2) % 2, draw % 2

    def test_exact_draws_pass_often(self):
        rng = np.random.default_rng(1)
        for n, floor in ((64, 0.8), (128, 0.9)):
            passes = sum(
                typical(*self._draw(rng, n), self.p, 0.1) for _ in range(500)
            )
            assert passes / 500 >= floor

    def test_constant_sequence_fails(self):
        n = 64
        u = np.zeros(n, dtype=int)
        assert not typical(u, u, u, self.p, 0.01)

    def test_zero_probability_cell_fails(self):
        p = np.array(self.p)
        p[1, 1, 1] = 0.0
        p /= p.sum()
        u = np.ones(4, dtype=int)
        assert not typical(u, u, u, p, 1.0)


class TestCoordinatorAndProcessors:
    """The coordinator's bin search and the rows each processor emits, on ``_search``."""

    def test_xor_recovery_full_sweep(self):
        # for every pair of halves, each processor emits row m* of its block
        # in the bin m0 = (m01, m02) the coordinator searched: its
        # reconstruction of m0 from the broadcast XOR is exact
        cfg = dsbs_cfg(n=8, r0=0.5, r_star=0.5, eps=0.2)
        books = Codebooks(cfg)
        table = np.array([(m01, m02, 0, 0) for m01 in range(books.n01) for m02 in range(books.n01)])
        m_star, _, pairs = _search(books, table)
        x, y = np.divmod(pairs, 2)
        assert len(set(m_star.tolist())) > 1
        _, x_rows, y_rows = blocks(books, table)
        trials = np.arange(len(table))
        assert np.array_equal(x, x_rows[trials, m_star]) and np.array_equal(y, y_rows[trials, m_star])

    def test_processors_consistent_with_coordinator(self):
        cfg = dsbs_cfg(n=16, r0=0.6, r_star=0.4, seed=4, eps=0.2)
        books = Codebooks(cfg)
        m_star, _, pairs = _search(books, KEY)
        x, y = np.divmod(pairs, 2)
        _, x_rows, y_rows = blocks(books, KEY)
        assert np.array_equal(x[0], x_rows[0, m_star[0]])
        assert np.array_equal(y[0], y_rows[0, m_star[0]])

    def test_information_isolation(self):
        # each processor's output is untouched by any change to the other's
        # codeword index; that index reaches it only through m*
        cfg = dsbs_cfg(n=16, r0=0.6, r_star=0.4, seed=4)
        books = Codebooks(cfg)
        rng = np.random.default_rng(5)
        table = rng.integers((books.n01, books.n01, books.nb1, books.nb2), size=(200, 4))
        for which in (1, 2):
            matched, ok = processor_isolation(books, table, which)
            assert ok and 0 < matched < len(table)

    def test_deterministic_source_never_fails(self):
        q = JointPmf(np.array([[1.0]]))
        cfg = SimConfig(q=q, channel=degenerate_channel(1, 1), n=8,
                        rates=SimRates(0.4, 0.2, 0.2, 0.2), eps_typ=0.05, trials=1, seed=0)
        m_star, failed, _ = _search(Codebooks(cfg), np.array([(0, 1, 0, 1)]))
        assert not failed[0] and m_star[0] == 0

    def test_failed_search_tests_every_row_once(self, monkeypatch):
        # an impossible tolerance fails the search
        cfg = dsbs_cfg(n=16, r0=0.6, r_star=0.4, seed=4, eps=1e-9)
        books = Codebooks(cfg)
        tested = []

        def recording_mask(rows, p, eps_typ):
            tested.append(np.array(rows))
            return _typical_mask(rows, p, eps_typ)

        monkeypatch.setattr(simulate, "_typical_mask", recording_mask)
        m_star, failed, _ = _search(books, KEY)
        assert (m_star[0], failed[0]) == (0, True)
        assert [len(t) for t in tested] == [1, 1, 2, 4, 8, 16, 32, 21]
        u, x, y = (rows[0] for rows in blocks(Codebooks(cfg), KEY))
        assert np.array_equal(np.concatenate(tested), cells(u, x, y, books.target_uxy))

    def test_early_hit_draws_first_round_only(self, monkeypatch):
        cfg = dsbs_cfg(n=16, r0=0.6, r_star=0.4, seed=4, eps=0.2)
        books = Codebooks(cfg)
        sampled = []

        def recording_sample(cum, uniforms, given):
            sampled.append(uniforms.shape[-2])
            return _sample(cum, uniforms, given)

        monkeypatch.setattr(simulate, "_sample", recording_sample)
        m_star, failed, _ = _search(books, KEY)
        assert (m_star[0], failed[0]) == (0, False)
        # u, x and y draw their row 0 once; the emitted rows are read from it
        assert sampled == [1, 1, 1] and books.nstar == 85

    def test_failure_flag_and_fallback(self):
        # an impossible tolerance forces the flagged first-candidate fallback
        cfg = dsbs_cfg(n=16, r0=0.5, r_star=0.2, seed=1, eps=1e-9)
        books = Codebooks(cfg)
        table = np.zeros((1, 4), dtype=np.int64)
        m_star, failed, pairs = _search(books, table)
        x, y = np.divmod(pairs, 2)
        assert failed[0] and m_star[0] == 0
        _, x_rows, y_rows = blocks(books, table)
        assert np.array_equal(x[0], x_rows[0, 0]) and np.array_equal(y[0], y_rows[0, 0])


class TestMstarScarcity:
    """Candidate scarcity below the conditional-information rate threshold.

    The codebooks draw x and y conditionally independently given u, so when
    the target channel leaves residual dependence I(X;Y|U) > 0, a candidate
    triple matches the target type only with probability exponentially
    small in n * I(X;Y|U); the index rate must pay for it.
    """

    def test_failure_rates_bracket_threshold(self):
        q = dsbs_joint(0.2)
        ch = interpolated_channel(0.2, 0.5)
        icond = f_of_t(0.2, 0.5).i_cond
        assert icond > 0.15
        common = dict(q=q, channel=ch, n=32, eps_typ=0.1, trials=120, max_markov_defect=1.0)
        starved = run_trials(SimConfig(rates=SimRates(1.0, 0.0, 0.5, 0.5), seed=3, **common))
        funded = run_trials(SimConfig(rates=SimRates(1.0, icond + 0.3, 0.5, 0.5), seed=3, **common))
        assert starved.mstar_failure_rate >= 0.5
        assert funded.mstar_failure_rate <= 0.2


class TestRunTrials:
    def test_independent_source_needs_no_communication(self):
        # zero broadcast and bin rates; the processors' own codeword indices
        # carry their local sampling randomness, so the pooled output
        # converges to the product target
        q = JointPmf(np.outer([0.3, 0.7], [0.6, 0.4]))
        cfg = SimConfig(q=q, channel=degenerate_channel(2, 2), n=16,
                        rates=SimRates(0, 0, 0.75, 0.75), eps_typ=0.5, trials=600, seed=2)
        rep = run_trials(cfg)
        assert rep.tv_per_letter < 0.1
        assert rep.mstar_failure_rate == 0.0

    def test_zero_rates_fixed_code_is_one_sequence_pair(self):
        # with no rates anywhere a fixed code can only ever replay a single
        # codeword pair; the pooled statistics are that pair's type
        q = JointPmf(np.outer([0.3, 0.7], [0.6, 0.4]))
        cfg = SimConfig(q=q, channel=degenerate_channel(2, 2), n=16,
                        rates=SimRates(0, 0, 0, 0), eps_typ=0.5, trials=50, seed=2)
        rep = run_trials(cfg)
        _, x, y = (rows[0, 0] for rows in blocks(Codebooks(cfg), [(0, 0, 0, 0)]))
        expect = np.zeros((2, 2))
        np.add.at(expect, (x, y), 1.0 / cfg.n)
        assert np.allclose(rep.empirical_joint.probs, expect)

    def test_factors_near_sum_tolerance(self):
        # source and channel rows each 9e-10 over 1, within SUM_TOL: the run
        # composes them without refusing the product or renormalizing p(u)
        q, aux = near_tolerance_pair()
        p_u, _, _ = derive_components(aux, q)
        assert p_u.probs.sum() - 1.0 > 1e-9
        rep = run_trials(SimConfig(q=q, channel=aux, n=8, rates=SimRates(0.5, 0.25, 0.5, 0.5), trials=5))
        assert rep.trials_run == 5 and 0.0 <= rep.tv_per_letter <= 1.0

    def test_acceptance_style_run_is_tight(self):
        rep = run_trials(dsbs_cfg(n=32, trials=300, seed=6))
        assert rep.tv_per_letter < 0.1
        assert rep.mstar_failure_rate < 0.2

    def test_report_is_deterministic(self):
        r1 = run_trials(dsbs_cfg(n=16, trials=40, seed=9))
        r2 = run_trials(dsbs_cfg(n=16, trials=40, seed=9))
        assert r1.tv_per_letter == r2.tv_per_letter
        assert r1.mstar_failure_rate == r2.mstar_failure_rate
        assert np.array_equal(r1.empirical_joint.probs, r2.empirical_joint.probs)

    @pytest.mark.parametrize(
        "make_cfg, probs, tv, fail",
        [
            # DSBS(0.2) above the rate region, index sizes (51, 28, 256, 256)
            (
                lambda: dsbs_cfg(n=16, trials=40, seed=5),
                [[0.396875, 0.09375], [0.109375, 0.4]],
                0.009375000000000022,
                0.0,
            ),
            # DSBS(0.2) below it, one candidate per bin: (4, 1, 65536, 65536)
            (
                lambda: dsbs_cfg(n=32, trials=60, seed=7, r0=I_JOINT_02 - 0.6, r_star=0.0),
                [[0.4078125, 0.09114583333333333], [0.0984375, 0.40260416666666665]],
                0.010416666666666657,
                0.6,
            ),
            # product source, degenerate channel, zero bin and index rates: (1, 1, 16, 16)
            (
                lambda: SimConfig(q=JointPmf(np.outer([0.3, 0.7], [0.6, 0.4])),
                                  channel=degenerate_channel(2, 2), n=16,
                                  rates=SimRates(0, 0, 0.25, 0.25), eps_typ=0.5, trials=30, seed=2),
                [[0.18541666666666667, 0.11041666666666666], [0.3854166666666667, 0.31875]],
                0.04416666666666666,
                0.0,
            ),
            # the below-region configuration at a seed of two 32-bit words
            (
                lambda: dsbs_cfg(n=32, trials=60, seed=2**32 + 5, r0=I_JOINT_02 - 0.6, r_star=0.0),
                [[0.40989583333333335, 0.096875], [0.08333333333333333, 0.40989583333333335]],
                0.019791666666666666,
                0.5,
            ),
        ],
        ids=["above", "below", "zero_rate", "two_word_seed"],
    )
    def test_seeded_report_is_pinned(self, make_cfg, probs, tv, fail):
        # exact outputs of fixed seeds: any change to the draw order shows here
        rep = run_trials(make_cfg())
        assert rep.empirical_joint.probs.tolist() == probs
        assert rep.tv_per_letter == tv
        assert rep.mstar_failure_rate == fail

    def test_report_consistency(self):
        rep = run_trials(dsbs_cfg(n=8, trials=50, seed=3))
        assert rep.trials_run == 50
        assert rep.tv_per_letter == tv_distance(rep.empirical_joint, dsbs_joint(0.2))
        echo = rep.config_echo
        assert echo["rates"]["r"] == echo["rates"]["r0"] / 2 + echo["rates"]["r_star"]

    def test_report_serialization(self, tmp_path):
        rep = run_trials(dsbs_cfg(n=8, trials=20, seed=1))
        path = tmp_path / "report.json"
        rep.save(path)
        doc = json.loads(path.read_text())
        assert doc["trials_run"] == 20
        assert doc["tv_per_letter"] == rep.tv_per_letter
        assert "config_echo" in doc and doc["config_echo"]["n"] == 8
        assert np.allclose(doc["empirical_joint"], rep.empirical_joint.probs)

    def test_conditional_independence_of_outputs(self):
        # pooled over trials, (x, y) given the selected u factorizes
        cfg = dsbs_cfg(n=32, trials=2000, seed=14)
        books = Codebooks(cfg)
        sizes = (books.n01, books.n01, books.nb1, books.nb2)
        table = np.array(
            [[int(rng_w.integers(size)) for size in sizes]
             for rng_w in (np.random.default_rng([cfg.seed, k, 0]) for k in range(cfg.trials))]
        )
        m_star, _, pairs = _search(books, table)
        x, y = np.divmod(pairs, 2)
        # the selected u rows, drawn for the trials of each m* together
        u, states = np.empty_like(x), books.states(table)
        for m in np.unique(m_star).tolist():
            picked = np.flatnonzero(m_star == m)
            u[picked] = books.rows(states[:, picked], m, m + 1)[0][:, 0]
        counts = np.zeros((2, 2, 2))
        np.add.at(counts, (u, x, y), 1)
        for u in range(2):
            joint = counts[u] / counts[u].sum()
            product = np.outer(joint.sum(1), joint.sum(0))
            assert tv_distance(JointPmf(joint / joint.sum()), JointPmf(product / product.sum())) <= 0.05
