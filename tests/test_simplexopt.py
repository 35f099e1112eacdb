import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import BASE_3X3
from coordrate import _simplexopt as so
from coordrate.measures import conditional_mutual_information, mutual_information
from coordrate.pmf import AuxChannel, JointPmf, compose, dsbs_joint
from coordrate.ulsr import UlsrForm, _objective, ulsr_rate
from coordrate.wyner import SolverOptions, wyner_ci


def _max_avg(stats):
    return np.maximum(stats.i_cond, 0.5 * (stats.i_joint + stats.i_cond))


def _max_avg_subgradient(stats):
    a, b = stats.i_cond, 0.5 * (stats.i_joint + stats.i_cond)
    wa = np.where(a > b, 1.0, 0.0)
    # weights on (g_joint, g_cond) of wa * g_cond + (1 - wa) * (g_joint + g_cond) / 2
    return np.maximum(a, b), np.stack([0.5 * (1.0 - wa), wa + 0.5 * (1.0 - wa)])


class TestEgMinimize:
    def test_stats_describe_returned_batch(self):
        # a short subgradient run ends on a rejected proposal, which must
        # not leak into the stats returned with the batch
        q = dsbs_joint(0.1).probs
        batch = so.random_channels(2, 2, 6, 8, seed=0)
        best, stats, _ = so.eg_minimize(q, batch, _max_avg_subgradient, 5, 1e-12)
        ref = so.ChannelStats(so.Source(q, best.shape[-1]), best)
        assert np.array_equal(stats.i_joint, ref.i_joint)
        assert np.array_equal(stats.i_cond, ref.i_cond)
        assert np.array_equal(stats.g_joint, ref.g_joint) and np.array_equal(stats.g_cond, ref.g_cond)

    def test_accepted_objective_never_rises(self):
        # subgradient proposals on the kinked max go up as well as down, but
        # the accepted row after k iterations is never worse than after k - 1,
        # so the returned row is the best iterate seen
        q = dsbs_joint(0.1).probs
        batch = so.random_channels(2, 2, 6, 4, seed=0)
        proposed = []

        def recording(stats):
            proposed.append(_max_avg(stats))
            return _max_avg_subgradient(stats)

        so.eg_minimize(q, batch[:1], recording, 60, 1e-12)
        assert any(b > a for a, b in zip(proposed, proposed[1:]))
        accepted = [_max_avg(so.eg_minimize(q, batch, _max_avg_subgradient, k, 1e-12)[1]) for k in range(61)]
        assert all(np.all(b <= a) for a, b in zip(accepted, accepted[1:]))


def _penalized(stats):
    return stats.i_joint + 10.0 * stats.i_cond, np.repeat([[1.0], [10.0]], stats.i_cond.size, axis=1)


_DSBS = dsbs_joint(0.1).probs
_3X3 = BASE_3X3 / BASE_3X3.sum()
#: the 3 x 3 source with cell (0, 2) emptied
_ZERO_MASS = BASE_3X3.copy()
_ZERO_MASS[0, 2] = 0.0
_ZERO_MASS /= _ZERO_MASS.sum()

#: (source, card_u, objective, max_iters) on six restarts that freeze at
#: different iterations: after a streak of small accepted steps (penalized
#: and softmax; some are still live at max_iters) or by step collapse at the
#: kink (subgradient); on DSBS(0.1) and the 3 x 3 source, whose gathers and
#: matmuls have other shapes, and on a source with a zero-mass cell, whose
#: gradients are masked
_RUNS = {
    "streak": (_DSBS, 3, _penalized, 150),
    "collapse": (_DSBS, 3, _max_avg_subgradient, 2000),
    "3x3": (_3X3, 11, _penalized, 900),
    "softmax": (_3X3, 11, _objective(UlsrForm.MAX_AVG, 100.0), 900),
    "zero_mass": (_ZERO_MASS, 4, _penalized, 1100),
}


class TestCompaction:
    @pytest.mark.parametrize("case", _RUNS)
    def test_batch_matches_separate_restarts(self, case):
        q, card_u, objective, max_iters = _RUNS[case]
        batch = so.random_channels(*q.shape, card_u, 6, seed=0)
        best, stats, frozen_at = so.eg_minimize(q, batch, objective, max_iters, 1e-9)
        values = objective(stats)[0]
        assert len(set(frozen_at.tolist())) > 1
        for r in range(batch.shape[0]):
            one, one_stats, one_frozen = so.eg_minimize(q, batch[r : r + 1], objective, max_iters, 1e-9)
            assert np.array_equal(one[0], best[r]) and one_frozen[0] == frozen_at[r]
            for name in ("i_joint", "i_cond", "g_joint", "g_cond"):
                assert np.array_equal(getattr(one_stats, name)[0], getattr(stats, name)[r])
            if frozen_at[r]:
                # a frozen restart keeps its accepted state, never a rejected
                # proposal, so it is no worse than one iteration earlier
                before = so.eg_minimize(q, batch[r : r + 1], objective, frozen_at[r] - 1, 1e-9)
                assert values[r] <= objective(before[1])[0][0]

    def test_frozen_rows_are_not_reevaluated(self, monkeypatch):
        rows = []

        class CountingStats(so.ChannelStats):
            def __init__(self, src, batch):
                rows.append(batch.shape[0])
                super().__init__(src, batch)

        monkeypatch.setattr(so, "ChannelStats", CountingStats)
        q, card_u, objective, max_iters = _RUNS["streak"]
        batch = so.random_channels(*q.shape, card_u, 6, seed=0)
        *_, frozen_at = so.eg_minimize(q, batch, objective, max_iters, 1e-9)
        counted = list(rows)
        assert 0 < (frozen_at == 0).sum() < 6
        live = [int(((frozen_at == 0) | (frozen_at >= it)).sum()) for it in range(1, max_iters + 1)]
        # the initial batch, one row per live restart per iteration, then the returned batch
        assert counted == [6, *live, 6]
        # each restart froze where it first converged: one iteration less leaves it live
        for r in np.flatnonzero(frozen_at):
            *_, earlier = so.eg_minimize(q, batch, objective, frozen_at[r] - 1, 1e-9)
            assert earlier[r] == 0


def test_descend_jitters_stages_not_exact_runs(monkeypatch):
    # stage i starts from the previous run's batch (the starts, then the
    # seeded random rows, for the first) jittered by its index i; each exact
    # run starts from the previous run's batch as it is
    runs = []
    run = so.eg_minimize

    def recording(q, batch, objective_and_grad, max_iters, tol):
        result = run(q, batch, objective_and_grad, max_iters, tol)
        runs.append((batch, result[0]))
        return result

    monkeypatch.setattr(so, "eg_minimize", recording)
    opts = SolverOptions(restarts=5, max_iters=40, seed=3)
    starts = [np.full((2, 2, 3), 1.0 / 3.0)]
    stages = [("penalty", 10.0, _penalized), ("penalty", 10.0, _penalized)]
    exact = [("polish", None, _max_avg_subgradient), ("finish", None, _max_avg_subgradient)]
    batch, _, records = so.descend(_DSBS, 3, starts, stages, opts, exact)
    first = np.concatenate([so.normalize_rows(np.stack(starts)), so.random_channels(2, 2, 3, opts.restarts - len(starts), opts.seed)])
    assert len(runs) == 4
    inputs = [so.jitter_channels(first, opts.seed, 0), so.jitter_channels(runs[0][1], opts.seed, 1), runs[1][1], runs[2][1]]
    for (given_batch, _), expected in zip(runs, inputs):
        assert np.array_equal(given_batch, expected)
    assert np.array_equal(batch, runs[-1][1])
    assert [r["stage"] for r in records] == ["penalty", "penalty", "polish", "finish"]


def test_stage_record():
    frozen_at = np.array([12, 0, 30])
    assert so.stage_record("penalty", 10.0, frozen_at, 50) == {
        "stage": "penalty", "parameter": 10.0, "iterations": 50, "converged": 2, "max_iters_reached": 1,
    }
    assert so.stage_record("polish", None, frozen_at[[0, 2]], 50)["iterations"] == 30

def test_solver_values_are_pinned(source_3x3):
    # seeded solver values on the acceptance source and the benchmark's 3 x 3
    # source; a change to the solver arithmetic must reproduce them to 1e-9
    opts = SolverOptions(restarts=16, seed=0)
    dsbs = dsbs_joint(0.1)
    assert wyner_ci(dsbs, card_u=2, opts=opts).value == pytest.approx(0.8727605620017416, abs=1e-9)
    assert ulsr_rate(dsbs, UlsrForm.MAX_AVG, opts).value == pytest.approx(0.30040773036584145, abs=1e-9)
    assert ulsr_rate(dsbs, UlsrForm.MAX_PAIR, opts).value == pytest.approx(0.3004077303657695, abs=1e-9)
    assert wyner_ci(source_3x3, opts=opts).value == pytest.approx(0.7750955788535299, abs=1e-9)
    assert ulsr_rate(source_3x3, UlsrForm.MAX_AVG, opts).value == pytest.approx(0.13127362275129384, abs=1e-9)


#: cell masses: exact zeros mixed with positive values
_MASS = st.one_of(st.just(0.0), st.floats(1e-3, 1.0))


@st.composite
def _source_and_channel(draw):
    """A source with possibly zero-mass cells and a channel with possibly zero entries."""
    nx, ny, nu = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 4))
    q = np.array(draw(st.lists(_MASS, min_size=nx * ny, max_size=nx * ny))).reshape(nx, ny)
    q[0, 0] += 1e-3
    rows = np.array(draw(st.lists(_MASS, min_size=nx * ny * nu, max_size=nx * ny * nu))).reshape(nx, ny, nu)
    rows[..., 0] += 1e-3
    seed = draw(st.integers(0, 2**32 - 1))
    return q / q.sum(), rows / rows.sum(axis=-1, keepdims=True), seed


class TestChannelStatsReference:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(_source_and_channel())
    def test_terms_match_measures(self, case):
        q, rows, _ = case
        stats = so.ChannelStats(so.Source(q, rows.shape[-1]), rows[None])
        full = compose(JointPmf(q), AuxChannel.from_array(rows))
        assert stats.i_joint[0] == pytest.approx(mutual_information(full, ("x", "y"), ("u",)), abs=1e-12)
        assert stats.i_cond[0] == pytest.approx(
            conditional_mutual_information(full, ("x",), ("y",), ("u",)), abs=1e-12
        )

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(_source_and_channel())
    def test_gradients_match_finite_differences(self, case):
        q, rows, seed = case
        nu = rows.shape[-1]
        # keep every entry >= 0.2 / nu so the step stays inside the simplex
        p = 0.8 * rows + 0.2 / nu
        d = np.random.default_rng(seed).standard_normal(p.shape)
        d -= d.mean(axis=-1, keepdims=True)
        d /= max(np.abs(d).max(), 1e-300)
        h = 1e-5
        stats = so.ChannelStats(so.Source(q, nu), np.stack([p, p + h * d, p - h * d]))
        # g is the gradient divided by q(x,y), in nats
        for g, i in ((stats.g_joint, stats.i_joint), (stats.g_cond, stats.i_cond)):
            assert np.all(g[:, q == 0] == 0.0)
            analytic = (q[:, :, None] * g[0] * d).sum() / so.LN2
            assert (i[1] - i[2]) / (2 * h) == pytest.approx(analytic, abs=1e-6)
