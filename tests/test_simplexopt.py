import numpy as np
import pytest

from coordrate import _simplexopt as so
from coordrate.pmf import dsbs_joint


def _max_avg(stats):
    return np.maximum(stats.i_cond, 0.5 * (stats.i_joint + stats.i_cond))


def _max_avg_subgradient(stats):
    a, b = stats.i_cond, 0.5 * (stats.i_joint + stats.i_cond)
    wa = np.where(a > b, 1.0, 0.0)[:, None, None, None]
    grads = wa * stats.grad_cond() + (1.0 - wa) * 0.5 * (stats.grad_joint() + stats.grad_cond())
    return np.maximum(a, b), grads


class TestEgMinimize:
    @pytest.mark.parametrize("track", [None, _max_avg], ids=["final", "tracked"])
    def test_stats_describe_returned_batch(self, track):
        # a short subgradient run ends on a rejected proposal, which must
        # not leak into the stats returned with the batch
        q = dsbs_joint(0.1).probs
        batch = so.random_channels(2, 2, 6, 8, seed=0)
        best, values, stats = so.eg_minimize(
            q, batch, _max_avg_subgradient, 5, 1e-12, 8.0, track=track
        )
        ref = so.ChannelStats(q, best)
        assert np.array_equal(stats.batch, best)
        assert np.array_equal(stats.i_joint, ref.i_joint)
        assert np.array_equal(stats.i_cond, ref.i_cond)
        assert np.array_equal(_max_avg(stats), values)
