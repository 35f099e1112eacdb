import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

from coordrate.dsbs import common_information, dsbs_wyner_channel
from coordrate.measures import conditional_mutual_information, mutual_information, table_entropy
from coordrate._simplexopt import BATCH_BYTES_CAP, bracket, check_batch_bytes
from coordrate.pmf import JointPmf, PmfError, compose, degenerate_channel, dsbs_joint
from coordrate.ulsr import ulsr_rate
from coordrate.wyner import PENALTIES, SolverInfeasibleError, SolverOptions, no_sr_rate, wyner_ci

C_01 = 0.872760566800152
C_02 = 0.705904900983266

FAST = SolverOptions(restarts=10, seed=0)


def make_random_joint(rng, shape):
    m = rng.random(shape) ** 2
    return JointPmf(m / m.sum())


class TestSolverOptions:
    def test_defaults(self):
        opts = SolverOptions()
        assert opts.restarts == 50
        assert opts.max_iters == 5000
        assert opts.tol_objective == 1e-9
        assert [f.name for f in fields(opts)] == ["restarts", "max_iters", "tol_objective", "seed"]

    def test_positive_restarts(self):
        with pytest.raises(PmfError):
            SolverOptions(restarts=0)

    @pytest.mark.parametrize(
        "field, value",
        [("seed", -5), ("seed", True), ("seed", 1.0), ("restarts", 2.5), ("restarts", True), ("max_iters", 2.5)],
    )
    def test_integer_fields_are_checked(self, field, value):
        with pytest.raises(PmfError, match=f"SolverOptions: {field} must be an integer"):
            SolverOptions(**{field: value})

    def test_seed_of_any_size_is_accepted(self):
        assert SolverOptions(seed=2**100).seed == 2**100
        seed = SolverOptions(seed=np.int64(3)).seed
        assert seed == 3 and type(seed) is int

    def test_non_integer_card_u_is_refused(self):
        with pytest.raises(PmfError, match="wyner_ci: card_u must be an integer"):
            wyner_ci(dsbs_joint(0.2), card_u=2.5)

    @pytest.mark.parametrize("tol", [float("inf"), float("nan"), 0.0, -1e-9, "1e-9", True, 10**400])
    def test_tolerance_must_be_finite_and_positive(self, tol):
        with pytest.raises(PmfError, match="tol_objective must be finite and > 0"):
            SolverOptions(tol_objective=tol)

    @pytest.mark.parametrize("opts", [{"restarts": 2}, (2,), "fast", 0, {}], ids=["dict", "tuple", "str", "zero", "empty"])
    @pytest.mark.parametrize("solver", [wyner_ci, ulsr_rate, no_sr_rate])
    def test_options_of_another_kind_are_refused(self, solver, opts):
        # a falsy value is refused too, not read as the defaults
        with pytest.raises(PmfError, match="opts must be a SolverOptions or None, got"):
            solver(dsbs_joint(0.2), opts=opts)


class TestBatchGuard:
    def test_boundary(self):
        # 256 bytes per cell: 2^19 restarts of 2 x 2 x 2 channels fill the cap exactly
        check_batch_bytes("wyner_ci", 2**19, 2, 2, 2)
        with pytest.raises(PmfError, match="need 1073743872 bytes, cap is 1073741824"):
            check_batch_bytes("wyner_ci", 2**19 + 1, 2, 2, 2)

    @pytest.mark.parametrize("card_u, restarts", [(2_000_000_000, 50), (2, 10**9)], ids=["card", "restarts"])
    def test_refused_before_allocation(self, card_u, restarts):
        with pytest.raises(PmfError, match="cap is 1073741824"):
            wyner_ci(dsbs_joint(0.2), card_u=card_u, opts=SolverOptions(restarts=restarts))

    def test_defaults_far_below_cap(self):
        # the largest default batch of the shipped solvers on a 3 x 3 source: ulsr, |U| = 11
        restarts = SolverOptions().restarts
        assert 256 * restarts * 9 * 11 * 500 < BATCH_BYTES_CAP

    def test_cap_bounds_measured_peak(self, source_3x3):
        # the guard counts 32 float64 arrays of the batch; both solvers hold fewer
        opts = SolverOptions(restarts=200, max_iters=30, seed=0)
        for run, card_u in ((lambda: wyner_ci(source_3x3, opts=opts), 9), (lambda: ulsr_rate(source_3x3, opts=opts), 11)):
            tracemalloc.start()
            try:
                run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 256 * opts.restarts * 9 * card_u


class TestClosedFormChannel:
    def test_row_values(self):
        ch = dsbs_wyner_channel(0.1)
        b = 0.5 * (1 - np.sqrt(0.8))
        assert b == pytest.approx(0.052786404500042, abs=1e-15)
        r = b * b / 0.9
        assert r == pytest.approx(0.003096005000047, abs=1e-14)
        assert ch.probs[0, 0, 1, 0, 0] == pytest.approx(r)
        assert ch.probs[1, 1, 0, 0, 0] == pytest.approx(r)
        assert np.allclose(ch.probs[0, 1, :, 0, 0], [0.5, 0.5])
        for x in range(2):
            for y in range(2):
                assert ch.probs[x, y].sum() == pytest.approx(1.0, abs=1e-15)

    def test_achieves_markov_chain(self):
        full = compose(dsbs_joint(0.1), dsbs_wyner_channel(0.1))
        assert conditional_mutual_information(full, ("x",), ("y",), ("u",)) <= 1e-9

    def test_achieves_common_information(self):
        full = compose(dsbs_joint(0.1), dsbs_wyner_channel(0.1))
        assert mutual_information(full, ("x", "y"), ("u",)) == pytest.approx(C_01, abs=1e-9)

    def test_rejects_boundary(self):
        with pytest.raises(PmfError):
            dsbs_wyner_channel(0.0)
        with pytest.raises(PmfError):
            dsbs_wyner_channel(0.5)


class TestWynerSolver:
    def test_independent_source_card_one(self):
        q = JointPmf(np.outer([0.4, 0.6], [0.3, 0.7]))
        res = wyner_ci(q, card_u=1, opts=FAST)
        assert res.value == pytest.approx(0.0, abs=1e-9)
        assert res.channel.card_u == 1

    def test_dsbs_01(self):
        res = wyner_ci(dsbs_joint(0.1), card_u=2, opts=FAST)
        assert res.value == pytest.approx(C_01, abs=1e-3)
        assert res.markov_defect <= 1e-6

    def test_dsbs_02(self):
        res = wyner_ci(dsbs_joint(0.2), card_u=2, opts=FAST)
        assert res.value == pytest.approx(C_02, abs=1e-3)
        assert res.markov_defect <= 1e-6

    def test_value_matches_returned_channel(self):
        res = wyner_ci(dsbs_joint(0.15), card_u=2, opts=FAST)
        full = compose(dsbs_joint(0.15), res.channel)
        assert res.value == pytest.approx(mutual_information(full, ("x", "y"), ("u",)), abs=1e-12)
        assert res.markov_defect == pytest.approx(
            conditional_mutual_information(full, ("x",), ("y",), ("u",)), abs=1e-12
        )

    def test_deterministic(self):
        opts = SolverOptions(restarts=6, seed=123)
        r1 = wyner_ci(dsbs_joint(0.2), card_u=2, opts=opts)
        r2 = wyner_ci(dsbs_joint(0.2), card_u=2, opts=opts)
        assert r1.value == r2.value
        assert np.array_equal(r1.channel.probs, r2.channel.probs)

    def test_monotone_in_cardinality(self):
        opts = SolverOptions(restarts=10, seed=5)
        values = [wyner_ci(dsbs_joint(0.2), card_u=k, opts=opts).value for k in (2, 3, 4)]
        assert values[1] <= values[0] + 1e-6
        assert values[2] <= values[1] + 1e-6

    def test_sandwich_on_random_sources(self):
        rng = np.random.default_rng(17)
        opts = SolverOptions(restarts=12, seed=2)
        for trial in range(6):
            shape = [(2, 2), (2, 3), (3, 3)][trial % 3]
            q = make_random_joint(rng, shape)
            res = wyner_ci(q, opts=opts)
            full = compose(q, degenerate_channel(*shape))
            ixy = mutual_information(full, ("x",), ("y",))
            hx = table_entropy(q.probs.sum(1))
            hy = table_entropy(q.probs.sum(0))
            assert res.value >= ixy - 1e-6
            assert res.value <= min(hx, hy) + 1e-6
            assert res.markov_defect <= 1e-6

    @pytest.mark.parametrize("name", ["dsbs01", "3x3"])
    def test_bracket_in_diagnostics(self, name, request):
        q = dsbs_joint(0.1) if name == "dsbs01" else request.getfixturevalue("source_3x3")
        ixy = mutual_information(compose(q, degenerate_channel(*q.shape)), ("x",), ("y",))
        h_min = min(table_entropy(q.probs.sum(1)), table_entropy(q.probs.sum(0)))
        res = wyner_ci(q, opts=FAST)
        assert res.diagnostics["bracket"] == pytest.approx([ixy, h_min], abs=1e-12)
        assert res.diagnostics["within_bracket"] is True

    def test_bracket_slack(self):
        assert bracket(0.5 + 0.5e-9, 0.0, 0.5)["within_bracket"] is True
        assert bracket(0.5 + 2e-9, 0.0, 0.5)["within_bracket"] is False
        assert bracket(-2e-9, 0.0, 0.5)["within_bracket"] is False

    def test_stages_in_diagnostics(self):
        opts = SolverOptions(restarts=6, seed=0)
        stages = wyner_ci(dsbs_joint(0.2), card_u=2, opts=opts).diagnostics["stages"]
        assert [(s["stage"], s["parameter"]) for s in stages] == [("penalty", lam) for lam in PENALTIES]
        for s in stages:
            assert s["converged"] + s["max_iters_reached"] == opts.restarts
            assert 1 <= s["iterations"] <= opts.max_iters
            assert (s["iterations"] == opts.max_iters) >= (s["max_iters_reached"] > 0)

    def test_infeasibility_is_reported(self):
        # with |U| = 1 the residual I(X;Y|U) is I(X;Y), about 0.278 bits
        with pytest.raises(SolverInfeasibleError, match=r"\|U\| = 1; best residual 2\.781e-01 bits"):
            wyner_ci(dsbs_joint(0.2), card_u=1, opts=SolverOptions(restarts=2, seed=0))

    @pytest.mark.parametrize("a", [0.05, 0.1, 0.2, 0.3, 0.4])
    def test_dsbs_value_not_below_common_information(self, a):
        # the residual left by the last penalty stage must not buy a value
        # below the closed form; the upper edge is the acceptance tolerance
        c = common_information(a)
        assert c - 1e-6 <= wyner_ci(dsbs_joint(a)).value <= c + 1e-3


class TestNoSrRate:
    def test_uses_augmented_cardinality(self):
        res = no_sr_rate(dsbs_joint(0.1), opts=FAST)
        assert res.channel.card_u == 6
        assert res.value == pytest.approx(C_01, abs=1e-3)

    def test_independent_source(self):
        q = JointPmf(np.outer([0.5, 0.5], [0.1, 0.9]))
        res = no_sr_rate(q, opts=FAST)
        assert res.value <= 1e-6

    def test_equal_outputs_force_full_entropy(self):
        q = JointPmf(np.diag([0.5, 0.5]))
        res = no_sr_rate(q, opts=FAST)
        assert res.value == pytest.approx(1.0, abs=1e-3)
