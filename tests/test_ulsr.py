import numpy as np
import pytest

from conftest import aux_with_copy_sides
from coordrate.dsbs import f_of_t, interpolated_channel, t_star
from coordrate.measures import conditional_mutual_information, mutual_information, table_entropy
from coordrate.pmf import (
    AuxChannel,
    JointPmf,
    PmfError,
    compose,
    degenerate_channel,
    dsbs_joint,
)
from coordrate.region import RateTriple, in_achievable_region
from coordrate import ulsr
from coordrate._simplexopt import BRACKET_SLACK
from coordrate.ulsr import UlsrForm, _pad_rows, _structured_starts, ulsr_objective, ulsr_rate
from coordrate.wyner import SolverOptions, wyner_ci

FAST = SolverOptions(restarts=10, seed=0)

C_01 = 0.872760566800152
MI_01 = 0.531004406410719
F_NEAR_MIN_01 = 0.300527573378146   # curve value next to the crossing point


class TestObjective:
    def test_degenerate_on_independent(self):
        q = JointPmf(np.outer([0.3, 0.7], [0.6, 0.4]))
        res = ulsr_objective(q, degenerate_channel(2, 2), UlsrForm.MAX_AVG)
        assert res.value == pytest.approx(0.0, abs=1e-12)

    def test_curve_row_a01(self):
        res = ulsr_objective(dsbs_joint(0.1), interpolated_channel(0.1, 0.636), UlsrForm.MAX_AVG)
        assert res.value == pytest.approx(0.462173752918356, abs=1e-12)

    def test_curve_row_a02(self):
        res = ulsr_objective(dsbs_joint(0.2), interpolated_channel(0.2, 0.4427), UlsrForm.MAX_AVG)
        assert res.value == pytest.approx(0.177497550666439, abs=1e-12)

    def test_accepts_form_string(self):
        res = ulsr_objective(dsbs_joint(0.1), degenerate_channel(2, 2), "maxpair")
        assert res.form is UlsrForm.MAX_PAIR
        assert res.value == pytest.approx(MI_01, abs=1e-12)

    def test_rejects_multi_aux_channel(self):
        aux = aux_with_copy_sides(degenerate_channel(2, 2), 2, 2)
        with pytest.raises(PmfError):
            ulsr_objective(dsbs_joint(0.1), aux, UlsrForm.MAX_AVG)

    def test_pointwise_dominance(self):
        # the averaged form never exceeds the pairwise max on any channel
        rng = np.random.default_rng(3)
        q = dsbs_joint(0.23)
        for _ in range(100):
            rows = rng.random((2, 2, 3))
            rows /= rows.sum(-1, keepdims=True)
            ch = AuxChannel.from_array(rows)
            avg = ulsr_objective(q, ch, UlsrForm.MAX_AVG).value
            pair = ulsr_objective(q, ch, UlsrForm.MAX_PAIR).value
            assert avg <= pair + 1e-12


class TestRateSolver:
    def test_independent_source_is_free(self):
        q = JointPmf(np.outer([0.4, 0.6], [0.25, 0.75]))
        res = ulsr_rate(q, UlsrForm.MAX_AVG, FAST)
        assert res.value <= 1e-6

    def test_dsbs_01_reaches_curve_minimum(self):
        res = ulsr_rate(dsbs_joint(0.1), UlsrForm.MAX_AVG, FAST)
        assert 0.25 <= res.value <= F_NEAR_MIN_01 + 1e-3
        assert res.value < min(0.5 * C_01, MI_01) - 0.01

    def test_forms_agree_on_dsbs(self):
        ra = ulsr_rate(dsbs_joint(0.2), UlsrForm.MAX_AVG, FAST)
        rp = ulsr_rate(dsbs_joint(0.2), UlsrForm.MAX_PAIR, FAST)
        assert abs(ra.value - rp.value) <= 1e-3

    def test_forms_agree_on_random_sources(self):
        rng = np.random.default_rng(13)
        opts = SolverOptions(restarts=12, seed=4)
        for shape in ((2, 2), (2, 3)):
            m = rng.random(shape) ** 2
            q = JointPmf(m / m.sum())
            ra = ulsr_rate(q, UlsrForm.MAX_AVG, opts)
            rp = ulsr_rate(q, UlsrForm.MAX_PAIR, opts)
            assert abs(ra.value - rp.value) <= 1e-3

    def test_upper_bound_half_wyner_and_mi(self):
        opts = SolverOptions(restarts=12, seed=4)
        rng = np.random.default_rng(29)
        for _ in range(3):
            m = rng.random((2, 2)) ** 2
            q = JointPmf(m / m.sum())
            res = ulsr_rate(q, UlsrForm.MAX_AVG, opts)
            w = wyner_ci(q, opts=opts)
            full = compose(q, degenerate_channel(2, 2))
            ixy = mutual_information(full, ("x",), ("y",))
            assert res.value <= min(0.5 * w.value, ixy) + 1e-6

    @pytest.mark.parametrize("name", ["dsbs01", "3x3"])
    def test_bracket_in_diagnostics(self, name, request):
        q = dsbs_joint(0.1) if name == "dsbs01" else request.getfixturevalue("source_3x3")
        ixy = mutual_information(compose(q, degenerate_channel(*q.shape)), ("x",), ("y",))
        h_min = min(table_entropy(q.probs.sum(1)), table_entropy(q.probs.sum(0)))
        res = ulsr_rate(q, opts=FAST)
        assert res.diagnostics["bracket"] == pytest.approx([0.5 * ixy, min(ixy, 0.5 * h_min)], abs=1e-12)
        assert res.diagnostics["within_bracket"] is True

    def test_row_source_rate_is_exactly_zero(self, source_3x3):
        # a one-row source has bracket [0, 0]: its solved value, which rounds
        # a little above 0, is reported as exactly 0; values inside their
        # bracket keep their pins
        q = JointPmf(np.array([[0.5, 0.5]]))
        res = ulsr_rate(q, opts=FAST)
        assert res.value == 0.0 and res.diagnostics["bracket"] == [0.0, 0.0]
        assert res.diagnostics["within_bracket"] is True
        # the terms stay the channel's, whose objective is the value up to the slack
        exact = ulsr_objective(q, res.channel)
        assert (res.term_cond, res.term_joint) == (exact.term_cond, exact.term_joint)
        assert 0.0 <= exact.value <= BRACKET_SLACK
        for q, value in ((dsbs_joint(0.1), 0.3004077303658418), (source_3x3, 0.1312736255910273)):
            assert ulsr_rate(q, opts=FAST).value == pytest.approx(value, abs=1e-12)

    def test_stages_in_diagnostics(self):
        # 200 iterations stop some stages with restarts still live
        opts = SolverOptions(restarts=6, max_iters=200, seed=0)
        diagnostics = ulsr_rate(dsbs_joint(0.1), UlsrForm.MAX_AVG, opts).diagnostics
        stages = diagnostics["stages"]
        assert [(s["stage"], s["parameter"]) for s in stages] == [
            ("temperature", 10.0), ("temperature", 100.0), ("temperature", 1000.0), ("polish", None)
        ]
        assert {s["max_iters_reached"] > 0 for s in stages} == {True, False}
        for s in stages:
            assert s["max_iters_reached"] + s["converged"] == diagnostics["restarts"]
            assert 1 <= s["iterations"] <= opts.max_iters
            assert (s["iterations"] == opts.max_iters) >= (s["max_iters_reached"] > 0)

    @pytest.mark.parametrize("form", list(UlsrForm))
    @pytest.mark.parametrize("name", ["dsbs01", "3x3"])
    def test_no_worse_than_structured_starts(self, name, form, request):
        # the answer is the best row of the polish; it must not lose to a
        # structured start that the stages descended from
        q = dsbs_joint(0.1) if name == "dsbs01" else request.getfixturevalue("source_3x3")
        nx, ny = q.shape
        value = ulsr_rate(q, form).value
        for rows in _structured_starts(q, nx * ny + 2):
            assert value <= ulsr_objective(q, AuxChannel.from_array(rows), form).value
        # nor to a Wyner-minimizing channel, which is not among the starts
        wyner_rows = _pad_rows(wyner_ci(q).channel.probs[:, :, :, 0, 0], nx * ny + 2)
        assert value <= ulsr_objective(q, AuxChannel.from_array(wyner_rows), form).value

    def test_batch_guard(self):
        with pytest.raises(PmfError, match="ulsr_rate: 1000000000 restarts .* cap is 1073741824"):
            ulsr_rate(dsbs_joint(0.1), opts=SolverOptions(restarts=10**9))

    def test_batch_guard_runs_before_structured_starts(self, monkeypatch):
        # the guard counts six structured starts plus one random row before
        # building any: two 30 x 30 x 902 starts alone would take 13 MB
        def refuse(*args):
            raise AssertionError("structured starts built before the batch guard")

        monkeypatch.setattr(ulsr, "_structured_starts", refuse)
        q = JointPmf(np.full((30, 30), 1 / 900))
        message = "ulsr_rate: 7 restarts of 30x30x902 channels need 1454745600 bytes, cap is 1073741824"
        with pytest.raises(PmfError, match=f"^{message}$"):
            ulsr_rate(q, opts=SolverOptions(restarts=1))

    @pytest.mark.parametrize("form", list(UlsrForm))
    @pytest.mark.parametrize("name", ["dsbs03", "3x3"])
    def test_terms_match_returned_channel(self, name, form, request):
        q = dsbs_joint(0.3) if name == "dsbs03" else request.getfixturevalue("source_3x3")
        res = ulsr_rate(q, form, FAST)
        full = compose(q, res.channel)
        assert res.term_joint == pytest.approx(mutual_information(full, ("x", "y"), ("u",)), abs=1e-12)
        assert res.term_cond == pytest.approx(
            conditional_mutual_information(full, ("x",), ("y",), ("u",)), abs=1e-12
        )

    def test_value_consistent_with_terms(self):
        res = ulsr_rate(dsbs_joint(0.3), UlsrForm.MAX_AVG, FAST)
        assert res.value == pytest.approx(
            max(res.term_cond, 0.5 * (res.term_cond + res.term_joint)), abs=1e-9
        )

    def test_deterministic(self):
        opts = SolverOptions(restarts=8, seed=77)
        r1 = ulsr_rate(dsbs_joint(0.2), UlsrForm.MAX_AVG, opts)
        r2 = ulsr_rate(dsbs_joint(0.2), UlsrForm.MAX_AVG, opts)
        assert r1.value == r2.value
        assert np.array_equal(r1.channel.probs, r2.channel.probs)

    def test_terms_cross_near_optimum_on_dsbs(self):
        res = ulsr_rate(dsbs_joint(0.1), UlsrForm.MAX_AVG, FAST)
        assert abs(res.term_cond - res.term_joint) <= 5e-3

    def test_achievability_via_region(self):
        # the solver's channel extended with identity side information
        # certifies (value + eps, L, L) inside the inner bound
        q = dsbs_joint(0.2)
        res = ulsr_rate(q, UlsrForm.MAX_AVG, FAST)
        aux = aux_with_copy_sides(res.channel, 2, 2)
        L = table_entropy(q.probs) + 1.0
        assert in_achievable_region(q, aux, RateTriple(res.value + 1e-9, L, L))

    def test_strict_improvement_both_sources(self):
        for a in (0.1, 0.2):
            q = dsbs_joint(a)
            res = ulsr_rate(q, UlsrForm.MAX_AVG, FAST)
            w = wyner_ci(q, card_u=2, opts=FAST)
            ixy = mutual_information(compose(q, degenerate_channel(2, 2)), ("x",), ("y",))
            assert res.value < min(0.5 * w.value, ixy) - 0.01
            # and it lands at the interpolated family's own minimum
            assert res.value <= f_of_t(a, t_star(a)).f + 1e-3
