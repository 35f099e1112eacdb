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
from coordrate import _simplexopt as so
from coordrate._simplexopt import BRACKET_SLACK, LN2
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
            ch = AuxChannel(rows)
            avg = ulsr_objective(q, ch, UlsrForm.MAX_AVG).value
            pair = ulsr_objective(q, ch, UlsrForm.MAX_PAIR).value
            assert avg <= pair + 1e-12


def _clipped_softmax(a, b, temp):
    """The annealed softmax of max(a, b) and the weight of a, written with clipped natural exponents."""
    z = np.clip(LN2 * temp * (b - a), -60.0, 60.0)
    top = np.maximum(a, b)
    value = top + np.log2(np.exp(np.clip(LN2 * temp * (np.minimum(a, b) - top), -60.0, 0.0)) + 1.0) / temp
    return value, 1.0 / (1.0 + np.exp(z))


class TestSoftmax:
    @pytest.mark.parametrize("temp", ulsr.TEMPERATURES)
    def test_matches_clipped_formula(self, temp):
        # |b - a| * temp * ln 2 runs from 0 past the old clip at 60, both ways
        gaps = np.array([0.0, 1e-9, 1e-3, 0.1, 1.0, 10.0, 50.0, 86.0, 87.0, 150.0, 1000.0]) / temp
        a = np.repeat([0.0, 0.1, 0.3, 0.7, 1.0], gaps.size)
        b = a + np.tile(gaps, 5)
        # rows (I(X;Y|U), I(X,Y;U)) = (x, y): the weight on I(X;Y|U) is x's
        soft_max = so.max_objective(((0.0, 1.0), (1.0, 0.0)), temp)
        for x, y in ((a, b), (b, a)):
            value, (_, weight) = soft_max(np.stack([y, x]))
            old_value, old_weight = _clipped_softmax(x, y, temp)
            assert np.abs(weight - old_weight).max() <= 1e-12
            assert np.abs(value - old_value).max() <= 1e-15


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
        # both forms run one descent, polish and finish alike, and rank its
        # last batch; the winner sits on the kink, where the forms are equal
        ra = ulsr_rate(dsbs_joint(0.2), UlsrForm.MAX_AVG, FAST)
        rp = ulsr_rate(dsbs_joint(0.2), UlsrForm.MAX_PAIR, FAST)
        assert abs(rp.value - ra.value) <= 1e-12

    def test_forms_agree_on_random_sources(self):
        rng = np.random.default_rng(13)
        opts = SolverOptions(restarts=12, seed=4)
        for shape in ((2, 2), (2, 3)):
            m = rng.random(shape) ** 2
            q = JointPmf(m / m.sum())
            ra = ulsr_rate(q, UlsrForm.MAX_AVG, opts)
            rp = ulsr_rate(q, UlsrForm.MAX_PAIR, opts)
            assert abs(rp.value - ra.value) <= 1e-12

    def test_forms_agree_where_max_avg_stalled(self):
        # on this skewed source MAX_AVG's polish stalls off the kink at
        # 0.0019067161, where I(X;Y|U) - I(X,Y;U) = +1.9e-3; the MAX_PAIR
        # finish leaves the stall, and both forms answer from it
        m = np.random.default_rng(118).random((2, 2)) ** 3
        q = JointPmf(m / m.sum())
        opts = SolverOptions(restarts=12, seed=2)
        ra = ulsr_rate(q, UlsrForm.MAX_AVG, opts)
        rp = ulsr_rate(q, UlsrForm.MAX_PAIR, opts)
        assert max(ra.value, rp.value) <= 0.0018163819
        assert abs(rp.value - ra.value) <= 1e-12

    @pytest.mark.parametrize("form", list(UlsrForm))
    @pytest.mark.parametrize("px", [(0.5, 0.5), (0.2, 0.3, 0.5)])
    def test_copy_source_rate_is_half_entropy(self, px, form):
        # on X = Y, U = X minimizes MAX_AVG = max(H(X|U), H(X)/2) with MAX_PAIR
        # at H(X) there, so MAX_PAIR's answer must not be read off MAX_AVG's winner
        q = JointPmf(np.diag(px))
        res = ulsr_rate(q, form, FAST)
        assert res.value == pytest.approx(0.5 * table_entropy(np.array(px)), abs=1e-9)

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
            ("temperature", 10.0), ("temperature", 100.0), ("temperature", 1000.0), ("polish", None),
            ("finish", None),
        ]
        assert {s["max_iters_reached"] > 0 for s in stages} == {True, False}
        for s in stages:
            assert s["max_iters_reached"] + s["converged"] == diagnostics["restarts"]
            assert 1 <= s["iterations"] <= opts.max_iters
            assert (s["iterations"] == opts.max_iters) >= (s["max_iters_reached"] > 0)

    def test_finish_and_kink_gap_in_diagnostics(self):
        # both forms run the same stages, polish and finish, and report the
        # winner's I(X;Y|U) - I(X,Y;U)
        opts = SolverOptions(restarts=6, max_iters=200, seed=0)
        avg, pair = (
            ulsr_rate(dsbs_joint(0.1), form, opts).diagnostics for form in (UlsrForm.MAX_AVG, UlsrForm.MAX_PAIR)
        )
        assert pair["stages"] == avg["stages"]
        finish = pair["stages"][-1]
        assert (finish["stage"], finish["parameter"]) == ("finish", None)
        assert finish["converged"] + finish["max_iters_reached"] == pair["restarts"]
        for form in UlsrForm:
            res = ulsr_rate(dsbs_joint(0.3), form, FAST)
            assert res.diagnostics["kink_gap"] == res.term_cond - res.term_joint
            assert abs(res.diagnostics["kink_gap"]) <= 1e-9

    @pytest.mark.parametrize("form", list(UlsrForm))
    @pytest.mark.parametrize("name", ["dsbs01", "3x3"])
    def test_no_worse_than_structured_starts(self, name, form, request):
        # the answer is the best row of the last exact run; it must not lose
        # to a structured start that the stages descended from
        q = dsbs_joint(0.1) if name == "dsbs01" else request.getfixturevalue("source_3x3")
        nx, ny = q.shape
        value = ulsr_rate(q, form).value
        for rows in _structured_starts(q, nx * ny + 2):
            assert value <= ulsr_objective(q, AuxChannel(rows), form).value
        # nor to a Wyner-minimizing channel, which is not among the starts
        wyner_rows = _pad_rows(wyner_ci(q).channel.probs[:, :, :, 0, 0], nx * ny + 2)
        assert value <= ulsr_objective(q, AuxChannel(wyner_rows), form).value

    @pytest.mark.parametrize("a", [1e-12, 5e-10, 0.5 - 5e-10])
    def test_edge_crossovers_end_in_a_value(self, a):
        # crossovers of the channel family outside the closed-form curve's
        # range: the family's starts are built, and the answer is in its bracket
        res = ulsr_rate(dsbs_joint(a))
        assert res.diagnostics["structured_starts"] == 6
        assert res.diagnostics["within_bracket"] is True

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
        crossovers = (0.05, 0.1, 0.2, 0.3, 0.4)
        values = {(form, a): ulsr_rate(dsbs_joint(a), form, FAST).value for form in UlsrForm for a in crossovers}
        for a in (0.1, 0.2):
            q = dsbs_joint(a)
            w = wyner_ci(q, card_u=2, opts=FAST)
            ixy = mutual_information(compose(q, degenerate_channel(2, 2)), ("x",), ("y",))
            assert values[UlsrForm.MAX_AVG, a] < min(0.5 * w.value, ixy) - 0.01
        # and both forms land at the interpolated family's own minimum, a sharp
        # oracle: the largest gap, both forms' at a = 0.4, is 3.0e-8
        for (form, a), value in values.items():
            assert value <= f_of_t(a, t_star(a)).f + 1e-6, (form, a, value)
