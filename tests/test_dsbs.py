import numpy as np
import pytest

from coordrate.dsbs import (
    CURVE_POINTS_CAP,
    CurvePoint,
    common_information,
    crossover_b,
    curve_csv_lines,
    dsbs_wyner_channel,
    emit_curve,
    f_of_t,
    interpolated_channel,
    t_star,
    write_curve_csv,
)
from coordrate.measures import binary_entropy, conditional_mutual_information, mutual_information, table_entropy
from coordrate.pmf import PmfError, compose, dsbs_joint

C_01 = 0.872760566800152
C_02 = 0.705904900983266
MI_01 = 0.531004406410719
MI_02 = 0.278071905112638
F0_01 = 0.436380283400076
F0_02 = 0.352952450491633


class TestParams:
    """b = crossover_b(a) and the curve's alpha = (1-t) b^2 + t (1-a)/2, read through the closed forms."""

    def test_derived_fields(self):
        b = crossover_b(0.1)
        assert b == pytest.approx(0.052786404500042, abs=1e-15)
        # at t = 0 the first h4 cell, alpha, is b^2
        h4 = table_entropy([b * b, 0.05, 0.05, 0.9 - b * b])
        assert f_of_t(0.1, 0.0).i_joint == pytest.approx(1.0 + binary_entropy(0.1) - h4, abs=1e-15)

    def test_alpha_interpolates(self):
        # at t = 1, alpha = (1-a)/2 = 0.45
        h4 = table_entropy([0.45, 0.05, 0.05, 0.45])
        assert f_of_t(0.1, 1.0).i_joint == pytest.approx(1.0 + binary_entropy(0.1) - h4, abs=1e-15)

    def test_alpha_range(self):
        # alpha is twice the mass q(0,0) p^t(1|0,0) of the channel the curve describes
        a, b = 0.3, crossover_b(0.3)
        for t in np.linspace(0, 1, 11):
            alpha = (1.0 - t) * b * b + 0.5 * t * (1.0 - a)
            assert alpha == pytest.approx(2 * 0.35 * interpolated_channel(a, float(t)).probs[0, 0, 1, 0, 0], abs=1e-15)
            assert 0.0 <= alpha <= (1 - a) / 2 + 1e-15

    def test_rejects_bad_t(self):
        with pytest.raises(PmfError):
            f_of_t(0.1, 1.5)
        with pytest.raises(PmfError):
            interpolated_channel(0.1, 1.5)


class TestInterpolatedChannel:
    def test_flat_endpoint(self):
        ch = interpolated_channel(0.2, 1.0)
        for x in range(2):
            for y in range(2):
                assert np.allclose(ch.probs[x, y, :, 0, 0], [0.5, 0.5])

    def test_wyner_endpoint(self):
        ch = interpolated_channel(0.2, 0.0)
        ref = dsbs_wyner_channel(0.2)
        for x in range(2):
            for y in range(2):
                assert np.allclose(ch.probs[x, y], ref.probs[x, y])

    def test_midpoint_row(self):
        # (x=1, y=1) row: average of b^2/(1-a) and one half
        ch = interpolated_channel(0.1, 0.5)
        b = crossover_b(0.1)
        expect = 0.5 * (b * b / 0.9) + 0.25
        assert ch.probs[1, 1, 0, 0, 0] == pytest.approx(expect, abs=1e-15)
        assert expect == pytest.approx(0.251548002500023, abs=1e-12)

    def test_rejects_out_of_range(self):
        with pytest.raises(PmfError):
            interpolated_channel(0.1, -0.1)
        with pytest.raises(PmfError):
            interpolated_channel(0.0, 0.5)


class TestClosedForms:
    def test_i_joint_endpoints(self):
        assert f_of_t(0.1, 0.0).i_joint == pytest.approx(C_01, abs=1e-12)
        assert f_of_t(0.1, 1.0).i_joint == pytest.approx(0.0, abs=1e-12)
        assert f_of_t(0.2, 0.0).i_joint == pytest.approx(C_02, abs=1e-12)

    def test_i_cond_endpoints(self):
        assert f_of_t(0.1, 0.0).i_cond == pytest.approx(0.0, abs=1e-12)
        assert f_of_t(0.1, 1.0).i_cond == pytest.approx(MI_01, abs=1e-12)
        assert f_of_t(0.2, 1.0).i_cond == pytest.approx(MI_02, abs=1e-12)

    @pytest.mark.parametrize("a", [0.05, 0.1, 0.2, 0.3, 0.4])
    def test_common_information(self, a):
        # 1 + h(a) - 2 h(b) is I(X,Y;U) of the Wyner channel, which makes X - U - Y
        full = compose(dsbs_joint(a), dsbs_wyner_channel(a))
        assert common_information(a) == pytest.approx(mutual_information(full, ("x", "y"), ("u",)), abs=1e-12)
        assert conditional_mutual_information(full, ("x",), ("y",), ("u",)) == pytest.approx(0.0, abs=1e-12)
        assert common_information(a) == pytest.approx(f_of_t(a, 0.0).i_joint, abs=1e-12)

    def test_common_information_values(self):
        assert common_information(0.1) == pytest.approx(C_01, abs=1e-12)
        assert common_information(0.2) == pytest.approx(C_02, abs=1e-12)
        with pytest.raises(PmfError):
            common_information(0.5)

    def test_f_values(self):
        assert f_of_t(0.1, 0.0).f == pytest.approx(F0_01, abs=1e-12)
        assert f_of_t(0.1, 0.2142).f == pytest.approx(0.323121673675278, abs=1e-12)
        assert f_of_t(0.2, 1.0).f == pytest.approx(MI_02, abs=1e-12)

    def test_curve_point_invariant(self):
        p = f_of_t(0.3, 0.4)
        assert p.f == pytest.approx(max(p.i_cond, 0.5 * (p.i_joint + p.i_cond)), abs=1e-12)

    @pytest.mark.parametrize("a", [0.05, 0.1, 0.2, 0.3, 0.45])
    def test_matches_generic_kernel(self, a):
        q = dsbs_joint(a)
        for t in np.linspace(0.0, 1.0, 7):
            full = compose(q, interpolated_channel(a, float(t)))
            ij = mutual_information(full, ("x", "y"), ("u",))
            ic = conditional_mutual_information(full, ("x",), ("y",), ("u",))
            point = f_of_t(a, float(t))
            assert point.i_joint == pytest.approx(ij, abs=1e-10)
            assert point.i_cond == pytest.approx(ic, abs=1e-10)


class TestTStar:
    def test_published_values(self):
        assert t_star(0.1) == pytest.approx(0.343436, abs=1e-4)
        assert t_star(0.2) == pytest.approx(0.442523, abs=1e-4)

    @pytest.mark.parametrize("a", [0.05, 0.1, 0.2, 0.3, 0.45])
    def test_terms_cross_at_t_star(self, a):
        ts = t_star(a)
        point = f_of_t(a, ts)
        assert abs(point.i_joint - point.i_cond) <= 1e-9

    def test_strictly_below_endpoints(self):
        # the interior minimum genuinely improves on both corner strategies
        for a in (0.05, 0.1, 0.2, 0.3, 0.45):
            fs = f_of_t(a, t_star(a)).f
            assert fs < min(f_of_t(a, 0.0).f, f_of_t(a, 1.0).f)
        assert f_of_t(0.1, t_star(0.1)).f <= min(F0_01, MI_01) - 0.1

    def test_rejects_boundary(self):
        with pytest.raises(PmfError):
            t_star(0.0)
        with pytest.raises(PmfError):
            t_star(0.5)


class TestEmitCurve:
    def test_endpoints_present(self):
        pts = emit_curve(0.1, 11)
        assert pts[0].t == 0.0 and pts[-1].t == 1.0
        assert pts[0].f == pytest.approx(F0_01, abs=1e-12)
        assert pts[-1].f == pytest.approx(MI_01, abs=1e-12)

    def test_second_source_endpoints(self):
        pts = emit_curve(0.2, 5)
        assert pts[0].f == pytest.approx(F0_02, abs=1e-12)
        assert pts[-1].f == pytest.approx(MI_02, abs=1e-12)

    def test_grid_dominates_minimum(self):
        for a in (0.1, 0.27):
            fs = f_of_t(a, t_star(a)).f
            assert all(p.f >= fs - 1e-9 for p in emit_curve(a, 41))

    def test_rejects_single_point(self):
        with pytest.raises(PmfError):
            emit_curve(0.1, 1)

    @pytest.mark.parametrize("points", [2.5, 5.0, "5", True, None])
    def test_points_must_be_an_integer(self, points):
        with pytest.raises(PmfError, match=f"need 2 to {CURVE_POINTS_CAP} points, got {points!r}"):
            emit_curve(0.1, points)

    def test_points_cap(self):
        pts = emit_curve(0.1, CURVE_POINTS_CAP)
        assert len(pts) == CURVE_POINTS_CAP
        assert pts[-1] == f_of_t(0.1, 1.0)
        for points in (CURVE_POINTS_CAP + 1, 10**12):
            with pytest.raises(PmfError, match=f"need 2 to {CURVE_POINTS_CAP} points, got {points}"):
                emit_curve(0.1, points)

    def test_csv_format(self, tmp_path):
        path = tmp_path / "curve.csv"
        write_curve_csv(emit_curve(0.1, 3), path)
        raw = path.read_bytes().decode("utf-8")
        lines = raw.split("\n")
        assert lines[0] == "t,f,i_joint,i_cond"
        assert len(lines) == 5 and lines[-1] == ""
        assert "\r" not in raw
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert abs(float(first[1]) - F0_01) < 1e-12


def oracle_point(a, t):
    """One curve point by the per-point formulas, written out."""
    b = crossover_b(a)
    alpha = (1.0 - t) * b * b + 0.5 * t * (1.0 - a)
    h4 = table_entropy([alpha, 0.5 * a, 0.5 * a, 1.0 - a - alpha])
    i_joint = 1.0 + binary_entropy(a) - h4
    i_cond = 2.0 * binary_entropy(alpha + 0.5 * a) - h4
    return CurvePoint(t=t, f=max(i_cond, 0.5 * (i_joint + i_cond)), i_joint=i_joint, i_cond=i_cond)


SPREAD = np.random.default_rng(2018).uniform(1e-9, 0.5 - 1e-9, 6).tolist()


class TestCurveKernel:
    @pytest.mark.parametrize("a", [1e-9, 0.5 - 1e-9, 0.499999999, 0.1, 0.2, *SPREAD])
    def test_curve_equals_per_point_oracle(self, a):
        for n in (2, 3, 201, 1001):
            pts = emit_curve(a, n)
            expect = [oracle_point(a, t) for t in np.linspace(0.0, 1.0, n)]
            assert pts == expect
            assert "".join(curve_csv_lines(pts)) == "".join(curve_csv_lines(expect))
            if n == 201:
                assert [f_of_t(a, p.t) for p in pts] == pts

    @pytest.mark.parametrize("t", [-1e-12, 1.0 + 1e-12, float("nan"), float("inf")])
    def test_f_of_t_rejects_t_outside_unit_interval(self, t):
        with pytest.raises(PmfError, match=r"t must lie in \[0, 1\]"):
            f_of_t(0.1, t)

    def test_f_of_t_rejects_crossover(self):
        with pytest.raises(PmfError, match="crossover must lie in"):
            f_of_t(0.5, 0.5)


NON_REALS = [True, False, "0.1", None, np.array([0.1, 0.1])]


class TestRefusesNonReals:
    """A bool, a string, None or an array is not a crossover or a t: each is a PmfError, never a value or a TypeError."""

    @pytest.mark.parametrize("value", NON_REALS)
    @pytest.mark.parametrize("fn", [dsbs_joint, dsbs_wyner_channel, common_information, t_star, lambda a: f_of_t(a, 0.5)])
    def test_crossover(self, fn, value):
        with pytest.raises(PmfError, match="crossover must lie"):
            fn(value)

    @pytest.mark.parametrize("value", NON_REALS)
    @pytest.mark.parametrize("fn", [f_of_t, interpolated_channel])
    def test_t(self, fn, value):
        with pytest.raises(PmfError, match=r"t must lie in \[0, 1\]"):
            fn(0.1, value)

    def test_numpy_reals_are_reals(self):
        assert f_of_t(np.float64(0.1), np.float64(0.5)) == f_of_t(0.1, 0.5)
        assert t_star(np.float64(0.1)) == t_star(0.1)

    @pytest.mark.parametrize(
        "fn",
        [crossover_b, common_information, t_star, lambda a: f_of_t(a, 0.5).i_joint, lambda a: dsbs_joint(a).probs[0, 0].item()],
        ids=["crossover_b", "common_information", "t_star", "f_of_t", "dsbs_joint"],
    )
    def test_float32_is_computed_in_float64(self, fn):
        # a float32 argument is the float64 number it holds, not a float32 computation
        value = fn(np.float32(0.1))
        assert type(value) is float and value == fn(float(np.float32(0.1)))


class TestCrossoverB:
    """``crossover_b`` checks the source's crossover range [0, 1/2] itself."""

    def test_endpoints(self):
        assert crossover_b(0.0) == 0.0 and crossover_b(0.5) == 0.5

    @pytest.mark.parametrize("a", [*NON_REALS, -1e-12, 0.5 + 1e-12, 0.7, float("nan"), float("inf")])
    def test_refused(self, a):
        with pytest.raises(PmfError, match=r"crossover_b: crossover must lie in \[0, 0.5\]"):
            crossover_b(a)


class TestGoldenCurves:
    def test_a01_full_table(self, curve_a01):
        for t, f_ref in curve_a01:
            assert f_of_t(0.1, t).f == pytest.approx(f_ref, abs=1e-6)

    def test_a02_full_table(self, curve_a02):
        for t, f_ref in curve_a02:
            assert f_of_t(0.2, t).f == pytest.approx(f_ref, abs=1e-6)
