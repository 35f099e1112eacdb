import numpy as np
import pytest

from coordrate.dsbs import (
    CURVE_POINTS_CAP,
    DsbsParams,
    common_information,
    crossover_b,
    emit_curve,
    f_of_t,
    i_cond_closed_form,
    i_joint_closed_form,
    interpolated_channel,
    t_star,
    write_curve_csv,
)
from coordrate.measures import conditional_mutual_information, mutual_information
from coordrate.pmf import PmfError, compose, dsbs_joint
from coordrate.wyner import dsbs_wyner_channel

C_01 = 0.872760566800152
C_02 = 0.705904900983266
MI_01 = 0.531004406410719
MI_02 = 0.278071905112638
F0_01 = 0.436380283400076
F0_02 = 0.352952450491633


class TestParams:
    def test_derived_fields(self):
        p = DsbsParams(a=0.1, t=0.0)
        assert p.b == pytest.approx(0.052786404500042, abs=1e-15)
        assert p.alpha == pytest.approx(p.b**2, abs=1e-15)

    def test_alpha_interpolates(self):
        p = DsbsParams(a=0.1, t=1.0)
        assert p.alpha == pytest.approx(0.45, abs=1e-15)

    def test_alpha_range(self):
        for t in np.linspace(0, 1, 11):
            p = DsbsParams(a=0.3, t=float(t))
            assert 0.0 <= p.alpha <= (1 - 0.3) / 2 + 1e-15

    def test_rejects_bad_t(self):
        with pytest.raises(PmfError):
            DsbsParams(a=0.1, t=1.5)


class TestInterpolatedChannel:
    def test_flat_endpoint(self):
        ch = interpolated_channel(0.2, 1.0)
        for x in range(2):
            for y in range(2):
                assert np.allclose(ch.row(x, y)[:, 0, 0], [0.5, 0.5])

    def test_wyner_endpoint(self):
        ch = interpolated_channel(0.2, 0.0)
        ref = dsbs_wyner_channel(0.2)
        for x in range(2):
            for y in range(2):
                assert np.allclose(ch.row(x, y), ref.row(x, y))

    def test_midpoint_row(self):
        # (x=1, y=1) row: average of b^2/(1-a) and one half
        ch = interpolated_channel(0.1, 0.5)
        b = crossover_b(0.1)
        expect = 0.5 * (b * b / 0.9) + 0.25
        assert ch.row(1, 1)[0, 0, 0] == pytest.approx(expect, abs=1e-15)
        assert expect == pytest.approx(0.251548002500023, abs=1e-12)

    def test_rejects_out_of_range(self):
        with pytest.raises(PmfError):
            interpolated_channel(0.1, -0.1)
        with pytest.raises(PmfError):
            interpolated_channel(0.0, 0.5)


class TestClosedForms:
    def test_i_joint_endpoints(self):
        assert i_joint_closed_form(0.1, 0.0) == pytest.approx(C_01, abs=1e-12)
        assert i_joint_closed_form(0.1, 1.0) == pytest.approx(0.0, abs=1e-12)
        assert i_joint_closed_form(0.2, 0.0) == pytest.approx(C_02, abs=1e-12)

    def test_i_cond_endpoints(self):
        assert i_cond_closed_form(0.1, 0.0) == pytest.approx(0.0, abs=1e-12)
        assert i_cond_closed_form(0.1, 1.0) == pytest.approx(MI_01, abs=1e-12)
        assert i_cond_closed_form(0.2, 1.0) == pytest.approx(MI_02, abs=1e-12)

    @pytest.mark.parametrize("a", [0.05, 0.1, 0.2, 0.3, 0.4])
    def test_common_information(self, a):
        # 1 + h(a) - 2 h(b) is I(X,Y;U) of the Wyner channel, which makes X - U - Y
        full = compose(dsbs_joint(a), dsbs_wyner_channel(a))
        assert common_information(a) == pytest.approx(mutual_information(full, ("x", "y"), ("u",)), abs=1e-12)
        assert conditional_mutual_information(full, ("x",), ("y",), ("u",)) == pytest.approx(0.0, abs=1e-12)
        assert common_information(a) == pytest.approx(i_joint_closed_form(a, 0.0), abs=1e-12)

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
            assert i_joint_closed_form(a, float(t)) == pytest.approx(ij, abs=1e-10)
            assert i_cond_closed_form(a, float(t)) == pytest.approx(ic, abs=1e-10)


class TestTStar:
    def test_published_values(self):
        assert t_star(0.1) == pytest.approx(0.343436, abs=1e-4)
        assert t_star(0.2) == pytest.approx(0.442523, abs=1e-4)

    @pytest.mark.parametrize("a", [0.05, 0.1, 0.2, 0.3, 0.45])
    def test_terms_cross_at_t_star(self, a):
        ts = t_star(a)
        assert abs(i_joint_closed_form(a, ts) - i_cond_closed_form(a, ts)) <= 1e-9

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

    def test_points_cap(self, monkeypatch):
        # a cheap stand-in for the closed forms keeps the full-size run short
        import coordrate.dsbs as dsbs

        monkeypatch.setattr(dsbs, "f_of_t", lambda a, t: t)
        assert len(emit_curve(0.1, CURVE_POINTS_CAP)) == CURVE_POINTS_CAP
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


class TestGoldenCurves:
    def test_a01_full_table(self, curve_a01):
        for t, f_ref in curve_a01:
            assert f_of_t(0.1, t).f == pytest.approx(f_ref, abs=1e-6)

    def test_a02_full_table(self, curve_a02):
        for t, f_ref in curve_a02:
            assert f_of_t(0.2, t).f == pytest.approx(f_ref, abs=1e-6)
