import numpy as np
import pytest

from dataclasses import fields

from conftest import aux_with_copy_sides, near_markov_channel, near_tolerance_pair
from coordrate._simplexopt import ChannelStats, Source
from coordrate import measures
from coordrate.dsbs import dsbs_wyner_channel, interpolated_channel
from coordrate.measures import MARKOV_TOL, binary_entropy, conditional_mutual_information, mutual_information, table_entropy
from coordrate.pmf import (
    AXES,
    AuxChannel,
    JointPmf,
    PmfError,
    compose,
    degenerate_channel,
    dsbs_joint,
)
from coordrate.simulate import SimulationError, derive_components
from coordrate.region import (
    COEFFICIENTS,
    MEMBERSHIP_SLACK,
    RateTriple,
    RegionBounds,
    achievable_bounds,
    check_markov_quadruple,
    in_achievable_region,
    xy_equal_region,
)

MI_02 = 0.278071905112638
C_01 = 0.872760566800152


def copy_sides_aux(nx=2, ny=2):
    return aux_with_copy_sides(degenerate_channel(nx, ny), nx, ny)


class TestRateTriple:
    def test_rejects_negative(self):
        with pytest.raises(PmfError):
            RateTriple(-0.1, 0.0, 0.0)

    def test_rejects_nan(self):
        with pytest.raises(PmfError):
            RateTriple(float("nan"), 0.0, 0.0)

    @pytest.mark.parametrize("value", ["1", True, None])
    def test_rejects_non_reals(self, value):
        with pytest.raises(PmfError, match="RateTriple: r must be finite and nonnegative"):
            RateTriple(value, 1, 1)


class TestMarkovQuadruple:
    def test_copy_sides_always_chain(self):
        # u1 = x and u2 = y satisfy the chain for any middle auxiliary
        for a in (0.1, 0.2, 0.4):
            full = compose(dsbs_joint(a), copy_sides_aux())
            ok, defect = check_markov_quadruple(full)
            assert ok and defect <= 1e-12

    def test_wyner_channel_chain(self):
        full = compose(dsbs_joint(0.1), dsbs_wyner_channel(0.1))
        ok, defect = check_markov_quadruple(full)
        assert ok and defect <= 1e-9

    def test_bare_dependent_source_fails(self):
        full = compose(dsbs_joint(0.2), degenerate_channel(2, 2))
        ok, defect = check_markov_quadruple(full)
        assert not ok
        # both factorization links are broken, each equal to I(X;Y)
        assert defect == pytest.approx(MI_02, abs=1e-12)


class TestOneMarkovRule:
    """The region, the simulator and the Wyner solver's terms decide a single-auxiliary channel alike."""

    @pytest.mark.parametrize("ratio", [0.5, 0.8, 0.99, 1.01, 1.2])
    def test_same_verdict_and_defect(self, ratio):
        q, ch = dsbs_joint(0.1), near_markov_channel(ratio)
        full = compose(q, ch)
        i_cond = ChannelStats(Source(q.probs, ch.card_u), ch.probs[None, :, :, :, 0, 0]).i_cond[0]
        ok, defect = check_markov_quadruple(full)
        # with constant U1 and U2 both links are I(X;Y|U), the quantity derive_components tests
        assert defect == pytest.approx(ratio * MARKOV_TOL, rel=1e-6)
        assert abs(defect - i_cond) <= 1e-15
        assert abs(defect - conditional_mutual_information(full, ("x",), ("y",), ("u",))) <= 1e-15
        accept = ratio < 1
        assert ok is accept and bool(i_cond <= MARKOV_TOL) is accept
        if accept:
            assert achievable_bounds(q, ch).markov_defect == defect
            derive_components(ch, q)
        else:
            with pytest.raises(PmfError, match=f"defect {defect:.3e} bits"):
                achievable_bounds(q, ch)
            with pytest.raises(SimulationError, match="X - U - Y"):
                derive_components(ch, q)


class TestAchievableBounds:
    def test_degenerate_on_independent(self):
        q = JointPmf(np.outer([0.3, 0.7], [0.2, 0.8]))
        b = achievable_bounds(q, degenerate_channel(2, 2))
        for name in ("b_r_r1", "b_r_r2", "b_r", "b_r_r1_r2", "b_2r_r1_r2", "b_2r"):
            assert getattr(b, name) == pytest.approx(0.0, abs=1e-12)

    def test_copy_sides_on_dsbs02(self):
        b = achievable_bounds(dsbs_joint(0.2), copy_sides_aux())
        assert b.b_r == pytest.approx(MI_02, abs=1e-9)
        assert b.b_r_r1 == pytest.approx(1.0, abs=1e-9)
        assert b.b_r_r2 == pytest.approx(1.0, abs=1e-9)
        # I(X;Y) + H(X,Y) with H(X,Y) = 1 + h(0.2)
        assert b.b_r_r1_r2 == pytest.approx(MI_02 + 1 + binary_entropy(0.2), abs=1e-9)
        assert b.b_r_r1_r2 == pytest.approx(2.0, abs=1e-9)

    def test_wyner_channel_bounds(self):
        b = achievable_bounds(dsbs_joint(0.1), dsbs_wyner_channel(0.1))
        assert b.b_r == pytest.approx(0.0, abs=1e-9)
        assert b.b_r_r1 == pytest.approx(C_01, abs=1e-9)
        assert b.b_r_r2 == pytest.approx(C_01, abs=1e-9)
        assert b.b_2r == pytest.approx(C_01, abs=1e-9)

    def test_factors_near_sum_tolerance(self):
        # source and channel rows each 9e-10 over 1: their product is past SUM_TOL, yet both were accepted
        q, aux = near_tolerance_pair()
        b = achievable_bounds(q, aux)
        assert b.markov_defect <= 1e-9
        assert b.b_r_r1 == pytest.approx(C_01, abs=1e-6)
        assert in_achievable_region(q, aux, RateTriple(1, 0, 0))

    def test_rejects_non_chain_channel(self):
        # a middle auxiliary that copies neither side leaves X and Y coupled
        with pytest.raises(PmfError):
            achievable_bounds(dsbs_joint(0.2), degenerate_channel(2, 2))


def reference_bounds(q, aux):
    """The six bounds and the defect, each term one ``conditional_mutual_information`` call of its own."""
    full = compose(q, aux)

    def h(names):
        keep = [AXES.index(n) for n in names]
        return table_entropy(full.probs.sum(axis=tuple(i for i in range(5) if i not in keep))) if keep else 0.0

    def cmi(a, b, c=()):
        value = conditional_mutual_information(full, a, b, c)
        # the formula written out, every marginal summed here
        assert value == h(a + c) + h(b + c) - h(a + b + c) - h(c)
        return value

    defect = max(cmi(("x",), ("y", "u2"), ("u", "u1")), cmi(("y",), ("x", "u1"), ("u", "u2")), 0.0)
    i_sides = cmi(("u1",), ("u2",), ("u",))
    i_u, i_u1, i_u2, i_all = (cmi(("x", "y"), g) for g in (("u",), ("u", "u1"), ("u", "u2"), ("u", "u1", "u2")))
    return RegionBounds(i_u1, i_u2, i_sides, i_sides + i_all, i_sides + i_u + i_all, i_sides + i_u, defect)


def bsc(s):
    return np.array([[1.0 - s, s], [s, 1.0 - s]])


def memo_cases():
    """(source, channel) pairs of three kinds: 3x3 copy-sides certificates, DSBS families A and B, and Wyner's channel."""
    rng = np.random.default_rng(37)
    for k in range(6):
        q = JointPmf(rng.dirichlet(np.ones(9)).reshape(3, 3))
        yield pytest.param(q, aux_with_copy_sides(AuxChannel(rng.dirichlet(np.ones(2), size=(3, 3))), 3, 3), id=f"copy-sides-{k}")
    for a, s, t in ((0.05, 0.1, 0.3), (0.1, 0.25, 0.5), (0.3, 0.4, 0.9)):
        wyner = dsbs_wyner_channel(a).probs[:, :, :, 0, 0]
        # family A: U from Wyner's channel, U1 = X and U2 = Y each through a BSC(s)
        family_a = AuxChannel(np.einsum("xyu,xi,yj->xyuij", wyner, bsc(s), bsc(s)))
        yield pytest.param(dsbs_joint(a), family_a, id=f"family-a-{a}")
        # family B: U from the interpolated channel, U1 = X and U2 = Y
        yield pytest.param(dsbs_joint(a), aux_with_copy_sides(interpolated_channel(a, t), 2, 2), id=f"family-b-{a}")
        yield pytest.param(dsbs_joint(a), dsbs_wyner_channel(a), id=f"wyner-{a}")


class TestEntropyMemo:
    @pytest.mark.parametrize("q, aux", memo_cases())
    def test_bounds_equal_the_one_term_formulas(self, monkeypatch, q, aux):
        expect = reference_bounds(q, aux)
        calls = []
        joint_entropy = measures._joint_entropy
        monkeypatch.setattr(measures, "_joint_entropy", lambda full, axes: calls.append(tuple(axes)) or joint_entropy(full, axes))
        got = achievable_bounds(q, aux)
        # the chain's links and the five terms use 24 nonempty marginals, 13 of them distinct
        assert len(calls) == len(set(calls)) == 13
        for f in fields(RegionBounds):
            assert getattr(got, f.name) == getattr(expect, f.name), f.name
        assert check_markov_quadruple(compose(q, aux)) == (True, expect.markov_defect)


class TestMembership:
    def test_documented_triples(self):
        q = dsbs_joint(0.2)
        aux = copy_sides_aux()
        assert in_achievable_region(q, aux, RateTriple(0.28, 0.9, 0.9)) is True
        assert in_achievable_region(q, aux, RateTriple(0.27, 0.9, 0.9)) is False

    def test_independent_zero_rates(self):
        q = JointPmf(np.outer([0.5, 0.5], [0.5, 0.5]))
        assert in_achievable_region(q, degenerate_channel(2, 2), RateTriple(0, 0, 0))

    def test_upward_closure(self):
        q = dsbs_joint(0.2)
        aux = copy_sides_aux()
        base = RateTriple(0.28, 1.0, 1.0)
        assert in_achievable_region(q, aux, base)
        rng = np.random.default_rng(8)
        for _ in range(1000):
            d = rng.random(3)
            bigger = RateTriple(base.r + d[0], base.r1 + d[1], base.r2 + d[2])
            assert in_achievable_region(q, aux, bigger)

    def test_markov_middle_allows_zero_side_rates(self):
        # any chain-satisfying middle auxiliary puts (I(X,Y;U) + eps, 0, 0) inside
        q = dsbs_joint(0.1)
        ch = dsbs_wyner_channel(0.1)
        i_u = mutual_information(compose(q, ch), ("x", "y"), ("u",))
        assert in_achievable_region(q, ch, RateTriple(i_u + 1e-9, 0.0, 0.0))

    def test_boundary_has_slack(self):
        q = dsbs_joint(0.2)
        aux = copy_sides_aux()
        b = achievable_bounds(q, aux)
        exact = RateTriple(b.b_r, 1.0, 1.0)
        assert in_achievable_region(q, aux, exact)


    def test_rates_must_be_a_rate_triple(self):
        with pytest.raises(PmfError, match="in_achievable_region: rates must be a RateTriple, got tuple"):
            in_achievable_region(dsbs_joint(0.2), copy_sides_aux(), (1, 1, 1))


def six_inequalities(b, r, r1, r2):
    """The inner bound's six inequalities, written out."""
    s = MEMBERSHIP_SLACK
    return (
        r + r1 >= b.b_r_r1 - s
        and r + r2 >= b.b_r_r2 - s
        and r >= b.b_r - s
        and r + r1 + r2 >= b.b_r_r1_r2 - s
        and 2.0 * r + r1 + r2 >= b.b_2r_r1_r2 - s
        and 2.0 * r >= b.b_2r - s
    )


class TestCoefficientTable:
    def test_shape_and_field_order(self):
        assert np.array(COEFFICIENTS).shape == (6, 3)
        assert [f.name for f in fields(RegionBounds)][6:] == ["markov_defect"]

    @pytest.mark.parametrize("case", ["copy_sides_02", "wyner_01", "copy_sides_3x3"])
    def test_table_matches_written_out_inequalities(self, case):
        rng = np.random.default_rng(["copy_sides_02", "wyner_01", "copy_sides_3x3"].index(case))
        if case == "copy_sides_02":
            q, aux = dsbs_joint(0.2), copy_sides_aux()
        elif case == "wyner_01":
            q, aux = dsbs_joint(0.1), dsbs_wyner_channel(0.1)
        else:
            p = rng.random((3, 3))
            q, aux = JointPmf(p / p.sum()), copy_sides_aux(3, 3)
        b = achievable_bounds(q, aux)
        bounds = [b.b_r_r1, b.b_r_r2, b.b_r, b.b_r_r1_r2, b.b_2r_r1_r2, b.b_2r]
        verdicts = []
        for k in range(400):
            r, r1, r2 = rng.random(3) * 2.5
            if k % 4 == 0:
                # a quarter of the triples on a bound: solve one row for its last
                # rate, at the bound or a slack's width or 1e-16 off it
                row = k // 4 % 6
                (ca, cb, cc), bound = COEFFICIENTS[row], bounds[row]
                bound += rng.choice([0.0, MEMBERSHIP_SLACK, -MEMBERSHIP_SLACK, 2 * MEMBERSHIP_SLACK, 1e-16])
                if cc:
                    r2 = max(bound - ca * r - cb * r1, 0.0)
                elif cb:
                    r1 = max(bound - ca * r, 0.0)
                else:
                    r = max(bound / ca, 0.0)
            got = in_achievable_region(q, aux, RateTriple(r, r1, r2))
            assert got == six_inequalities(b, r, r1, r2), (k, r, r1, r2)
            verdicts.append(got)
        assert 0 < sum(verdicts) < len(verdicts)


class TestXyEqualRegion:
    def test_corner_point(self):
        assert xy_equal_region(1.0, RateTriple(0.5, 0.5, 0.5)) is True

    def test_below_half_entropy(self):
        assert xy_equal_region(1.0, RateTriple(0.49, 10, 10)) is False

    def test_constant_source(self):
        assert xy_equal_region(0.0, RateTriple(0, 0, 0)) is True

    def test_matches_bruteforce_grid(self):
        hx = 1.0
        grid = np.arange(0.0, 1.5 + 1e-9, 0.01)
        for r in grid:
            for r1 in (0.0, 0.25, 0.5, 0.75, 1.0):
                for r2 in (0.0, 0.5, 1.0):
                    expect = (r + min(r1, r2) >= hx - 1e-12) and (r >= hx / 2 - 1e-12)
                    assert xy_equal_region(hx, RateTriple(r, r1, r2)) == expect

    def test_rejects_negative_entropy(self):
        with pytest.raises(PmfError):
            xy_equal_region(-1.0, RateTriple(1, 1, 1))

    @pytest.mark.parametrize("hx", [float("nan"), float("inf"), "1", True])
    def test_rejects_non_finite_entropy(self, hx):
        with pytest.raises(PmfError, match="finite"):
            xy_equal_region(hx, RateTriple(1, 1, 1))

    @pytest.mark.parametrize("rates", [(1, 1, 1), None, 1.0])
    def test_rates_must_be_a_rate_triple(self, rates):
        with pytest.raises(PmfError, match="xy_equal_region: rates must be a RateTriple"):
            xy_equal_region(1.0, rates)
