import numpy as np
import pytest

from coordrate.dsbs import dsbs_wyner_channel
from coordrate.measures import (
    binary_entropy,
    conditional_mutual_information,
    entropy,
    inverse_binary_entropy,
    mutual_information,
    source_info,
    table_entropy,
)
from coordrate.pmf import FullJoint, JointPmf, Pmf, PmfError, compose, degenerate_channel, dsbs_joint, marginal

# frozen reference values for the symmetric binary source
H_01 = 0.468995593589281          # h(0.1)
MI_DSBS_01 = 0.531004406410719    # 1 - h(0.1)
MI_DSBS_02 = 0.278071905112638    # 1 - h(0.2)
C_DSBS_01 = 0.872760566800152     # minimal common-information rate at a=0.1


def random_full_joint(rng, shape=None):
    if shape is None:
        shape = tuple(rng.integers(1, 4, size=5))
        while np.prod(shape) == 1:
            shape = tuple(rng.integers(1, 4, size=5))
    t = rng.random(shape) ** 2
    return FullJoint(t / t.sum())


class TestEntropy:
    def test_uniform_binary(self):
        assert entropy(Pmf(np.array([0.5, 0.5]))) == pytest.approx(1.0, abs=1e-15)

    def test_point_mass(self):
        assert entropy(Pmf(np.array([1.0]))) == 0.0

    def test_skewed_binary(self):
        assert entropy(Pmf(np.array([0.1, 0.9]))) == pytest.approx(H_01, abs=1e-14)

    def test_bounded_by_log_alphabet(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            k = int(rng.integers(1, 8))
            p = rng.random(k)
            h = entropy(Pmf(p / p.sum()))
            assert -1e-12 <= h <= np.log2(k) + 1e-12


class TestBinaryEntropy:
    def test_max(self):
        assert binary_entropy(0.5) == 1.0

    def test_boundaries(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_value(self):
        assert binary_entropy(0.1) == pytest.approx(H_01, abs=1e-14)

    def test_domain(self):
        with pytest.raises(PmfError):
            binary_entropy(1.2)


class TestInverseBinaryEntropy:
    def test_one_maps_to_half(self):
        assert inverse_binary_entropy(1.0) == pytest.approx(0.5, abs=1e-12)

    def test_zero_maps_to_zero(self):
        assert inverse_binary_entropy(0.0) == pytest.approx(0.0, abs=1e-12)

    def test_inverts_h_of_point_one(self):
        assert inverse_binary_entropy(H_01) == pytest.approx(0.1, abs=1e-12)

    def test_round_trip_grid(self):
        for y in np.arange(0.0, 1.0 + 1e-12, 1e-3):
            assert binary_entropy(inverse_binary_entropy(y)) == pytest.approx(y, abs=1e-10)

    def test_domain(self):
        with pytest.raises(PmfError):
            inverse_binary_entropy(-0.1)


class TestEntropyVec4:
    """The entropy of a 4-point distribution, the h4 of the DSBS closed forms: ``entropy(Pmf([...]))``."""

    def test_uniform(self):
        assert entropy(Pmf([0.25, 0.25, 0.25, 0.25])) == pytest.approx(2.0, abs=1e-15)

    def test_point_mass(self):
        assert entropy(Pmf([1.0, 0.0, 0.0, 0.0])) == 0.0

    def test_wyner_channel_vector(self):
        # at the closed-form minimizing channel the 4-vector entropy makes
        # 1 + h(a) - h4 equal the common information
        a = 0.1
        b = 0.5 * (1 - np.sqrt(1 - 2 * a))
        alpha = b * b
        h4 = entropy(Pmf([alpha, a / 2, a / 2, 1 - a - alpha]))
        assert 1 + binary_entropy(a) - h4 == pytest.approx(C_DSBS_01, abs=1e-12)

    def test_rejects_bad_simplex(self):
        with pytest.raises(PmfError):
            entropy(Pmf([0.5, 0.5, 0.5, -0.5]))


def random_sources(seed, count):
    """``count`` seeded JointPmfs of every shape from 1x1 to 6x6, about a third of the cells zero."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        for shape in np.ndindex(6, 6):
            t = rng.random((shape[0] + 1, shape[1] + 1)) ** 2
            t[rng.random(t.shape) < 0.3] = 0.0
            t.flat[rng.integers(t.size)] = 1.0
            yield JointPmf(t / t.sum())


class TestSourceInfo:
    def test_equals_generic_path(self):
        # bit for bit what I(X;Y) of the composed degenerate channel gives, and the marginals' entropies
        for q in random_sources(22, 20):
            hx, hy, ixy = source_info(q)
            assert ixy == mutual_information(compose(q, degenerate_channel(*q.shape)), ("x",), ("y",))
            assert (hx, hy) == (entropy(marginal(q, "x")), entropy(marginal(q, "y")))

    def test_dsbs_values(self):
        hx, hy, ixy = source_info(dsbs_joint(0.1))
        assert (hx, hy) == (1.0, 1.0)
        assert ixy == pytest.approx(MI_DSBS_01, abs=1e-14)
        assert table_entropy(dsbs_joint(0.1).probs) == pytest.approx(1 + H_01, abs=1e-14)

    def test_table_entropy_is_entropy_of_raveled_table(self):
        for q in random_sources(23, 2):
            assert table_entropy(q.probs) == entropy(Pmf(q.probs.ravel()))


NON_REALS = [True, False, "0.5", None, np.array([0.5, 0.5])]


class TestRefusesNonReals:
    @pytest.mark.parametrize("value", NON_REALS)
    @pytest.mark.parametrize("fn", [binary_entropy, inverse_binary_entropy])
    def test_refused(self, fn, value):
        with pytest.raises(PmfError, match=f"{fn.__name__}: argument must be a real in \\[0, 1\\]"):
            fn(value)

    def test_numpy_reals_are_reals(self):
        assert binary_entropy(np.float64(0.1)) == binary_entropy(0.1)
        assert inverse_binary_entropy(np.float64(0.5)) == inverse_binary_entropy(0.5)

    @pytest.mark.parametrize("fn", [binary_entropy, inverse_binary_entropy])
    @pytest.mark.parametrize("value", [0.25, 0.1])
    def test_float32_is_computed_in_float64(self, fn, value):
        # a float32 argument is the float64 number it holds, not a float32 computation
        result = fn(np.float32(value))
        assert type(result) is float and result == fn(float(np.float32(value)))


class TestMutualInformation:
    def test_independent_product(self):
        q = JointPmf(np.outer([0.3, 0.7], [0.2, 0.8]))
        full = compose(q, degenerate_channel(2, 2))
        assert mutual_information(full, ("x",), ("y",)) == pytest.approx(0.0, abs=1e-15)

    def test_dsbs_01(self):
        full = compose(dsbs_joint(0.1), degenerate_channel(2, 2))
        assert mutual_information(full, ("x",), ("y",)) == pytest.approx(MI_DSBS_01, abs=1e-14)

    def test_dsbs_02(self):
        full = compose(dsbs_joint(0.2), degenerate_channel(2, 2))
        assert mutual_information(full, ("x",), ("y",)) == pytest.approx(MI_DSBS_02, abs=1e-14)

    def test_group_overlap_rejected(self):
        full = compose(dsbs_joint(0.1), degenerate_channel(2, 2))
        # the check runs in conditional_mutual_information, so the message names the groups, not a function
        with pytest.raises(PmfError, match=r"^mutual information needs disjoint groups, got \('x', 'u'\) and \('u',\)$"):
            mutual_information(full, ("x", "u"), ("u",))

    def test_symmetry_random(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            full = random_full_joint(rng)
            a = mutual_information(full, ("x",), ("y", "u"))
            b = mutual_information(full, ("y", "u"), ("x",))
            assert a == pytest.approx(b, abs=1e-12)


class TestConditionalMutualInformation:
    def test_degenerate_conditioning_equals_mi(self):
        full = compose(dsbs_joint(0.2), degenerate_channel(2, 2))
        mi = mutual_information(full, ("x",), ("y",))
        cmi = conditional_mutual_information(full, ("x",), ("y",), ("u",))
        assert cmi == pytest.approx(mi, abs=1e-14)

    def test_wyner_channel_breaks_dependence(self):
        full = compose(dsbs_joint(0.1), dsbs_wyner_channel(0.1))
        assert conditional_mutual_information(full, ("x",), ("y",), ("u",)) <= 1e-9

    def test_matches_conditional_decomposition(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            full = random_full_joint(rng, shape=(2, 3, 2, 1, 1))
            cmi = conditional_mutual_information(full, ("x",), ("y",), ("u",))
            # direct sum over conditioning values
            acc = 0.0
            for u in range(full.shape[2]):
                slab = full.probs[:, :, u, 0, 0]
                pu = slab.sum()
                if pu == 0:
                    continue
                cond = slab / pu
                px = cond.sum(1)
                py = cond.sum(0)
                mask = cond > 0
                acc += pu * (cond[mask] * np.log2(cond[mask] / np.outer(px, py)[mask])).sum()
            assert cmi == pytest.approx(acc, abs=1e-12)


class TestInvariantSuites:
    def test_chain_rule_and_nonnegativity(self):
        rng = np.random.default_rng(31)
        for _ in range(1000):
            full = random_full_joint(rng)
            lhs = mutual_information(full, ("x", "y"), ("u", "u1"))
            rhs = mutual_information(full, ("x", "y"), ("u",)) + conditional_mutual_information(
                full, ("x", "y"), ("u1",), ("u",)
            )
            assert lhs == pytest.approx(rhs, abs=1e-10)
            assert lhs >= -1e-12
            assert conditional_mutual_information(full, ("x",), ("y",), ("u", "u1", "u2")) >= -1e-12
