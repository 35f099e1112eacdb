import json

import numpy as np
import pytest

from conftest import aux_with_copy_sides
from coordrate.pmf import (
    AuxChannel,
    FullJoint,
    JointPmf,
    Pmf,
    PmfError,
    compose,
    degenerate_channel,
    dsbs_joint,
    load_aux_channel,
    load_joint_pmf,
    marginal,
    save_aux_channel,
    save_joint_pmf,
    tv_distance,
)
from coordrate.wyner import dsbs_wyner_channel


class TestValidation:
    def test_pmf_rejects_negative(self):
        with pytest.raises(PmfError):
            Pmf(np.array([0.5, 0.6, -0.1]))

    def test_pmf_rejects_bad_sum(self):
        with pytest.raises(PmfError):
            Pmf(np.array([0.5, 0.5 + 1e-6]))

    def test_pmf_accepts_tolerant_sum(self):
        Pmf(np.array([0.5, 0.5 + 1e-10]))

    def test_joint_rejects_vector(self):
        with pytest.raises(PmfError):
            JointPmf(np.array([1.0]))

    def test_joint_label_length(self):
        with pytest.raises(PmfError):
            JointPmf(np.eye(2) / 2, labels_x=("a",))

    def test_immutability(self):
        q = dsbs_joint(0.2)
        with pytest.raises(ValueError):
            q.probs[0, 0] = 1.0

    def test_aux_channel_row_must_be_simplex(self):
        with pytest.raises(PmfError):
            AuxChannel(cond={(0, 0): np.array([0.9, 0.2])}, card_u=2)

    def test_aux_channel_row_size_must_match_cards(self):
        with pytest.raises(PmfError):
            AuxChannel(cond={(0, 0): np.array([0.5, 0.5])}, card_u=3)


class TestDsbsJoint:
    def test_zero_crossover_is_diagonal(self):
        assert np.allclose(dsbs_joint(0.0).probs, [[0.5, 0.0], [0.0, 0.5]])

    def test_half_crossover_is_uniform(self):
        assert np.allclose(dsbs_joint(0.5).probs, np.full((2, 2), 0.25))

    def test_formula(self):
        assert np.allclose(dsbs_joint(0.1).probs, [[0.45, 0.05], [0.05, 0.45]])

    def test_out_of_range(self):
        with pytest.raises(PmfError):
            dsbs_joint(0.6)

    @pytest.mark.parametrize("a", [0.0, 0.1, 0.25, 0.5])
    def test_uniform_marginals(self, a):
        q = dsbs_joint(a)
        assert np.array_equal(q.probs.sum(axis=1), [0.5, 0.5])
        assert np.array_equal(q.probs.sum(axis=0), [0.5, 0.5])


class TestTvDistance:
    def test_identical(self):
        q = dsbs_joint(0.3)
        assert tv_distance(q, q) == 0.0

    def test_disjoint_point_masses(self):
        p = Pmf(np.array([1.0, 0.0]))
        q = Pmf(np.array([0.0, 1.0]))
        assert tv_distance(p, q) == 1.0

    def test_hand_sum(self):
        # half of four cell gaps of 0.2 each
        assert tv_distance(dsbs_joint(0.1), dsbs_joint(0.5)) == pytest.approx(0.4, abs=1e-15)

    def test_shape_mismatch(self):
        with pytest.raises(PmfError):
            tv_distance(Pmf(np.array([1.0])), Pmf(np.array([0.5, 0.5])))

    def test_metric_properties_random(self):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            k = rng.integers(2, 6)
            p = rng.random(k)
            p /= p.sum()
            q = rng.random(k)
            q /= q.sum()
            r = rng.random(k)
            r /= r.sum()
            dpq = tv_distance(Pmf(p), Pmf(q))
            dqp = tv_distance(Pmf(q), Pmf(p))
            assert dpq == dqp
            assert 0.0 <= dpq <= 1.0
            assert dpq <= tv_distance(Pmf(p), Pmf(r)) + tv_distance(Pmf(r), Pmf(q)) + 1e-12
        assert tv_distance(Pmf(p), Pmf(p)) <= 1e-12


class TestMarginal:
    def test_dsbs_x(self):
        assert np.array_equal(marginal(dsbs_joint(0.2), "x").probs, [0.5, 0.5])

    def test_dsbs_y(self):
        assert np.array_equal(marginal(dsbs_joint(0.1), "y").probs, [0.5, 0.5])

    def test_product_recovers_factor(self):
        p = np.array([0.3, 0.7])
        r = np.array([0.2, 0.5, 0.3])
        q = JointPmf(np.outer(p, r))
        assert np.allclose(marginal(q, "x").probs, p)
        assert np.allclose(marginal(q, "y").probs, r)

    def test_full_joint_axis_order(self):
        full = compose(dsbs_joint(0.2), dsbs_wyner_channel(0.2))
        ux = marginal(full, ("u", "x"))
        xu = marginal(full, ("x", "u"))
        assert np.allclose(ux.probs, xu.probs.T)

    def test_empty_axes_rejected(self):
        with pytest.raises(PmfError):
            marginal(dsbs_joint(0.2), ())


class TestCompose:
    def test_degenerate_aux_keeps_source(self):
        q = JointPmf(np.outer([0.4, 0.6], [0.5, 0.5]))
        full = compose(q, degenerate_channel(2, 2))
        assert full.shape == (2, 2, 1, 1, 1)
        assert np.array_equal(full.probs[:, :, 0, 0, 0], q.probs)

    def test_wyner_channel_marginal(self):
        q = dsbs_joint(0.1)
        full = compose(q, dsbs_wyner_channel(0.1))
        assert np.abs(full.probs.sum(axis=(2, 3, 4)) - q.probs).max() <= 1e-12

    def test_copy_channel_chain_rule(self):
        q = JointPmf(np.full((2, 2), 0.25))
        rows = np.zeros((2, 2, 2))
        for x in range(2):
            for y in range(2):
                rows[x, y, x] = 1.0
        full = compose(q, AuxChannel.from_array(rows))
        pu_eq_x = sum(full.probs[x, y, x, 0, 0] for x in range(2) for y in range(2))
        assert pu_eq_x == pytest.approx(1.0, abs=1e-15)

    def test_missing_row_on_support(self):
        q = dsbs_joint(0.2)
        aux = AuxChannel(cond={(0, 0): np.array([1.0])}, card_u=1)
        with pytest.raises(PmfError):
            compose(q, aux)

    def test_missing_row_off_support_is_fine(self):
        q = JointPmf(np.array([[0.5, 0.5], [0.0, 0.0]]))
        aux = AuxChannel(
            cond={(0, 0): np.array([0.5, 0.5]), (0, 1): np.array([0.2, 0.8])}, card_u=2
        )
        full = compose(q, aux)
        assert np.allclose(full.probs.sum(axis=(2, 3, 4)), q.probs)

    def test_copy_sides_extension(self):
        q = dsbs_joint(0.2)
        aux = aux_with_copy_sides(degenerate_channel(2, 2), 2, 2)
        full = compose(q, aux)
        # u1 mirrors x and u2 mirrors y exactly
        for x in range(2):
            for y in range(2):
                assert full.probs[x, y, 0, x, y] == pytest.approx(q.probs[x, y])


class TestFiles:
    def test_round_trip(self, tmp_path):
        q = dsbs_joint(0.2)
        path = tmp_path / "q.json"
        save_joint_pmf(q, path)
        back = load_joint_pmf(path)
        assert np.array_equal(back.probs, q.probs)
        assert back.labels_x == ("0", "1")

    def test_dsbs_from_file(self, tmp_path):
        path = tmp_path / "q.json"
        path.write_text(json.dumps({
            "alphabet_x": ["0", "1"],
            "alphabet_y": ["0", "1"],
            "pmf": [[0.4, 0.1], [0.1, 0.4]],
        }))
        q = load_joint_pmf(path)
        assert np.array_equal(q.probs, dsbs_joint(0.2).probs)

    def test_point_mass_file(self, tmp_path):
        path = tmp_path / "q.json"
        path.write_text(json.dumps({"alphabet_x": ["a"], "alphabet_y": ["b"], "pmf": [[1.0]]}))
        q = load_joint_pmf(path)
        assert q.shape == (1, 1)

    def test_negative_entry_rejected(self, tmp_path):
        path = tmp_path / "q.json"
        path.write_text(json.dumps({"alphabet_x": ["0", "1"], "alphabet_y": ["0", "1"],
                                    "pmf": [[0.5, 0.6], [-0.1, 0.0]]}))
        with pytest.raises(PmfError):
            load_joint_pmf(path)

    def test_unnormalized_rejected(self, tmp_path):
        path = tmp_path / "q.json"
        path.write_text(json.dumps({"alphabet_x": ["0"], "alphabet_y": ["0"], "pmf": [[0.9]]}))
        with pytest.raises(PmfError):
            load_joint_pmf(path)

    def test_parse_error(self, tmp_path):
        path = tmp_path / "q.json"
        path.write_text("{not json")
        with pytest.raises(PmfError):
            load_joint_pmf(path)

    def test_aux_round_trip(self, tmp_path):
        aux = dsbs_wyner_channel(0.1)
        path = tmp_path / "aux.json"
        save_aux_channel(aux, path)
        back = load_aux_channel(path)
        assert back.card_u == 2 and back.card_u1 == 1 and back.card_u2 == 1
        for cell in aux.cond:
            assert np.allclose(back.row(*cell), aux.row(*cell))

    @pytest.mark.parametrize(
        "doc",
        [
            {"alphabet_x": 5, "alphabet_y": ["0"], "pmf": [[1.0]]},
            {"pmf": [[0.5], [0.25, 0.25]]},
            {"pmf": {"0": 1.0}},
            [1, 2],
        ],
        ids=["alphabet-int", "ragged", "pmf-object", "not-object"],
    )
    def test_malformed_joint_is_pmf_error(self, tmp_path, doc):
        path = tmp_path / "q.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(PmfError, match="load_joint_pmf"):
            load_joint_pmf(path)

    @pytest.mark.parametrize(
        "doc",
        [
            {"card_u": 2, "cond": [1, 2]},
            {"card_u": 2, "cond": {"0,0": [1.0]}},
            {"card_u": 1, "cond": {"0,0": {"u": 1.0}}},
        ],
        ids=["cond-list", "row-size", "row-object"],
    )
    def test_malformed_aux_is_pmf_error(self, tmp_path, doc):
        path = tmp_path / "aux.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(PmfError, match="load_aux_channel"):
            load_aux_channel(path)

    def test_aux_bad_key(self, tmp_path):
        path = tmp_path / "aux.json"
        path.write_text(json.dumps({"card_u": 1, "card_u1": 1, "card_u2": 1,
                                    "cond": {"zero": [1.0]}}))
        with pytest.raises(PmfError):
            load_aux_channel(path)


class TestRevalidation:
    """Constructor outputs satisfy their own invariants when rebuilt."""

    def test_full_joint_revalidates(self):
        full = compose(dsbs_joint(0.3), dsbs_wyner_channel(0.3))
        FullJoint(np.array(full.probs))

    def test_joint_revalidates(self):
        q = dsbs_joint(0.17)
        JointPmf(np.array(q.probs), labels_x=q.labels_x, labels_y=q.labels_y)
