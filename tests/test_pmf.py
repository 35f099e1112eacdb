import json

import numpy as np
import pytest

from conftest import aux_with_copy_sides, near_tolerance_pair
from coordrate.dsbs import dsbs_wyner_channel
from coordrate.measures import conditional_mutual_information, entropy, mutual_information
from coordrate.pmf import (
    AUX_TABLE_BYTES_CAP,
    AuxChannel,
    FullJoint,
    JointPmf,
    Pmf,
    SUM_TOL,
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
from coordrate.simulate import Codebooks, SimConfig, SimRates, SimulationError, run_trials
from coordrate.ulsr import ulsr_objective, ulsr_rate
from coordrate.wyner import wyner_ci


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

    @pytest.mark.parametrize(
        "labels_x, labels_y, name, label",
        [(["a", "a"], None, "labels_x", "a"), (None, ["0", "1", "0"], "labels_y", "0"), ([1, "1"], None, "labels_x", "1")],
        ids=["x", "y", "as-str"],
    )
    def test_joint_refuses_repeated_symbols(self, labels_x, labels_y, name, label):
        # a repeated name would make tv_distance compare two such tables by position
        with pytest.raises(PmfError, match=f"JointPmf: {name} names symbol '{label}' twice"):
            JointPmf(np.full((2, 3), 1 / 6), labels_x=labels_x, labels_y=labels_y)

    def test_immutability(self):
        q = dsbs_joint(0.2)
        with pytest.raises(ValueError):
            q.probs[0, 0] = 1.0

    def test_aux_channel_row_must_be_simplex(self):
        with pytest.raises(PmfError):
            AuxChannel(np.array([[[0.9, 0.2]]]))

    @pytest.mark.parametrize("bad", [[np.nan, 1.0], [np.inf, 0.0], [-0.5, 1.5]], ids=["nan", "inf", "negative"])
    def test_aux_channel_names_first_bad_row(self, bad):
        rows = np.full((2, 2, 2), 0.5)
        rows[1, 0] = rows[1, 1] = bad
        with pytest.raises(PmfError, match=r"row \(1, 0\)"):
            AuxChannel(rows)

    def test_aux_channel_from_array_is_the_constructor(self):
        rows = np.random.default_rng(2).dirichlet(np.ones(3), size=(2, 2))
        ch = AuxChannel.from_array(rows)
        assert type(ch) is AuxChannel and np.array_equal(ch.probs, AuxChannel(rows).probs)


def _dsbs_books():
    """The fixed code of DSBS(0.2) at n = 8 through its Wyner channel."""
    return Codebooks(SimConfig(q=dsbs_joint(0.2), channel=dsbs_wyner_channel(0.2), n=8, rates=SimRates(0.5, 0.25, 0.5, 0.5)))


#: a Codebooks table or states argument must be a rectangular array of integers
_NOT_INT_TABLE = "must be a rectangular array of integers, got dtype"


def _dsbs_full():
    """DSBS(0.1) composed with the degenerate auxiliary."""
    return compose(dsbs_joint(0.1), degenerate_channel(2, 2))


def _saved_channel(tmp_path):
    path = tmp_path / "aux.json"
    save_aux_channel(degenerate_channel(2, 2), path)
    return path


@pytest.mark.parametrize(
    "call, error, match",
    [
        (lambda _: JointPmf([[0.5, 0.5]], labels_x=5), PmfError, "JointPmf: labels_x must be a sequence"),
        (lambda _: JointPmf([[0.5], [0.25, 0.25]]), PmfError, "JointPmf: probs must be an array of real numbers"),
        (lambda _: AuxChannel([[[1.0]], [[0.5, 0.5]]]), PmfError, "AuxChannel: probs must be an array of real numbers"),
        (
            lambda _: conditional_mutual_information(compose(dsbs_joint(0.1), degenerate_channel(2, 2)), 5, "y", ()),
            PmfError,
            "group_a must be an axis name",
        ),
        (lambda path: load_aux_channel(_saved_channel(path), None), PmfError, "load_aux_channel: q must be a JointPmf"),
        (lambda _: Codebooks(None), SimulationError, "Codebooks: cfg must be a SimConfig"),
        (lambda _: run_trials(None), SimulationError, "Codebooks: cfg must be a SimConfig"),
        (lambda _: ulsr_rate(dsbs_joint(0.1), form="x"), PmfError, "ulsr_rate: form must be a UlsrForm"),
        (
            lambda _: ulsr_objective(dsbs_joint(0.1), degenerate_channel(2, 2), form="x"),
            PmfError,
            "ulsr_objective: form must be a UlsrForm",
        ),
        (lambda _: tv_distance("ab", "ab"), PmfError, "tv_distance: p must be an array of real numbers"),
        (lambda _: entropy("abc"), PmfError, "Pmf: probs must be an array of real numbers"),
        (lambda _: entropy([0.5, [0.5]]), PmfError, "Pmf: probs must be an array of real numbers"),
        (lambda _: entropy({"a": 1}), PmfError, "Pmf: probs must be an array of real numbers"),
        (lambda _: marginal(dsbs_joint(0.1), None), PmfError, "marginal: axes must be an axis name"),
        (lambda _: marginal(dsbs_joint(0.1), 5), PmfError, "marginal: axes must be an axis name"),
        (lambda _: marginal(dsbs_joint(0.1), [["x"]]), PmfError, r"marginal: unknown axis \['x'\]"),
        (lambda _: degenerate_channel(-1, 2), PmfError, "degenerate_channel: nx must be an integer >= 1, got -1"),
        (lambda _: degenerate_channel(2.5, 2), PmfError, "degenerate_channel: nx must be an integer >= 1, got 2.5"),
        (lambda _: degenerate_channel(True, 2), PmfError, "degenerate_channel: nx must be an integer >= 1, got True"),
        # a save that opened its file first would raise FileNotFoundError in a missing directory
        (lambda path: save_joint_pmf(None, path / "no" / "q.json"), PmfError, "save_joint_pmf: q must be a JointPmf"),
        (lambda path: save_aux_channel(None, path / "no" / "a.json"), PmfError, "save_aux_channel: aux must be an AuxChannel"),
        # refused before any cast: numpy would raise its own errors, or read 0.5 as 0 and nan with a warning
        (lambda _: _dsbs_books().states([["a", "b", "c", "d"]]), SimulationError, f"Codebooks.states: table {_NOT_INT_TABLE} <U1"),
        (lambda _: _dsbs_books().states([(0, 0, 0, 0), (0, 0, 0)]), SimulationError, f"Codebooks.states: table {_NOT_INT_TABLE} object"),
        (lambda _: _dsbs_books().states([(0.5, 0, 0, 0)]), SimulationError, f"Codebooks.states: table {_NOT_INT_TABLE} float64"),
        (lambda _: _dsbs_books().states([(np.nan, 0, 0, 0)]), SimulationError, f"Codebooks.states: table {_NOT_INT_TABLE} float64"),
        (lambda _: _dsbs_books().states([(True, False, False, False)]), SimulationError, f"Codebooks.states: table {_NOT_INT_TABLE} bool"),
        (lambda _: _dsbs_books().rows("abc", 0, 1), SimulationError, f"Codebooks.rows: states {_NOT_INT_TABLE} <U3"),
        (lambda _: _dsbs_books().rows([[[0] * 4], [[0] * 4, [0] * 4], [[0] * 4]], 0, 1), SimulationError, f"Codebooks.rows: states {_NOT_INT_TABLE} object"),
        (lambda _: _dsbs_books().rows(np.zeros((3, 1, 4)), 0, 1), SimulationError, f"Codebooks.rows: states {_NOT_INT_TABLE} float64"),
        (lambda _: _dsbs_books().rows(np.zeros((3, 1, 4), dtype=bool), 0, 1), SimulationError, f"Codebooks.rows: states {_NOT_INT_TABLE} bool"),
        (lambda _: Pmf([]), PmfError, "Pmf: empty probability table"),
        (lambda _: Pmf([np.nan, 1.0]), PmfError, "Pmf: non-finite entry"),
        (lambda _: Pmf([[0.5, 0.5]]), PmfError, r"Pmf: expected 1-d vector, got shape \(1, 2\)"),
        (lambda _: AuxChannel(np.ones((2, 2))), PmfError, r"AuxChannel: expected a nonempty 3-d or 5-d table, got shape \(2, 2\)"),
        (lambda _: FullJoint(dsbs_joint(0.1).probs), PmfError, "FullJoint: expected 5-d table over"),
        (lambda _: marginal(dsbs_joint(0.1).probs, "x"), PmfError, "marginal: expected JointPmf or FullJoint, got ndarray"),
        (lambda _: marginal(_dsbs_full(), ("x", "x")), PmfError, "marginal: duplicate axes"),
        (lambda _: marginal(_dsbs_full(), ("x", "y", "u")), PmfError, "marginal: at most two axes can be kept"),
        (lambda _: compose(dsbs_joint(0.1).probs, degenerate_channel(2, 2)), PmfError, r"compose: expected \(JointPmf, AuxChannel\)"),
        (lambda _: mutual_information(_dsbs_full(), ("w",), ("y",)), PmfError, "unknown axis 'w'"),
        (lambda _: mutual_information(dsbs_joint(0.1), ("x",), ("y",)), PmfError, "needs a FullJoint, got JointPmf"),
        (lambda _: mutual_information(_dsbs_full(), (), ("y",)), PmfError, "needs nonempty groups A and B"),
        # a bare axis name is a one-axis group, so "x" against "x" overlaps
        (lambda _: mutual_information(_dsbs_full(), "x", "x"), PmfError, "needs disjoint groups, got 'x' and 'x'"),
        (
            lambda _: SimConfig(
                q=dsbs_joint(0.1),
                channel=AuxChannel(np.eye(2)[:, None, None, :, None].repeat(2, axis=1)),
                n=8,
                rates=SimRates(0.5, 0.25, 0.5, 0.5),
            ),
            SimulationError,
            "SimConfig: scheme uses a single auxiliary",
        ),
        (lambda _: wyner_ci(dsbs_joint(0.1).probs), PmfError, "wyner_ci: expected a JointPmf"),
        (lambda _: wyner_ci(dsbs_joint(0.1).probs, card_u=6), PmfError, "wyner_ci: expected a JointPmf"),
        (lambda _: ulsr_rate(dsbs_joint(0.1).probs), PmfError, "ulsr_rate: expected a JointPmf"),
        (lambda _: ulsr_objective(dsbs_joint(0.1), dsbs_joint(0.1)), PmfError, r"ulsr_objective: expected \(JointPmf, AuxChannel\)"),
    ],
    ids=["labels", "ragged-joint", "ragged-channel", "axis-group", "aux-source", "codebooks", "run-trials",
         "ulsr-rate-form", "ulsr-objective-form", "tv-strings", "entropy-string", "entropy-ragged", "entropy-dict",
         "marginal-none", "marginal-int", "marginal-nested", "degenerate-negative", "degenerate-float",
         "degenerate-bool", "save-joint-none", "save-aux-none", "states-strings", "states-ragged", "states-float",
         "states-nan", "states-bool", "rows-string", "rows-ragged", "rows-float", "rows-bool", "pmf-empty",
         "pmf-nan", "pmf-2d", "channel-2d", "full-joint-2d", "marginal-array", "marginal-duplicate",
         "marginal-three", "compose-array", "mi-unknown-axis", "mi-joint-pmf", "mi-empty-group", "mi-bare-name",
         "sim-side-aux", "wyner-array", "no-sr-array", "ulsr-rate-array", "ulsr-objective-joint"],
)
def test_library_calls_refuse_bad_arguments_with_typed_errors(tmp_path, call, error, match):
    with pytest.raises(error, match=match):
        call(tmp_path)


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

    @pytest.mark.parametrize("a", [False, True, "0.1", None, np.array([0.1, 0.1])])
    def test_non_real_crossover(self, a):
        # False would build the a = 0 source, and a string would raise TypeError
        with pytest.raises(PmfError, match="dsbs_joint: crossover must lie in"):
            dsbs_joint(a)

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

    @pytest.mark.parametrize(
        "p, q, name",
        [(None, None, "p"), ([0.5, np.nan], [0.5, 0.5], "p"), ([0.5, 0.5], [np.inf, 0.5], "q")],
        ids=["none", "nan", "inf"],
    )
    def test_non_finite_is_refused(self, p, q, name):
        # numpy reads None as nan; a nan or inf entry would make the distance nan or inf
        with pytest.raises(PmfError, match=f"tv_distance: {name} has a non-finite entry"):
            tv_distance(p, q)

    def test_same_symbols_in_another_order_are_aligned(self):
        # one distribution, its x rows listed in the other order
        p = JointPmf([[0.4, 0.1], [0.2, 0.3]], labels_x=["a", "b"], labels_y=["0", "1"])
        q = JointPmf([[0.2, 0.3], [0.4, 0.1]], labels_x=["b", "a"], labels_y=["0", "1"])
        assert tv_distance(p, q) == 0.0 and tv_distance(q, p) == 0.0
        r = JointPmf([[0.3, 0.2], [0.1, 0.4]], labels_x=["b", "a"], labels_y=["1", "0"])
        assert tv_distance(p, r) == 0.0
        assert tv_distance(p, JointPmf(q.probs)) == pytest.approx(0.4, abs=1e-15)  # unlabeled: by position

    @pytest.mark.parametrize(
        "labels_x, labels_y, axis",
        [(["b", "c"], ["0", "1"], "x"), (["a", "b"], ["0", "2"], "y")],
        ids=["other-x", "other-y"],
    )
    def test_different_symbols_are_refused(self, labels_x, labels_y, axis):
        p = JointPmf([[0.4, 0.1], [0.2, 0.3]], labels_x=["a", "b"], labels_y=["0", "1"])
        q = JointPmf(p.probs, labels_x=labels_x, labels_y=labels_y)
        with pytest.raises(PmfError, match=f"tv_distance: q's {axis} symbols .* are not p's .* reordered"):
            tv_distance(p, q)

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
        full = compose(q, AuxChannel(rows))
        pu_eq_x = sum(full.probs[x, y, x, 0, 0] for x in range(2) for y in range(2))
        assert pu_eq_x == pytest.approx(1.0, abs=1e-15)

    def test_equals_cellwise_chain_rule(self):
        # equal bit for bit to the cell-by-cell chain rule, zero-mass cells included
        rng = np.random.default_rng(4)
        p = rng.random((3, 2)) * (rng.random((3, 2)) < 0.7)
        p[0, 0] += 0.1
        q = JointPmf(p / p.sum())
        rows = rng.random((3, 2, 2, 3, 2))
        aux = AuxChannel(rows / rows.sum(axis=(2, 3, 4), keepdims=True))
        expect = np.zeros(aux.probs.shape)
        for x in range(3):
            for y in range(2):
                if q.probs[x, y] != 0.0:
                    expect[x, y] = q.probs[x, y] * aux.probs[x, y]
        assert np.array_equal(compose(q, aux).probs, expect)

    def test_rows_within_sum_tolerance_compose(self, tmp_path):
        # a channel file written to 10 decimals: each row sums to 1 - 1e-10,
        # which AuxChannel accepts, so the composition is accepted too and its
        # (x, y) marginal is within q(x,y) * SUM_TOL of q
        q = JointPmf(np.array([[0.5, 0.5], [0.0, 0.0]]))
        path = tmp_path / "aux.json"
        row = [0.3333333333] * 3
        path.write_text(json.dumps({"card_u": 3, "cond": {"0,0": row, "0,1": row}}))
        full = compose(q, load_aux_channel(path, q))
        assert np.all(np.abs(full.probs.sum(axis=(2, 3, 4)) - q.probs) <= q.probs * SUM_TOL)
        assert np.abs(full.probs.sum(axis=(2, 3, 4)) - q.probs).max() > 1e-12

    def test_factors_near_sum_tolerance_compose(self):
        # source and rows each sum to 1 + 9e-10, within SUM_TOL; the product
        # sums to about 1 + 1.8e-9, and compose neither refuses nor renormalizes it
        q, aux = near_tolerance_pair()
        full = compose(q, aux)
        assert full.probs.sum() - 1.0 > SUM_TOL
        assert np.array_equal(full.probs, q.probs[:, :, None, None, None] * aux.probs)
        assert not full.probs.flags.writeable
        # built from outside input, the same table is still refused
        with pytest.raises(PmfError, match="FullJoint: entries sum to"):
            FullJoint(np.array(full.probs))

    def test_grid_must_match_source(self):
        with pytest.raises(PmfError, match="does not match source shape"):
            compose(dsbs_joint(0.2), degenerate_channel(3, 2))

    def test_missing_row_on_support(self, tmp_path):
        # rows are resolved against the source when a channel file is loaded
        path = tmp_path / "aux.json"
        path.write_text(json.dumps({"card_u": 1, "cond": {"0,0": [1.0]}}))
        with pytest.raises(PmfError, match=r"missing conditional row for support cell \(0, 1\)"):
            load_aux_channel(path, dsbs_joint(0.2))

    def test_table_cap_is_checked_before_rows_are_read(self, tmp_path):
        # one listed row of a 3 x 3 source; the other eight cells would become
        # full rows, so the table's size, not the file's, is what is capped
        q = JointPmf(np.diag([1.0, 0.0, 0.0]))
        path = tmp_path / "aux.json"
        at_cap = AUX_TABLE_BYTES_CAP // (8 * 9)
        path.write_text(json.dumps({"card_u": at_cap, "cond": {"0,0": [1.0]}}))
        # at the cap the rows are read: this one has the wrong size
        with pytest.raises(PmfError, match="row '0,0' has 1 entries"):
            load_aux_channel(path, q)
        path.write_text(json.dumps({"card_u": at_cap + 1, "cond": {"0,0": [1.0]}}))
        need = 8 * 9 * (at_cap + 1)
        assert need > AUX_TABLE_BYTES_CAP
        message = rf"a 3x3 table of \({at_cap + 1}, 1, 1\) rows needs {need} bytes, cap is {AUX_TABLE_BYTES_CAP}"
        with pytest.raises(PmfError, match=message):
            load_aux_channel(path, q)

    def test_missing_row_off_support_is_fine(self, tmp_path):
        q = JointPmf(np.array([[0.5, 0.5], [0.0, 0.0]]))
        path = tmp_path / "aux.json"
        path.write_text(json.dumps({"card_u": 2, "cond": {"0,0": [0.5, 0.5], "0,1": [0.2, 0.8], "5,5": [1, 0]}}))
        aux = load_aux_channel(path, q)
        assert np.array_equal(aux.probs[1, :, :, 0, 0], np.full((2, 2), 0.5))
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
        back = load_aux_channel(path, dsbs_joint(0.1))
        assert back.card_u == 2 and back.card_u1 == 1 and back.card_u2 == 1
        assert np.array_equal(back.probs, aux.probs)

    @pytest.mark.parametrize(
        "doc",
        [
            {"alphabet_x": 5, "alphabet_y": ["0"], "pmf": [[1.0]]},
            {"pmf": [[0.5], [0.25, 0.25]]},
            {"pmf": {"0": 1.0}},
            [1, 2],
            {"alphabet_x": "ab", "pmf": [[0.5], [0.5]]},
            {"alphabet_x": {"a": 1}, "pmf": [[1.0]]},
            {"pmf": [[10**400]]},
            "[" * 100000,
            # numpy reads true and false as 1 and 0, and parses numeric strings
            {"pmf": [[True, False]]},
            {"pmf": [[True, 0.0]]},
            {"pmf": [[0.5, 0.5], [False, 0]]},
            {"pmf": [["0.5", "0.5"]]},
        ],
        ids=["alphabet-int", "ragged", "pmf-object", "not-object", "alphabet-string", "alphabet-object", "entry-overflow",
             "deep-nesting", "entry-bool", "entry-mixed-bool", "entry-false", "entry-string"],
    )
    def test_malformed_joint_is_pmf_error(self, tmp_path, doc):
        path = tmp_path / "q.json"
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        with pytest.raises(PmfError, match="load_joint_pmf"):
            load_joint_pmf(path)

    @pytest.mark.parametrize("pmf", [[0.5, 0.5], [[[1.0]]], 1.0], ids=["vector", "cube", "scalar"])
    def test_pmf_must_be_a_matrix(self, tmp_path, pmf):
        # JointPmf makes the one shape check
        path = tmp_path / "q.json"
        path.write_text(json.dumps({"pmf": pmf}))
        with pytest.raises(PmfError, match="JointPmf: expected 2-d matrix"):
            load_joint_pmf(path)

    @pytest.mark.parametrize(
        "doc",
        [
            {"card_u": 2, "cond": [1, 2]},
            {"card_u": 2, "cond": {"0,0": [1.0]}},
            {"card_u": 1, "cond": {"0,0": {"u": 1.0}}},
            '{"card_u": 1e400, "cond": {"0,0": [1.0]}}',
            {"card_u": 10**12, "cond": {}},
            {"card_u": 2.7, "cond": {"0,0": [0.5, 0.5]}},
            {"card_u": True, "cond": {"0,0": [1.0]}},
            {"card_u": 1, "cond": {"0,0": [1.0], "-1,0": [1.0]}},
            {"card_u": 2, "cond": {"0,0": [True, False]}},
            {"card_u": 2, "cond": {"0,0": [0.0, True]}},
            {"card_u": 1, "cond": {"0,0": ["1"]}},
        ],
        ids=["cond-list", "row-size", "row-object", "card-overflow", "card-huge", "card-float", "card-bool",
             "negative-index", "row-bool", "row-mixed-bool", "row-string"],
    )
    def test_malformed_aux_is_pmf_error(self, tmp_path, doc):
        path = tmp_path / "aux.json"
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        with pytest.raises(PmfError, match="load_aux_channel"):
            load_aux_channel(path, JointPmf(np.array([[1.0]])))

    @pytest.mark.parametrize(
        "text, match",
        [
            ('{"alphabet_x": ["a", "a"], "pmf": [[0.5, 0.5], [0, 0]]}', "JointPmf: labels_x names symbol 'a' twice"),
            ('{"alphabet_y": ["1", "1"], "pmf": [[0.5, 0.5]]}', "JointPmf: labels_y names symbol '1' twice"),
            ('{"pmf": [[0.5, 0.5]], "pmf": [[1.0]]}', "load_joint_pmf: cannot parse .*: key 'pmf' is given twice"),
        ],
        ids=["alphabet-x", "alphabet-y", "key"],
    )
    def test_joint_file_names_each_symbol_and_key_once(self, tmp_path, text, match):
        path = tmp_path / "q.json"
        path.write_text(text)
        with pytest.raises(PmfError, match=match):
            load_joint_pmf(path)

    @pytest.mark.parametrize(
        "cond, match",
        [
            ('{"0,0": [1.0], " 0,0": [1.0]}', r"load_aux_channel: cell \(0, 0\) is given twice, the second time as key ' 0,0'"),
            ('{"0,0": [1.0], "0,0": [1.0]}', "load_aux_channel: cannot parse .*: key '0,0' is given twice"),
            ('{"0,0": [1.0], "3,1": [1.0], "3, 1": [1.0]}', r"load_aux_channel: cell \(3, 1\) is given twice"),
        ],
        ids=["two-keys", "one-key", "off-grid"],
    )
    def test_aux_cell_given_twice_is_refused(self, tmp_path, cond, match):
        # json keeps the last of two equal keys, and two keys of one cell would keep the last row read
        path = tmp_path / "aux.json"
        path.write_text('{"card_u": 1, "cond": %s}' % cond)
        with pytest.raises(PmfError, match=match):
            load_aux_channel(path, JointPmf(np.array([[1.0]])))

    def test_aux_bad_key(self, tmp_path):
        path = tmp_path / "aux.json"
        path.write_text(json.dumps({"card_u": 1, "card_u1": 1, "card_u2": 1,
                                    "cond": {"zero": [1.0]}}))
        with pytest.raises(PmfError):
            load_aux_channel(path, JointPmf(np.array([[1.0]])))


class TestRevalidation:
    """Constructor outputs satisfy their own invariants when rebuilt."""

    def test_full_joint_revalidates(self):
        full = compose(dsbs_joint(0.3), dsbs_wyner_channel(0.3))
        FullJoint(np.array(full.probs))

    def test_joint_revalidates(self):
        q = dsbs_joint(0.17)
        JointPmf(np.array(q.probs), labels_x=q.labels_x, labels_y=q.labels_y)
