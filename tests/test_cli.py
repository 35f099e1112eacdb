import io
import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import coordrate
from conftest import in_new_thread
from coordrate import _seeding
from coordrate.cli import build_parser, dispatch, main
from coordrate.dsbs import CURVE_POINTS_CAP, curve_csv_lines, dsbs_wyner_channel, emit_curve, f_of_t
from coordrate.measures import source_info
from coordrate.pmf import JointPmf, degenerate_channel, dsbs_joint, save_aux_channel, save_joint_pmf

#: a 3 x 3 source with a zero-mass cell, whose gradients the solver kernel masks
ZERO_MASS_3X3 = [[0.2, 0.1, 0.0], [0.05, 0.25, 0.1], [0.05, 0.05, 0.2]]


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = dispatch(argv, out, err)
    return code, out.getvalue(), err.getvalue()


def run_python(*args):
    """``python *args`` in a fresh process that imports coordrate from this checkout."""
    src = str(pathlib.Path(coordrate.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    dist02 = d / "dsbs02.json"
    save_joint_pmf(dsbs_joint(0.2), dist02)
    dist01 = d / "dsbs01.json"
    save_joint_pmf(dsbs_joint(0.1), dist01)
    aux02 = d / "pstar02.json"
    save_aux_channel(dsbs_wyner_channel(0.2), aux02)
    return {"d": d, "dist02": str(dist02), "dist01": str(dist01), "aux02": str(aux02)}


class TestInfo:
    def test_mutual_information(self, files):
        code, out, _ = run(["info", "--dist", files["dist02"], "--measure", "mi"])
        assert code == 0
        assert out.strip() == "0.278071905112638"

    def test_entropy(self, files):
        code, out, _ = run(["info", "--dist", files["dist02"], "--measure", "entropy"])
        assert code == 0
        assert float(out) == pytest.approx(1.721928094887362, abs=1e-12)

    def test_dsbs_01_values(self, tmp_path):
        # the printed lines are those of the composed degenerate channel and of entropy(Pmf(ravel))
        dist = tmp_path / "dsbs.json"
        dist.write_text('{"pmf": [[0.45, 0.05], [0.05, 0.45]]}')
        assert run(["info", "--dist", str(dist), "--measure", "mi"]) == (0, "0.531004406410719\n", "")
        assert run(["info", "--dist", str(dist), "--measure", "entropy"]) == (0, "1.46899559358928\n", "")

    def test_tv_needs_second_dist(self, files):
        code, _, err = run(["info", "--dist", files["dist02"], "--measure", "tv"])
        assert code == 1 and "dist2" in err

    @pytest.mark.parametrize("measure", ["mi", "entropy"])
    def test_second_dist_needs_tv(self, files, measure):
        # --dist2 is read by tv only; elsewhere it is a usage error, even for a missing file
        code, out, err = run(["info", "--dist", files["dist02"], "--measure", measure, "--dist2", "missing.json"])
        assert code == 1 and out == ""
        assert err.splitlines()[0] == "error: info --measure tv needs --dist2, and only tv reads it"
        assert err.splitlines()[1].startswith("usage: coordrate")

    def test_tv(self, files):
        code, out, _ = run(["info", "--dist", files["dist02"], "--measure", "tv",
                            "--dist2", files["dist01"]])
        assert code == 0
        # four cells differing by 0.05 each
        assert float(out) == pytest.approx(0.1, abs=1e-12)

    @pytest.mark.parametrize(
        "labels_x, code, stdout", [(["b", "a"], 0, "0\n"), (["b", "c"], 1, "")], ids=["reordered", "other-symbols"]
    )
    def test_tv_compares_symbols_not_positions(self, tmp_path, labels_x, code, stdout):
        # file b lists a's x rows in the other order; by position the distance would read 0.4
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        a.write_text(json.dumps({"pmf": [[0.4, 0.1], [0.2, 0.3]], "alphabet_x": ["a", "b"], "alphabet_y": ["0", "1"]}))
        b.write_text(json.dumps({"pmf": [[0.2, 0.3], [0.4, 0.1]], "alphabet_x": labels_x, "alphabet_y": ["0", "1"]}))
        got = run(["info", "--dist", str(a), "--measure", "tv", "--dist2", str(b)])
        assert got[:2] == (code, stdout)
        assert got[2] == ("" if code == 0 else "error: tv_distance: q's x symbols ['b', 'c'] are not p's ['a', 'b'] reordered\n")

    def test_tv_refuses_a_repeated_symbol(self, tmp_path):
        # against itself, such a file read 0 by position
        dup = tmp_path / "dup.json"
        dup.write_text(json.dumps({"pmf": [[0.4, 0.1], [0.2, 0.3]], "alphabet_x": ["a", "a"]}))
        got = run(["info", "--dist", str(dup), "--measure", "tv", "--dist2", str(dup)])
        assert got == (1, "", "error: JointPmf: labels_x names symbol 'a' twice\n")

    def test_boolean_probabilities_are_refused(self, tmp_path):
        # numpy would read the table as [[1, 0]] and the measure print 0
        bad = tmp_path / "bool.json"
        bad.write_text('{"pmf": [[true, false]]}')
        code, out, err = run(["info", "--dist", str(bad), "--measure", "mi"])
        assert code == 1 and out == "" and "entries must be JSON numbers, got True" in err

    def test_missing_file(self):
        code, _, err = run(["info", "--dist", "/no/such.json", "--measure", "mi"])
        assert code == 1 and "error" in err


class TestSolvers:
    def test_wyner_value(self, files):
        code, out, _ = run(["wyner", "--dist", files["dist01"], "--card", "2",
                            "--restarts", "8", "--seed", "0"])
        assert code == 0
        assert float(out) == pytest.approx(0.872760566800152, abs=1e-3)

    def test_wyner_reproducible(self, files):
        args = ["wyner", "--dist", files["dist02"], "--card", "2", "--restarts", "4", "--seed", "11"]
        assert run(args) == run(args)

    def test_ulsr_value(self, files):
        code, out, _ = run(["ulsr", "--dist", files["dist01"], "--form", "maxavg",
                            "--restarts", "8", "--seed", "0"])
        assert code == 0
        assert 0.25 <= float(out) <= 0.300527573378146 + 1e-3

    def test_ulsr_maxpair_value(self, files):
        # the pair form lands in the same acceptance band [0.25, f(t*) + 1e-3]
        code, out, err = run(["ulsr", "--dist", files["dist01"], "--form", "maxpair", "--restarts", "8"])
        assert code == 0 and err == ""
        assert 0.25 <= float(out) <= 0.300527573378146 + 1e-3

    def test_solvers_on_a_zero_mass_cell(self, tmp_path):
        # wyner lands in [I(X;Y), min(H(X), H(Y))] +- 1e-6; ulsr prints a finite value
        dist = tmp_path / "zero.json"
        dist.write_text(json.dumps({"pmf": ZERO_MASS_3X3}))
        hx, hy, ixy = source_info(JointPmf(np.array(ZERO_MASS_3X3)))
        code, out, err = run(["wyner", "--dist", str(dist), "--restarts", "8"])
        assert code == 0 and err == ""
        assert ixy - 1e-6 <= float(out) <= min(hx, hy) + 1e-6
        code, out, err = run(["ulsr", "--dist", str(dist), "--restarts", "8"])
        assert code == 0 and err == "" and math.isfinite(float(out))

    def test_ulsr_on_an_edge_crossover(self, tmp_path):
        # DSBS(5e-10): inside the channel family's range (0, 1/2), outside the closed-form curve's
        dist = tmp_path / "edge.json"
        dist.write_text(json.dumps({"pmf": [[0.49999999975, 2.5e-10], [2.5e-10, 0.49999999975]]}))
        code, out, err = run(["ulsr", "--dist", str(dist), "--restarts", "4"])
        assert code == 0 and err == ""
        assert 0.0 <= float(out) <= 0.5

    @pytest.mark.parametrize(
        "argv",
        [["wyner", "--card", "2000000000"], ["ulsr", "--restarts", "1000000000"]],
        ids=["wyner-card", "ulsr-restarts"],
    )
    def test_batch_beyond_cap_is_validation_error(self, files, argv):
        code, out, err = run([*argv, "--dist", files["dist02"]])
        assert code == 1 and out == ""
        assert "cap is 1073741824" in err

    @pytest.mark.parametrize("tol", ["inf", "nan"])
    def test_non_finite_tolerance_is_validation_error(self, files, tol):
        code, out, err = run(["wyner", "--dist", files["dist02"], "--tol", tol])
        assert code == 1 and out == ""
        assert "tol_objective must be finite and > 0" in err

    def test_zero_tolerance_is_validation_error(self, files):
        # --tol is one of the flags both solvers share
        code, out, err = run(["ulsr", "--dist", files["dist02"], "--tol", "0", "--restarts", "2"])
        assert code == 1 and out == ""
        assert "tol_objective must be finite and > 0, got 0.0" in err

    def test_wyner_on_a_one_row_source_is_zero(self, tmp_path):
        # X is constant, so C = 0; a value rounded below zero is reported as 0
        dist = tmp_path / "row.json"
        dist.write_text(json.dumps({"pmf": [[0.5, 0.5]]}))
        assert run(["wyner", "--dist", str(dist)]) == (0, "0\n", "")

    def test_ulsr_on_a_one_row_source_is_zero(self, tmp_path):
        # the top of its bracket [0, 0]
        dist = tmp_path / "row.json"
        dist.write_text(json.dumps({"pmf": [[0.5, 0.5]]}))
        assert run(["ulsr", "--dist", str(dist)]) == (0, "0\n", "")

    def test_wyner_infeasible_exit_code(self, files):
        # with |U| = 1 the residual I(X;Y|U) is I(X;Y), about 0.278 bits
        code, out, err = run(["wyner", "--dist", files["dist02"], "--card", "1", "--restarts", "2"])
        assert code == 2 and out == "" and "solver failure" in err


class TestDsbs:
    def test_t_star(self):
        code, out, _ = run(["dsbs", "--a", "0.1", "--tstar"])
        assert code == 0
        assert float(out) == pytest.approx(0.343436, abs=1e-4)

    def test_curve_stdout(self):
        code, out, _ = run(["dsbs", "--a", "0.2", "--points", "3"])
        lines = out.strip().split("\n")
        assert code == 0
        assert lines[0] == "t,f,i_joint,i_cond"
        assert len(lines) == 4
        assert float(lines[1].split(",")[1]) == pytest.approx(0.352952450491633, abs=1e-12)

    def test_curve_to_file(self, files):
        path = str(files["d"] / "curve.csv")
        code, out, _ = run(["dsbs", "--a", "0.1", "--points", "11", "--out", path])
        assert code == 0
        assert "wrote 11 points" in out
        rows = pathlib.Path(path).read_text().strip().split("\n")
        assert rows[0] == "t,f,i_joint,i_cond" and len(rows) == 12

    def test_curve_stdout_is_file_bytes(self, files):
        path = files["d"] / "curve-bytes.csv"
        run(["dsbs", "--a", "0.2", "--points", "7", "--out", str(path)])
        code, out, _ = run(["dsbs", "--a", "0.2", "--points", "7"])
        assert code == 0 and out.encode() == path.read_bytes()

    @pytest.mark.parametrize("extra", [["--out", "t.csv"], ["--points", "101"], ["--points", "5", "--out", "t.csv"]])
    def test_tstar_takes_no_curve_flags(self, tmp_path, monkeypatch, extra):
        # t* alone is printed, so a curve flag beside it would do nothing
        monkeypatch.chdir(tmp_path)
        code, out, err = run(["dsbs", "--a", "0.1", "--tstar", *extra])
        assert code == 1 and out == "" and not (tmp_path / "t.csv").exists()
        assert err.splitlines()[0] == "error: dsbs --tstar prints t* only; it takes neither --out nor --points"
        assert err.splitlines()[1].startswith("usage: coordrate")

    def test_curve_of_201_points(self):
        # a header and 201 rows of four finite values, t running from 0 to 1
        code, out, err = run(["dsbs", "--a", "0.1", "--points", "201"])
        lines = out.splitlines()
        assert code == 0 and err == "" and lines[0] == "t,f,i_joint,i_cond"
        rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        assert rows.shape == (201, 4) and np.isfinite(rows).all()
        assert rows[0, 0] == 0 and rows[-1, 0] == 1

    def test_default_points(self):
        code, out, _ = run(["dsbs", "--a", "0.1"])
        assert code == 0 and len(out.splitlines()) == 102

    def test_bad_a(self):
        code, _, err = run(["dsbs", "--a", "0.7", "--tstar"])
        assert code == 1

    @pytest.mark.parametrize("points", [CURVE_POINTS_CAP + 1, 10**12])
    def test_points_beyond_cap_is_validation_error(self, points):
        code, out, err = run(["dsbs", "--a", "0.1", "--points", str(points)])
        assert code == 1 and out == ""
        assert f"need 2 to {CURVE_POINTS_CAP} points" in err

    @pytest.mark.parametrize("points", [2, 3, 201])
    @pytest.mark.parametrize("a", ["0.05", "0.1", "0.1182", "0.3", "0.45"])
    def test_curve_stdout_file_and_library_agree(self, tmp_path, a, points):
        # the one row formatter serves stdout, --out and curve_csv_lines(emit_curve(...)) alike
        path = tmp_path / "curve.csv"
        code, out, _ = run(["dsbs", "--a", a, "--points", str(points)])
        assert code == 0 and run(["dsbs", "--a", a, "--points", str(points), "--out", str(path)])[0] == 0
        assert out.encode() == path.read_bytes() == "".join(curve_csv_lines(emit_curve(float(a), points))).encode()
        # unclamped rounding terms print as computed: i_cond at t = 0 for 0.1, i_joint at t = 1 for 0.1182
        if a == "0.1":
            assert out.splitlines()[1].split(",")[3] == "-2.22044604925031e-16"
        if a == "0.1182":
            assert out.splitlines()[-1].split(",")[2] == "-2.22044604925031e-16"

    def test_points_at_cap(self):
        code, out, _ = run(["dsbs", "--a", "0.1", "--points", str(CURVE_POINTS_CAP)])
        lines = out.splitlines(keepends=True)
        assert code == 0 and len(lines) == CURVE_POINTS_CAP + 1
        assert lines[-1] == list(curve_csv_lines([f_of_t(0.1, 1.0)]))[1]


class TestSharedParser:
    def test_one_parser_per_process(self):
        assert build_parser() is build_parser()

    def test_parse_error_usage_is_pinned(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        assert run(["region", "xy-equal", "--rates", "0.5,0.5"]) == (
            1,
            "",
            "error: the following arguments are required: --hx\n"
            "usage: coordrate [-h] {info,wyner,ulsr,dsbs,region,simulate} ...\n",
        )

    def test_mixed_sequence_matches_fresh_parsers(self, files, monkeypatch, tmp_path):
        # whatever one command leaves in the shared parser must not reach the next
        monkeypatch.setenv("COLUMNS", "80")
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"pmf": [[0.6, 0.6], [0.0, 0.0]]}))
        commands = [
            ["region", "xy-equal", "--rates", "0.5,0.5"],
            [],
            ["info", "--dist", str(bad), "--measure", "mi"],
            ["info", "--dist", files["dist02"], "--measure", "mi"],
            ["dsbs", "--a", "0.2", "--points", "5"],
            ["dsbs", "--a", "0.1", "--tstar"],
            ["region", "xy-equal", "--hx", "1.0", "--rates", "0.5,0.5,0.5"],
        ]
        alone = []
        for argv in commands:
            build_parser.cache_clear()
            alone.append(run(argv))
        assert [code for code, _, _ in alone] == [1, 1, 1, 0, 0, 0, 0]
        assert [run(argv) for argv in commands + commands] == alone + alone


class TestRegion:
    def test_xy_equal_member(self):
        code, out, _ = run(["region", "xy-equal", "--hx", "1.0", "--rates", "0.5,0.5,0.5"])
        assert code == 0 and out.strip() == "member"

    def test_xy_equal_nonmember(self):
        code, out, _ = run(["region", "xy-equal", "--hx", "1.0", "--rates", "0.49,10,10"])
        assert code == 0 and out.strip() == "nonmember"

    def test_check_with_channel_file(self, files):
        code, out, _ = run(["region", "check", "--dist", files["dist01"],
                            "--aux", files["aux02"].replace("pstar02", "pstar02"),
                            "--rates", "1.0,0.0,0.0"])
        # p*(a=0.2) on dsbs(0.1) is not a chain; expect validation failure
        assert code == 1

    def test_check_member(self, files):
        aux01 = str(files["d"] / "pstar01.json")
        save_aux_channel(dsbs_wyner_channel(0.1), aux01)
        code, out, _ = run(["region", "check", "--dist", files["dist01"],
                            "--aux", aux01, "--rates", "0.9,0.0,0.0"])
        assert code == 0 and out.strip() == "member"

    def test_check_accepts_each_link_within_markov_tol(self, tmp_path):
        # DSBS(0.1)'s Wyner channel mixed toward flat, I(X;Y|U) = 8.0e-7 bits:
        # the region takes each chain link, here I(X;Y|U), to MARKOV_TOL as the simulator does
        dist, aux = tmp_path / "dsbs.json", tmp_path / "near.json"
        dist.write_text(json.dumps({"pmf": [[0.45, 0.05], [0.05, 0.45]]}))
        rows = {"0,0": [0.99683832665, 0.00316167335], "0,1": [0.5, 0.5], "1,0": [0.5, 0.5],
                "1,1": [0.00316167335, 0.99683832665]}
        aux.write_text(json.dumps({"card_u": 2, "cond": rows}))
        assert run(["region", "check", "--dist", str(dist), "--aux", str(aux), "--rates", "1,1,1"]) == (0, "member\n", "")
        code, out, err = run(["simulate", "--dist", str(dist), "--aux", str(aux), "--n", "8",
                              "--rates", "1,0.25,0.5,0.5", "--trials", "5"])
        assert code == 0 and err == "" and len(out.splitlines()) == 2

    @pytest.mark.parametrize(
        "second, error",
        [
            (" 0,0", "cell (0, 0) is given twice, the second time as key ' 0,0'"),
            ("0,0", "cannot parse {aux}: key '0,0' is given twice in one object"),
        ],
        ids=["two-keys", "one-key"],
    )
    def test_cell_given_twice_is_validation_error(self, files, tmp_path, second, error):
        # DSBS(0.2)'s Wyner channel is a member at rates (1, 1, 1); a second row for
        # cell (0, 0), kept as the last one read, would make it fail the chain check
        assert run(["region", "check", "--dist", files["dist02"], "--aux", files["aux02"], "--rates", "1,1,1"]) == (0, "member\n", "")
        text = json.dumps(json.loads(pathlib.Path(files["aux02"]).read_text()))
        assert text.endswith("]}}")  # cond is the last field
        aux = tmp_path / "twice.json"
        aux.write_text(text[:-2] + f', "{second}": [0.5, 0.5]}}}}')
        got = run(["region", "check", "--dist", files["dist02"], "--aux", str(aux), "--rates", "1,1,1"])
        assert got == (1, "", f"error: load_aux_channel: {error.format(aux=aux)}\n")

    def test_channel_table_past_cap_is_validation_error(self, files, tmp_path):
        # a 2 x 2 table of 2^22 + 1 symbols a row is 32 bytes past the 2^27-byte cap; nothing is built
        aux = tmp_path / "big.json"
        aux.write_text(json.dumps({"card_u": 2**22 + 1, "cond": {}}))
        code, out, err = run(["region", "check", "--dist", files["dist02"], "--aux", str(aux), "--rates", "1,1,1"])
        assert code == 1 and out == ""
        assert err == f"error: load_aux_channel: a 2x2 table of ({2**22 + 1}, 1, 1) rows needs {2**27 + 32} bytes, cap is {2**27}\n"

    def test_bad_rates_format(self):
        code, _, err = run(["region", "xy-equal", "--hx", "1.0", "--rates", "0.5,0.5"])
        assert code == 1

    def test_non_numeric_rate_is_validation_error(self):
        code, out, err = run(["region", "xy-equal", "--hx", "1", "--rates", "1,x,2"])
        assert code == 1 and out == ""
        assert err.startswith("error: region --rates: could not convert string to float: 'x'\n")

    @pytest.mark.parametrize("hx", ["nan", "inf"])
    def test_xy_equal_non_finite_entropy(self, hx):
        code, out, err = run(["region", "xy-equal", "--hx", hx, "--rates", "1,1,1"])
        assert code == 1 and out == "" and "finite" in err


class TestSimulate:
    def test_stdout_and_reproducibility(self, files):
        args = ["simulate", "--dist", files["dist02"], "--aux", files["aux02"],
                "--n", "8", "--rates", "0.7,0.3,0.5,0.5", "--trials", "30", "--seed", "5"]
        first = run(args)
        assert first[0] == 0
        tv, fail = (float(v) for v in first[1].strip().split("\n"))
        assert 0.0 <= tv <= 1.0 and 0.0 <= fail <= 1.0
        assert run(args) == first

    def test_two_word_seed_runs(self, files):
        # 4294967301 = 2^32 + 5 keys the streams with two 32-bit words
        code, out, err = run(["simulate", "--dist", files["dist02"], "--aux", files["aux02"],
                              "--n", "8", "--rates", "0.7,0.3,0.5,0.5", "--trials", "5", "--seed", "4294967301"])
        assert code == 0 and err == "" and len(out.splitlines()) == 2

    def test_report_file(self, files):
        path = str(files["d"] / "report.json")
        code, out, _ = run(["simulate", "--dist", files["dist02"], "--aux", files["aux02"],
                            "--n", "8", "--rates", "0.7,0.3,0.5,0.5", "--trials", "20",
                            "--seed", "1", "--out", path])
        assert code == 0 and "wrote report" in out
        doc = json.loads(pathlib.Path(path).read_text())
        assert doc["trials_run"] == 20
        assert doc["config_echo"]["rates"]["r"] == pytest.approx(0.7 / 2 + 0.3)

    def test_rows_written_to_ten_decimals(self, tmp_path):
        # rows of three 0.3333333333 sum to 1 - 1e-10, within the 1e-9 row
        # tolerance, so both commands that compose the channel accept them
        dist, aux = tmp_path / "q.json", tmp_path / "aux.json"
        dist.write_text(json.dumps({"pmf": [[0.5, 0.5], [0, 0]]}))
        row = [0.3333333333] * 3
        aux.write_text(json.dumps({"card_u": 3, "cond": {"0,0": row, "0,1": row}}))
        code, out, err = run(["region", "check", "--dist", str(dist), "--aux", str(aux), "--rates", "1,1,1"])
        assert (code, out, err) == (0, "member\n", "")
        code, out, err = run(["simulate", "--dist", str(dist), "--aux", str(aux), "--n", "8",
                              "--rates", "0.5,0.25,0.5,0.5", "--trials", "5"])
        assert code == 0 and err == ""
        tv, fail = (float(v) for v in out.splitlines())
        assert 0.0 <= tv <= 1.0 and 0.0 <= fail <= 1.0

    def test_factors_near_sum_tolerance(self, tmp_path):
        # a source and channel rows that each sum to 1 + 9e-10 load, so both
        # commands that compose them run, although the product is 1.8e-9 over 1
        dist, aux = tmp_path / "q.json", tmp_path / "aux.json"
        dist.write_text(json.dumps({"pmf": [[0.45000000045, 0.05], [0.05, 0.45000000045]]}))
        rows = dsbs_wyner_channel(0.1).probs[:, :, :, 0, 0] + 4.5e-10
        aux.write_text(json.dumps({"card_u": 2, "cond": {f"{x},{y}": rows[x, y].tolist() for x in (0, 1) for y in (0, 1)}}))
        code, out, err = run(["region", "check", "--dist", str(dist), "--aux", str(aux), "--rates", "1,1,1"])
        assert (code, out, err) == (0, "member\n", "")
        code, out, err = run(["simulate", "--dist", str(dist), "--aux", str(aux), "--n", "8",
                              "--rates", "0.5,0.25,0.5,0.5", "--trials", "5"])
        assert code == 0 and err == ""
        tv, fail = (float(v) for v in out.splitlines())
        assert 0.0 <= tv <= 1.0 and 0.0 <= fail <= 1.0

    def test_markov_violation_is_validation_error(self, files):
        bad_aux = str(files["d"] / "flat.json")
        from coordrate.dsbs import interpolated_channel

        save_aux_channel(interpolated_channel(0.2, 1.0), bad_aux)
        code, _, err = run(["simulate", "--dist", files["dist02"], "--aux", bad_aux,
                            "--n", "8", "--rates", "0.7,0.3,0.5,0.5", "--trials", "5"])
        assert code == 1 and "X - U - Y" in err

    def test_state_layout_mismatch_is_validation_error(self, tmp_path, monkeypatch):
        # numpy's PCG64 state words in another order, emulated as TestStateLayout
        # does: the calling thread's first draw checks the layout and fails
        dist, aux = tmp_path / "q.json", tmp_path / "aux.json"
        save_joint_pmf(JointPmf(np.outer([0.4, 0.6], [0.3, 0.7])), dist)
        save_aux_channel(degenerate_channel(2, 2), aux)
        srandom = _seeding._srandom
        monkeypatch.setattr(_seeding, "_srandom", lambda words: srandom(words)[:, [1, 0, 3, 2]])
        code, out, err = in_new_thread(lambda: run(["simulate", "--dist", str(dist), "--aux", str(aux), "--n", "8",
                                                    "--rates", "0.5,0.25,0.5,0.5", "--trials", "5"]))
        assert (code, out) == (1, "")
        assert err.startswith("error: PCG64 seeded by a written state drew") and err.count("\n") == 1

    def test_index_set_beyond_float_range_is_validation_error(self, files):
        # 2^(4000 * 0.5) overflows a float; the cap is checked on the exponent
        code, out, err = run(["simulate", "--dist", files["dist02"], "--aux", files["aux02"],
                              "--n", "4000", "--rates", "1,0,0,0", "--trials", "1"])
        assert code == 1 and out == ""
        assert "needs 2^2000 entries, cap is 2^20" in err

    @pytest.mark.parametrize(
        "flag, value, message, command",
        [
            ("--seed", "-1", "seed must be a nonnegative integer", "simulate"),
            ("--eps", "inf", "eps_typ must be finite", "simulate"),
            ("--trials", "4294967297", "trials must lie in [1, 2^32]", "simulate"),
            ("--seed", "-5", "seed must be an integer >= 0", "ulsr"),
        ],
    )
    def test_invalid_config_is_validation_error(self, files, flag, value, message, command):
        args, owner = {
            "simulate": (["simulate", "--dist", files["dist02"], "--aux", files["aux02"],
                          "--n", "8", "--rates", "0.7,0.3,0.5,0.5", "--trials", "5"], "SimConfig"),
            "ulsr": (["ulsr", "--dist", files["dist02"], "--restarts", "2"], "SolverOptions"),
        }[command]
        code, out, err = run([*args, flag, value])
        assert code == 1 and out == "" and "Traceback" not in err
        assert err.startswith(f"error: {owner}: ") and message in err

    def test_block_bytes_beyond_cap_is_validation_error(self, files):
        # one candidate fits the index cap; one search row and one trial's
        # emitted rows of 2^24 symbols do not
        code, out, err = run(["simulate", "--dist", files["dist02"], "--aux", files["aux02"],
                              "--n", "16777216", "--rates", "0,0,0,0", "--trials", "1"])
        assert code == 1 and out == "" and "Traceback" not in err
        assert "need 1090519232 bytes, cap is 1073741824" in err

    def test_work_beyond_cap_is_validation_error(self, files):
        # 2^20 candidates of 40 symbols, tested in full by each of 103 failed
        # trials, pass the 2^32 symbols of WORK_CAP
        code, out, err = run(["simulate", "--dist", files["dist02"], "--aux", files["aux02"],
                              "--n", "40", "--rates", "0,0.5,0,0", "--trials", "103"])
        assert code == 1 and out == "" and "Traceback" not in err
        assert "= 4320133120 symbols tested when every search fails, cap is 4294967296" in err

    @pytest.mark.skipif(sys.platform != "linux", reason="reads ru_maxrss in KiB, its unit on Linux")
    def test_wide_table_peak_rss(self, tmp_path):
        # a 60 x 60 source with one cell of mass 1 and a one-row card_u = 500
        # channel: each search row is counted in a 1.8M-cell (u, x, y) table,
        # 43 MB at 24 bytes a cell, so a search part holds one row and the
        # process, which reports its own peak, stays far under 300 MB
        q = np.zeros((60, 60))
        q[0, 0] = 1.0
        dist, aux = tmp_path / "q60.json", tmp_path / "aux500.json"
        dist.write_text(json.dumps({"pmf": q.tolist()}))
        aux.write_text(json.dumps({"card_u": 500, "cond": {"0,0": [1 / 500] * 500}}))
        child = (
            "import resource, sys\n"
            "from coordrate.cli import dispatch\n"
            "code = dispatch(sys.argv[1:])\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr)\n"
            "sys.exit(code)\n"
        )
        proc = run_python("-c", child, "simulate", "--dist", str(dist), "--aux", str(aux), "--n", "8",
                          "--rates", "1,0.25,0.5,0.5", "--trials", "5")
        assert proc.returncode == 0, proc.stderr
        tv, fail = (float(v) for v in proc.stdout.splitlines())
        assert 0.0 <= tv <= 1.0 and 0.0 <= fail <= 1.0
        assert int(proc.stderr) / 1024 < 300


class TestMalformedFiles:
    """A malformed input file ends in exit 1 and one error line, never a traceback."""

    @pytest.mark.parametrize(
        "flag, doc",
        [
            ("--dist", {"alphabet_x": 5, "alphabet_y": ["0"], "pmf": [[1.0]]}),
            ("--aux", {"card_u": 2, "cond": [1, 2]}),
            ("--dist", {"pmf": [[10**400]]}),
            ("--aux", '{"card_u": 1e400, "cond": {}}'),
            ("--dist", {"pmf": [[True, False], [False, False]]}),
            ("--aux", {"card_u": 2, "cond": {f"{x},{y}": [True, False] for x in range(2) for y in range(2)}}),
        ],
        ids=["joint-alphabet", "aux-cond", "joint-overflow", "aux-overflow", "joint-bool", "aux-bool"],
    )
    def test_no_traceback(self, files, tmp_path, flag, doc):
        bad = tmp_path / "bad.json"
        bad.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        paths = {"--dist": files["dist02"], "--aux": files["aux02"], flag: str(bad)}
        proc = run_python("-m", "coordrate.cli", "region", "check", "--rates", "1,1,1",
                          "--dist", paths["--dist"], "--aux", paths["--aux"])
        assert proc.returncode == 1 and proc.stdout == ""
        assert "Traceback" not in proc.stderr and proc.stderr.startswith("error: load_")


class TestUsageErrors:
    def test_unknown_subcommand(self):
        code, _, err = run(["frobnicate"])
        assert code == 1 and "usage" in err

    def test_unknown_flag(self):
        code, _, err = run(["dsbs", "--a", "0.1", "--bogus"])
        assert code == 1


@pytest.mark.parametrize("flag, code", [("--tstar", 0), ("--bogus", 1)], ids=["tstar", "unknown-flag"])
def test_main_exits_with_dispatch_code(monkeypatch, capsys, flag, code):
    # the console script's entry point: its argv in, dispatch's streams and code out
    monkeypatch.setattr(sys, "argv", ["coordrate", "dsbs", "--a", "0.1", flag])
    with pytest.raises(SystemExit) as exit_:
        main()
    assert exit_.value.code == code
    assert capsys.readouterr() == run(["dsbs", "--a", "0.1", flag])[1:]
