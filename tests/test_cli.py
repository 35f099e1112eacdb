import io
import json
import os
import pathlib
import subprocess
import sys

import pytest

import coordrate
from coordrate.cli import dispatch
from coordrate.dsbs import CURVE_POINTS_CAP
from coordrate.pmf import dsbs_joint, save_aux_channel, save_joint_pmf
from coordrate.wyner import dsbs_wyner_channel


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = dispatch(argv, out, err)
    return code, out.getvalue(), err.getvalue()


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

    def test_tv_needs_second_dist(self, files):
        code, _, err = run(["info", "--dist", files["dist02"], "--measure", "tv"])
        assert code == 1 and "dist2" in err

    def test_tv(self, files):
        code, out, _ = run(["info", "--dist", files["dist02"], "--measure", "tv",
                            "--dist2", files["dist01"]])
        assert code == 0
        # four cells differing by 0.05 each
        assert float(out) == pytest.approx(0.1, abs=1e-12)

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
        rows = open(path).read().strip().split("\n")
        assert rows[0] == "t,f,i_joint,i_cond" and len(rows) == 12

    def test_bad_a(self):
        code, _, err = run(["dsbs", "--a", "0.7", "--tstar"])
        assert code == 1

    @pytest.mark.parametrize("points", [CURVE_POINTS_CAP + 1, 10**12])
    def test_points_beyond_cap_is_validation_error(self, points):
        code, out, err = run(["dsbs", "--a", "0.1", "--points", str(points)])
        assert code == 1 and out == ""
        assert f"need 2 to {CURVE_POINTS_CAP} points" in err

    def test_points_at_cap(self, monkeypatch):
        # a cheap stand-in for the closed forms keeps the full-size run short
        import coordrate.dsbs as dsbs

        monkeypatch.setattr(dsbs, "f_of_t", lambda a, t: dsbs.CurvePoint(t=t, f=1.0, i_joint=1.0, i_cond=1.0))
        code, out, _ = run(["dsbs", "--a", "0.1", "--points", str(CURVE_POINTS_CAP)])
        assert code == 0 and out.count("\n") == CURVE_POINTS_CAP + 1


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

    def test_bad_rates_format(self):
        code, _, err = run(["region", "xy-equal", "--hx", "1.0", "--rates", "0.5,0.5"])
        assert code == 1

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

    def test_report_file(self, files):
        path = str(files["d"] / "report.json")
        code, out, _ = run(["simulate", "--dist", files["dist02"], "--aux", files["aux02"],
                            "--n", "8", "--rates", "0.7,0.3,0.5,0.5", "--trials", "20",
                            "--seed", "1", "--out", path])
        assert code == 0 and "wrote report" in out
        doc = json.loads(open(path).read())
        assert doc["trials_run"] == 20
        assert doc["config_echo"]["rates"]["r"] == pytest.approx(0.7 / 2 + 0.3)

    def test_markov_violation_is_validation_error(self, files):
        bad_aux = str(files["d"] / "flat.json")
        from coordrate.dsbs import interpolated_channel

        save_aux_channel(interpolated_channel(0.2, 1.0), bad_aux)
        code, _, err = run(["simulate", "--dist", files["dist02"], "--aux", bad_aux,
                            "--n", "8", "--rates", "0.7,0.3,0.5,0.5", "--trials", "5"])
        assert code == 1 and "X - U - Y" in err

    def test_index_set_beyond_float_range_is_validation_error(self, files):
        # 2^(4000 * 0.5) overflows a float; the cap is checked on the exponent
        code, out, err = run(["simulate", "--dist", files["dist02"], "--aux", files["aux02"],
                              "--n", "4000", "--rates", "1,0,0,0", "--trials", "1"])
        assert code == 1 and out == ""
        assert "needs 2^2000 entries, cap is 2^20" in err

    def test_block_bytes_beyond_cap_is_validation_error(self, files):
        # 2^(40 * 0.5) candidates fit the index cap; their 40-symbol blocks do not
        code, out, err = run(["simulate", "--dist", files["dist02"], "--aux", files["aux02"],
                              "--n", "40", "--rates", "0,0.5,0,0", "--trials", "1"])
        assert code == 1 and out == ""
        assert "blocks need 1342177280 bytes, cap is 1073741824" in err


class TestMalformedFiles:
    """A malformed input file ends in exit 1 and one error line, never a traceback."""

    @pytest.mark.parametrize(
        "flag, doc",
        [("--dist", {"alphabet_x": 5, "alphabet_y": ["0"], "pmf": [[1.0]]}), ("--aux", {"card_u": 2, "cond": [1, 2]})],
        ids=["joint-alphabet", "aux-cond"],
    )
    def test_no_traceback(self, files, tmp_path, flag, doc):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        paths = {"--dist": files["dist02"], "--aux": files["aux02"], flag: str(bad)}
        src = str(pathlib.Path(coordrate.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-m", "coordrate.cli", "region", "check", "--rates", "1,1,1",
             "--dist", paths["--dist"], "--aux", paths["--aux"]],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 1 and proc.stdout == ""
        assert "Traceback" not in proc.stderr and proc.stderr.startswith("error: load_")


class TestUsageErrors:
    def test_unknown_subcommand(self):
        code, _, err = run(["frobnicate"])
        assert code == 1 and "usage" in err

    def test_unknown_flag(self):
        code, _, err = run(["dsbs", "--a", "0.1", "--bogus"])
        assert code == 1
