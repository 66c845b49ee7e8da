import json
import os
import subprocess
import sys

import numpy as np
import pytest
from click.testing import CliRunner

import relayosc
from relayosc.cli import main


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, args):
    return runner.invoke(main, args, catch_exceptions=False)


class TestClassify:
    def test_brl_urf_plant(self, runner):
        res = invoke(runner, ["classify", "--num", "1,-1", "--den", "6,5,1"])
        assert res.exit_code == 0
        payload = json.loads(res.output)
        assert payload["is_brl_urf"] is True
        assert payload["schema_version"] == 1

    def test_first_order_not_brl(self, runner):
        res = invoke(runner, ["classify", "--num", "1", "--den", "1,1"])
        assert res.exit_code == 0
        assert json.loads(res.output)["is_brl_urf"] is False

    def test_malformed_exits_2(self, runner):
        res = runner.invoke(main, ["classify", "--num", "1,x", "--den", "6,5,1"])
        assert res.exit_code == 2

    def test_improper_exits_2(self, runner):
        res = runner.invoke(main, ["classify", "--num", "1,2,3", "--den", "1,1"])
        assert res.exit_code == 2

    def test_descending_flag(self, runner):
        res = invoke(runner, ["classify", "--num", "-1,1", "--den",
                              "1,5,6", "--descending"])
        assert json.loads(res.output)["is_brl_urf"] is True

    def test_plant_file(self, runner, tmp_path):
        f = tmp_path / "plant.json"
        f.write_text(json.dumps({"num": [1, -1], "den": [6, 5, 1]}))
        res = invoke(runner, ["classify", "--plant-file", str(f)])
        assert json.loads(res.output)["is_brl_urf"] is True


PLANT = ["--num", "1,-1", "--den", "6,5,1"]


class TestEncoding:
    """Real spectra as [re, 0.0] pairs, integer CSV columns as integers."""

    @pytest.mark.parametrize("args, keys", [
        (["classify"], [("poles",), ("zeros",)]),
        (["find-orbit"], [("floquet_multipliers",)]),
        (["monodromy"], [("exact", "floquet_multipliers")]),
    ])
    def test_real_spectrum_as_pairs(self, runner, args, keys):
        payload = json.loads(invoke(runner, args + PLANT).output)
        for path in keys:
            values = payload
            for key in path:
                values = values[key]
            assert values and all(len(v) == 2 and v[1] == 0.0 for v in values)

    def test_integer_columns(self, runner, tmp_path):
        out = tmp_path / "traj.csv"
        invoke(runner, ["simulate", *PLANT, "--x0", "0.4,0.2", "--t-end", "10",
                        "--out", str(out)])
        flags = [r.split(",")[-1] for r in out.read_text().splitlines()[2:]]
        assert set(flags) == {"0", "1"}
        rows = [r.split(",") for r in invoke(runner, [
            "poincare-survey", *PLANT, "--count", "20"]).output.splitlines()[2:]]
        assert [r[0] for r in rows] == [str(i) for i in range(len(rows))]
        assert {r[-1] for r in rows} <= {"0", "1"} and len(rows) > 0


class TestArtifacts:
    def test_simulate_csv(self, runner, tmp_path):
        out = tmp_path / "traj.csv"
        ev = tmp_path / "events.json"
        res = invoke(runner, ["simulate", "--num", "1,-1", "--den", "6,5,1",
                              "--x0", "0.4,0.2", "--t-end", "10",
                              "--out", str(out), "--events-out", str(ev)])
        assert res.exit_code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# relayosc 0.1.0")
        assert lines[1].startswith("t,x_1,x_2,u,is_switch")
        payload = json.loads(ev.read_text())
        assert payload["schema_version"] == 1
        assert len(payload["events"]) > 3

    def test_bounds_json(self, runner):
        res = invoke(runner, ["bounds", "--num", "1,-1", "--den", "6,5,1"])
        payload = json.loads(res.output)
        assert payload["t_min_inter_switch"] > 0
        assert payload["k_iterations"] >= 1

    def test_find_orbit(self, runner):
        res = invoke(runner, ["find-orbit", "--num", "1,-1", "--den", "6,5,1"])
        payload = json.loads(res.output)
        assert payload["half_period"] == pytest.approx(1.2484861258633184, abs=1e-9)
        assert payload["is_symmetric_unimodal"] is True
        assert len(payload["floquet_multipliers"]) == 2

    def test_find_orbit_near_zero_cb(self, runner):
        # C B = 1e-14, at the edge between relative degrees one and two: the
        # trivial multiplier stays at roundoff
        res = invoke(runner, ["find-orbit", "--num", "1,-1,1e-14", "--den", "6,5,3,1"])
        assert res.exit_code == 0
        assert json.loads(res.output)["trivial_multiplier_error"] < 1e-12

    def test_root_locus_crossing(self, runner):
        res = invoke(runner, ["root-locus", "--num", "1,-1,0",
                              "--den", "6,5,3,1", "--gamma-max", "100"])
        payload = json.loads(res.output)
        cross = payload["crossings"][0]
        assert cross["gamma0"] == pytest.approx(2.25, rel=1e-6)
        assert cross["omega0"] == pytest.approx(np.sqrt(2.75), rel=1e-6)

    def test_fixed_point(self, runner):
        res = invoke(runner, ["fixed-point", "--num", "1,-1", "--den", "6,5,1",
                              "--seed", "4"])
        payload = json.loads(res.output)
        assert payload["converged"] is True
        assert payload["x_hat"][0] == pytest.approx(1.2717878724166791, abs=1e-8)

    def test_sfs_sim_csv(self, runner, tmp_path):
        out = tmp_path / "sfs.csv"
        res = invoke(runner, ["sfs-sim", "--num", "1,-1", "--den", "6,5,1",
                              "--gamma", "100", "--x0", "0.1,0.1",
                              "--t-end", "5", "--out", str(out)])
        assert res.exit_code == 0
        lines = out.read_text().splitlines()
        assert lines[1] == "t,x_1,x_2,u,y"

    @pytest.mark.parametrize("t_end, dense_dt, rows", [
        (1.0, 0.3, 5), (1.0, 5.0, 2), (0.9, 0.3, 4), (1.0, 0.25, 5), (1.2, 0.25, 6)])
    def test_sfs_sim_ends_at_t_end(self, runner, t_end, dense_dt, rows):
        # t_end less than dense_dt / 2 past a grid point, or a roundoff
        # short of one (3 * 0.3 < 0.9), or past one by more
        res = invoke(runner, ["sfs-sim", "--num", "1,-1", "--den", "6,5,1",
                              "--gamma", "1e3", "--x0", "0.1,0.1", "--t-end", str(t_end),
                              "--dense-dt", str(dense_dt)])
        assert res.exit_code == 0
        t = [float(line.split(",")[0]) for line in res.output.splitlines()[2:]]
        assert len(t) == rows and t[0] == 0.0 and t[-1] == t_end
        assert all(b - a >= 0.1 * dense_dt for a, b in zip(t, t[1:]))

    def test_sfs_sim_keeps_start_before_tiny_t_end(self, runner):
        # t_end far below 1e-6 dense_dt: the start row stays and t_end is added
        res = invoke(runner, ["sfs-sim", "--num", "1,-1", "--den", "6,5,1",
                              "--gamma", "1e3", "--x0", "0.1,0.1", "--t-end", "4e-9"])
        assert res.exit_code == 0
        rows = [line.split(",") for line in res.output.splitlines()[2:]]
        assert [float(r[0]) for r in rows] == [0.0, 4e-9]
        assert rows[0][1:3] == ["0.1", "0.1"]

    def test_sfs_sim_unstable_plant_within_its_span(self, runner):
        # 1/(s - 10) from x0 = 100 never returns to the tanh layer: the
        # affine flow (100 - 0.1) e^{10 t} + 0.1, its exit search marching
        # no further than t_end
        res = invoke(runner, ["sfs-sim", "--num", "1", "--den=-10,1", "--gamma", "1",
                              "--x0", "100", "--t-end", "1"])
        assert res.exit_code == 0
        t, x = (float(v) for v in res.output.splitlines()[-1].split(",")[:2])
        assert t == 1.0
        assert x == pytest.approx((100 - 0.1) * np.exp(10.0) + 0.1, rel=1e-12, abs=0.0)

    def test_monodromy(self, runner):
        res = invoke(runner, ["monodromy", "--num", "1,-1", "--den", "6,5,1",
                              "--gamma", "100"])
        payload = json.loads(res.output)
        assert payload["exact"]["det"] == pytest.approx(
            payload["exact"]["det_limit_formula"], rel=1e-8)
        assert payload["floquet"]["trivial_multiplier_error"] < 1e-6

    def test_poincare_survey_csv(self, runner, tmp_path):
        out = tmp_path / "survey.csv"
        res = invoke(runner, ["poincare-survey", "--num", "1,-1", "--den", "6,5,1",
                              "--count", "50", "--k", "1", "--seed", "7",
                              "--out", str(out)])
        assert res.exit_code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 52  # comment + header + 50 rows

    def test_poincare_survey_stdout_matches_file(self, runner, tmp_path):
        out = tmp_path / "survey.csv"
        args = ["poincare-survey", "--num", "1,-1", "--den", "6,5,1",
                "--count", "20", "--seed", "7"]
        invoke(runner, args + ["--out", str(out)])
        res = invoke(runner, args)
        assert res.exit_code == 0
        assert res.stdout_bytes == out.read_bytes()


class TestExitCodes:
    def test_simulate_zero_t_end_exits_3(self, runner):
        res = invoke(runner, ["simulate", "--num", "1,-1", "--den", "6,5,1",
                              "--x0", "0.4,0.2", "--t-end", "0"])
        assert res.exit_code == 3
        assert "t_end" in json.loads(res.stderr)["error"]

    def test_infinite_gain_bound_exits_3(self, runner):
        res = invoke(runner, ["root-locus", "--num", "1,-1", "--den", "6,5,1",
                              "--gamma-max", "inf"])
        assert res.exit_code == 3
        payload = json.loads(res.stderr)
        assert payload["schema_version"] == 1 and "gamma_max" in payload["error"]

    def test_nan_epsilon_exits_3(self, runner):
        res = invoke(runner, ["bounds", "--num", "1,-1", "--den", "6,5,1",
                              "--epsilon", "nan"])
        assert res.exit_code == 3
        payload = json.loads(res.stderr)
        assert payload["error"] == "epsilon must lie in (0, min |Re eigenvalue|)"

    def test_nan_gamma_exits_3(self, runner):
        res = invoke(runner, ["monodromy", "--num", "1,-1", "--den", "6,5,1",
                              "--gamma", "nan"])
        assert res.exit_code == 3
        assert "gamma" in json.loads(res.stderr)["error"]

    def test_gain_too_large_for_the_integrator_exits_3(self, runner):
        # the Floquet trivial multiplier came out 0.57 off at this gain
        res = invoke(runner, ["monodromy", "--num", "1,-1", "--den", "6,5,1",
                              "--gamma", "1e12"])
        assert res.exit_code == 3
        payload = json.loads(res.stderr)
        assert payload["schema_version"] == 1
        assert "too large for the integrator" in payload["error"]

    def test_expm_overflow_exits_3(self, runner):
        res = invoke(runner, ["find-orbit", "--num", "1", "--den", "-1,1",
                              "--tau-min", "1", "--tau-max", "1000"])
        assert res.exit_code == 3
        payload = json.loads(res.stderr)
        assert payload["schema_version"] == 1 and "overflow" in payload["error"]

    @pytest.mark.parametrize("args, code, key", [
        (["sfs-sim", "--gamma", "nan", "--x0", "0.4,0.2", "--t-end", "1"], 3, "gamma"),
        (["sfs-sim", "--gamma", "inf", "--x0", "0.4,0.2", "--t-end", "1"], 3, "gamma"),
        (["sfs-sim", "--gamma", "10", "--x0", "0.4,0.2", "--t-end", "nan"], 3, "t_end"),
        (["sfs-sim", "--gamma", "10", "--x0", "0.4,0.2", "--t-end", "1",
          "--dense-dt", "0"], 3, "dense_dt"),
        (["sfs-sim", "--gamma", "10", "--x0", "0.4,0.2", "--t-end", "1",
          "--dense-dt", "-0.5"], 3, "dense_dt"),
        (["simulate", "--x0", "0.4,0.2", "--t-end", "1", "--dense-dt", "0"], 3, "dense_dt"),
        (["simulate", "--x0", "0.4,0.2", "--t-end", "nan"], 3, "t_end"),
        (["simulate", "--x0", "0.4,0.2", "--t-end", "1", "--dense-dt", "inf"], 3, "dense_dt"),
        (["poincare-survey", "--count", "10", "--k", "0"], 3, "k must be >= 1"),
        (["classify", "--num", "inf", "--den", "2,1"], 2, "finite"),
        (["classify", "--num", "1", "--den", "nan,1"], 2, "finite"),
        (["fixed-point", "--tol", "-1"], 3, "tol must be finite and positive"),
        (["fixed-point", "--tol", "nan"], 3, "tol must be finite and positive"),
        (["sfs-sim", "--gamma", "10", "--x0", "0.4,0.2", "--t-end", "1",
          "--rel-tol", "nan"], 3, "tolerances must be finite"),
        (["sfs-sim", "--gamma", "10", "--x0", "0.4,0.2", "--t-end", "1",
          "--abs-tol", "nan"], 3, "tolerances must be finite"),
        (["sfs-sim", "--gamma", "10", "--x0", "0.4,0.2", "--t-end", "1",
          "--rel-tol", "inf"], 3, "tolerances must be finite"),
        (["find-orbit", "--tau-min", "0.5"], 3, "--tau-min and --tau-max"),
        # the argument after --plant-file is the file's content
        (["classify", "--plant-file", '{"num": [1, -1]}'], 2, "plant file"),
        (["classify", "--plant-file", "[1, -1]"], 2, "plant file"),
        (["classify", "--plant-file", '{"num": [1, -1], "den": [6, 5'], 2, "plant file"),
        (["classify", "--plant-file", '{"num": "1,-1", "den": [6, 5, 1]}'], 2, "plant file"),
        (["fixed-point", "--max-iter", "-3"], 3, "max_iter must be >= 0"),
        (["simulate", "--x0", "1e160,1e160", "--t-end", "1"], 3, "norm overflows"),
        (["sfs-sim", "--gamma", "1e3", "--x0", "1e200,1e200", "--t-end", "1"], 3,
         "norm overflows"),
        (["find-orbit", "--tau-min", "5", "--tau-max", "1"], 3, "tau_range must be finite"),
        (["find-orbit", "--tau-min", "0.5", "--tau-max", "inf"], 3, "tau_range must be finite"),
        (["find-orbit", "--tau-min", "nan", "--tau-max", "5"], 3, "tau_range must be finite"),
        (["find-orbit", "--tau-min", "0", "--tau-max", "0"], 3, "tau_range must be finite"),
        (["find-orbit", "--tau-min", "1", "--tau-max", "1e18"], 3,
         "tau_range must end below 2^53 march steps"),
        # an exit march of 1/(s - 10) that overflows within the span: stderr
        # is the JSON error alone, without numpy warnings
        (["sfs-sim", "--num", "1", "--den=-10,1", "--gamma", "1", "--x0", "100",
          "--t-end", "100"], 3, "non-finite function value during marching"),
        (["classify", "--num", "1", "--den", "1"], 2, "degree >= 1"),
        # s/(s+1)^2: g has roots, but no orbit keeps the output sign
        (["find-orbit", "--num", "0,1", "--den", "1,2,1"], 3, "none passes"),
    ])
    def test_bad_input_exits_with_json_error(self, runner, tmp_path, args, code, key):
        if "--plant-file" in args:
            i = args.index("--plant-file") + 1
            path = tmp_path / "plant.json"
            path.write_text(args[i])
            args = args[:i] + [str(path)] + args[i + 1:]
        plant = [] if "--num" in args or "--plant-file" in args else PLANT
        res = invoke(runner, args[:1] + plant + args[1:])
        assert res.exit_code == code
        payload = json.loads(res.stderr)
        assert payload["schema_version"] == 1 and key in payload["error"]

    def test_wrong_x0_length_exits_2(self, runner):
        res = invoke(runner, ["sfs-sim", "--num", "1,-1", "--den", "6,5,1",
                              "--gamma", "10", "--x0", "0.4", "--t-end", "1"])
        assert res.exit_code == 2
        assert json.loads(res.stderr)["schema_version"] == 1


class TestDeterminism:
    def test_survey_byte_identical(self, runner, tmp_path):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"survey_{tag}.csv"
            invoke(runner, ["poincare-survey", "--num", "1,-1", "--den", "6,5,1",
                            "--count", "200", "--k", "1", "--seed", "7",
                            "--out", str(out)])
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_fixed_point_byte_identical(self, runner):
        a = invoke(runner, ["fixed-point", "--num", "1,-1", "--den", "6,5,1",
                            "--seed", "3"]).output
        b = invoke(runner, ["fixed-point", "--num", "1,-1", "--den", "6,5,1",
                            "--seed", "3"]).output
        assert a == b


    @pytest.mark.parametrize("cmd", ["find-orbit", "monodromy"])
    def test_integrating_plant_byte_identical(self, runner, cmd):
        # (1-s)/(s(s+2)): a pole at the origin
        args = [cmd, "--num", "1,-1", "--den", "0,2,1"]
        a, b = invoke(runner, args), invoke(runner, args)
        assert a.exit_code == 0 and b.exit_code == 0
        assert json.loads(a.output)["half_period"] == pytest.approx(2.98470, abs=1e-5)
        assert a.stdout_bytes == b.stdout_bytes


class TestHelp:
    @pytest.mark.parametrize("cmd", ["classify", "simulate", "bounds",
                                     "poincare-survey", "fixed-point",
                                     "find-orbit", "monodromy", "root-locus",
                                     "sfs-sim"])
    def test_help_runs(self, runner, cmd):
        res = invoke(runner, [cmd, "--help"])
        assert res.exit_code == 0
        assert "--help" in res.output or "Usage" in res.output
        for option in ("--num", "--den", "--plant-file", "--descending"):
            assert option in res.output


class TestArtifactHeaders:
    @pytest.mark.parametrize("args, header", [
        (["simulate", *PLANT, "--x0", "0.4,0.2", "--t-end", "3", "--out", "{}"],
         "t,x_1,x_2,u,is_switch"),
        (["poincare-survey", *PLANT, "--count", "5", "--out", "{}"],
         "point_id,rho_astrom,rho_exact,norm_astrom,norm_exact,bf_astrom,bf_exact,"
         "schur_stable"),
        (["find-orbit", *PLANT, "--orbit-csv", "{}"], "t,x_1,x_2,u,y"),
        (["root-locus", *PLANT, "--gamma-max", "10", "--out", "{}"],
         "gamma,re_1,re_2,im_1,im_2"),
        (["sfs-sim", *PLANT, "--gamma", "10", "--x0", "0.1,0.1", "--t-end", "1",
          "--out", "{}"], "t,x_1,x_2,u,y"),
    ], ids=["simulate", "poincare-survey", "find-orbit", "root-locus", "sfs-sim"])
    def test_csv_header(self, runner, tmp_path, args, header):
        out = tmp_path / "artifact.csv"
        res = invoke(runner, [str(out) if a == "{}" else a for a in args])
        assert res.exit_code == 0
        assert b"\r" not in out.read_bytes()  # every line ends in "\n"
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# relayosc 0.1.0;")
        assert lines[1] == header

    @pytest.mark.parametrize("args", [
        ["classify", *PLANT],
        ["simulate", *PLANT, "--x0", "0.4,0.2", "--t-end", "3"],
        ["bounds", *PLANT],
        ["fixed-point", *PLANT],
        ["find-orbit", *PLANT],
        ["monodromy", *PLANT],
        ["root-locus", *PLANT, "--gamma-max", "10"],
    ], ids=lambda args: args[0])
    def test_json_header(self, runner, args):
        res = invoke(runner, args)
        assert res.exit_code == 0
        payload = json.loads(res.output)
        assert payload["schema_version"] == 1
        assert payload["toolkit_version"] == "0.1.0"


def test_import_defers_scipy_solvers():
    # integrate, optimize and special load on first use, not with the CLI
    code = ("import sys, relayosc.cli; print([m for m in sys.modules if m in "
            "('scipy.integrate', 'scipy.optimize', 'scipy.special')])")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(relayosc.__file__)))
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert res.stdout.strip() == "[]"
