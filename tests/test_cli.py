import ast
import json
import math
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import gelshoot
from gelshoot import cli, delaycore, fixedpoint
from gelshoot.cli import build_parser, main, parse_grid
from gelshoot.errors import DomainError
from gelshoot.profiles import GAMMA_MAX, make_params
from gelshoot.shooting import h_profile


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def child_env() -> dict:
    """Environment for a fresh interpreter that imports this source tree."""
    src = str(Path(gelshoot.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


class TestBasicCommands:
    def test_b_star_prints_digits(self, capsys):
        code, out, _ = run(capsys, "b-star", "--gamma", "2")
        assert code == 0
        assert out.strip() == "2.5374"

    def test_params_json(self, capsys):
        code, out, _ = run(capsys, "params", "--gamma", "2", "--b", "4")
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["sigma"] == pytest.approx(math.sqrt(2.0))
        assert set(doc["result"]) == {"gamma", "b", "a", "sigma", "q", "d",
                                      "theta", "b0", "eps_delay", "phi_inf"}
        assert "provenance" in doc

    def test_classify_json(self, capsys):
        code, out, _ = run(capsys, "classify", "--gamma", "2", "--b", "10")
        doc = json.loads(out)
        assert doc["result"]["class"] == "ConvergesToConstant"
        assert doc["result"]["phi_inf"] == 1.0

    def test_winding(self, capsys):
        code, out, _ = run(capsys, "winding", "--gamma", "2", "--b", "2.3")
        assert json.loads(out)["result"]["winding"] == 1

    def test_laplace_csv(self, capsys):
        code, out, _ = run(capsys, "laplace", "--eta", "1")
        lines = out.splitlines()
        assert lines[0].startswith("# gelshoot")
        assert lines[2] == "eta,t_star,W,D,U"
        vals = [float(v) for v in lines[3].split(",")]
        assert vals[1] == pytest.approx(1.5936242600400401, abs=1e-9)


class TestFilesAndDeterminism:
    def test_profile_csv_byte_identical(self, tmp_path, capsys):
        p1 = tmp_path / "run.csv"
        args = ("profile", "--gamma", "2", "--b", "3", "--y-max", "50",
                "--out", str(p1))
        assert run(capsys, *args)[0] == 0
        first = p1.read_bytes()
        assert run(capsys, *args)[0] == 0
        assert p1.read_bytes() == first

    def test_profile_csv_header_and_precision(self, tmp_path, capsys):
        out = tmp_path / "prof.csv"
        code, _, _ = run(capsys, "profile", "--gamma", "2", "--b", "3",
                         "--y-max", "50", "--out", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[2] == "y,value,derivative"
        rows = np.array([[float(v) for v in line.split(",")]
                         for line in lines[3:]])
        traj = h_profile(make_params(2.0, 3.0), 50.0, tol=1e-9)
        assert rows.tobytes() == np.column_stack(traj.nodes()).tobytes()

    def test_fig3_writes_both_panels(self, tmp_path, capsys):
        out = tmp_path / "fig3.csv"
        code, _, _ = run(capsys, "fig3", "--gamma", "2", "--b", "2.3",
                         "--y-max", "100", "--out", str(out))
        assert code == 0
        h_lines = (tmp_path / "fig3_H.csv").read_text().splitlines()
        p_lines = (tmp_path / "fig3_phi.csv").read_text().splitlines()
        assert h_lines[2] == "y,H"
        assert p_lines[2] == "z,phi"
        y0, h0 = (float(v) for v in h_lines[3].split(","))
        z0, f0 = (float(v) for v in p_lines[3].split(","))
        assert z0 == pytest.approx(math.log(y0))
        assert f0 == pytest.approx(y0 * h0)

    def test_scan_csv_has_evidence_blob(self, tmp_path, capsys):
        out = tmp_path / "scan.csv"
        code, _, _ = run(capsys, "scan-b", "--gamma", "2",
                         "--grid", "2.05:10:3", "--y-max", "200",
                         "--out", str(out))
        rows = out.read_text().splitlines()[3:]
        assert rows[0].split(",")[2] == "SignChange"
        assert rows[-1].split(",")[2] == "ConvergesToConstant"


class TestConfigFile:
    def test_flags_override_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("gamma = 3\nb = 4\n")
        code, out, _ = run(capsys, "params", "--config", str(cfg),
                           "--b", "2")
        doc = json.loads(out)
        assert doc["result"]["gamma"] == 3.0     # from the file
        assert doc["result"]["b"] == 2.0         # flag wins

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("flux_capacitor = 1\n")
        code, _, err = run(capsys, "params", "--config", str(cfg))
        assert code == 1
        assert "unknown config key" in err

    @pytest.mark.parametrize("key", ["handler", "command"])
    def test_parser_internal_key_rejected(self, key, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"{key} = cmd_bbar\n")
        code, out, err = run(capsys, "params", "--config", str(cfg))
        assert (code, out) == (1, "")
        assert f"unknown config key {key!r}" in json.loads(err)["message"]

    def test_bad_value_is_a_domain_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("gamma = abc\n")
        code, out, err = run(capsys, "params", "--config", str(cfg))
        assert (code, out) == (1, "")
        doc = json.loads(err)
        assert doc["error"] == "domain"
        assert "--gamma" in doc["message"] and "'abc'" in doc["message"]
        assert str(cfg) in doc["message"]

    def test_missing_file_is_a_domain_error(self, tmp_path, capsys):
        missing = tmp_path / "nowhere.cfg"
        code, out, err = run(capsys, "params", "--config", str(missing))
        assert (code, out) == (1, "")
        doc = json.loads(err)
        assert doc["error"] == "domain"
        assert str(missing) in doc["message"]

    def test_key_the_subcommand_does_not_read_rejected(self, tmp_path,
                                                       capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("gamma = 3\ntol = 1e-12\n")
        code, _, err = run(capsys, "bbar", "--config", str(cfg))
        assert code == 1
        assert "unknown config key 'tol'" in json.loads(err)["message"]

    def test_values_take_the_flag_type(self, tmp_path, capsys):
        # gamma1's --b has no default, so the value's type comes from the
        # flag, not from a default value
        cfg = tmp_path / "run.cfg"
        cfg.write_text("b = 1\na1 = -1\ny-max = 1e4\n")
        code, out, err = run(capsys, "gamma1", "--config", str(cfg))
        assert code == 0, err
        _, flags_out, _ = run(capsys, "gamma1", "--b", "1", "--a1", "-1",
                              "--y-max", "1e4")
        assert json.loads(out)["result"] == json.loads(flags_out)["result"]


# runs whose order cap alone needs more than MAX_STEPS accepted steps
BUDGET_FLOOR = [("gamma1", "--tol", "1e-14"), ("gamma1", "--tol", "1e-16"),
                ("gamma1", "--b", "1", "--tol", "1e-15"),
                ("greens-verify", "--tol", "1e-15"),
                ("greens-verify", "--tol", "1e-16")]


class TestExitCodes:
    def test_domain_error_is_one(self, capsys):
        code, _, err = run(capsys, "classify", "--gamma", "2", "--b", "1.5")
        assert code == 1
        assert json.loads(err)["error"] == "domain"

    def test_numerical_error_is_two(self, capsys):
        # bracketing with a span too short to resolve the sign change
        code, _, err = run(capsys, "bracket-bbar", "--gamma", "2",
                           "--y-max", "2")
        assert code == 2
        assert json.loads(err)["error"] == "numerical"

    def test_winding_next_to_b_star_is_numerical(self, capsys):
        # b_star(2) - 1.5e-15: the curve passes 1e-16 from the origin
        code, out, err = run(capsys, "winding", "--gamma", "2",
                             "--b", "2.5374403762870325")
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert json.loads(err)["type"] == "OriginOnCurveError"

    @pytest.mark.parametrize("b", ["1e-300", "1e-12", "9e-5"])
    def test_winding_over_the_sample_budget_is_numerical(self, b, capsys):
        # d_tilde = 2.8e300 and 2.8e12: refused before any sampling; 3.1e4:
        # the arc walk spends what the axis left of the budget
        start = time.perf_counter()
        code, out, err = run(capsys, "winding", "--gamma", "2", "--b", b)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        doc = json.loads(err)
        assert doc["type"] == "SampleBudgetError"
        assert "sample budget 250000" in doc["message"]

    @pytest.mark.parametrize("out", [None, "tails.json"])
    def test_non_finite_result_is_numerical(self, out, tmp_path, capsys):
        # eta = 1e-310 makes ln2/eta overflow: strict JSON refuses Infinity
        argv = ["tails", "--eps", "0.1", "--eta", "1e-310"]
        if out is not None:
            argv += ["--out", str(tmp_path / out)]
        code, stdout, err = run(capsys, *argv)
        assert (code, stdout) == (2, "")
        assert err.count("\n") == 1
        doc = json.loads(err)
        assert doc["error"] == "numerical"
        assert "not finite" in doc["message"]
        assert not list(tmp_path.iterdir())

    def test_bad_grid_spec(self, capsys):
        code, _, err = run(capsys, "scan-b", "--gamma", "2",
                           "--grid", "oops")
        assert code == 1

    def test_series_overflow_is_typed(self, capsys, recwarn):
        # at gamma=30, b=3 the local series coefficients leave the double
        # range; the error names the series, not a step underflow
        code, _, err = run(capsys, "classify", "--gamma", "30", "--b", "3")
        assert code == 2
        doc = json.loads(err)
        assert doc["type"] == "SeriesOverflowError"
        assert "gamma=30, b=3" in doc["message"]
        assert "order" in doc["message"]
        assert not [w for w in recwarn if w.category is RuntimeWarning]

    def test_large_gamma_below_overflow_still_classifies(self, capsys):
        code, out, _ = run(capsys, "classify", "--gamma", "20", "--b", "3")
        assert code == 0
        assert json.loads(out)["result"]["class"] == "ConvergesToConstant"

    def test_simulator_failure_is_numerical(self, capsys):
        code, _, err = run(capsys, "simulate", "--sites", "60")
        assert code == 2
        doc = json.loads(err)
        assert doc["type"] == "SolverFailureError"
        assert "failed at t=" in doc["message"]

    def test_simulator_failure_stderr_is_one_json_document(self):
        # a fresh process, so numpy warnings would reach stderr unfiltered
        proc = subprocess.run([sys.executable, "-m", "gelshoot.cli",
                               "simulate", "--sites", "60"], env=child_env(),
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 2
        assert proc.stderr.count("\n") == 1
        assert json.loads(proc.stderr)["type"] == "SolverFailureError"

    def test_q_past_the_overflow_of_its_exponents_is_silent(self):
        # xi (shift - 2^n) overflows to -inf from xi ~ 1e302 on; e^-inf = 0
        proc = subprocess.run([sys.executable, "-m", "gelshoot.cli",
                               "greens-q", "--grid", "0:1e303:2"],
                              env=child_env(), capture_output=True, text=True,
                              timeout=300)
        assert proc.returncode == 0 and proc.stderr == ""
        assert proc.stdout.splitlines()[-1] == "1e+303,0,0"

    @pytest.mark.parametrize("argv", [("classify", "--gamma", "abc"),
                                      ("classify", "--nope", "1"),
                                      ("scan-b", "--jobs", "2"),
                                      ("gamma1", "--b", "abc"),
                                      ("simulate", "--sites", "2.5"),
                                      ("b-star", "--digits", "x"),
                                      ()])
    def test_usage_error_is_a_domain_error(self, argv, capsys):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert json.loads(err)["error"] == "domain"

    @pytest.mark.parametrize("argv", [("params", "--tol", "1"),
                                      ("bbar", "--tol", "1e-12"),
                                      ("greens-q", "--gamma", "2"),
                                      ("laplace", "--y-max", "5"),
                                      ("tails", "--b", "9"),
                                      ("b-star", "--b", "3"),
                                      ("psi-asym", "--grid", "0:1:3")])
    def test_flag_the_handler_does_not_read_is_rejected(self, argv, capsys):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        doc = json.loads(err)
        assert doc["error"] == "domain"
        assert argv[1] in doc["message"]

    @pytest.mark.parametrize("argv", [("fixedpoint", "--tol", "0"),
                                      ("fixedpoint", "--tol", "-1"),
                                      ("fixedpoint", "--tol", "nan"),
                                      ("eps-of-eta", "--tol", "0")])
    def test_fixedpoint_tolerance_must_be_positive(self, argv, capsys):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        doc = json.loads(err)
        assert doc["error"] == "domain"
        assert "tol must be positive" in doc["message"]

    def test_step_budget_is_numerical(self, capsys, monkeypatch):
        # about 2e5 steps at tol 1e-14: refused before the first step
        monkeypatch.setattr(delaycore, "MAX_STEPS", 1000)
        code, out, err = run(capsys, "greens-verify", "--tol", "1e-14")
        assert (code, out) == (2, "")
        assert err.count("\n") == 1
        doc = json.loads(err)
        assert doc["type"] == "StepBudgetError"
        assert doc["message"].startswith(
            "linear-G run: refused before the first step")
        assert doc["message"].endswith("over the step budget of 1000")

    @pytest.mark.parametrize("argv", BUDGET_FLOOR, ids=" ".join)
    def test_run_over_its_step_floor_is_refused_at_once(self, argv,
                                                        capsys):
        # each once spent 10^6 steps, 8.6-53 s, before it exited 2
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        doc = json.loads(err)
        assert doc["type"] == "StepBudgetError"
        assert "refused before the first step" in doc["message"]
        assert doc["message"].endswith(
            f"over the step budget of {delaycore.MAX_STEPS}")

    def test_tolerance_below_roundoff_is_numerical(self, capsys):
        code, out, err = run(capsys, "fixedpoint", "--tol", "1e-20")
        assert (code, out) == (2, "")
        doc = json.loads(err)
        assert doc["type"] == "RoundoffFloorError"
        assert "tol 1.000e-20" in doc["message"]
        assert "round-off floor" in doc["message"]

    @pytest.mark.parametrize("argv", [("--help",), ("--version",),
                                      ("classify", "--help")])
    def test_help_and_version_exit_zero(self, argv, capsys):
        with pytest.raises(SystemExit) as info:
            main(list(argv))
        assert info.value.code == 0
        assert capsys.readouterr().out


# each of these once ended in a Python traceback, or for an infinite y_max
# in a zero-step "Undetermined" with exit 0.  Each must now end in the domain
# JSON (exit 1) unless FUZZ_EXIT names another ending.
FUZZ = [
    ("psi-asym", "--eps-list", ""),
    ("psi-asym", "--eps-list", "0"),
    ("fig2", "--b-list", ""),
    ("fig2", "--b-list", "3,x"),
    ("b-star", "--digits", "-1"),
    ("simulate", "--sites", "-1"),
    ("gelation-scan", "--chains", "-1"),
    ("laplace", "--eta", "inf"),
    ("laplace", "--eta", "1e308"),
    ("tails", "--eta", "0"),
    ("classify", "--gamma", "2", "--b", "3", "--y-max", "inf"),
    ("bbar", "--gamma", "inf"),
    ("params", "--b", "inf"),
    ("classify", "--gamma", "2", "--b", "inf"),
    ("winding", "--gamma", "2", "--b", "inf"),
    ("simulate", "--tol", "0"),
    ("simulate", "--tol", "nan"),
    ("simulate", "--tol", "-1"),
    ("simulate", "--tol", "inf"),
    ("gelation-scan", "--chains", "2", "--tol", "0"),
    # tol outside [100 eps, 1): 1e300 and 1e250 once ended in a traceback
    # from the cap event's root finder (a NaN event value), 1e-300 in
    # scipy's UserWarning and a run at rtol 100 eps, and the scan at 1e-300
    # took 49 s, its atol 1e-302
    ("gelation-scan", "--tol", "1e300"),
    ("gelation-scan", "--tol", "1e250"),
    ("simulate", "--tol", "1e-300"),
    ("gelation-scan", "--tol", "1e-300"),
    ("greens-verify", "--t-max", "0"),
    ("greens-verify", "--t-max", "-5"),
    ("greens-verify", "--t-max", "nan"),
    ("greens-verify", "--tol", "inf"),
    ("classify", "--gamma", "2", "--b", "3", "--tol", "inf"),
    ("fixedpoint", "--tol", "inf"),
    ("eps-of-eta", "--tol", "inf"),
    ("params", "--out", "/nonexistent-dir/x.json"),
    ("profile", "--out", "/"),
    ("simulate", "--t-end", "inf"),
    ("bracket-bbar", "--tol-b", "inf"),
    ("classify", "--y-max", "1e-13"),
    ("profile", "--y-max", "1e-300"),
    ("scan-b", "--gamma", "2", "--grid", "2.1:3:0"),
    ("stability-scan", "--gamma", "2", "--grid", "1:3:0"),
    ("params", "--out", ""),
    ("fig2", "--out", ""),
    ("fig3", "--out", ""),
    ("laplace", "--eta", "0.5000000000001"),
    ("psi-asym", "--eta", "0.5000000000001"),
    ("gamma1", "--b", "1.3862"),
    ("gamma1", "--b", "1.38629"),
    ("psi-asym", "--eta", "1000"),
    ("psi-asym", "--eta", "1e250"),
    ("classify", "--gamma", "2", "--b", "1e6"),
    ("classify", "--gamma", "2", "--b", "1e8"),
    ("classify", "--gamma", "2", "--b", "1e12"),
    # q = 2^(-1/b) rounds to 1 from b ~ 1.2487e16 and to 0 below
    # b ~ 1/1075 (the latter once a ZeroDivisionError in the step cap)
    ("classify", "--gamma", "2", "--b", "1e17"),
    ("classify", "--gamma", "2", "--b", "1e300"),
    ("profile", "--gamma", "2", "--b", "1e-4"),
    ("classify", "--gamma", "2", "--b", "5e4"),
    ("classify", "--gamma", "2", "--b", "10", "--y-max", "4e12"),
    ("classify", "--gamma", "2", "--b", "10", "--y-max", "1e13"),
    ("bracket-bbar", "--gamma", "1.00001"),
    ("bracket-bbar", "--gamma", "1"),
    ("bracket-bbar", "--gamma", "1.0001"),
    # 0.5 + 2^-gamma rounds to 1, and b* divided by acos(1) = 0
    ("b-star", "--gamma", "1.0000000000000002"),
    ("bracket-bbar", "--gamma", "1.0000000000000002"),
    # alpha ~ 2/b: 1.67e308 is a finite double, 2e310 is not
    ("gamma1", "--b", "1.2e-308"),
    ("gamma1", "--b", "1e-310"),
    ("simulate", "--gamma", "nan", "--sites", "10", "--t-end", "1"),
    ("simulate", "--gamma", "inf", "--sites", "10", "--t-end", "1"),
    ("simulate", "--gamma", "1e308", "--sites", "10", "--t-end", "1"),
    ("simulate", "--gamma", "200", "--sites", "10", "--t-end", "1"),
    ("gelation-scan", "--chains", "2", "--gamma", "nan"),
    # (xi0 2^K)^(gamma+1) overflows: refused before the 1e9-site arrays that
    # once exhausted memory
    ("simulate", "--sites", "1000000000"),
    # more chains than gelsim.MAX_CHAINS: 10^5 chains still ran at 30 s, and
    # 10^9 were killed, most likely out of memory
    ("gelation-scan", "--chains", "100000"),
    ("gelation-scan", "--chains", "1000000000"),
    # simulate runs one chain and takes no --scan, the old spelling of
    # gelation-scan --chains, which in turn reads no seed: each flag shaped
    # no result yet showed in the config line
    ("simulate", "--scan", "2"),
    ("simulate", "--scan", "-1"),
    ("simulate", "--scan", "2", "--tol", "0"),
    ("simulate", "--scan", "2", "--gamma", "nan"),
    ("simulate", "--scan", "100000"),
    ("simulate", "--scan", "1000000000"),
    ("gelation-scan", "--xi0", "1.5"),
    # eta (at eps = 0) below 2^-49, where 1 + eps cannot hold eps: these
    # once returned eps/eta far from 0.2097, the midpoint of a flat F, or a
    # NoSignChangeError
    ("eps-of-eta", "--eta", "1e-16"),
    ("eps-of-eta", "--eta", "1e-18"),
    ("eps-of-eta", "--eta", "1e-200"),
    ("eps-of-eta", "--eta", "1.7763568394002505e-15", "--tol", "1e-30"),
    ("bbar", "--gamma", "58"),
    ("bbar", "--gamma", "60"),
    ("bbar", "--gamma", "61"),
    ("bbar", "--gamma", "300"),
    ("bbar", "--gamma", "900"),
    ("bbar", "--gamma", "1000"),
    ("winding", "--gamma", "2", "--b", "1e-300"),
    ("winding", "--gamma", "2", "--b", "1e-12"),
    ("winding", "--gamma", "1.2", "--b", "0.02"),
    ("winding", "--gamma", "2", "--b", "1e12"),
    # math.log of a y_max that is not positive, and T^(n+1) of the contour
    # tail bound underflowing to 0 at t_max = 1e-300
    ("gamma1", "--y-max", "0"),
    ("gamma1", "--y-max", "-1"),
    ("greens-verify", "--t-max", "1e-300"),
    # an infinite grid step, 0 inf = NaN: these once printed NaN rows with
    # exit 0
    ("greens-q", "--grid", "nan:1:3"),
    ("greens-q", "--grid", "0:inf:3"),
    ("greens-q", "--grid=-1e308:1e308:3"),
    # 10^9 grid points: under a 1 GiB address-space limit each once ended
    # in a MemoryError traceback while the list was built
    ("greens-q", "--grid", "0:20:1000000000"),
    ("stability-scan", "--gamma", "2", "--grid", "1:6:1000000000"),
    ("scan-b", "--gamma", "2", "--grid", "2:10:1000000000"),
    # NaN passed a test a1 > 0 and ended in SeriesOverflowError, exit 2
    ("gamma1", "--a1", "nan"),
    ("gamma1", "--b", "1", "--a1", "nan"),
    # below eps = 1.1e-16, 1 - eps rounds to 1 and log1p(-1) ended in a
    # ValueError traceback; the terms now peak past the term cap
    ("psi-asym", "--eps-list", "1e-17"),
    ("psi-asym", "--eps-list", "1e-300"),
    *BUDGET_FLOOR,
]
# a result (exit 0) or a typed numerical error (exit 2)
FUZZ_EXIT = {
    # t* = 4e-13 lies below the old bracket's start at 1e-12
    ("laplace", "--eta", "0.5000000000001"): 0,
    ("psi-asym", "--eta", "0.5000000000001"): 0,
    # alpha = 1.96e-4 and a_40 = 5.9e150: the series hands over at an x
    # that underflows
    ("gamma1", "--b", "1.3862"): 2,
    # 1 - 2^-alpha, rounded at the bracket's old start alpha = 1e-12,
    # gave the root equation no sign change there
    ("gamma1", "--b", "1.38629"): 2,
    # the Psi series peaks near order 2y = 1e5 (eps 0.02) and 2e251: it
    # once looped quadratically to its term cap and returned the truncated
    # sum without a word
    ("psi-asym", "--eta", "1000"): 2,
    ("psi-asym", "--eta", "1e250"): 2,
    # at the delay cap a step grows y by a factor of at most 2^(1/b), so
    # these runs would need 1.0e7 steps and more: they once ran for minutes,
    # then were refused on that prediction; steps that read their own
    # panel take 353-362
    ("classify", "--gamma", "2", "--b", "1e6"): 0,
    ("classify", "--gamma", "2", "--b", "1e8"): 0,
    ("classify", "--gamma", "2", "--b", "1e12"): 0,
    # 511,767 steps at the delay cap, which took 5.6-10 s; steps that read
    # their own panel take 351
    ("classify", "--gamma", "2", "--b", "5e4"): 0,
    # the first step, h = 0.039 at y = 0.907, once fell below an underflow
    # bound of 1e-14 times the whole span and ended in StepUnderflowError
    ("classify", "--gamma", "2", "--b", "10", "--y-max", "4e12"): 0,
    ("classify", "--gamma", "2", "--b", "10", "--y-max", "1e13"): 0,
    # the winding axis alone needs at least 2R (1 + d_tilde)/(1 + R + st)
    # curve samples: these are refused on that floor, where sampling would
    # not finish
    ("winding", "--gamma", "2", "--b", "1e-300"): 2,
    ("winding", "--gamma", "2", "--b", "1e-12"): 2,
    # 31 pairs: a fixed sampling once declined it, with a chord-sag
    # resolution of 1.2e-2 against a closest pass under 4.6e-4
    ("winding", "--gamma", "1.2", "--b", "0.02"): 0,
    ("winding", "--gamma", "2", "--b", "1e12"): 0,
    # at eta = 2^-49 a secant into F's rounding noise once returned
    # eps/eta = 0.179; the stop's floor of 1e-16 keeps it at 0.2097
    ("eps-of-eta", "--eta", "1.7763568394002505e-15", "--tol", "1e-30"): 0,
    # alpha = 1.67e308: the continuation's first step, at z = ln x = 0,
    # underflows
    ("gamma1", "--b", "1.2e-308"): 2,
    ("psi-asym", "--eps-list", "1e-17"): 2,
    ("psi-asym", "--eps-list", "1e-300"): 2,
    **{argv: 2 for argv in BUDGET_FLOOR},
}


class TestFuzz:
    @pytest.mark.parametrize("argv", FUZZ, ids=" ".join)
    def test_bad_input_is_one_domain_line(self, argv, capsys):
        code, out, err = run(capsys, *argv)
        assert "Traceback" not in err
        expected = FUZZ_EXIT.get(argv, 1)
        assert code == expected
        if code == 0:
            assert out and err == ""
            return
        assert out == ""
        assert err.count("\n") == 1
        assert json.loads(err)["error"] == {1: "domain", 2: "numerical"}[code]


class TestRemainingSubcommands:
    def test_cheap_handlers_run_clean(self, tmp_path, capsys):
        table = [
            ("greens-q", "--grid", "0:5:11"),
            ("tails", "--eps", "0.1", "--eta", "1"),
            ("stability-scan", "--gamma", "2", "--grid", "1:6:6"),
            ("psi-asym", "--eta", "1", "--eps-list", "0.1,0.05"),
            ("simulate", "--gamma", "2", "--sites", "6", "--t-end", "2"),
            ("eps-of-eta", "--eta", "0.01"),
            ("fixedpoint", "--eps", "0.01", "--eta", "0.01"),
            ("gamma1", "--b", "1", "--a1", "-1", "--y-max", "1e4"),
            ("bracket-bbar", "--gamma", "2", "--tol-b", "1e-2"),
        ]
        for argv in table:
            code, out, err = run(capsys, *argv)
            assert code == 0, f"{argv} failed: {err}"
            assert out

    def test_gelation_scan_lists_only_what_it_read(self, capsys):
        code, out, _ = run(capsys, "gelation-scan", "--chains", "2",
                           "--sites", "4", "--t-end", "1")
        doc = json.loads(out)
        assert code == 0 and len(doc["result"]["seeds"]) == 2
        assert set(doc["result"]) == {"gamma", "seeds", "t_hat", "horizon"}
        assert doc["provenance"]["config"] == \
            "chains=2 gamma=2.0 init=exp sites=4 t_end=1.0 tol=1e-10"

    def test_eps_of_eta_reports_the_tested_f(self, capsys):
        # the F that the stop tested: the returned state's F_value, that of
        # the last sweep's input W (at eta = 0.01 6.5455488e-13, where
        # f_eval recomputes 6.5527329e-13 from the returned W)
        code, out, _ = run(capsys, "eps-of-eta", "--eta", "0.01")
        eps, state = fixedpoint.eps_of_eta(0.01)
        doc = json.loads(out)["result"]
        assert code == 0 and doc["eps"] == eps
        assert doc["F"] == state.F_value != fixedpoint.f_eval(state)
        assert doc["iterations"] == state.iterations

    def test_fig2_per_b_files(self, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        code, _, _ = run(capsys, "fig2", "--gamma", "2",
                         "--b-list", "3.0,2.3", "--out", str(out))
        assert code == 0
        assert (tmp_path / "curve_b3.csv").exists()
        assert (tmp_path / "curve_b2.3.csv").exists()

    def test_fig_outputs_keep_a_dotted_directory(self, tmp_path, capsys):
        # a tag goes after the file's stem, never into a directory name
        d = tmp_path / "run.v2"
        d.mkdir()
        for argv in (("fig3", "--out", str(d / "fig")),
                     ("fig2", "--b-list", "3", "--out", str(d / "curve")),
                     ("fig2", "--b-list", "3", "--out", str(d / "curve.csv"))):
            code, _, err = run(capsys, *argv)
            assert code == 0, f"{argv} failed: {err}"
        assert sorted(p.name for p in d.iterdir()) == [
            "curve_b3", "curve_b3.csv", "fig_H.csv", "fig_phi.csv"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.v2"]

    def test_bbar_profile_csv(self, tmp_path, capsys):
        out = tmp_path / "crit.csv"
        code, stdout, _ = run(capsys, "bbar", "--gamma", "13",
                              "--out", str(out))
        assert code == 0
        assert json.loads(stdout)["result"]["bbar"] == pytest.approx(
            1.0003, abs=5e-4)
        header = out.read_text().splitlines()[2]
        assert header == "x,h,W"

    def test_greens_verify_payload(self, capsys):
        code, stdout, _ = run(capsys, "greens-verify")
        doc = json.loads(stdout)["result"]
        assert abs(doc["c0_series"] - doc["c0_quadrature"]) \
            <= 1e-15 * doc["c0_series"]
        for row in doc["points"]:
            assert abs(row["rel_ode_vs_quad"]) < 1e-4


class TestGridParsing:
    def test_linear_spec(self):
        g = parse_grid("1:3:5")
        assert list(g) == [1.0, 1.5, 2.0, 2.5, 3.0]

    @pytest.mark.parametrize("spec", ["2.05:10:8", "1:6:11", "1.5:9:5",
                                      "0.3:7.7:23", "0:13.7:201",
                                      "0:20:201", "5:3:4", "-3.7:0.1:1",
                                      "2:2:7", "1e-3:1e3:1000"])
    def test_numpy_linspace_bit_for_bit(self, spec):
        lo, hi, n = spec.split(":")
        ref = np.linspace(float(lo), float(hi), int(n)).tolist()
        assert [v.hex() for v in parse_grid(spec)] == [v.hex() for v in ref]

    def test_bad_spec(self):
        with pytest.raises(DomainError):
            parse_grid("1:3")

    @pytest.mark.parametrize("spec", ["1:3:0", "1:3:-2"])
    def test_no_points(self, spec):
        with pytest.raises(DomainError, match="no points"):
            parse_grid(spec)

    def test_point_bound(self):
        assert len(parse_grid(f"0:1:{cli.MAX_GRID_POINTS}")) \
            == cli.MAX_GRID_POINTS
        with pytest.raises(DomainError, match="more than"):
            parse_grid(f"0:1:{cli.MAX_GRID_POINTS + 1}")

    @pytest.mark.parametrize("spec", ["nan:1:3", "0:inf:3", "-inf:0:1",
                                      "-1e308:1e308:3"])
    def test_non_finite_width(self, spec):
        with pytest.raises(DomainError, match="finite"):
            parse_grid(spec)

    def test_reversed_grid_scans_downward(self, capsys):
        code, out, _ = run(capsys, "scan-b", "--gamma", "2",
                           "--grid", "5:3:4", "--y-max", "200")
        assert code == 0
        rows = [r.split(",") for r in out.splitlines()[3:]]
        assert [float(r[1]) for r in rows] == pytest.approx(
            [5.0, 13.0 / 3.0, 11.0 / 3.0, 3.0])


class TestReadme:
    def test_every_command_line_parses(self):
        readme = Path(__file__).resolve().parent.parent / "README.md"
        lines, fenced = [], False
        for line in readme.read_text().splitlines():
            if line.startswith("```"):
                fenced = not fenced
            elif fenced and line.startswith("gelshoot "):
                lines.append(line)
        assert lines
        parser = build_parser()
        for line in lines:
            tokens = shlex.split(line, comments=True)[1:]
            try:
                parser.parse_args(tokens)
            except DomainError as err:
                pytest.fail(f"README line {line!r} does not parse: {err}")


class TestGammaBound:
    @pytest.mark.parametrize("argv", [("params", "--gamma", "1e4"),
                                      ("b-star", "--gamma", "1e4"),
                                      ("classify", "--gamma", "1500"),
                                      ("bbar", "--gamma", "1e4")])
    def test_overflowing_gamma_is_a_domain_error(self, argv, capsys):
        code, _, err = run(capsys, *argv)
        assert code == 1
        doc = json.loads(err)
        assert doc["error"] == "domain"
        assert f"GAMMA_MAX = {GAMMA_MAX!r}" in doc["message"]


# ---------------------------------------------------------------------------
# import budget: which subcommands load scipy or numpy.  The pytest process
# has both loaded already, so the checks run in a fresh interpreter.

SCIPY_FREE = ["params", "b-star", "classify", "winding", "tails", "greens-q",
              "fixedpoint", "eps-of-eta", "bbar", "laplace", "psi-asym",
              "gamma1", "greens-verify"]
# the command lines that load no numpy, run first so that no earlier one
# has loaded it: the scalar subcommands, then the shooting and winding ones,
# classify in each of its four classes and the two scans on their default
# grids
SCALAR = ["--version", "params", "b-star", "tails", "laplace"]
CLASSES = {"Oscillating": ["classify"],
           "ConvergesToConstant": ["classify", "--gamma", "2", "--b", "10"],
           "Undetermined": ["classify", "--gamma", "2", "--b", "1000"],
           "SignChange": ["classify", "--gamma", "2", "--b", "2.1"]}
SHOOTING = [*CLASSES.values(), ["winding", "--gamma", "2", "--b", "3"],
            ["bracket-bbar", "--gamma", "2", "--tol-b", "1e-3"], ["profile"],
            ["scan-b"], ["stability-scan"]]
# the series, asymptotics and figure subcommands, on Python floats
FLOAT_ROUTES = [["psi-asym"], ["gamma1"], ["gamma1", "--b", "1"], ["fig2"],
                ["fig3"]]
NUMPY_FREE = [[name] for name in SCALAR] + SHOOTING + FLOAT_ROUTES
# the chain solver, the package's own DOP853
CHAIN_ROUTES = [["simulate", "--sites", "4", "--t-end", "1"],
                ["gelation-scan", "--chains", "2"]]

_COLD_SCRIPT = """
import contextlib, io, json, sys

def loaded():
    return {"scipy": sorted(m for m in sys.modules
                            if m.split(".")[0] == "scipy"),
            "numpy": "numpy" in sys.modules,
            "polynomial": "numpy.polynomial" in sys.modules}

from gelshoot import cli

report = [{"argv": None, **loaded()}]
for argv in json.loads(sys.argv[1]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = cli.main(argv)
        except SystemExit as stop:  # --version
            code = stop.code
    report.append({"argv": argv, "code": code, "stdout": buf.getvalue(),
                   **loaded()})
print(json.dumps(report))
"""


@pytest.fixture(scope="module")
def cold_report():
    """One fresh process: import the CLI, then run the numpy-free
    subcommands, the other scipy-free ones and the chain solver's, one
    after another."""
    argvs = NUMPY_FREE + [
        [name] for name in SCIPY_FREE if [name] not in NUMPY_FREE] \
        + CHAIN_ROUTES
    proc = subprocess.run([sys.executable, "-c", _COLD_SCRIPT,
                           json.dumps(argvs)], env=child_env(),
                          capture_output=True, text=True, timeout=300,
                          check=True)
    report = json.loads(proc.stdout.splitlines()[-1])
    return {"import": report[0],
            **{" ".join(r["argv"]): r for r in report[1:]}}


def importers(top: str) -> set:
    """Qualified names of the scopes under src/gelshoot that import the
    package top; a bare module name is a module-level import."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}")
                continue
            if isinstance(child, ast.Import):
                names = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom):
                names = [child.module or ""]
            else:
                names = []
            if any(n.split(".")[0] == top for n in names):
                found.add(scope)
            visit(child, scope)

    for path in sorted(Path(gelshoot.__file__).resolve().parent.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem)
    return found


class TestImportBudget:
    def test_cli_import_loads_no_scipy(self, cold_report):
        assert cold_report["import"]["scipy"] == []

    def test_cli_import_loads_no_numpy(self, cold_report):
        assert cold_report["import"]["numpy"] is False

    @staticmethod
    def check_numpy_free(argv, cold_report, capsys):
        # and prints what it prints with numpy loaded, in this process
        entry = cold_report[" ".join(argv)]
        assert entry["numpy"] is False
        try:
            code = main(argv)
        except SystemExit as stop:
            code = stop.code
        assert code == entry["code"] == 0
        assert capsys.readouterr().out == entry["stdout"] != ""

    @pytest.mark.parametrize("name", SCALAR)
    def test_scalar_subcommand_loads_no_numpy(self, name, cold_report,
                                              capsys):
        self.check_numpy_free([name], cold_report, capsys)

    @pytest.mark.parametrize("argv", SHOOTING, ids=" ".join)
    def test_shooting_subcommand_loads_no_numpy(self, argv, cold_report,
                                                capsys):
        self.check_numpy_free(argv, cold_report, capsys)

    @pytest.mark.parametrize("argv", FLOAT_ROUTES, ids=" ".join)
    def test_float_route_loads_no_numpy(self, argv, cold_report, capsys):
        self.check_numpy_free(argv, cold_report, capsys)

    @pytest.mark.parametrize("kind", CLASSES)
    def test_classify_cases_cover_every_class(self, kind, cold_report):
        entry = cold_report[" ".join(CLASSES[kind])]
        assert json.loads(entry["stdout"])["result"]["class"] == kind

    @pytest.mark.parametrize("name", SCIPY_FREE)
    def test_subcommand_loads_no_scipy(self, name, cold_report):
        entry = cold_report[name]
        assert entry["code"] == 0
        assert entry["stdout"]
        assert entry["scipy"] == []

    @pytest.mark.parametrize("name", ["fixedpoint", "eps-of-eta", "bbar"])
    def test_grid_subcommand_loads_no_numpy_polynomial(self, name,
                                                       cold_report):
        # only the contour quadrature needs its Gauss-Legendre nodes
        assert cold_report[name]["polynomial"] is False

    @pytest.mark.parametrize("argv", CHAIN_ROUTES, ids=" ".join)
    def test_chain_routes_load_no_scipy(self, argv, cold_report):
        entry = cold_report[" ".join(argv)]
        assert entry["code"] == 0
        assert entry["stdout"]
        assert entry["scipy"] == []

    def test_no_module_imports_scipy(self):
        # the chain solver is the package's own DOP853, the residual's
        # interpolant and the independent c0 route its own Hermite and
        # Gauss panels
        assert importers("scipy") == set()

    def test_numpy_imported_at_module_level_only_by_array_modules(self):
        # the array modules at module level and delaycore's four array
        # helpers; profiles, shooting, stability, asymptotics and cli run
        # on Python floats
        assert importers("numpy") == {
            "fixedpoint", "gelsim", "greens", "delaycore.History.eval_many",
            "delaycore.hermite_weights", "delaycore.DenseTrajectory.nodes",
            "delaycore.monotonicity_and_bound_check"}

    def test_laplace_output_unchanged(self, cold_report, capsys):
        entry = cold_report["laplace"]
        assert entry["code"] == 0
        assert entry["scipy"] == []
        _, out, _ = run(capsys, "laplace", "--eta", "1")
        assert entry["stdout"] == out
        vals = [float(v) for v in out.splitlines()[3].split(",")]
        assert vals == pytest.approx([1.0, 1.5936242600400403,
                                      0.52522414608598555,
                                      0.18624975627100621,
                                      1.8223263272343895], rel=1e-14)

    def test_fixedpoint_output_unchanged(self, cold_report, capsys):
        entry = cold_report["fixedpoint"]
        assert entry["code"] == 0
        _, out, _ = run(capsys, "fixedpoint")
        assert entry["stdout"] == out
        doc = json.loads(out)["result"]
        # F on an octave grid with 74 nodes per octave (1408 nodes); the
        # 700-node geomspace grid's 0.0022610539346048803 was 6.8e-8 off
        assert doc["F"] == pytest.approx(0.0022610540889166906, rel=5e-9)
        assert doc["iterations"] == 6
