import ast
import dataclasses
import importlib
import inspect
import logging
import math
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from gelshoot import asymptotics, fixedpoint, gelsim, greens, stability
from gelshoot import delaycore as dc
from gelshoot import shooting as sh
from gelshoot.errors import (BracketFailureError, DomainError,
                             NoPlateausError, StepBudgetError)
from gelshoot.profiles import make_params
from gelshoot.stability import b_star

C0 = 0.2887880950866024      # first moment of the Green kernel Q


class TestClassify:
    @pytest.mark.parametrize("b,kind", [(2.05, "SignChange"),
                                        (2.3, "Oscillating"),
                                        (10.0, "ConvergesToConstant")])
    def test_gamma_two_examples(self, b, kind):
        c = sh.classify(make_params(2.0, b), y_max=200.0)
        assert c.kind == kind

    def test_sign_change_evidence(self):
        c = sh.classify(make_params(2.0, 2.05), y_max=200.0)
        assert c.y_cross == pytest.approx(4.75, abs=0.1)
        assert c.trajectory.eval(c.y_cross * 1.001) < -1e-9

    def test_convergence_evidence(self):
        p = make_params(2.0, 10.0)
        c = sh.classify(p, y_max=200.0)
        assert c.tail_residual < 1e-3
        phi_end = c.trajectory.ts[-1] * c.trajectory.us[-1]
        assert phi_end == pytest.approx(p.phi_inf, abs=1e-3)

    def test_oscillation_evidence(self):
        c = sh.classify(make_params(2.0, 2.3), y_max=500.0)
        assert c.num_extrema >= 3
        assert c.min_level > 0.0

    def test_decisions_stable_under_tol_halving(self):
        for b, kind in [(2.05, "SignChange"), (2.3, "Oscillating"),
                        (10.0, "ConvergesToConstant")]:
            for tol in (1e-9, 5e-10):
                c = sh.classify(make_params(2.0, b), y_max=200.0, tol=tol)
                assert c.kind == kind

    def test_crossing_inside_the_series_segment(self):
        # the series hands over at y0 = 0.3167, where H is already -0.129;
        # the crossing lies inside the series segment, near y = 0.2825
        c = sh.classify(make_params(13.0, 0.2))
        traj = c.trajectory
        assert traj.us[0] < -sh.TOL_NEG
        assert c.y_cross == pytest.approx(0.28249, abs=1e-5)
        assert traj.eval(c.y_cross * (1.0 - 1e-12)) >= -sh.TOL_NEG
        assert traj.eval(c.y_cross * (1.0 + 1e-12)) < -sh.TOL_NEG

    @pytest.mark.parametrize("gamma, b, y_cross", [
        (13.0, 0.2, 0.2824884580182496), (8.0, 0.37, 0.43976346120119736)])
    def test_no_steps_past_a_known_crossing(self, gamma, b, y_cross):
        # the series is below the level at its hand-over node y0, so the
        # run ends there: one node, no integrator step
        c = sh.classify(make_params(gamma, b))
        traj = c.trajectory
        assert traj.ts == [traj.event_t] and traj.us[0] < -sh.TOL_NEG
        assert (c.kind, c.y_cross) == ("SignChange", y_cross)

    @pytest.mark.parametrize("y_max", [4e12, 1e13])
    def test_long_horizon_is_no_step_underflow(self, y_max):
        # the first step, h = 0.039 at y = 0.907, lies below 1e-14 of the
        # whole span from 4e12 on, but not below 1e-14 max(1, y)
        c = sh.classify(make_params(2.0, 10.0), y_max=y_max)
        assert c.kind == "ConvergesToConstant"

    def test_rejects_b_below_b0(self):
        with pytest.raises(DomainError):
            sh.classify(make_params(2.0, 1.9))

    def test_neighborhood_of_b0_changes_sign(self):
        assert sh.classify(make_params(3.0, 1.01),
                           y_max=200.0).kind == "SignChange"


class TestScan:
    def test_grid_classes(self):
        rows = sh.scan_b(2.0, [2.05, 2.3, 10.0], y_max=200.0)
        assert [r["class"] for r in rows] == \
            ["SignChange", "Oscillating", "ConvergesToConstant"]

    def test_rejected_point_recorded_not_raised(self):
        rows = sh.scan_b(2.0, [2.0])
        assert rows[0]["class"] == "Error"
        assert "DomainError" in rows[0]["extra"]["error"]

    def test_arithmetic_error_recorded_not_raised(self, monkeypatch):
        def overflow(*args, **kwargs):
            raise OverflowError("too big")
        monkeypatch.setattr(sh, "classify", overflow)
        rows = sh.scan_b(2.0, [3.0])
        assert rows[0]["class"] == "Error"
        assert rows[0]["extra"]["error"] == "OverflowError: too big"

    def test_programming_error_propagates(self, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("bad call")
        monkeypatch.setattr(sh, "classify", broken)
        with pytest.raises(TypeError, match="bad call"):
            sh.scan_b(2.0, [3.0])


class TestBracket:
    def test_gamma_two_bracket_inside_expected_interval(self):
        br = sh.bracket_bbar(2.0, tol_b=1e-3)
        assert 2.0 < br.b_lo < br.b_hi < b_star(2.0)
        assert br.width <= 1e-3

    def test_nesting_under_tol_refinement(self):
        coarse = sh.bracket_bbar(2.0, tol_b=1e-3)
        fine = sh.bracket_bbar(2.0, tol_b=1e-4)
        assert coarse.b_lo <= fine.b_lo <= fine.b_hi <= coarse.b_hi

    def test_failure_reported_when_nothing_resolves(self):
        # a span too short to observe the sign change classifies both
        # endpoints the same way
        with pytest.raises(BracketFailureError):
            sh.bracket_bbar(2.0, tol_b=1e-3, y_max=2.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            sh.bracket_bbar(2.0, tol_b=0.0)

    def test_gamma_checked_before_b0(self):
        # b0 = 2/(gamma - 1) once divided by zero at gamma = 1
        with pytest.raises(DomainError, match="gamma must exceed 1"):
            sh.bracket_bbar(1.0)

    @pytest.mark.parametrize("gamma", [1.0001, 1.0004, 1.00001])
    def test_start_above_b_star_runs_no_classify(self, gamma, monkeypatch):
        # b*/b0 - 1 falls below the start's 1e-4 for gamma below about
        # 1.00044: the bracket would be reversed before it starts
        def never(*args, **kwargs):
            raise AssertionError("classify ran")

        monkeypatch.setattr(sh, "classify", never)
        with pytest.raises(DomainError) as info:
            sh.bracket_bbar(gamma)
        msg = str(info.value)
        assert f"gamma={gamma!r}" in msg
        assert repr(2.0 / (gamma - 1.0) * (1.0 + 1e-4)) in msg
        assert repr(b_star(gamma)) in msg

    def test_stops_at_adjacent_doubles(self, monkeypatch):
        # a tol_b below the spacing of doubles used to bisect forever
        calls = []
        classify = sh.classify

        def counted(*args, **kwargs):
            calls.append(args)
            return classify(*args, **kwargs)

        monkeypatch.setattr(sh, "classify", counted)
        br = sh.bracket_bbar(2.0, tol_b=1e-300, y_max=50.0)
        assert br.b_hi == np.nextafter(br.b_lo, np.inf)
        assert len(calls) < 60


    def test_reversed_ends_are_no_bracket(self, monkeypatch):
        # SignChange only above the middle of (b0, b_star): the ends differ,
        # but the lower one is not the sign-changing one
        b0, bs = 2.0, b_star(2.0)

        def stub(params, y_max, tol):
            b = params.b
            return SimpleNamespace(
                kind="SignChange" if b > 0.5 * (b0 + bs) else "Oscillating")

        monkeypatch.setattr(sh, "classify", stub)
        with pytest.raises(BracketFailureError) as info:
            sh.bracket_bbar(2.0, tol_b=1e-3)
        assert (info.value.class_lo, info.value.class_hi) == (
            "Oscillating", "SignChange")
        assert info.value.hi == bs


# the halving loops each search had before they shared profiles.bisect,
# kept as references that the shared loop must reproduce bit for bit

def reference_bracket(gamma, tol_b, kind):
    lo = 2.0 / (gamma - 1.0) * (1.0 + 1e-4)
    hi = b_star(gamma)
    k_lo, k_hi = kind(lo), kind(hi)
    if (k_lo == "SignChange") == (k_hi == "SignChange"):
        raise BracketFailureError(lo, hi, k_lo, k_hi)
    while hi - lo > tol_b:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        k_mid = kind(mid)
        if k_mid == "SignChange":
            lo = mid
        else:
            hi = mid
            k_hi = k_mid
    return lo, hi, hi - lo, k_hi


def reference_crossing(traj, level):
    ts, us, _ = traj.nodes()
    i = int(np.nonzero(us < level)[0][0])
    lo, hi = float(ts[i - 1]), float(ts[i])
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if traj.eval(mid) < level:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def _stub_classify(threshold, calls):
    # SignChange below the threshold; above it the verdict alternates with
    # the last bit of b, so class_hi must follow the final upper end
    def stub(params, y_max, tol):
        calls.append((params.gamma, params.b, y_max, tol))
        if params.b < threshold:
            return SimpleNamespace(kind="SignChange")
        odd = int.from_bytes(np.float64(params.b).tobytes(), "little") & 1
        return SimpleNamespace(kind="Undetermined" if odd else "Oscillating")
    return stub


class TestBitwiseAgainstReference:
    @pytest.mark.parametrize("gamma", [1.5, 2.0, 5.0, 13.0])
    @pytest.mark.parametrize("tol_b", [1e-3, 1e-9, 1e-300])
    @pytest.mark.parametrize("where", [0.1, 0.5, 0.999])
    def test_bracket(self, gamma, tol_b, where, monkeypatch):
        lo, hi = 2.0 / (gamma - 1.0) * (1.0 + 1e-4), b_star(gamma)
        threshold = lo + where * (hi - lo)
        new_calls, ref_calls = [], []
        monkeypatch.setattr(sh, "classify",
                            _stub_classify(threshold, new_calls))
        br = sh.bracket_bbar(gamma, tol_b=tol_b, y_max=50.0, tol=1e-8)
        ref_stub = _stub_classify(threshold, ref_calls)
        ref = reference_bracket(
            gamma, tol_b, lambda b: ref_stub(make_params(gamma, b), 50.0,
                                             1e-8).kind)
        assert (br.b_lo, br.b_hi, br.width, br.class_hi) == ref
        assert br.gamma == gamma
        assert new_calls == ref_calls

    def test_bracket_with_the_classifier(self):
        br = sh.bracket_bbar(2.0, tol_b=1e-4, y_max=50.0)
        ref = reference_bracket(2.0, 1e-4, lambda b: sh.classify(
            make_params(2.0, b), y_max=50.0).kind)
        assert (br.b_lo, br.b_hi, br.width, br.class_hi) == ref

    @pytest.mark.parametrize("gamma, b", [(1.5, 4.01), (2.0, 2.05),
                                          (2.0, 2.2), (3.0, 1.02),
                                          (5.0, 0.51)])
    def test_crossing(self, gamma, b):
        traj = sh.classify(make_params(gamma, b), y_max=200.0).trajectory
        assert traj.event_t is not None
        assert sh._refine_crossing(traj).hex() == \
            reference_crossing(traj, -sh.TOL_NEG).hex()


class TestStepBudget:
    # integrate counts its attempted steps against dc.MAX_STEPS: each
    # accepted, rejected or fallen-back step is one attempt
    @pytest.mark.parametrize("b", [1e6, 1e8, 1e12])
    def test_large_b_ends_in_a_class(self, b):
        # at the delay cap y would grow by 2^(1/b) per step, 1.0e7 steps at
        # b = 1e6; steps that read their own panel take about 360
        start = time.perf_counter()
        c = sh.classify(make_params(2.0, b))
        assert time.perf_counter() - start <= 0.5
        assert c.kind in ("SignChange", "ConvergesToConstant", "Oscillating",
                          "Undetermined")

    def test_limit_profile_has_the_same_budget(self, monkeypatch):
        # this run takes 710 steps
        monkeypatch.setattr(dc, "MAX_STEPS", 100)
        with pytest.raises(StepBudgetError, match="limit-h run") as info:
            sh.limit_profile(1.0 - 1e-7)
        assert len(info.value.trajectory.ts) == 101
        assert info.value.location == info.value.trajectory.ts[-1] < 2e5

    # (2, 2.3) rejects steps; (3, 200) at two passes falls back
    @pytest.mark.parametrize("gamma,b,passes", [(2.0, 2.3, dc.MAX_PASSES),
                                                (3.0, 200.0, 2)])
    def test_budget_counts_every_attempt(self, gamma, b, passes,
                                         monkeypatch):
        monkeypatch.setattr(dc, "MAX_PASSES", passes)
        p = make_params(gamma, b)
        traj = sh.h_profile(p, 500.0)
        ts = traj.ts
        assert traj.n_rejected + traj.n_fallback > 0
        attempts = len(ts) - 1 + traj.n_rejected + traj.n_fallback
        monkeypatch.setattr(dc, "MAX_STEPS", attempts)
        assert sh.h_profile(p, 500.0).ts == ts
        monkeypatch.setattr(dc, "MAX_STEPS", attempts - 1)
        with pytest.raises(StepBudgetError) as info:
            sh.h_profile(p, 500.0)
        # the last attempt is the accepted step that reaches y_max, so the
        # run stops one node short with every rejection and fallback made
        err = info.value
        assert err.trajectory.ts == ts[:-1] and err.location == ts[-2]
        assert str(err) == (
            f"H run: step budget spent at t = {ts[-2]:.6g} of 500 "
            f"({len(ts) - 2} accepted, {traj.n_rejected} rejected, "
            f"{err.trajectory.n_passes} extra passes, {traj.n_fallback} "
            "fallbacks)")

    @pytest.mark.parametrize("kw", [{"y_max": math.inf}, {"y_max": math.nan},
                                    {"y_max": 1e-13}, {"tol": math.inf}])
    def test_bad_span_or_tol_is_checked_first(self, kw):
        with pytest.raises(DomainError):
            sh.classify(make_params(2.0, 1e6), **kw)

    def test_own_panel_steps_stay_inside_the_budget(self):
        # 511,767 steps at the delay cap (5.6-10 s); steps that read their
        # own panel take 351
        start = time.perf_counter()
        c = sh.classify(make_params(2.0, 5e4))
        assert time.perf_counter() - start <= 1.0
        assert c.trajectory.n_overlap > 0
        assert len(c.trajectory.ts) < 1000

    def test_series_run_logs_its_counts(self, caplog):
        caplog.set_level(logging.DEBUG, logger="gelshoot.shooting")
        traj = sh.h_profile(make_params(3.0, 200.0), 500.0)
        [msg] = [r.getMessage() for r in caplog.records
                 if r.name == "gelshoot.shooting"]
        assert msg == (f"H run: {len(traj.ts) - 1} steps, {traj.n_overlap} "
                       f"on own panels, {traj.n_passes} extra passes, "
                       f"{traj.n_fallback} fallbacks")
        assert traj.n_overlap > 0

    @pytest.mark.parametrize("b", [1e17, 1e300])
    def test_vanishing_lag_is_a_domain_error(self, b):
        # q = 2^(-1/b) rounds to 1 from b ~ 1.2487e16, where no step can
        # grow y
        with pytest.raises(DomainError,
                           match="H equation: delay ratio 1.0 not in"):
            sh.classify(make_params(2.0, b))


class TestLimitProfile:
    def test_positive_eps_stays_positive_with_floor(self):
        run = sh.limit_profile(0.05, y_max=1e4)
        assert run.crossed_zero_at is None
        ts, us, _ = run.trajectory.nodes()
        floor = np.min(us * (1.0 + ts))
        assert floor > 0.0

    def test_negative_eps_changes_sign(self):
        run = sh.limit_profile(-0.02, y_max=1e4)
        assert run.crossed_zero_at is not None
        assert run.trajectory.eval(run.crossed_zero_at * 1.0001) < 0.0

    def test_zero_eps_is_plain_decay(self):
        run = sh.limit_profile(0.0, y_max=40.0)
        ts, us, _ = run.trajectory.nodes()
        assert np.max(np.abs(us - np.exp(-ts))) < 1e-7

    def test_short_run_starts_inside_its_span(self):
        # the series switchover (0.95 here) lies beyond y_max, so the run
        # starts at y_max / 4 as h_profile's does
        run = sh.limit_profile(0.05, y_max=2.0)
        ts, _, _ = run.trajectory.nodes()
        assert (ts[0], ts[-1]) == (0.5, 2.0)


class TestPlateaus:
    def test_ratios_near_c0_eps(self):
        run = sh.limit_profile(0.05, y_max=4e5)
        diag = sh.plateau_diagnostics(run.trajectory, 0.05)
        assert len(diag["levels"]) >= 3
        target = C0 * 0.05
        for r in diag["ratios"]:
            assert abs(r - target) / target < 0.30

    def test_levels_descend_geometrically(self):
        run = sh.limit_profile(0.05, y_max=4e5)
        diag = sh.plateau_diagnostics(run.trajectory, 0.05)
        lv = diag["levels"]
        assert all(b < 0.1 * a for a, b in zip(lv, lv[1:]))

    def test_no_plateaus_for_pure_decay(self):
        run = sh.limit_profile(0.0, y_max=40.0)
        with pytest.raises(NoPlateausError):
            sh.plateau_diagnostics(run.trajectory, 0.0)

    def test_smaller_eps_scales_the_ratio(self):
        run = sh.limit_profile(0.02, y_max=1e7)
        diag = sh.plateau_diagnostics(run.trajectory, 0.02)
        target = C0 * 0.02
        assert abs(diag["ratios"][0] - target) / target < 0.30


# functions and the parameters they must not take: a value that no caller
# sets is a module constant or a literal, not a defaulted parameter
RETIRED = [
    ("shooting.h_profile", {"n_series", "tol_neg", "stop_on_sign_change"}),
    ("shooting.classify", {"tols"}),
    ("shooting.scan_b", {"tols"}),
    ("shooting.bracket_bbar", {"tols"}),
    ("shooting.limit_profile", {"tol_neg"}),
    ("shooting._plateau_levels",
     {"tread_slope", "riser_slope", "level_cap", "pts_per_decade"}),
    ("shooting.plateau_diagnostics", {"slope_tol"}),
    ("delaycore.integrate", {"h_max", "value_cap"}),
    ("stability.curve_samples", {"R", "n_samples"}),
    ("stability.stability_empirical", {"horizon", "tol"}),
    ("gelsim.evolve_chain", {"n_out"}),
    ("gelsim.riccati_blowup_estimate", {"window"}),
    ("gelsim.gelation_scan", {"feeder"}),
    ("greens.gtilde_exact", {"n_terms"}),
    ("greens.g_decomposition", {"n_terms"}),
    ("greens.bounds_audit", {"xi_grid", "x_offsets", "xi_pairs", "cfg"}),
    ("asymptotics.psi_log_eval", {"N"}),
    ("asymptotics.psi_series_eval", {"N"}),
    ("asymptotics.psi_derivative", {"N"}),
    ("asymptotics._psi_log_terms", {"N"}),
    ("asymptotics.Gamma1Profile.switchover", {"tol"}),
    ("asymptotics.matching_closure", {"c0_amp"}),
    ("profiles.series_switchover", {"tol"}),
    ("fixedpoint.picard_solve", {"max_iter"}),
    ("stability.winding_number", {"n_samples", "R"}),
]


class TestRetiredKnobs:
    @pytest.mark.parametrize("path,retired", RETIRED,
                             ids=[path for path, _ in RETIRED])
    def test_function_takes_no_retired_knob(self, path, retired):
        module, *attrs = path.split(".")
        obj = importlib.import_module(f"gelshoot.{module}")
        for attr in attrs:
            obj = getattr(obj, attr)
        assert not retired & set(inspect.signature(obj).parameters)

    def test_retired_holders_are_gone(self):
        assert not hasattr(sh, "ClassifyTols")
        assert not hasattr(gelsim, "INITIAL_PROFILES")
        assert not hasattr(asymptotics.Gamma1Profile, "eval_deriv")
        fields = {f.name for f in dataclasses.fields(greens.GreensEval)}
        assert "N_terms" not in fields

    def test_retired_record_fields_are_gone(self):
        # each was unread, constant, or a second copy of another field
        for record, gone in [
                (gelsim.ChainSolution, {"chain", "blew_up", "dense"}),
                (gelsim.SimDiagnostics, {"collapse_metric"}),
                (gelsim.DyadicChain, {"t"}),
                (stability.DecayReport, {"rate_fit", "escaped", "horizon"}),
                (asymptotics.Gamma1Profile, {"a1", "truncation"}),
                (greens.GreensEval, {"L_tilde"})]:
            assert not {f.name for f in dataclasses.fields(record)} & gone

    def test_settable_values_within_budget(self):
        # defaulted parameters plus defaulted dataclass fields in the
        # package; a new knob has to raise this budget on purpose
        count = 0
        for path in Path(sh.__file__).parent.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.arguments):
                    count += len(node.defaults) + sum(
                        d is not None for d in node.kw_defaults)
                elif isinstance(node, ast.ClassDef) and any(
                        "dataclass" in ast.unparse(d)
                        for d in node.decorator_list):
                    count += sum(isinstance(s, ast.AnnAssign)
                                 and s.value is not None for s in node.body)
        assert count <= 46


# second copies and unreachable paths, each deleted in favour of the one
# copy that callers use, and surface that no caller used
DELETED = [
    ("delaycore.DenseTrajectory", "to_csv"),
    ("delaycore.DenseTrajectory", "t_start"),
    ("delaycore.DenseTrajectory", "t_end"),
    ("delaycore.History", "deriv"),
    ("delaycore.SeriesHistory", "deriv"),
    ("cli", "HANDLERS"),
    ("profiles", "JSON_FIELDS"),
    ("asymptotics", "B_CRITICAL"),
    ("shooting.CriticalBracket", "__contains__"),
    ("fixedpoint.FixedPointGrid", "interp"),
    ("profiles", "convert"),
    ("profiles", "_convert_adjacent"),
    ("profiles", "ProfileGrid"),
    ("profiles", "VARIANTS"),
    ("profiles.ModelParams", "to_json"),
    ("profiles.ModelParams", "from_json"),
    ("profiles", "series_error_estimate"),
    ("delaycore", "order_step_cap"),
    ("fixedpoint", "profile_in_h_variables"),
    ("fixedpoint", "r_eval"),
    ("fixedpoint", "_decay_fit"),
    ("fixedpoint.CriticalProfile", "h_interp"),
    ("fixedpoint.FixedPointState", "decay_rate_fit"),
    ("fixedpoint.FixedPointState", "amplitude_fit"),
    ("fixedpoint", "zero_state"),
    ("fixedpoint", "apply_T"),
    ("fixedpoint.FixedPointState", "interp"),
    ("asymptotics", "_X_OVER_EXPM1"),
    ("greens", "_residue_block"),
    ("delaycore", "ConstantHistory"),
    ("delaycore", "PASS_TOL"),
    ("gelsim.DyadicChain", "K"),
    ("gelsim.ChainSolution", "state_at"),
]


class TestSecondCopiesGone:
    @pytest.mark.parametrize("path,name", DELETED,
                             ids=[f"{p}.{n}" for p, n in DELETED])
    def test_deleted_name_stays_gone(self, path, name):
        module, *attrs = path.split(".")
        obj = importlib.import_module(f"gelshoot.{module}")
        for attr in attrs:
            obj = getattr(obj, attr)
        assert not hasattr(obj, name)

    def test_fixed_point_state_stores_each_fact_once(self):
        # iterations is the length of sup_diff_history, not a field beside it
        fields = {f.name
                  for f in dataclasses.fields(fixedpoint.FixedPointState)}
        assert not fields & {"decay_rate_fit", "amplitude_fit", "iterations"}
