import dataclasses
import importlib
import inspect

import numpy as np
import pytest

from gelshoot import asymptotics, gelsim, greens
from gelshoot import shooting as sh
from gelshoot.errors import (BracketFailureError, DomainError,
                             NoPlateausError)
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
    ("delaycore.integrate", {"h_max"}),
    ("stability.curve_samples", {"R"}),
    ("stability.stability_empirical", {"horizon", "tol"}),
    ("gelsim.evolve_chain", {"n_out"}),
    ("gelsim.riccati_blowup_estimate", {"window"}),
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


# second copies and unreachable paths, each deleted in favour of the one
# copy that callers use
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
