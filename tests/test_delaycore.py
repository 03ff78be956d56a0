import ast
import bisect
import dataclasses
import inspect
import math
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gelshoot import asymptotics, greens, stability
from gelshoot import delaycore as dc
from gelshoot import shooting as sh
from gelshoot.errors import (BlowUpError, DomainError, OutOfRangeError,
                             StepUnderflowError)
from gelshoot.profiles import (local_series, make_params, pantograph_series,
                               series_eval, series_switchover)


def exp_history():
    series = pantograph_series(0.5, 0.0, 30)
    y0 = series_switchover(series)
    return dc.SeriesHistory(series, y0), y0


class TestClosedFormCases:
    def test_limit_equation_matches_exponential(self):
        hist, y0 = exp_history()
        traj = dc.integrate(dc.limit_h_equation(0.0), hist, (y0, 10.0),
                            tol=1e-10)
        ys = np.linspace(0.0, 10.0, 1500)
        err = np.max(np.abs(traj.eval_many(ys) - np.exp(-ys)))
        assert err < 1e-8

    def test_constant_profile_is_exact(self):
        p = make_params(2.0, 2.0)   # sigma = 1: H stays at 1
        s = local_series(p, 40)
        traj = dc.integrate(dc.h_equation(p), dc.SeriesHistory(s, 0.5),
                            (0.5, 20.0), tol=1e-10)
        assert np.max(np.abs(np.asarray(traj.us) - 1.0)) < 1e-12

    def test_point_source_grows_exponentially_before_the_fold(self):
        xi = 1.0
        zero = dc.FunctionHistory(lambda t: 0.0, -math.inf, xi)
        traj = dc.integrate(dc.linear_g_equation(), zero, (xi, 2.0 * xi),
                            tol=1e-10, u0=1.0)
        xs = np.linspace(xi, 2.0 * xi, 300)
        err = np.max(np.abs(traj.eval_many(xs) - np.exp(xs - xi)))
        assert err < 1e-8


class TestOrder:
    def test_tol_halving_on_decaying_case(self):
        hist, y0 = exp_history()
        ys = np.linspace(0.0, 10.0, 1500)
        errs = []
        for tol in (1e-10, 5e-11, 2.5e-11, 1.25e-11):
            traj = dc.integrate(dc.limit_h_equation(0.0), hist, (y0, 10.0),
                                tol=tol)
            errs.append(np.max(np.abs(traj.eval_many(ys) - np.exp(-ys))))
        assert errs[0] < 1e-8
        for a, b in zip(errs, errs[1:]):
            assert a / b >= 8.0

    def test_tol_halving_on_growing_case(self):
        # one halving before the roundoff floor of the growing solution
        xi = 1.0
        xs = np.linspace(xi, 2.0 * xi, 300)
        errs = []
        for tol in (1e-10, 5e-11):
            zero = dc.FunctionHistory(lambda t: 0.0, -math.inf, xi)
            traj = dc.integrate(dc.linear_g_equation(), zero,
                                (xi, 2.0 * xi), tol=tol, u0=1.0)
            errs.append(np.max(np.abs(traj.eval_many(xs) - np.exp(xs - xi))))
        assert errs[0] / errs[1] >= 8.0


class TestDenseOutput:
    def test_nodes_reproduce_exactly(self):
        hist, y0 = exp_history()
        traj = dc.integrate(dc.limit_h_equation(0.0), hist, (y0, 10.0),
                            tol=1e-9)
        for i in (0, len(traj.ts) // 2, len(traj.ts) - 1):
            assert traj.eval(traj.ts[i]) == traj.us[i]

    def test_midpoint_against_closed_form(self):
        hist, y0 = exp_history()
        traj = dc.integrate(dc.limit_h_equation(0.0), hist, (y0, 10.0),
                            tol=1e-10)
        assert traj.eval(1.5) == pytest.approx(math.exp(-1.5), abs=1e-9)

    def test_constant_everywhere(self):
        hist = dc.FunctionHistory(lambda t: 0.25, -1.0, 0.0)
        rhs = dc.DelayRHS("still", lambda t, u, ud: 0.0,
                          lambda t: t - 0.5, lambda t: 0.5)
        traj = dc.integrate(rhs, hist, (0.0, 3.0), tol=1e-9)
        assert traj.eval(1.234) == 0.25

    def test_function_history_eval_many_keeps_shape(self):
        hist = dc.FunctionHistory(lambda z: 0.5 * math.exp(z), -2.0, 0.0)
        ts = np.linspace(-2.0, 0.0, 6).reshape(2, 3)
        out = hist.eval_many(ts)
        assert out.shape == (2, 3)
        assert out.tolist() == [[hist.eval(t) for t in row] for row in ts]

    def test_restart_consistency(self):
        p = make_params(2.0, 4.0)
        s = local_series(p, 40)
        y0 = series_switchover(s)
        tol = 1e-9
        traj = dc.integrate(dc.h_equation(p), dc.SeriesHistory(s, y0),
                            (y0, 20.0), tol=tol)
        y_mid = traj.ts[len(traj.ts) // 2]
        hist2 = dc.FunctionHistory(traj.eval, 0.0, y_mid)
        traj2 = dc.integrate(dc.h_equation(p), hist2, (y_mid, 20.0), tol=tol)
        ys = np.linspace(y_mid, 20.0, 200)
        diff = np.max(np.abs(traj.eval_many(ys) - traj2.eval_many(ys)))
        assert diff < 10.0 * tol

    def test_out_of_range_raises(self):
        hist, y0 = exp_history()
        traj = dc.integrate(dc.limit_h_equation(0.0), hist, (y0, 5.0),
                            tol=1e-9)
        with pytest.raises(OutOfRangeError):
            traj.eval(6.0)
        with pytest.raises(OutOfRangeError):
            traj.eval_many(np.array([1.0, 5.5]))
        # NaN compares false with every node; it must not fall through to
        # the last node value
        with pytest.raises(OutOfRangeError):
            traj.eval(math.nan)
        with pytest.raises(OutOfRangeError):
            traj.deriv(math.nan)


class TestMonotonicityAndBound:
    @pytest.mark.parametrize("gamma,b,span", [(2.0, 4.0, 20.0),
                                              (3.0, 2.0, 20.0)])
    def test_no_violations_above_b0(self, gamma, b, span):
        p = make_params(gamma, b)
        s = local_series(p, 40)
        y0 = series_switchover(s)
        traj = dc.integrate(dc.h_equation(p), dc.SeriesHistory(s, y0),
                            (y0, span), tol=1e-9)
        rep = dc.monotonicity_and_bound_check(traj, p)
        assert rep["monotone_ok"]
        assert rep["bound_ok"]

    def test_degenerate_bound_holds_with_equality(self):
        p = make_params(2.0, 2.0)
        s = local_series(p, 40)
        traj = dc.integrate(dc.h_equation(p), dc.SeriesHistory(s, 0.5),
                            (0.5, 10.0), tol=1e-9)
        rep = dc.monotonicity_and_bound_check(traj, p)
        assert rep["bound_ok"]            # 1/(1+0*y) = 1 >= H = 1

    def test_pointwise_bound_value(self):
        # H(1) <= 1/(1 + (sigma-1)) = 2^(-0.8) at gamma=2, b=10
        p = make_params(2.0, 10.0)
        s = local_series(p, 40)
        y0 = series_switchover(s)
        traj = dc.integrate(dc.h_equation(p), dc.SeriesHistory(s, y0),
                            (y0, 2.0), tol=1e-9)
        assert p.sigma == pytest.approx(2.0 ** 0.8, rel=1e-15)
        assert traj.eval(1.0) <= 1.0 / p.sigma + 1e-9

    def test_strict_decrease_while_positive(self):
        p = make_params(2.0, 4.0)
        s = local_series(p, 40)
        y0 = series_switchover(s)
        traj = dc.integrate(dc.h_equation(p), dc.SeriesHistory(s, y0),
                            (y0, 20.0), tol=1e-9)
        ts, us, dus = traj.nodes()
        live = us > 1e-9
        assert np.all(dus[live] < 0.0)


class TestFailureModes:
    def test_blow_up_reported_with_location(self):
        # u' = u^2 from u(0) = 1 diverges at t = 1
        rhs = dc.DelayRHS("riccati", lambda t, u, ud: u * u,
                          lambda t: 0.0, lambda t: 1.0)
        hist = dc.FunctionHistory(lambda t: 1.0, 0.0, 0.0)
        with pytest.raises(BlowUpError) as info:
            dc.integrate(rhs, hist, (0.0, 2.0), tol=1e-9)
        assert info.value.location == pytest.approx(1.0, abs=1e-4)
        assert info.value.trajectory is not None
        assert abs(info.value.trajectory.us[-1]) > dc.VALUE_CAP

    def test_step_underflow_near_singularity(self):
        # no step is accepted on a failed error test, however short: the
        # steps shrink towards t = 1 until the underflow test ends the run
        rhs = dc.DelayRHS("singular", lambda t, u, ud: 1.0 / (1.0 - t),
                          lambda t: 0.0, lambda t: 1.0)
        hist = dc.FunctionHistory(lambda t: 0.0, 0.0, 0.0)
        with pytest.raises(StepUnderflowError) as info:
            dc.integrate(rhs, hist, (0.0, 1.0), tol=1e-10, u0=0.0)
        assert 0.99 < info.value.location < 1.0

    def test_zero_delay_cap_is_a_step_underflow(self):
        # a proportional delay from the origin has no step that looks up
        # only known values: the loop's underflow test refuses h = 0
        hist = dc.FunctionHistory(lambda t: 1.0, 0.0, 0.0)
        with pytest.raises(StepUnderflowError) as info:
            dc.integrate(dc.linear_g_equation(), hist, (0.0, 1.0))
        assert (info.value.location, info.value.step) == (0.0, 0.0)

    def test_nan_estimate_shrinks_the_step(self):
        # a right-hand side that turns NaN fails every error test; the
        # rejected steps shrink to the underflow bound rather than growing
        # through the step budget
        rhs = dc.DelayRHS("nan-past-half",
                          lambda t, u, ud: math.nan if t > 0.5 else 1.0,
                          lambda t: 0.0, lambda t: 1.0)
        hist = dc.FunctionHistory(lambda t: 0.0, 0.0, 0.0)
        with pytest.raises(StepUnderflowError) as info:
            dc.integrate(rhs, hist, (0.0, 1.0), tol=1e-10, u0=0.0)
        assert info.value.location == pytest.approx(0.5, abs=1e-12)

    def test_bad_span_rejected(self):
        hist, y0 = exp_history()
        with pytest.raises(DomainError):
            dc.integrate(dc.limit_h_equation(0.0), hist, (y0, y0 - 1.0))

    @pytest.mark.parametrize("end", [math.inf, math.nan])
    def test_non_finite_span_end_rejected(self, end):
        # an infinite end used to take zero steps and return the start node
        hist, y0 = exp_history()
        with pytest.raises(DomainError, match="finite"):
            dc.integrate(dc.limit_h_equation(0.0), hist, (y0, end))

    def test_span_below_end_tolerance_rejected(self):
        # a span within the end-point tolerance used to return its start
        # node alone
        hist = dc.FunctionHistory(lambda t: 1.0, 0.0, 1.0)
        with pytest.raises(DomainError, match="end-point tolerance"):
            dc.integrate(dc.linear_g_equation(), hist, (1.0, 1.0 + 1e-13))

    def test_event_stops_the_run(self):
        hist, y0 = exp_history()
        traj = dc.integrate(dc.limit_h_equation(0.0), hist, (y0, 10.0),
                            tol=1e-9,
                            stop_condition=lambda t, u: u < 0.5)
        assert traj.event_t is not None
        assert traj.event_t < 1.0
        assert traj.us[-1] < 0.5


def _h_run_3_200():
    # the delay cap, 0.0035 y, lies far below the order cap
    p = make_params(3.0, 200.0)
    s = local_series(p, 40)
    y0 = series_switchover(s)
    return dc.h_equation(p), dc.SeriesHistory(s, y0), (y0, 200.0), {}


def _phi_run_short_shift():
    # the shift d = 0.069 lies below the order cap, 0.16 at tol 1e-9
    p = make_params(2.0, 10.0)
    return (dc.phi_equation(p),
            dc.FunctionHistory(lambda z: 0.5 * math.exp(z), -p.d, 0.0),
            (0.0, 6.0), {})


class TestWorkCounts:
    def test_eleven_f_evals_per_accepted_step(self):
        # one evaluation at the start node; an accepted step costs ten for
        # the step doubling plus one for the new node derivative, and a
        # rejected step the ten alone
        calls = []
        p = make_params(2.0, 2.3)
        rhs = dc.h_equation(p)

        def counted(y, u, ud):
            calls.append(y)
            return rhs.f(y, u, ud)

        s = local_series(p, 40)
        y0 = series_switchover(s)
        traj = dc.integrate(dataclasses.replace(rhs, f=counted),
                            dc.SeriesHistory(s, y0), (y0, 40.0), tol=1e-9)
        accepted = len(traj.ts) - 1
        assert accepted > 0
        assert len(calls) == 1 + 11 * accepted + 10 * traj.n_rejected

    @pytest.mark.parametrize("passes", [dc.MAX_PASSES, 2])
    @pytest.mark.parametrize("make_run", [_h_run_3_200, _phi_run_short_shift])
    def test_f_evals_with_own_panel_steps(self, make_run, passes,
                                          monkeypatch):
        # a step that reads its own panel adds 8 per extra pass (the
        # provisional node's derivative and a re-solve of the two half
        # steps; the full step of the estimate is taken once, after the
        # last pass); a fallback to the delay cap adds the 7 of its first,
        # unconverged half-step solve
        monkeypatch.setattr(dc, "MAX_PASSES", passes)
        calls = []
        rhs, init, span, kw = make_run()

        def counted(y, u, ud):
            calls.append(y)
            return rhs.f(y, u, ud)

        traj = dc.integrate(dataclasses.replace(rhs, f=counted), init, span,
                            tol=1e-9, **kw)
        accepted = len(traj.ts) - 1
        assert traj.n_overlap > 0 and traj.n_passes > 0
        assert len(calls) == 1 + 11 * accepted + 10 * traj.n_rejected \
            + 8 * traj.n_passes + 7 * traj.n_fallback
        if passes == 2:
            assert traj.n_fallback > 0

    def test_a_fallback_bounds_the_later_steps(self, monkeypatch):
        # phi with the shift d = 0.076: a step of about 7 d does not settle,
        # and every later step stays below half way from it to the delay
        # cap, so the run falls back once where it would every third step
        p = make_params(1.62, 9.169)
        hist = dc.FunctionHistory(
            lambda z: p.phi_inf * (1.0 + 0.05 * math.cos(z)), -p.d, 0.0)

        def f_evals():
            run = dc.integrate(dc.phi_equation(p), hist, (0.0, 200.0),
                               tol=1e-9)
            return run, 1 + 11 * (len(run.ts) - 1) + 10 * run.n_rejected \
                + 8 * run.n_passes + 7 * run.n_fallback

        run, work = f_evals()
        assert 1 <= run.n_fallback <= 2 and run.n_overlap > 500
        monkeypatch.setattr(dc, "MAX_PASSES", 0)
        capped, capped_work = f_evals()
        assert capped.n_fallback > 20
        assert work < 0.6 * capped_work

    def test_one_lookup_per_stage_abscissa(self):
        # the start node and four or five distinct stage abscissae per
        # attempted step; the new node of an accepted step reuses the
        # lookup at t + h of the step's last pass
        calls = []
        p = make_params(2.0, 2.3)
        rhs = dc.h_equation(p)

        def counted(y):
            calls.append(y)
            return rhs.delay_arg(y)

        s = local_series(p, 40)
        y0 = series_switchover(s)
        traj = dc.integrate(dataclasses.replace(rhs, delay_arg=counted),
                            dc.SeriesHistory(s, y0), (y0, 40.0), tol=1e-9)
        accepted, rejected = len(traj.ts) - 1, traj.n_rejected
        assert rejected > 0
        assert 1 + 4 * (accepted + rejected) <= len(calls)
        assert len(calls) <= 1 + 5 * (accepted + rejected)


# ---------------------------------------------------------------------------
# reference integrator: the step loop as it was before the stage lookups
# were shared (one RK4 closure, one delayed lookup per stage, the original
# dense evaluation); integrate must reproduce it bit for bit


class _ReferenceTrajectory(dc.DenseTrajectory):
    def _hermite(self, i, t):
        t0, t1 = self.ts[i], self.ts[i + 1]
        h = t1 - t0
        s = (t - t0) / h
        s2 = s * s
        s3 = s2 * s
        return ((2.0 * s3 - 3.0 * s2 + 1.0) * self.us[i]
                + (s3 - 2.0 * s2 + s) * h * self.dus[i]
                + (-2.0 * s3 + 3.0 * s2) * self.us[i + 1]
                + (s3 - s2) * h * self.dus[i + 1])

    def eval(self, t):
        if t < self.ts[0]:
            return self.history.eval(t)
        span = max(abs(self.ts[-1]), 1.0)
        if t > self.ts[-1]:
            if t > self.ts[-1] + dc._EDGE_TOL * span:
                raise OutOfRangeError(t)
            return self.us[-1]
        i = bisect.bisect_right(self.ts, t) - 1
        if i >= len(self.ts) - 1:
            return self.us[-1]
        if t == self.ts[i]:
            return self.us[i]
        return self._hermite(i, t)


def reference_integrate(rhs, init, span, tol, u0=None):
    t0, t1 = float(span[0]), float(span[1])
    traj = _ReferenceTrajectory(init)
    t = t0
    u = float(init.eval(t0)) if u0 is None else float(u0)

    def delayed(tt):
        ta = rhs.delay_arg(tt)
        if ta < t0:
            return init.eval(ta)
        return traj.eval(ta)

    def f(tt, uu):
        return rhs.f(tt, uu, delayed(tt))

    def rk4(ta, ua, h, k1):
        k2 = f(ta + 0.5 * h, ua + 0.5 * h * k1)
        k3 = f(ta + 0.5 * h, ua + 0.5 * h * k2)
        k4 = f(ta + h, ua + h * k3)
        return ua + h * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0

    def caps(tt):
        c = min(dc.H_REF * (tol / dc.TOL_REF) ** dc.ORDER_EXP
                * max(1.0, abs(tt) / dc.T_SCALE), t1 - tt)
        return min(c, rhs.step_cap(tt) * (1.0 - 1e-12))

    du = f(t, u)
    traj._append(t, u, du)
    h = min(caps(t), 0.05 / (1.0 + abs(du)))
    while t < t1 - dc._EDGE_TOL * max(1.0, abs(t1)):
        h = min(h, caps(t))
        u_full = rk4(t, u, h, du)
        u_half = rk4(t, u, 0.5 * h, du)
        u2 = rk4(t + 0.5 * h, u_half, 0.5 * h, f(t + 0.5 * h, u_half))
        est = abs(u2 - u_full)
        scale = tol * (1.0 + abs(u2))
        if est <= scale or h <= 1e-13 * max(1.0, abs(t)):
            t = t + h
            u = u2
            du = f(t, u)
            traj._append(t, u, du)
            h *= min(5.0, max(0.2, 0.9 * (scale / est) ** 0.2)) \
                if est > 0.0 else 5.0
        else:
            traj.n_rejected += 1
            h *= max(0.2, 0.9 * (scale / est) ** 0.2)
    return traj


def _bytes(traj):
    return tuple(np.asarray(a, dtype=float).tobytes()
                 for a in (traj.ts, traj.us, traj.dus))


def _h_run():
    p = make_params(2.0, 2.3)
    s = local_series(p, 40)
    y0 = series_switchover(s)
    return dc.h_equation(p), dc.SeriesHistory(s, y0), (y0, 40.0), {}


def _phi_run():
    p = make_params(2.0, 3.0)
    return (dc.phi_equation(p),
            dc.FunctionHistory(lambda z: 0.5 * math.exp(z), -p.d, 0.0),
            (0.0, 6.0), {})


def _linear_g_run():
    return (dc.linear_g_equation(),
            dc.FunctionHistory(lambda t: 0.0, -math.inf, 1.0),
            (1.0, 12.0), {"u0": 1.0})


def _gamma1_log_run():
    return (dc.gamma1_log_equation(1.5),
            dc.FunctionHistory(lambda z: 1.0 / (1.0 + math.exp(z)),
                               -dc.LN2, 0.0),
            (0.0, 10.0), {})


class TestBitwiseAgainstReference:
    @pytest.mark.parametrize("make_run", [_h_run, _phi_run, _linear_g_run,
                                          _gamma1_log_run])
    def test_trajectory_bytes_identical(self, make_run):
        rhs, init, span, kw = make_run()
        new = dc.integrate(rhs, init, span, tol=1e-9, **kw)
        ref = reference_integrate(rhs, init, span, 1e-9, **kw)
        assert len(new.ts) > 20
        assert _bytes(new) == _bytes(ref)
        assert new.n_rejected == ref.n_rejected
        if make_run is _h_run:
            assert new.n_rejected > 0

    @pytest.mark.parametrize("make_run", [_h_run_3_200, _phi_run_short_shift])
    def test_corrector_off_is_the_delay_capped_step(self, make_run,
                                                    monkeypatch):
        # with no pass allowed every step past the delay cap falls back to
        # it, as every step was capped before steps could read their own
        # panel; the fallbacks are not rejections
        rhs, init, span, kw = make_run()
        assert dc.integrate(rhs, init, span, tol=1e-9, **kw).n_overlap > 0
        monkeypatch.setattr(dc, "MAX_PASSES", 0)
        new = dc.integrate(rhs, init, span, tol=1e-9, **kw)
        ref = reference_integrate(rhs, init, span, 1e-9, **kw)
        assert new.n_fallback > 0 and new.n_overlap == new.n_passes == 0
        assert _bytes(new) == _bytes(ref)
        assert new.n_rejected == ref.n_rejected


# h_profile(p, 500) runs whose steps read their own panel, against the
# delay-capped run of the same point (every step falls back)
OWN_PANEL_POINTS = [(2.0, 150.0), (2.0, 1e3), (3.583, 294.85), (4.8, 81.0),
                    (1.3, 250.0)]


class TestOwnPanelAccuracy:
    @staticmethod
    def _error(p, tol, monkeypatch):
        run = sh.h_profile(p, 500.0, tol=tol)
        with monkeypatch.context() as m:
            m.setattr(dc, "MAX_PASSES", 0)
            ref = sh.h_profile(p, 500.0, tol=tol)
        assert run.n_overlap > 0 and ref.n_overlap == 0
        assert len(run.ts) < len(ref.ts)
        y = np.geomspace(run.ts[0], min(run.ts[-1], ref.ts[-1]), 3000)
        return float(np.max(np.abs(run.eval_many(y) - ref.eval_many(y))))

    @pytest.mark.parametrize("gamma,b", OWN_PANEL_POINTS)
    def test_near_the_delay_capped_run_and_converging(self, gamma, b,
                                                      monkeypatch):
        # measured 1.8e-9 ... 4.8e-8 at tol 1e-9, falling 1.7-1.8x per
        # halving of tol (the tol^0.8 rate of per-step error control)
        p = make_params(gamma, b)
        errs = [self._error(p, tol, monkeypatch)
                for tol in (1e-9, 5e-10, 2.5e-10, 1.25e-10)]
        assert errs[0] <= 1e-7
        for coarse, fine in zip(errs, errs[1:]):
            assert coarse >= 1.5 * fine


# points whose delay ratio 2^(-1/b) is near 1: nearly every step of their
# H runs reads its own panel
OWN_PANEL_PRECISION_POINTS = [(2.0, 300.0), (2.0, 1e4), (3.5, 300.0),
                              (3.5, 1e4)]


class TestOwnPanelPrecision:
    @pytest.mark.parametrize("gamma,b", OWN_PANEL_PRECISION_POINTS)
    def test_within_a_fraction_of_tol_of_a_tight_run(self, gamma, b):
        # against tol 1e-12 the worst of the three abscissae reads 0.26-0.50
        # of tol (1 + |H|) here, 0.38-0.51 with PASS_TOL = 0.1, up to 0.73
        # with PASS_TOL = 3 and up to 1.79 with PASS_TOL = 10; the reference
        # runs at 1e-11, which takes 0.2-0.3 s against 1.5-2 s at 1e-12
        p = make_params(gamma, b)
        tol = 1e-9
        run = sh.h_profile(p, 500.0, tol=tol)
        ref = sh.h_profile(p, 500.0, tol=1e-11)
        assert run.n_overlap > 300
        for y in (20.0, 100.0, 499.0):
            h = run.eval(y)
            assert abs(h - ref.eval(y)) <= 0.6 * tol * (1.0 + abs(h))


# large-b shoot-map points and their classes, as the delay-capped steps
# classified them
LARGE_B_KINDS = [
    (1.392, 238.9, "Undetermined"), (1.798, 72.28, "Undetermined"),
    (1.798, 252.4, "Undetermined"), (2.046, 115.3, "Undetermined"),
    (2.046, 278.6, "Undetermined"), (2.208, 157.9, "Undetermined"),
    (2.945, 79.84, "ConvergesToConstant"),
    (2.945, 278.6, "ConvergesToConstant"),
    (3.583, 294.85, "ConvergesToConstant"),
    (3.887, 52.84, "ConvergesToConstant"),
    (4.581, 295.0, "ConvergesToConstant"),
    (4.808, 63.35, "ConvergesToConstant"),
]


@pytest.mark.parametrize("gamma,b,kind", LARGE_B_KINDS)
def test_large_b_classes_are_kept(gamma, b, kind):
    c = sh.classify(make_params(gamma, b))
    assert c.trajectory.n_overlap > 0
    assert c.kind == kind


# the integrator's arithmetic stays on Python floats: one numpy scalar
# entering through a lookup would make every later node a numpy scalar
FLOAT_RUNS = {
    "h_profile(2, 10)": lambda: sh.h_profile(make_params(2.0, 10.0), 50.0),
    "h_profile(3, 200)": lambda: sh.h_profile(make_params(3.0, 200.0), 50.0),
    "limit_profile": lambda: sh.limit_profile(0.1, y_max=50.0),
    "gamma1_trajectory": lambda: asymptotics.gamma1_trajectory(
        asymptotics.gamma1_series(1.0, -1.0, 40), 1e3, tol=1e-10),
    "stability_empirical": lambda: stability.stability_empirical(
        make_params(2.0, 3.0), lambda z: 1e-3 * math.cos(z)),
    "g_by_ode": lambda: greens.g_by_ode(8.0, 1.0),
}


class TestFloatOnlyLoop:
    def test_series_eval_returns_float(self):
        assert type(series_eval(local_series(make_params(2.0, 10.0), 40),
                                1e-3)) is float

    @pytest.mark.parametrize("name", FLOAT_RUNS)
    def test_every_node_is_a_float(self, name, monkeypatch):
        trajs = []
        integrate = dc.integrate

        def recording(*args, **kwargs):
            trajs.append(integrate(*args, **kwargs))
            return trajs[-1]
        monkeypatch.setattr(dc, "integrate", recording)
        FLOAT_RUNS[name]()
        assert trajs
        for traj in trajs:
            assert len(traj.ts) > 2
            for values in (traj.ts, traj.us, traj.dus):
                assert all(type(x) is float for x in values)


class TestSharedHermiteBasis:
    def test_scalar_lookup_equals_vector_lookup_bitwise(self):
        traj = sh.h_profile(make_params(2.0, 3.0), 200.0, tol=1e-9)
        ts = np.asarray(traj.ts)
        pts = np.random.default_rng(7).uniform(ts[0], ts[-1], 1000)
        scalar = np.array([traj.eval(float(t)) for t in pts])
        assert scalar.tobytes() == traj.eval_many(pts).tobytes()

    @pytest.mark.parametrize("make_run", [
        _h_run, _phi_run, _linear_g_run,
        lambda: (dc.phi_equation(make_params(2.0, 3.0)),
                 dc.FunctionHistory(lambda t: 0.25, -1.0, 0.0), (0.0, 6.0),
                 {})],
        ids=["series", "function", "zero-constant", "constant"])
    def test_vector_lookup_equals_scalar_lookup_on_every_history(
            self, make_run):
        # History.eval_many is the one vector lookup of every history: it
        # applies eval entry by entry below the first node
        rhs, init, span, kw = make_run()
        traj = dc.integrate(rhs, init, span, tol=1e-9, **kw)
        ts = np.asarray(traj.ts)
        start = max(init.lo, ts[0] - 10.0)
        rng = np.random.default_rng(11)
        pts = np.concatenate([[start, ts[0], ts[-1]],
                              rng.uniform(start, ts[0], 200),
                              rng.uniform(ts[0], ts[-1], 200)])
        scalar = np.array([traj.eval(float(t)) for t in pts])
        assert scalar.tobytes() == traj.eval_many(pts).tobytes()
        below = pts[pts < ts[0]]
        assert np.array([init.eval(float(t)) for t in below]).tobytes() == \
            init.eval_many(below).tobytes()
        assert init.eval_many(below[:200].reshape(4, 50)).shape == (4, 50)

    def test_deriv_covers_only_the_integrated_range(self):
        hist, y0 = exp_history()
        traj = dc.integrate(dc.limit_h_equation(0.0), hist, (y0, 5.0),
                            tol=1e-9)
        assert traj.deriv(y0) == traj.dus[0]
        for t in (0.5 * y0, 0.0, 5.5):
            with pytest.raises(OutOfRangeError):
                traj.deriv(t)


class TestOneTrajectoryLookup:
    # DenseTrajectory.eval is the one lookup into a trajectory and its
    # initial segment, and eval_many applies it entry by entry: a vector
    # lookup once extrapolated the series below its start and passed NaN
    @pytest.fixture(scope="class")
    def traj(self):
        return sh.h_profile(make_params(2.0, 10.0), 50.0)

    @pytest.mark.parametrize("pts", [[-1.0, -5.0], [-1e-9], [math.nan],
                                     [1.0, math.nan]])
    def test_eval_many_raises_where_eval_raises(self, traj, pts):
        assert traj.history.lo == 0.0
        with pytest.raises(OutOfRangeError):
            traj.eval(pts[-1])
        with pytest.raises(OutOfRangeError):
            traj.eval_many(np.array(pts))


def frozen_eval(traj, t):
    """DenseTrajectory.eval as it was before the interior-first lookup."""
    ts = traj.ts
    if t < ts[0]:
        if t < traj.history.lo - dc._EDGE_TOL:
            raise OutOfRangeError(f"{t} below history start")
        return traj.history.eval(t)
    if not t <= ts[-1]:
        if not t <= ts[-1] + dc._EDGE_TOL * max(abs(ts[-1]), 1.0):
            raise OutOfRangeError(f"{t} beyond last node {ts[-1]}")
        return traj.us[-1]
    i = bisect.bisect_right(ts, t) - 1
    us = traj.us
    if i >= len(ts) - 1:
        return us[-1]
    t0 = ts[i]
    if t == t0:
        return us[i]
    dus = traj.dus
    a0, b0, a1, b1 = dc._basis(t0, ts[i + 1] - t0, t)
    return a0 * us[i] + b0 * dus[i] + a1 * us[i + 1] + b1 * dus[i + 1]


def _lookup(fn, traj, t):
    try:
        return struct.pack("<d", fn(traj, t))
    except Exception as err:
        return type(err)


def _lookup_points(traj):
    ts = traj.ts
    top = ts[-1] + 0.5 * dc._EDGE_TOL * max(abs(ts[-1]), 1.0)
    pts = [math.nan, traj.history.lo - 1e-6, 0.5 * (traj.history.lo + ts[0]),
           ts[0], ts[-1], top, ts[-1] + 1e-6, -math.inf, math.inf]
    if len(ts) > 1:
        pts += [ts[1], 0.5 * (ts[0] + ts[1]), 0.5 * (ts[-2] + ts[-1]),
                *np.linspace(ts[0], ts[-1], 101).tolist()]
    return pts


class TestInteriorFirstLookup:
    # eval bisects first and returns from an interior panel before any
    # edge test: every value and every error must be the old one
    @pytest.mark.parametrize("stop", [False, True])
    def test_same_bytes_or_error_as_the_edge_first_lookup(self, stop):
        p = make_params(2.0, 10.0)
        s = local_series(p, 40)
        y0 = series_switchover(s)
        traj = dc.integrate(dc.h_equation(p), dc.SeriesHistory(s, y0),
                            (y0, 50.0), tol=1e-9,
                            stop_condition=(lambda y, u: True) if stop
                            else None)
        assert (len(traj.ts) == 1) == stop
        for t in _lookup_points(traj):
            assert _lookup(dc.DenseTrajectory.eval, traj, t) \
                == _lookup(frozen_eval, traj, t), t


def _scopes(match) -> set:
    """Qualified scopes under src/gelshoot of the nodes that match."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if match(child):
                found.add(scope)
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}")
            else:
                visit(child, scope)

    for path in sorted(Path(dc.__file__).resolve().parent.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem)
    return found


def _defined(name: str) -> set:
    """Qualified names of the definitions of name under src/gelshoot."""
    return _scopes(lambda n: isinstance(n, (ast.FunctionDef, ast.ClassDef))
                   and n.name == name)


class TestOneLookupDefinition:
    def test_eval_many_is_defined_on_history_only(self):
        assert _defined("eval_many") == {"delaycore.History"}

    def test_no_hermite_wrappers(self):
        # hermite_weights and hermite_apply serve the vector lookups;
        # DenseTrajectory.deriv holds the one derivative formula
        assert _defined("hermite") == set()
        assert _defined("_hermite_deriv") == set()

    def test_integrate_has_no_private_router(self):
        # every delayed value goes through the trajectory's eval, that of a
        # step's own panel included; integrate defines no inner function
        tree = ast.parse(inspect.getsource(dc.integrate))
        assert [n.name for n in ast.walk(tree)
                if isinstance(n, ast.FunctionDef)] == ["integrate"]


class TestOneStepBudget:
    # integrate counts the attempts of every run against one constant
    def test_step_budget_error_is_raised_in_integrate_only(self):
        def raises_it(n):
            return isinstance(n, ast.Raise) and isinstance(n.exc, ast.Call) \
                and getattr(n.exc.func, "id", None) == "StepBudgetError"
        assert _scopes(raises_it) == {"delaycore.integrate"}

    def test_max_steps_is_defined_in_delaycore_only(self):
        assert _scopes(lambda n: isinstance(n, ast.Assign) and any(
            getattr(t, "id", None) == "MAX_STEPS" for t in n.targets)) \
            == {"delaycore"}


class TestOneStepRule:
    # integrate states each rule of its step once: one error scale, one
    # accept test, one step-size update and one underflow test
    tree = ast.parse(inspect.getsource(dc.integrate))

    def _nodes(self, match):
        return [n for n in ast.walk(self.tree) if match(n)]

    def test_one_scale_and_one_step_size_update(self):
        assert [ast.unparse(n.value) for n in self._nodes(
            lambda n: isinstance(n, ast.Assign)
            and [getattr(t, "id", None) for t in n.targets] == ["scale"])] \
            == ["tol * (1.0 + abs(u2))"]
        assert len(self._nodes(lambda n: isinstance(n, ast.AugAssign)
                               and getattr(n.target, "id", None) == "h")) == 1

    def test_accept_test_compares_est_with_scale_alone(self):
        uses_est = self._nodes(lambda n: isinstance(n, ast.Compare) and any(
            getattr(c, "id", None) == "est"
            for c in [n.left, *n.comparators]))
        assert [ast.unparse(n) for n in uses_est] == ["est <= scale"]
        assert [ast.unparse(n.test) for n in self._nodes(
            lambda n: isinstance(n, ast.If) and any(
                getattr(m, "id", None) == "est" for m in ast.walk(n.test)))] \
            == ["est <= scale"]

    def test_step_underflow_is_raised_once(self):
        assert len(self._nodes(
            lambda n: isinstance(n, ast.Raise)
            and getattr(getattr(n.exc, "func", None), "id", None)
            == "StepUnderflowError")) == 1


# every right-hand side builder; gamma in (1, GAMMA_MAX), b > 0, eps in (-1, 1)
BUILDERS = {
    "h": lambda g, b, e: dc.h_equation(make_params(g, b)),
    "phi": lambda g, b, e: dc.phi_equation(make_params(g, b)),
    "limit-h": lambda g, b, e: dc.limit_h_equation(e),
    "rescaled-h": lambda g, b, e: dc.rescaled_h_equation(e, 0.5),
    "linear-G": lambda g, b, e: dc.linear_g_equation(),
    "Phi-gamma1": lambda g, b, e: dc.gamma1_phi_equation(b),
    "Phi-gamma1-log": lambda g, b, e: dc.gamma1_log_equation(b),
}


class TestDelayLaws:
    # each builder takes its step cap from its delay law, so a step of the
    # integrator's capped length looks up no value beyond its own start.
    # For a shift d the cap's 1e-12 margin is d * 1e-12, which the rounding
    # of t + h exceeds just below a power of two from about t = 3e4 d on
    # (there the lookup lands one ulp past the node, inside eval's edge
    # tolerance); t stays below 3e3 d here.
    @pytest.mark.parametrize("name", BUILDERS)
    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(gamma=st.floats(1.1, 10.0), b=st.floats(0.1, 20.0),
           eps=st.floats(-0.9, 0.9), t=st.floats(1e-3, 100.0))
    def test_capped_step_looks_up_no_later_than_its_start(
            self, name, gamma, b, eps, t):
        rhs = BUILDERS[name](gamma, b, eps)
        assert rhs.delay_arg(t + rhs.step_cap(t) * (1.0 - 1e-12)) <= t
