import dataclasses
import math

import numpy as np
import pytest

from gelshoot import delaycore as dc
from gelshoot.errors import (BlowUpError, DomainError, OutOfRangeError,
                             StepUnderflowError)
from gelshoot.profiles import (local_series, make_params, pantograph_series,
                               series_switchover)


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
        traj = dc.integrate(dc.linear_g_equation(),
                            dc.PointSourceHistory(xi), (xi, 2.0 * xi),
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
            traj = dc.integrate(dc.linear_g_equation(),
                                dc.PointSourceHistory(xi), (xi, 2.0 * xi),
                                tol=tol, u0=1.0)
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
        hist = dc.ConstantHistory(0.25, -1.0, 0.0)
        rhs = dc.DelayRHS("still", lambda t, u, ud: 0.0,
                          lambda t: t - 0.5, lambda t: 0.5)
        traj = dc.integrate(rhs, hist, (0.0, 3.0), tol=1e-9)
        assert traj.eval(1.234) == 0.25

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
        hist = dc.ConstantHistory(1.0, 0.0, 0.0)
        with pytest.raises(BlowUpError) as info:
            dc.integrate(rhs, hist, (0.0, 2.0), tol=1e-9, value_cap=1e6)
        assert info.value.location == pytest.approx(1.0, abs=1e-4)
        assert info.value.trajectory is not None
        assert abs(info.value.trajectory.us[-1]) > 1e6

    def test_step_underflow_near_singularity(self):
        rhs = dc.DelayRHS("singular", lambda t, u, ud: 1.0 / (1.0 - t),
                          lambda t: 0.0, lambda t: 1.0)
        hist = dc.ConstantHistory(0.0, 0.0, 0.0)
        with pytest.raises((StepUnderflowError, BlowUpError)):
            dc.integrate(rhs, hist, (0.0, 1.0), tol=1e-10, u0=0.0)

    def test_bad_span_rejected(self):
        hist, y0 = exp_history()
        with pytest.raises(DomainError):
            dc.integrate(dc.limit_h_equation(0.0), hist, (y0, y0 - 1.0))

    def test_event_stops_the_run(self):
        hist, y0 = exp_history()
        traj = dc.integrate(dc.limit_h_equation(0.0), hist, (y0, 10.0),
                            tol=1e-9,
                            stop_condition=lambda t, u: u < 0.5)
        assert traj.event_t is not None
        assert traj.event_t < 1.0
        assert traj.us[-1] < 0.5


class TestConditioning:
    def test_lipschitz_estimate_reported(self):
        p = make_params(2.0, 4.0)
        s = local_series(p, 40)
        y0 = series_switchover(s)
        traj = dc.integrate(dc.h_equation(p), dc.SeriesHistory(s, y0),
                            (y0, 10.0), tol=1e-9)
        assert 0.0 < traj.lipschitz_estimate <= 2.0


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


class TestCsvExport:
    def test_header_and_precision(self, tmp_path):
        hist, y0 = exp_history()
        traj = dc.integrate(dc.limit_h_equation(0.0), hist, (y0, 2.0),
                            tol=1e-8)
        path = tmp_path / "traj.csv"
        traj.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "y,value,derivative"
        y, v, d = (float(s) for s in lines[1].split(","))
        assert y == traj.ts[0]
        assert v == traj.us[0]
