import inspect
import logging
import math

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from gelshoot import fixedpoint as fp
from gelshoot import shooting as sh
from gelshoot.errors import (DomainError, NonContractionError,
                             RoundoffFloorError)
from gelshoot.greens import c0_moment, eta_derivative_moment

# series oracles for the two gradient components at the origin
DF_DEPS = 0.2887880950866024
DF_DETA = -0.0605621040012903
SLOPE = -DF_DETA / DF_DEPS      # 0.2097112...


def r_eval(state, x):
    """Pointwise R[W] of the state at x, through the grid's own R route."""
    x_arr = np.asarray(x, dtype=float)
    grid = fp.default_grid()
    at = fp._PointPlan(grid.x, np.atleast_1d(x_arr))
    out = grid.r_terms(state.W, state.dW, at, state.eps, state.eta)
    return float(out[0]) if x_arr.ndim == 0 else out.reshape(x_arr.shape)


class TestREval:
    def test_vanishes_identically_at_zero_parameters(self):
        st = fp.zero_state(0.0, 0.0)
        xs = np.linspace(0.0, 30.0, 50)
        assert np.max(np.abs(r_eval(st, xs))) == 0.0

    def test_zero_profile_reduces_to_the_source(self):
        st = fp.zero_state(0.05, 0.0)
        xs = np.linspace(0.1, 10.0, 30)
        oracle = np.exp(-xs) - np.exp(-1.05 * xs)
        assert r_eval(st, xs) == pytest.approx(oracle, abs=1e-14)
        # and that source behaves like eps*x*e^(-x) for small eps
        small = fp.zero_state(1e-5, 0.0)
        assert r_eval(small, 2.0) == pytest.approx(
            1e-5 * 2.0 * math.exp(-2.0), rel=1e-4)

    def test_origin_value_is_eta(self):
        st = fp.zero_state(0.02, 0.03)
        assert r_eval(st, 0.0) == pytest.approx(0.03, abs=1e-15)


class TestApplyT:
    def test_zero_maps_to_zero(self):
        st = fp.zero_state(0.0, 0.0)
        out = fp.apply_T(st)
        assert np.max(np.abs(out.W)) == 0.0
        assert out.F_value == 0.0

    def test_contraction_on_admissible_profiles(self):
        grid = fp.default_grid()
        w1 = 0.01 * np.exp(-grid.x / 4.0) * np.sin(grid.x)
        w2 = 0.005 * np.exp(-grid.x / 3.0) * np.cos(grid.x / 2.0)
        factor = fp.contraction_factor(0.01, 0.01, w1, w2)
        assert factor <= 0.5

    def test_fixed_point_residual(self):
        st = fp.picard_solve(0.01, 0.01)
        out = fp.apply_T(st)
        assert np.max(np.abs(out.W - st.W)) < 1e-10


# reference: the sweep as it was before the interpolation plan, with the
# Hermite inline and every weight and exponential rebuilt on each call; the
# plan only reorganises this arithmetic, so its results must match bytewise.
# Both take the volume product from the grid's one blocked method, checked
# against the dense K @ Rg in TestBlockedKernel


def reference_hermite(ts, us, dus, t):
    i = np.clip(np.searchsorted(ts, t, side="right") - 1, 0, len(ts) - 2)
    h = ts[i + 1] - ts[i]
    s = (t - ts[i]) / h
    s2, s3 = s * s, s * s * s
    return ((2 * s3 - 3 * s2 + 1) * us[i] + (s3 - 2 * s2 + s) * h * dus[i]
            + (-2 * s3 + 3 * s2) * us[i + 1] + (s3 - s2) * h * dus[i + 1])


def reference_r_terms(x, W, dW, pts, eps, eta):
    half = 0.5 * pts
    half_eps = half * (1.0 + eps)
    w_half = reference_hermite(x, W, dW, half)
    w_half_eps = reference_hermite(x, W, dW, half_eps)
    w_here = reference_hermite(x, W, dW, pts)
    return (np.exp(-pts) - np.exp(-pts * (1.0 + eps))
            + 2.0 * np.exp(-half) * w_half
            - 2.0 * np.exp(-half_eps) * w_half_eps
            - w_half_eps ** 2
            + eta * (np.exp(-pts) + w_here) ** 2)


def reference_apply(grid, W, dW, eps, eta):
    Rg = reference_r_terms(grid.x, W, dW, grid.g, eps, eta)
    panel_q = (grid.exq_w * Rg).reshape(-1, 3).sum(axis=1)
    suffix = np.concatenate([np.cumsum(panel_q[::-1])[::-1], [0.0]])
    T = -suffix + grid.volume(Rg)
    F = float(suffix[0])
    Rx = reference_r_terms(grid.x, W, dW, grid.x, eps, eta)
    t_half = reference_hermite(grid.x, T, dW, 0.5 * grid.x)
    dT = Rx - 2.0 * np.exp(-0.5 * grid.x) * (t_half + F)
    return T, dT, F


def reference_f_eval(state):
    grid = fp.default_grid()
    Rg = reference_r_terms(grid.x, state.W, state.dW, grid.g, state.eps,
                           state.eta)
    return float(np.sum(grid.exq_w * Rg))


def _bytes(*arrays):
    return b"".join(np.asarray(a, dtype=float).tobytes() for a in arrays)


# alternating eps, so a plan kept from the previous eps would show
SWEEP_PARAMS = [(0.01, 0.01), (0.02, 0.005), (0.01, 0.003), (-0.01, 0.03),
                (0.0, 0.0), (2.05e-4, 2.0 ** -10)]


class TestSweepPlanBitwise:
    @pytest.mark.parametrize("start", ["zero", "converged"])
    def test_apply_bytes_identical(self, start):
        grid = fp.default_grid()
        for eps, eta in SWEEP_PARAMS:
            st = fp.zero_state(eps, eta) if start == "zero" \
                else fp.picard_solve(eps, eta)
            for _ in range(2):
                new = grid.apply(st.W, st.dW, eps, eta)
                ref = reference_apply(grid, st.W, st.dW, eps, eta)
                assert _bytes(*new) == _bytes(*ref), (eps, eta)

    def test_f_eval_and_r_eval_bytes_identical(self):
        xs = np.linspace(0.0, 39.0, 77)
        grid = fp.default_grid()
        for eps, eta in SWEEP_PARAMS:
            st = fp.picard_solve(eps, eta)
            assert fp.f_eval(st) == reference_f_eval(st)
            assert _bytes(r_eval(st, xs)) == _bytes(reference_r_terms(
                grid.x, st.W, st.dW, xs, eps, eta))

    def test_contraction_factor_identical(self):
        grid = fp.default_grid()
        w1 = 0.01 * np.exp(-grid.x / 4.0) * np.sin(grid.x)
        w2 = 0.005 * np.exp(-grid.x / 3.0) * np.cos(grid.x / 2.0)
        d1 = np.gradient(w1, grid.x, edge_order=2)
        d2 = np.gradient(w2, grid.x, edge_order=2)
        T1, _, _ = reference_apply(grid, w1, d1, 0.01, 0.01)
        T2, _, _ = reference_apply(grid, w2, d2, 0.01, 0.01)
        ref = float(np.max(np.abs(T1 - T2))) \
            / float(np.max(np.abs(w1 - w2)))
        assert fp.contraction_factor(0.01, 0.01, w1, w2) == ref

    def test_bbar_identical(self, monkeypatch):
        new = fp.bbar_of_gamma(13.0)
        monkeypatch.setattr(fp.FixedPointGrid, "apply", reference_apply)
        monkeypatch.setattr(fp, "f_eval", reference_f_eval)
        ref = fp.bbar_of_gamma(13.0)
        assert (new.bbar, new.eps) == (ref.bbar, ref.eps)
        assert _bytes(new.state.W, new.state.dW, new.h) \
            == _bytes(ref.state.W, ref.state.dW, ref.h)


class TestBlockedKernel:
    def test_blocks_cover_the_nonzero_staircase(self):
        grid = fp.default_grid()
        rows = np.arange(len(grid.x))[:, None]
        below = np.arange(len(grid.g))[None, :] // 3 < rows
        assert np.all(grid.K[~below] == 0.0)
        covered = np.zeros(grid.K.shape, dtype=bool)
        r0 = 0
        for b in grid.blocks:
            assert np.shares_memory(b, grid.K)
            covered[r0:r0 + b.shape[0], :b.shape[1]] = True
            r0 += b.shape[0]
        assert r0 == len(grid.x) and np.all(covered[below])
        assert sum(b.size for b in grid.blocks) == 837900

    @pytest.mark.parametrize("eps, eta", SWEEP_PARAMS)
    def test_blocked_product_matches_dense(self, eps, eta):
        # the blocked sum skips only exact zeros, so it differs from the
        # dense product by summation order: a few ulps of |K| @ |Rg|
        grid = fp.default_grid()
        st = fp.picard_solve(eps, eta)
        Rg = grid.r_terms(st.W, st.dW, grid.at_g, eps, eta)
        scale = np.abs(grid.K) @ np.abs(Rg)
        assert np.all(np.abs(grid.volume(Rg) - grid.K @ Rg)
                      <= 1e-15 * scale)

    def test_build_logs_time_and_entries(self, caplog):
        caplog.set_level(logging.DEBUG, logger="gelshoot.fixedpoint")
        fp.FixedPointGrid()
        [msg] = [r.getMessage() for r in caplog.records
                 if r.name == "gelshoot.fixedpoint"]
        assert msg.startswith("kernel built in ")
        assert msg.endswith(" s from 837900 entries")


class TestSweepPlanWork:
    def test_weights_built_twice_per_solve(self, monkeypatch):
        # a solve holds eps fixed: weights at its two delayed point sets
        # are built once, whatever the sweep count, and f_eval reuses them
        grid = fp.default_grid()
        calls = []
        weights = fp.hermite_weights

        def counting(ts, t):
            calls.append(len(t))
            return weights(ts, t)

        monkeypatch.setattr(fp, "hermite_weights", counting)
        for eps, eta in ((0.0137, 0.01), (0.0071, 0.002)):
            calls.clear()
            st = fp.picard_solve(eps, eta, tol=1e-14)
            assert st.iterations >= 6
            fp.f_eval(st)
            fp.apply_T(st)
            assert sorted(calls) == sorted([len(grid.g), len(grid.x)])
        calls.clear()
        fp.picard_solve(0.0071, 0.004)
        assert calls == []


class TestPicard:
    def test_trivial_parameters_converge_immediately(self):
        st = fp.picard_solve(0.0, 0.0)
        assert st.iterations == 1
        assert np.max(np.abs(st.W)) == 0.0

    def test_small_parameters_converge_monotonically(self):
        st = fp.picard_solve(0.01, 0.01)
        hist = st.sup_diff_history
        assert hist[-1] < 1e-10
        below = [d for d in hist if d < 1e-2]
        assert all(b < a for a, b in zip(below, below[1:]))

    def test_limit_value_parked_at_origin(self):
        st = fp.picard_solve(0.01, 0.01)
        assert st.W[0] == pytest.approx(-st.F_value, abs=1e-12)
        assert abs(st.W[-1]) < 1e-9      # tail truncation is clean

    def test_decay_envelope_certified(self):
        st = fp.picard_solve(0.01, 0.01)
        M, rate = fp.certify_decay(st.x, st.W, 0.2 * fp.X_MAX, 0.9 * fp.X_MAX)
        assert rate is not None
        assert 0.0 < rate < 0.5
        bound = M * np.exp(-rate * st.x)
        assert np.all(np.abs(st.W) <= bound * (1.0 + 1e-9))

    def test_outside_regime_reported_honestly(self):
        try:
            st = fp.picard_solve(0.3, 0.3)
            assert st.sup_diff_history[-1] < 1e-12
        except NonContractionError as err:
            assert len(err.history) >= 3

    def test_iteration_count_grows_logarithmically(self):
        its = [fp.picard_solve(0.01, 0.01, tol=t).iterations
               for t in (1e-6, 1e-9, 1e-12)]
        assert its[0] <= its[1] <= its[2]
        assert its[2] - its[0] <= 2 * (its[1] - its[0]) + 2

    def test_domain(self):
        with pytest.raises(DomainError):
            fp.picard_solve(1.5, 0.0)

    def test_tolerance_below_roundoff_is_not_divergence(self):
        # the sup-difference stalls near 1.7e-18, a few ulps of max|W|;
        # it used to end in NonContractionError after five equal sweeps
        with pytest.raises(RoundoffFloorError) as info:
            fp.picard_solve(0.01, 0.01, tol=1e-20)
        err = info.value
        assert err.tol == 1e-20
        assert err.history[-1] <= err.floor < 1e-16
        assert err.history[-1] >= err.history[-2]
        assert "1.000e-20" in str(err)
        assert f"{err.floor:.3e}" in str(err)

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan])
    def test_tolerance_must_be_positive(self, tol):
        with pytest.raises(DomainError, match="tol must be positive"):
            fp.picard_solve(0.01, 0.01, tol=tol)
        with pytest.raises(DomainError, match="tol must be positive"):
            fp.eps_of_eta(0.01, tol=tol)


class TestDerivativeConsistency:
    def test_stored_slope_matches_value_spline(self):
        st = fp.picard_solve(0.01, 0.01)
        spl = CubicSpline(st.x, st.W)
        inner = (st.x > 0.5) & (st.x < 35.0)
        assert np.max(np.abs(spl(st.x[inner], 1) - st.dW[inner])) < 1e-6


class TestGradientOracles:
    def test_eps_derivative_matches_first_moment(self):
        h = 1e-4
        fd = (fp.f_eval(fp.picard_solve(h, 0.0))
              - fp.f_eval(fp.picard_solve(-h, 0.0))) / (2.0 * h)
        assert fd == pytest.approx(DF_DEPS, abs=1e-4)
        assert fd == pytest.approx(c0_moment(), abs=1e-4)

    def test_eta_derivative_matches_weighted_moment(self):
        h = 1e-4
        fd = (fp.f_eval(fp.picard_solve(0.0, h))
              - fp.f_eval(fp.picard_solve(0.0, -h))) / (2.0 * h)
        assert fd == pytest.approx(DF_DETA, abs=1e-4)
        assert fd == pytest.approx(eta_derivative_moment(), abs=1e-4)


class TestEpsOfEta:
    def test_zero_eta_gives_zero_eps(self):
        eps, st = fp.eps_of_eta(0.0)
        assert eps == 0.0
        assert np.max(np.abs(st.W)) == 0.0

    @pytest.mark.parametrize("eta", [0.01, 0.005, 0.0025])
    def test_root_quality(self, eta):
        eps, st = fp.eps_of_eta(eta, tol=1e-10)
        assert abs(fp.f_eval(st)) < 1e-10
        assert eps == pytest.approx(SLOPE * eta, rel=0.05)

    def test_slope_approaches_the_gradient_ratio(self):
        devs = []
        for eta in (0.01, 0.005, 0.0025):
            eps, _ = fp.eps_of_eta(eta, tol=1e-10)
            devs.append(abs(eps / eta - SLOPE))
        assert devs[0] > devs[1] > devs[2]
        assert all(d < 0.01 for d in devs)

    def test_eta_outside_regime_rejected(self):
        with pytest.raises(DomainError):
            fp.eps_of_eta(0.2)


class TestBbar:
    def test_gamma_13(self):
        crit = fp.bbar_of_gamma(13.0)
        assert crit.bbar == pytest.approx(1.0003, abs=2e-4)
        assert crit.eta == pytest.approx(2.0 ** -10.0, rel=2e-3)
        assert crit.eps == pytest.approx(2.05e-4, rel=0.02)
        assert float(np.min(crit.h)) > 0.0
        assert 0.0 < crit.tail_rate_fit < 0.5

    def test_bbar_decreases_toward_one(self):
        b12 = fp.bbar_of_gamma(12.0).bbar
        b15 = fp.bbar_of_gamma(15.0).bbar
        assert b12 > b15 > 1.0

    @pytest.mark.parametrize("gamma", [12.0, 13.0, 15.0])
    def test_shooting_bracket_contains_bbar(self, gamma):
        crit = fp.bbar_of_gamma(gamma)
        br = sh.bracket_bbar(gamma, tol_b=1e-3)
        assert br.b_lo <= crit.bbar <= br.b_hi

    def test_bracket_gap_shrinks_with_integrator_tol(self):
        # the gap is the shooting route's error: -1.6e-7 at the default
        # integrator tol 1e-9 and -3.0e-8 at tol 1e-10 (about 1 s)
        bbar = fp.bbar_of_gamma(10.0).bbar
        gaps = []
        for tol in (1e-9, 1e-10):
            br = sh.bracket_bbar(10.0, tol_b=1e-9, tol=tol)
            gaps.append(abs(0.5 * (br.b_lo + br.b_hi) - bbar))
        assert gaps[1] < gaps[0]

    @pytest.mark.parametrize("gamma", [8.0, 10.0, 13.0])
    def test_bracket_midpoint_matches_fixed_point(self, gamma):
        # two independent routes to bbar: shooting bisection and the fixed
        # point; the gap (-1.6e-7 to -1.7e-7) is the integrator's error at
        # its default tol 1e-9 and grows to -8.8e-7 at tol 1e-8
        br = sh.bracket_bbar(gamma, tol_b=1e-9)
        mid = 0.5 * (br.b_lo + br.b_hi)
        assert abs(mid - fp.bbar_of_gamma(gamma).bbar) <= 3e-7

    def test_direct_integration_cross_check(self):
        # the reconstructed profile solves the rescaled delay equation
        crit = fp.bbar_of_gamma(13.0)
        run = sh.limit_profile(crit.eps, y_max=10.0, eta=crit.eta,
                               tol=1e-10)
        xs = np.linspace(0.5, 10.0, 40)
        direct = run.trajectory.eval_many(xs)
        recon = np.exp(-xs) + crit.state.interp(xs)
        assert np.max(np.abs(direct - recon)) < 1e-5

    def test_small_gamma_rejected(self):
        with pytest.raises(DomainError):
            fp.bbar_of_gamma(4.0)


class TestStateDump:
    def test_dict_round_trip_fields(self):
        st = fp.picard_solve(0.01, 0.005)
        d = st.to_dict()
        assert d["eps"] == 0.01 and d["eta"] == 0.005
        assert len(d["grid"]) == len(d["W"])
        assert d["iterations"] == st.iterations


class TestOneGrid:
    def test_one_grid_per_process(self, monkeypatch):
        builds = []
        init = fp.FixedPointGrid.__init__

        def counting_init(self):
            builds.append(self)
            init(self)

        monkeypatch.setattr(fp.FixedPointGrid, "__init__", counting_init)
        fp.default_grid.cache_clear()
        st = fp.picard_solve(0.01, 0.01)
        fp.f_eval(st)
        r_eval(st, [0.5, 2.0])
        fp.apply_T(st)
        st.interp([0.5, 2.0])
        fp.eps_of_eta(0.005)
        x = fp.default_grid().x
        fp.contraction_factor(0.01, 0.01, 0.01 * np.exp(-x),
                              0.01 * np.exp(-x / 2.0))
        assert len(builds) == 1
        assert fp.default_grid() is builds[0]

    def test_no_function_takes_a_grid_knob(self):
        for name, obj in vars(fp).items():
            if inspect.isfunction(obj) and obj.__module__ == fp.__name__:
                params = inspect.signature(obj).parameters
                assert not {"cfg", "x_max", "n_nodes"} & set(params), name
        assert not inspect.signature(fp.FixedPointGrid).parameters
        assert not inspect.signature(fp.default_grid).parameters
