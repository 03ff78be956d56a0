import ast
import functools
import inspect
import logging
import math
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from gelshoot import fixedpoint as fp
from gelshoot import shooting as sh
from gelshoot.errors import (DomainError, NoSignChangeError,
                             NonContractionError, RoundoffFloorError)
from gelshoot.greens import c0_moment, eta_derivative_moment

# series oracles for the two gradient components at the origin
DF_DEPS = 0.2887880950866024
DF_DETA = -0.0605621040012903
SLOPE = -DF_DETA / DF_DEPS      # 0.2097112...


def r_eval(W, dW, eps, eta, x):
    """Pointwise R[W] at x, through the grid's own R route."""
    x_arr = np.asarray(x, dtype=float)
    grid = fp.default_grid()
    at = fp._PointPlan(grid.x, np.atleast_1d(x_arr))
    out = grid.r_terms(W, dW, at, eps, eta)
    return float(out[0]) if x_arr.ndim == 0 else out.reshape(x_arr.shape)


def zeros():
    return np.zeros_like(fp.default_grid().x)


class TestREval:
    def test_vanishes_identically_at_zero_parameters(self):
        xs = np.linspace(0.0, 30.0, 50)
        assert np.max(np.abs(r_eval(zeros(), zeros(), 0.0, 0.0, xs))) == 0.0

    def test_zero_profile_reduces_to_the_source(self):
        xs = np.linspace(0.1, 10.0, 30)
        oracle = np.exp(-xs) - np.exp(-1.05 * xs)
        assert r_eval(zeros(), zeros(), 0.05, 0.0, xs) == pytest.approx(
            oracle, abs=1e-14)
        # and that source behaves like eps*x*e^(-x) for small eps
        assert r_eval(zeros(), zeros(), 1e-5, 0.0, 2.0) == pytest.approx(
            1e-5 * 2.0 * math.exp(-2.0), rel=1e-4)

    def test_origin_value_is_eta(self):
        assert r_eval(zeros(), zeros(), 0.02, 0.03, 0.0) == pytest.approx(
            0.03, abs=1e-15)


class TestApplyT:
    def test_zero_maps_to_zero(self):
        T, _, F = fp.default_grid().apply(zeros(), zeros(), 0.0, 0.0)
        assert np.max(np.abs(T)) == 0.0
        assert F == 0.0

    def test_contraction_on_admissible_profiles(self):
        grid = fp.default_grid()
        w1 = 0.01 * np.exp(-grid.x / 4.0) * np.sin(grid.x)
        w2 = 0.005 * np.exp(-grid.x / 3.0) * np.cos(grid.x / 2.0)
        factor = fp.contraction_factor(0.01, 0.01, w1, w2)
        assert factor <= 0.5

    def test_fixed_point_residual(self):
        st = fp.picard_solve(0.01, 0.01)
        T, _, _ = fp.default_grid().apply(st.W, st.dW, 0.01, 0.01)
        assert np.max(np.abs(T - st.W)) < 1e-10


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
            if start == "zero":
                W = dW = zeros()
            else:
                st = fp.picard_solve(eps, eta)
                W, dW = st.W, st.dW
            for _ in range(2):
                new = grid.apply(W, dW, eps, eta)
                ref = reference_apply(grid, W, dW, eps, eta)
                assert _bytes(*new) == _bytes(*ref), (eps, eta)

    def test_f_eval_and_r_eval_bytes_identical(self):
        xs = np.linspace(0.0, 39.0, 77)
        grid = fp.default_grid()
        for eps, eta in SWEEP_PARAMS:
            st = fp.picard_solve(eps, eta)
            assert fp.f_eval(st) == reference_f_eval(st)
            new = r_eval(st.W, st.dW, eps, eta, xs)
            ref = reference_r_terms(grid.x, st.W, st.dW, xs, eps, eta)
            assert _bytes(new) == _bytes(ref)

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
        ref = fp.bbar_of_gamma(13.0)
        assert (new.bbar, new.eps) == (ref.bbar, ref.eps)
        assert _bytes(new.state.W, new.state.dW, new.h) \
            == _bytes(ref.state.W, ref.state.dW, ref.h)


def reference_picard_solve(eps, eta, tol=1e-12, warm_start=None):
    """picard_solve's loop as it was on frozen states: every sweep replaced
    the state, from a zero state or a copy of the warm start."""
    grid = fp.default_grid()
    z = np.zeros_like(grid.x)
    state = fp.FixedPointState(x=grid.x, W=z, dW=z.copy(), eps=eps, eta=eta,
                               F_value=0.0, sup_diff_history=())
    if warm_start is not None:
        state = replace(state, W=warm_start[0].copy(),
                        dW=warm_start[1].copy())
    grew = 0
    for _ in range(fp.MAX_SWEEPS):
        T, dT, F = grid.apply(state.W, state.dW, eps, eta)
        sup = float(np.max(np.abs(T - state.W)))
        state = replace(state, W=T, dW=dT, F_value=F,
                        sup_diff_history=state.sup_diff_history + (sup,))
        history = state.sup_diff_history
        if sup < tol:
            return state
        floor = 16.0 * np.finfo(float).eps * float(np.max(np.abs(state.W)))
        if len(history) >= 2 and history[-2] <= sup <= floor:
            raise RoundoffFloorError(tol, floor, history)
        if len(history) >= 2 and sup > history[-2]:
            grew += 1
            if grew >= 3:
                raise NonContractionError(history)
        else:
            grew = 0
    raise NonContractionError(state.sup_diff_history)


class TestPicardLoopBitwise:
    @pytest.mark.parametrize("warm", [False, True])
    def test_matches_the_frozen_state_loop(self, warm):
        # warm: each solve starts from the previous parameters' fixed point
        prev = None
        for eps, eta in SWEEP_PARAMS:
            start = (prev.W, prev.dW) if warm and prev is not None else None
            kept = None if start is None else _bytes(*start)
            new = fp.picard_solve(eps, eta, warm_start=start)
            ref = reference_picard_solve(eps, eta, warm_start=start)
            assert _bytes(new.W, new.dW) == _bytes(ref.W, ref.dW), (eps, eta)
            assert new.F_value == ref.F_value
            assert new.sup_diff_history == ref.sup_diff_history
            assert new.x is ref.x and (new.eps, new.eta) == (eps, eta)
            if start is not None:  # the warm start is read, not written
                assert _bytes(*start) == kept
            prev = new

    @pytest.mark.parametrize("eps, eta, tol, error", [
        (0.01, 0.01, 1e-20, RoundoffFloorError),
        (-0.9, 0.9, 1e-12, NonContractionError),   # three rises
        (0.5, -0.9, 1e-12, NonContractionError)])  # the sweep budget
    def test_errors_match_the_frozen_state_loop(self, eps, eta, tol, error):
        with pytest.raises(error) as new:
            fp.picard_solve(eps, eta, tol=tol)
        with pytest.raises(error) as ref:
            reference_picard_solve(eps, eta, tol=tol)
        assert vars(new.value) == vars(ref.value)
        assert str(new.value) == str(ref.value)


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
        assert sum(b.size for b in grid.blocks) == 224376

    def test_nodes_are_octave_aligned(self):
        # x/2 of every node above the lowest octave is bitwise a node, so
        # the kernel's jumps at g = x/2^n fall on panel edges, never on a
        # Gauss point
        grid, m = fp.default_grid(), fp.PER_OCTAVE
        assert len(grid.x) == 19 * m + 2 == 344
        assert grid.x[0] == 0.0 and grid.x[-1] == fp.X_MAX
        assert np.all(np.diff(grid.x) > 0.0)
        assert _bytes(grid.x[m + 1:] / 2.0) == _bytes(grid.x[1:-m])
        assert not np.isin(grid.g, grid.x).any()

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
        assert msg.endswith(" s from 224376 entries in 5690640 multiply-adds"
                            " with (12, 12, 12, 14) residue terms")


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
            grid.apply(st.W, st.dW, eps, eta)
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


def reference_eps_of_eta(eta, tol):
    """eps_of_eta's bracketed secant as it was before the shared eps root."""
    lo, hi = 0.0, 10.0 * eta
    state = fp.picard_solve(lo, eta)
    f_lo = fp.f_eval(state)
    st_hi = fp.picard_solve(hi, eta, warm_start=(state.W, state.dW))
    f_hi = fp.f_eval(st_hi)
    if f_lo * f_hi > 0.0:
        hi *= 2.0
        st_hi = fp.picard_solve(hi, eta, warm_start=(st_hi.W, st_hi.dW))
        f_hi = fp.f_eval(st_hi)
    best = st_hi
    for _ in range(80):
        denom = f_hi - f_lo
        eps_new = hi - f_hi * (hi - lo) / denom if denom != 0.0 \
            else 0.5 * (lo + hi)
        if not lo < eps_new < hi:
            eps_new = 0.5 * (lo + hi)
        best = fp.picard_solve(eps_new, eta, warm_start=(best.W, best.dW))
        f_new = fp.f_eval(best)
        if abs(f_new) < tol:
            return eps_new, best
        if f_new * f_lo < 0.0:
            hi, f_hi = eps_new, f_new
        else:
            lo, f_lo = eps_new, f_new
        if hi - lo < 1e-16:
            return eps_new, best
    raise AssertionError("reference loop did not converge")


def count_sweeps(monkeypatch):
    calls = []
    apply = fp.FixedPointGrid.apply

    def counting(self, *args):
        calls.append(args[2:])
        return apply(self, *args)

    monkeypatch.setattr(fp.FixedPointGrid, "apply", counting)
    return calls


def inject_f(monkeypatch, f):
    """Every Picard solve reports F = f as its F_value."""
    solve = fp.picard_solve
    monkeypatch.setattr(fp, "picard_solve", lambda *args, **kwargs: replace(
        solve(*args, **kwargs), F_value=f))


def iterates(caplog):
    """The eps of each root iterate, from its debug line."""
    return [float(r.getMessage().split()[4][:-1]) for r in caplog.records
            if r.getMessage().startswith("root iterate ")]


OUTSIDE = r"lies outside \[1.78e-15, 0.05\]"


# bbar_of_gamma(gamma) on an octave grid with 74 nodes per octave (1408
# nodes, K 47.5 MB) and F_TOL = 1e-13, a stop of max(1e-13 eta/0.05, 1e-16).
# Built at run time; these are its values when first computed, a cross-check
# on the run-time build.  Its terms (12,) * 12 + (13, 14, 14) are
# gtilde_exact's truncation on its 15 blocks, read from its debug lines.
BBAR_FINE = {8.0: 1.009531194685814, 10.0: 1.002368420764767,
             13.0: 1.0002955324896199, 25.0: 1.000000072133388}


@pytest.fixture(scope="module")
def bbar_fine():
    """gamma -> (bbar, eps) on the fine grid; the default grid's cache is
    left as it was."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fp, "PER_OCTAVE", 74)
        mp.setattr(fp, "KERNEL_TERMS", (12,) * 12 + (13, 14, 14))
        mp.setattr(fp, "F_TOL", 1e-13)
        mp.setattr(fp, "default_grid", functools.cache(fp.FixedPointGrid))
        return {gamma: (crit.bbar, crit.eps) for gamma in BBAR_FINE
                for crit in [fp.bbar_of_gamma(gamma)]}


class TestOneEpsRoot:
    @pytest.mark.parametrize("eta", [1e-3, 0.01, 0.048])
    def test_eps_of_eta_matches_a_tight_root(self, eta):
        eps, _ = fp.eps_of_eta(eta)
        ref_eps, _ = reference_eps_of_eta(eta, 1e-14)
        assert abs(eps - ref_eps) <= 1e-5 * ref_eps

    @pytest.mark.parametrize("gamma", sorted(BBAR_FINE))
    def test_bbar_matches_a_tight_root(self, gamma, bbar_fine):
        # the 700-node geomspace grid was 3.5e-9, 2.0e-10 and 3.0e-12 off
        # at gamma = 8, 10 and 13; this one reads 5.9e-11, 9.2e-13, 2.3e-11
        bbar, eps = bbar_fine[gamma]
        assert abs(bbar - BBAR_FINE[gamma]) <= 1e-12
        crit = fp.bbar_of_gamma(gamma)
        assert abs(crit.bbar - bbar) <= 1e-10
        assert abs(crit.eps - eps) <= 1e-5 * eps

    @pytest.mark.parametrize("eta", [7.63e-6, 1e-4, 1e-3, 1e-2, 3e-2])
    def test_eps_over_eta_tends_to_kappa1(self, eta):
        # |eps/eta - kappa1|/eta reads 0.1004-0.1023 over these eta
        eps, _ = fp.eps_of_eta(eta)
        assert abs(eps / eta - SLOPE) <= 0.11 * eta

    def test_root_at_the_rounding_floor(self):
        # F scatters by 2-4e-17 about its root here: a secant into that
        # noise once returned eps/eta = 0.179; the floor stops at kappa1 eta
        eps, _ = fp.eps_of_eta(fp.ETA_MIN, tol=1e-30)
        assert abs(eps / fp.ETA_MIN / SLOPE - 1.0) < 0.01

    @pytest.mark.parametrize("gamma, budget", [(8.0, 20), (13.0, 10)])
    def test_sweeps_per_bbar(self, gamma, budget, monkeypatch):
        # started at kappa1 eta: 16 and 7 sweeps, where the secant from
        # eps = 0 and 10 eta took 55 and 18
        calls = count_sweeps(monkeypatch)
        fp.bbar_of_gamma(gamma)
        assert len(calls) <= budget

    def test_sweeps_per_eps_of_eta(self, monkeypatch):
        # 22 sweeps, where the secant from eps = 0 and 10 eta took 70
        calls = count_sweeps(monkeypatch)
        fp.eps_of_eta(0.048)
        assert len(calls) <= 30

    @pytest.mark.parametrize("eta, at, over", [
        (fp.ETA_MAX, fp.F_TOL, math.nextafter(fp.F_TOL, 1.0)),
        (0.005, 1e-10 * (1 - 1e-12), 1e-10 * (1 + 1e-12)),
        (1e-9, 1e-16, 1e-16 * (1 + 1e-12))])
    def test_stop_is_f_tol_at_eta_max_scaled_and_floored(self, eta, at, over,
                                                         monkeypatch):
        # a constant F at the stop ends the root at its start; just above
        # the stop it leaves no sign change
        inject_f(monkeypatch, at)
        eps, _ = fp.eps_of_eta(eta)
        assert eps == -eta_derivative_moment() / c0_moment() * eta
        monkeypatch.undo()
        inject_f(monkeypatch, over)
        with pytest.raises(NoSignChangeError):
            fp.eps_of_eta(eta)

    def test_steps_off_the_known_signs_check_the_ends(self, caplog,
                                                      monkeypatch):
        # a slope 100 times too small sends the Newton step below eps = 0
        # and the start to 100 kappa1 eta, past 20 eta: the start becomes hi,
        # and the root bisects into the sign bracket and reaches the same
        # root
        ref_eps, _ = fp.eps_of_eta(0.01)
        monkeypatch.setattr(fp.greens, "c0_moment", lambda: DF_DEPS / 100.0)
        caplog.set_level(logging.DEBUG, logger="gelshoot.fixedpoint")
        eps, _ = fp.eps_of_eta(0.01)
        assert iterates(caplog)[:3] == [
            pytest.approx(100.0 * SLOPE * 0.01), 0.0,
            pytest.approx(50.0 * SLOPE * 0.01)]
        assert abs(eps - ref_eps) <= 1e-5 * ref_eps

    def test_no_sign_change_after_doubling_hi(self, caplog, monkeypatch):
        # F < 0 at the start, which becomes lo, so the Newton step leaves
        # the bracket and only its unevaluated hi, 20 eta, is checked
        inject_f(monkeypatch, -1.0)
        caplog.set_level(logging.DEBUG, logger="gelshoot.fixedpoint")
        with pytest.raises(NoSignChangeError):
            fp.eps_of_eta(0.01)
        assert iterates(caplog) == [pytest.approx(SLOPE * 0.01), 0.2]

    @pytest.mark.parametrize("gamma", [8.0, 13.0, 20.0])
    def test_eta_is_the_closed_form_at_bbar(self, gamma):
        crit = fp.bbar_of_gamma(gamma)
        assert crit.eta == 2.0 ** (2.0 / crit.bbar + 1.0 - gamma)
        assert crit.state.eta == crit.eta and crit.state.eps == crit.eps
        assert crit.bbar == fp.LN2 / (fp.LN2 - math.log1p(crit.eps))

    @pytest.mark.parametrize("gamma, before", [
        (8.0, 1.0095311984502684), (10.0, 1.0023684209868216),
        (13.0, 1.0002955354279535), (20.0, 1.0000023086623657)])
    def test_bbar_moves_only_inside_the_f_tolerance(self, gamma, before):
        # the nested b-iteration's values; the F stop leaves up to 3.5e-9
        # of error in eps, so the two routes may differ by a few 1e-9
        assert abs(fp.bbar_of_gamma(gamma).bbar - before) <= 5e-9

    def test_one_log_line_per_root_iterate(self, caplog, monkeypatch):
        solves = []
        solve = fp.picard_solve

        def counting(*args, **kwargs):
            solves.append(solve(*args, **kwargs))
            return solves[-1]

        monkeypatch.setattr(fp, "picard_solve", counting)
        caplog.set_level(logging.DEBUG, logger="gelshoot.fixedpoint")
        crit = fp.bbar_of_gamma(8.0)
        lines = [r.getMessage() for r in caplog.records
                 if r.getMessage().startswith("root iterate ")]
        assert len(lines) == len(solves) >= 3
        for line, st in zip(lines, solves):
            assert line == (f"root iterate eps = {st.eps:.17g}, "
                            f"eta = {st.eta:.17g}, F = {st.F_value:.3e} "
                            f"in {st.iterations} sweeps "
                            f"from {st.sup_diff_history[0]:.3e}")
        assert solves[-1].eps == crit.eps

    def test_root_reads_the_solves_f(self, monkeypatch):
        # the stop tests the F of each solve's last sweep; f_eval is only
        # the oracles' recomputation
        calls = []
        monkeypatch.setattr(fp, "f_eval", calls.append)
        fp.eps_of_eta(0.01)
        fp.bbar_of_gamma(13.0)
        assert calls == []

    @pytest.mark.parametrize("eta", [1e-16, 1e-18, 1e-200,
                                     0.99 * 2.0 ** -49])
    def test_eta_below_the_resolved_range_rejected(self, eta, monkeypatch):
        calls = count_sweeps(monkeypatch)
        with pytest.raises(DomainError, match=OUTSIDE):
            fp.eps_of_eta(eta)
        assert calls == []

    @pytest.mark.parametrize("gamma", [52.01, 58.0, 61.0, 300.0, 1000.0])
    def test_gamma_past_the_resolved_range_rejected(self, gamma):
        with pytest.raises(DomainError, match=OUTSIDE):
            fp.bbar_of_gamma(gamma)

    def test_slope_holds_at_the_limit(self):
        # F sees eps only through 1 + eps: eps/eta keeps to within 1% of
        # the gradient ratio from the limit up
        for eta in np.geomspace(fp.ETA_MIN, 2.0 * fp.ETA_MIN, 7):
            eps, _ = fp.eps_of_eta(float(eta))
            assert abs(eps / eta / SLOPE - 1.0) < 0.01, eta
        crit = fp.bbar_of_gamma(52.0)
        assert abs(crit.eps / crit.eta / SLOPE - 1.0) < 0.01

    def test_bench_mirrors_the_f_tolerance(self):
        # bench/ops.py copies the F stop into its oracles; read, not import
        path = Path(__file__).resolve().parents[1] / "bench" / "ops.py"
        consts = {t.id: node.value.value
                  for node in ast.parse(path.read_text()).body
                  if isinstance(node, ast.Assign)
                  and isinstance(node.value, ast.Constant)
                  for t in node.targets if isinstance(t, ast.Name)}
        assert consts["EPS_F_TOL"] == consts["BBAR_F_TOL"] == fp.F_TOL


class TestPredictedStarts:
    @pytest.mark.parametrize("root, arg, sweeps, solves", [
        (fp.eps_of_eta, 0.01, 10, 3), (fp.eps_of_eta, 0.048, 18, 4),
        (fp.bbar_of_gamma, 8.0, 13, 3), (fp.bbar_of_gamma, 13.0, 5, 2)])
    def test_sweeps_and_solves_per_root(self, root, arg, sweeps, solves,
                                        monkeypatch):
        # from the previous solve each took 13, 22, 16 and 7 sweeps over
        # the same solves
        fp.default_grid()
        calls, solves_run = count_sweeps(monkeypatch), []
        solve = fp.picard_solve

        def counting(*args, **kwargs):
            solves_run.append(solve(*args, **kwargs))
            return solves_run[-1]

        monkeypatch.setattr(fp, "picard_solve", counting)
        root(arg)
        assert len(calls) <= sweeps
        assert len(solves_run) == solves

    def test_first_order_fields(self):
        # W*(0.2 t, t) leaves the first-order prediction by O(t^2): the
        # error quarters as t halves; at x = 0 the fields are -dF/deps and
        # -dF/deta, F = -W(0)
        grid = fp.default_grid()
        errs = []
        for t in (0.01, 0.005):
            st = fp.picard_solve(0.2 * t, t)
            pred = 0.2 * t * grid.d_eps + t * grid.d_eta
            errs.append(np.max(np.abs(np.array((st.W, st.dW)) - pred),
                               axis=1))
        assert np.all((3.8 < errs[0] / errs[1]) & (errs[0] / errs[1] < 4.2))
        assert grid.d_eps[0, 0] == pytest.approx(-DF_DEPS, rel=1e-5)
        assert grid.d_eta[0, 0] == pytest.approx(-DF_DETA, rel=1e-12)

    def test_each_start_lies_closer(self, caplog):
        # the debug line ends in the first sweep's sup-difference, which
        # falls from solve to solve: 4.0e-4, 5.9e-6, 2.0e-9 and 5.3e-14
        caplog.set_level(logging.DEBUG, logger="gelshoot.fixedpoint")
        fp.eps_of_eta(0.048)
        firsts = [float(r.getMessage().split()[-1]) for r in caplog.records
                  if r.getMessage().startswith("root iterate ")]
        assert len(firsts) == 4
        assert firsts[0] > firsts[1] > firsts[2] > firsts[3]


class TestBbar:
    @pytest.mark.parametrize("gamma", [8.608518746421021, 8.661624032159475,
                                       9.561252869475442])
    def test_profile_positive_at_the_tail(self, gamma):
        # h(40) = e^-40 + W(40) is 3.1e-18, 3.1e-18 and 3.6e-18 here, against
        # e^-40 = 4.2e-18: a sweep whose tail errs by 4e-18 makes it negative
        crit = fp.bbar_of_gamma(gamma)
        assert np.all(crit.h > 0.0)

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
        st = crit.state
        recon = np.exp(-xs) + fp.hermite_apply(fp.hermite_weights(st.x, xs),
                                               st.W, st.dW)
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
        r_eval(st.W, st.dW, st.eps, st.eta, [0.5, 2.0])
        fp.eps_of_eta(0.005)
        x = fp.default_grid().x
        fp.contraction_factor(0.01, 0.01, 0.01 * np.exp(-x),
                              0.01 * np.exp(-x / 2.0))
        assert len(builds) == 1
        assert fp.default_grid() is builds[0]

    def test_build_memory_beyond_the_kernel(self):
        # the fill's tables and one block's product with its mask at a
        # time: 0.78 MiB beyond K
        fp.default_grid()
        tracemalloc.start()
        try:
            grid = fp.FixedPointGrid()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - grid.K.nbytes <= 2 * 2 ** 20

    def test_fill_memory_beyond_the_kernel(self):
        # refilling K in place: the fill's tables and one block's product
        # take 0.74 MiB
        grid = fp.FixedPointGrid()
        tracemalloc.start()
        try:
            grid._fill_kernel()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 2 ** 20

    def test_a_block_without_its_term_count_is_refused(self, monkeypatch):
        # a block past KERNEL_TERMS would otherwise stay zero without a word
        blocks = fp.default_grid().blocks
        monkeypatch.setattr(fp, "KERNEL_TERMS", (12,) * (len(blocks) - 1))
        with pytest.raises(ValueError):
            fp.FixedPointGrid()

    def test_no_function_takes_a_grid_knob(self):
        for name, obj in vars(fp).items():
            if inspect.isfunction(obj) and obj.__module__ == fp.__name__:
                params = inspect.signature(obj).parameters
                assert not {"cfg", "x_max", "n_nodes"} & set(params), name
        assert not inspect.signature(fp.FixedPointGrid).parameters
        assert not inspect.signature(fp.default_grid).parameters
