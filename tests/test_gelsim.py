import math
import re
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gelshoot import gelsim as gs
from gelshoot.errors import BlowUpError, DomainError, SolverFailureError
from gelshoot.profiles import make_params


class TestSingleSite:
    def test_riccati_closed_form(self):
        chain = gs.make_chain(1.3, 2.0, 0, lambda x: 0.7)
        sol = gs.evolve_chain(chain, 3.0, tol=1e-12)
        exact = gs.single_site_closed_form(1.3, 2.0, 0.7, sol.t)
        assert np.max(np.abs(sol.f[0] - exact) / exact) < 1e-10


class TestStationaryProfile:
    def test_zero_rhs_with_matched_feeder(self):
        chain = gs.make_chain(1.0, 2.0, 12, "stationary",
                              feeder="stationary")
        assert gs.chain_rhs_residual(chain) < 1e-10

    def test_state_constant_in_time(self):
        chain = gs.make_chain(1.0, 2.0, 12, "stationary",
                              feeder="stationary")
        sol = gs.evolve_chain(chain, 1.0, tol=1e-12)
        assert np.max(np.abs(sol.f[:, -1] - chain.f)) < 1e-12

    def test_truncated_chain_decays_at_the_bottom(self):
        # with the zero feeder the bottom site has no gain
        chain = gs.make_chain(1.0, 2.0, 4, "stationary")
        assert gs.chain_rhs_residual(chain) == pytest.approx(1.0)


class TestDecoupling:
    def test_joint_equals_separate_bitwise(self):
        a = gs.make_chain(1.1, 2.0, 6, "exp")
        b = gs.make_chain(1.7, 2.0, 6, "exp")
        joint = gs.evolve_chains([a, b], 2.0, tol=1e-10)
        sep_a = gs.evolve_chain(a, 2.0, tol=1e-10)
        sep_b = gs.evolve_chain(b, 2.0, tol=1e-10)
        assert np.array_equal(joint[0].f_steps, sep_a.f_steps)
        assert np.array_equal(joint[1].f_steps, sep_b.f_steps)

    def test_repeat_runs_are_bitwise_identical(self):
        chain = gs.make_chain(1.3, 2.0, 8, "exp")
        s1 = gs.evolve_chain(chain, 3.0)
        s2 = gs.evolve_chain(chain, 3.0)
        assert np.array_equal(s1.f, s2.f)


class TestPositivityAndGrowth:
    def test_exp_run_stays_nonnegative_at_steps(self):
        chain = gs.make_chain(1.0, 2.0, 10, "exp")
        sol = gs.evolve_chain(chain, 5.0, tol=1e-10)
        assert float(sol.f_steps.min()) >= -1e-12

    def test_top_site_fed_by_the_gain_term(self):
        chain = gs.make_chain(1.0, 2.0, 10, "exp")
        sol = gs.evolve_chain(chain, 5.0, tol=1e-10)
        assert sol.f[-1, 0] < 1e-300      # starts at underflow level
        assert sol.f[-1, -1] > 1e-12      # strictly fed upward

    def test_refining_tol_changes_little(self):
        chain = gs.make_chain(1.0, 2.0, 8, "exp")
        coarse = gs.evolve_chain(chain, 3.0, tol=1e-8)
        fine = gs.evolve_chain(chain, 3.0, tol=1e-11)
        assert np.max(np.abs(coarse.f[:, -1] - fine.f[:, -1])) < 1e-7


class TestBlowUpHandling:
    def test_cap_event_raises_with_partial_solution(self, monkeypatch):
        # a strong fixed feeder drives the bottom site toward an
        # equilibrium above the cap
        monkeypatch.setattr(gs, "VALUE_CAP", 1.5)
        chain = gs.make_chain(1.0, 2.0, 0, lambda x: 0.01, feeder=10.0)
        with pytest.raises(BlowUpError) as info:
            gs.evolve_chain(chain, 10.0)
        sol = info.value.solution
        assert float(sol.f_steps[:, -1].max()) >= 1.5 * 0.999

    def test_estimator_finite_only_for_growing_sites(self):
        t = np.linspace(0.0, 1.0, 100)
        growing = 1.0 / (1.0 - 0.9 * t)
        est = gs.riccati_blowup_estimate(t, growing)
        assert est == pytest.approx(1.0 / 0.9, rel=1e-6)
        decaying = np.exp(-t)
        assert gs.riccati_blowup_estimate(t, decaying) is None


class TestSelfSimilarResidual:
    def test_stationary_power_law(self):
        # 1.0e-13 with the Hermite in ln x (the spline read 1.1e-13)
        p = make_params(2.0, 2.0)      # the exponent pair (a0, b0)
        x = np.geomspace(0.1, 10.0, 20000)
        F = x ** -2.5
        dF = -2.5 * x ** -3.5
        assert gs.selfsimilar_residual(x, F, p, dF=dF) < 1e-12

    def test_zero_profile(self):
        p = make_params(2.0, 3.0)
        x = np.geomspace(0.1, 10.0, 100)
        zero = np.zeros_like(x)
        assert gs.selfsimilar_residual(x, zero, p, dF=zero) == 0.0

    def test_shooting_profile_cross_check(self):
        # 2.7e-13 with the Hermite in ln x (the spline read 1.3e-12)
        from gelshoot import shooting as sh
        p = make_params(2.0, 5.0)
        tol = 1e-9
        traj = sh.h_profile(p, 50.0, tol=tol)
        y = np.geomspace(0.5 ** (1.0 / p.b), 10.0 ** (1.0 / p.b), 3000)
        H = traj.eval_many(y)
        dH = -p.sigma * traj.eval_many(p.q * y) ** 2 + H ** 2
        x = y ** p.b
        Phi = y * H
        F = Phi / x ** (p.gamma + 1.0)
        dPhi_dx = (H + y * dH) * y / (p.b * x)
        dF = dPhi_dx / x ** (p.gamma + 1.0) \
            - (p.gamma + 1.0) * Phi / x ** (p.gamma + 2.0)
        assert gs.selfsimilar_residual(x, F, p, dF=dF) < 1e-12

    def test_interpolates_with_the_one_hermite(self):
        # F(x/2) is the cubic Hermite in ln x with node slopes x F': exact
        # for a cubic in ln x, here a grid whose halves miss every node
        p = make_params(2.0, 3.0)
        x = np.geomspace(1.0, 16.0, 7)
        u = np.log(x)
        F, dF = 1.0 + u * (0.5 - u * (0.25 - 0.1 * u)), \
            (0.5 - u * (0.5 - 0.3 * u)) / x
        inner = x / 2.0 >= x[0]
        uh = np.log(x[inner] / 2.0)
        F_half = 1.0 + uh * (0.5 - uh * (0.25 - 0.1 * uh))
        xs, g = x[inner], p.gamma
        expected = np.max(np.abs(
            -p.a * p.b * F[inner] - p.b * xs * dF[inner]
            - 0.25 * (xs / 2.0) ** (g + 1.0) * F_half ** 2
            + xs ** (g + 1.0) * F[inner] ** 2))
        assert gs.selfsimilar_residual(x, F, p, dF=dF) == pytest.approx(
            expected, rel=1e-13)

    def test_bad_grid(self):
        p = make_params(2.0, 3.0)
        one = np.array([1.0, 1.0])
        with pytest.raises(DomainError):
            gs.selfsimilar_residual(np.array([-1.0, 1.0]), one, p, dF=one)

    @pytest.mark.parametrize("x, F, dF", [
        # each once ended in scipy's ValueError or an IndexError, and an
        # infinite dF once returned an infinite residual
        ([1.0, math.nan, 4.0], [1.0, 1.0, 1.0], [0.0, 0.0, 0.0]),
        ([1.0, 2.0, math.inf], [1.0, 1.0, 1.0], [0.0, 0.0, 0.0]),
        ([1.0, 2.0, 4.0], [1.0, math.nan, 1.0], [0.0, 0.0, 0.0]),
        ([1.0, 2.0, 4.0], [1.0, 1.0, 1.0], [0.0, -math.inf, 0.0]),
        ([1.0, 2.0, 4.0], [1.0, 1.0], [0.0, 0.0, 0.0]),
        ([1.0, 2.0, 4.0], [1.0, 1.0, 1.0], [0.0, 0.0]),
        ([[1.0, 2.0], [4.0, 8.0]], [[1.0, 1.0], [1.0, 1.0]],
         [[0.0, 0.0], [0.0, 0.0]]),
        ([1.0], [1.0], [0.0]),
        ([], [], []),
        # no x/2 on a grid narrower than an octave: once np.max's
        # ValueError on an empty residual
        ([1.0, 1.5, 1.9], [1.0, 1.0, 1.0], [0.0, 0.0, 0.0])],
        ids=["nan-x", "inf-x", "nan-F", "inf-dF", "short-F", "short-dF",
             "2-d", "one-point", "empty", "under-an-octave"])
    def test_refused_inputs(self, x, F, dF):
        with pytest.raises(DomainError):
            gs.selfsimilar_residual(np.array(x), np.array(F),
                                    make_params(2.0, 3.0), dF=np.array(dF))


class TestGelationScan:
    def test_exp_data_gives_finite_estimates_at_large_sites(self):
        diag = gs.gelation_scan(2.0, init="exp", n_chains=4, K=10,
                                horizon=5.0)
        for est in diag.t_hat:
            finite_high = [e for e in est[5:] if e is not None]
            assert len(finite_high) >= 3

    def test_subgelling_control_run_never_hits_the_cap(self):
        diag = gs.gelation_scan(0.5, init="exp", n_chains=4, K=8,
                                horizon=5.0)
        assert len(diag.t_hat) == 4       # completed without cap events

    @pytest.mark.parametrize("n", [0, gs.MAX_CHAINS + 1, 10 ** 9])
    def test_a_chain_count_out_of_bounds_is_refused_first(self, n,
                                                          monkeypatch):
        # refused before the seeds are laid out: 10^9 chains once ran until
        # the process was killed
        def no_seeds(*args, **kwargs):
            raise AssertionError("seeds laid out before the count check")

        monkeypatch.setattr(gs.np, "geomspace", no_seeds)
        with pytest.raises(DomainError, match="n_chains"):
            gs.gelation_scan(2.0, n_chains=n)

    @pytest.mark.parametrize("call", [
        lambda: gs.make_chain(1.0, 2.0, 3, "exp", feeder="foo"),
        lambda: gs.make_chain(1.0, 2.0, 3, "exp", feeder=None),
        lambda: gs.make_chain(1.0, 2.0, 3.5, "exp"),
        lambda: gs.make_chain(1.0, 2.0, "3", "exp"),
        lambda: gs.gelation_scan(2.0, n_chains=2.5),
        lambda: gs.evolve_chain(
            gs.make_chain(1.0, 2.0, 3, "exp", feeder=math.inf), 1.0),
        lambda: gs.evolve_chain(
            gs.make_chain(1.0, 2.0, 3, "exp", feeder=math.nan), 1.0)],
        ids=["feeder-name", "feeder-none", "fractional-K", "string-K",
             "fractional-n_chains", "inf-feeder", "nan-feeder"])
    def test_malformed_input_is_a_domain_error(self, call):
        # once a bare ValueError from float(), a silent 5-site chain for
        # K = 3.5, numpy's TypeError, and SolverFailureError at t = 0
        with pytest.raises(DomainError):
            call()

    def test_seed_domain(self):
        with pytest.raises(DomainError):
            gs.make_chain(2.5, 2.0, 4, "exp")
        with pytest.raises(DomainError):
            gs.make_chain(1.0, 2.0, 4, "unknown-init")


class TestTolRange:
    @pytest.mark.parametrize("tol", [
        0.0, -1.0, math.nan, math.inf, 1.0, 1e250, 1e300, 1e-300,
        np.nextafter(gs.TOL_MIN, 0.0)])
    def test_tol_outside_the_solver_range_is_refused(self, tol,
                                                     monkeypatch):
        # refused before the rates are built: 1e300 once ended in a NaN
        # event traceback, 1e-300 in scipy's warning and a run at its floor
        monkeypatch.setattr(gs, "chain_rhs", None)
        chain = gs.make_chain(1.0, 2.0, 3, "exp")
        with pytest.raises(DomainError, match=r"not in \[2\.22"):
            gs.evolve_chain(chain, 1.0, tol=tol)

    def test_the_floor_is_dop853s(self):
        # scipy warns below 100 eps and runs at it; at the floor it is quiet
        assert gs.TOL_MIN == 100.0 * np.finfo(float).eps
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            gs.evolve_chain(gs.make_chain(1.0, 2.0, 3, "exp"), 0.1,
                            tol=gs.TOL_MIN)


class TestChainRates:
    @pytest.mark.parametrize("gamma", [math.nan, math.inf, 1e308, 200.0])
    def test_non_finite_rate_is_a_domain_error(self, gamma):
        # (xi0 2^k)^(gamma+1) leaves the double range: the solver once ran
        # on such rates until it was killed
        chain = gs.make_chain(1.0, gamma, 10, "exp")
        with pytest.raises(DomainError, match=re.escape(f"gamma={gamma!r}")):
            gs.chain_rhs(chain)
        with pytest.raises(DomainError):
            gs.evolve_chain(chain, 1.0)

    def test_an_infinite_top_site_is_refused_before_the_arrays(self):
        # simulate --sites 1000000000 was once killed building its sites
        # before chain_rhs could refuse them
        with pytest.raises(DomainError, match="with 1000000000000001 sites"):
            gs.make_chain(1.0, 2.0, 10 ** 15, "exp")
        chain = gs.make_chain(1.0, 2.0, 1023, "exp")  # xi0 2^1023 is finite
        with pytest.raises(DomainError, match="with 1024 sites"):
            gs.chain_rhs(chain)


class TestNanStep:
    @pytest.mark.parametrize("c", [1e200, 1e160])
    def test_an_overflowing_start_ends_in_solver_failure(self, c):
        # f^2 overflows, the rates turn NaN and so does the first step
        # size: the floor test once let a NaN step loop forever
        chain = gs.make_chain(1.0, 2.0, 3, lambda x: c)
        start = time.perf_counter()
        with pytest.raises(SolverFailureError) as info:
            gs.evolve_chain(chain, 1.0)
        assert time.perf_counter() - start < 1.0
        assert info.value.location == 0.0


class TestDop853Oracles:
    """The port against scipy's DOP853, which only these tests import."""

    def test_tableau_is_scipys_bit_for_bit(self):
        from scipy.integrate._ivp import dop853_coefficients as ref
        assert np.array_equal(gs._A, ref.A)
        assert np.array_equal(gs._A[12, :12], ref.B)  # the step's weights
        assert np.array_equal(gs._E3, ref.E3)
        assert np.array_equal(gs._E5, ref.E5)
        assert np.array_equal(gs._D, ref.D)

    def test_steps_and_states_match_solve_ivp(self):
        # alone, and every row of a 4-chain stack (one stacked solve)
        from scipy.integrate import solve_ivp
        chain = gs.make_chain(1.0, 2.0, 10, "exp")
        stack = [gs.make_chain(xi0, 2.0, 10, "exp")
                 for xi0 in (1.0, 1.2, 1.45, 1.9)]
        runs = [(chain, gs.evolve_chain(chain, 5.0, tol=1e-10))]
        runs += zip(stack, gs.evolve_chains(stack, 5.0, tol=1e-10))
        for chain, sol in runs:
            ref = solve_ivp(gs.chain_rhs(chain), (0.0, 5.0), chain.f,
                            method="DOP853", rtol=1e-10, atol=1e-14,
                            dense_output=True)
            assert len(sol.t_steps) == len(ref.t)
            assert np.max(np.abs(sol.f_steps - ref.y)) <= 1e-12
            assert np.max(np.abs(sol.f - ref.sol(sol.t))) <= 1e-12

    def test_the_run_ends_on_the_cap(self, monkeypatch):
        monkeypatch.setattr(gs, "VALUE_CAP", 1.5)
        chain = gs.make_chain(1.0, 2.0, 0, lambda x: 0.01, feeder=10.0)
        with pytest.raises(BlowUpError) as info:
            gs.evolve_chain(chain, 10.0)
        sol = info.value.solution
        assert abs(float(sol.f_steps[:, -1].max()) / 1.5 - 1.0) <= 1e-9
        assert sol.t_steps[-1] == info.value.location == sol.t[-1] < 10.0

    def test_a_start_above_the_cap_is_no_crossing(self):
        chain = gs.make_chain(1.0, 2.0, 3, lambda x: 1e13)
        sol = gs.evolve_chain(chain, 1.0)
        assert sol.t_steps[-1] == 1.0


def _solved(chains, t_end, tol):
    """gs._solve's results in input order."""
    return [result for _, result in sorted(gs._solve(chains, t_end, tol))]


def _outcome(result):
    """A _solve result as (solution, cap time or None)."""
    if isinstance(result, BlowUpError):
        return result.solution, result.location
    return result, None


class TestStackedSolve:
    """A stack of chains steps as one array; each row is bitwise alone."""

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(K=st.integers(0, 12), gamma=st.floats(0.5, 2.5),
           rows=st.lists(st.tuples(st.floats(1.0, 1.999), st.floats(0.1, 2.0),
                                   st.sampled_from([0.0, 3.0, 20.0])),
                         min_size=1, max_size=8),
           cap=st.floats(0.3, 3.0))
    def test_each_row_is_bitwise_alone(self, K, gamma, rows, cap):
        # a lowered cap stops some rows early and lets others reach t_end;
        # a row may also start above it, which is no crossing
        chains = [gs.make_chain(xi0, gamma, K,
                                lambda x, c=c: c * math.exp(-x), feeder=fb)
                  for xi0, c, fb in rows]
        with mock.patch.object(gs, "VALUE_CAP", cap):
            stacked = _solved(chains, 1.0, 1e-8)
            alone = [_solved([c], 1.0, 1e-8)[0] for c in chains]
        for got, want in zip(stacked, alone):
            (sol, t_cap), (ref, ref_cap) = _outcome(got), _outcome(want)
            assert t_cap == ref_cap
            for name in ("t", "f", "t_steps", "f_steps"):
                assert np.array_equal(getattr(sol, name), getattr(ref, name))

    def test_a_scan_is_one_stacked_solve(self, monkeypatch):
        calls = []

        def counted(rhs, y, *args):
            calls.append(y.shape)
            return dop853(rhs, y, *args)

        dop853 = gs._dop853
        monkeypatch.setattr(gs, "_dop853", counted)
        one = gs.gelation_scan(2.0, n_chains=8, K=4, horizon=1.0)
        assert calls == [(8, 5)]
        # more chains than STACK_ROWS solve as several stacks, in order
        monkeypatch.setattr(gs, "STACK_ROWS", 3)
        calls.clear()
        split = gs.gelation_scan(2.0, n_chains=8, K=4, horizon=1.0)
        assert calls == [(3, 5), (3, 5), (2, 5)]
        assert split.t_hat == one.t_hat

    def test_mixed_lengths_come_back_in_input_order(self):
        chains = [gs.make_chain(1.1, 2.0, 6, "exp"),
                  gs.make_chain(1.3, 2.0, 2, "exp"),
                  gs.make_chain(1.7, 2.0, 6, "exp")]
        joint = gs.evolve_chains(iter(chains), 2.0)  # any iterable
        for sol, chain in zip(joint, chains):
            alone = gs.evolve_chain(chain, 2.0)
            assert np.array_equal(sol.t_steps, alone.t_steps)
            assert np.array_equal(sol.f_steps, alone.f_steps)

    def test_the_first_failing_row_in_input_order_raises(self):
        # row 1 fails at t = 1.87 and row 3 at t = 0, earlier in the
        # stack's steps: a loop of lone solves raises row 1's error
        ok = gs.make_chain(1.5, 2.0, 60, lambda x: 0.0)
        late = gs.make_chain(1.0, 2.0, 60, "exp")
        early = gs.make_chain(1.2, 2.0, 60, lambda x: 1e200)
        with pytest.raises(SolverFailureError) as lone:
            gs.evolve_chain(late, 3.0)
        with pytest.raises(SolverFailureError) as info:
            gs.evolve_chains([ok, late, ok, early], 3.0)
        assert info.value.location == lone.value.location > 1.8
        assert str(info.value) == str(lone.value)
        with pytest.raises(SolverFailureError) as info:
            gs.evolve_chains([ok, early, late], 3.0)
        assert info.value.location == 0.0
        # the rows after a failed one stop with it, as a loop would
        assert _solved([early, late], 3.0, 1e-10)[1] is None

    def test_the_first_capped_row_in_input_order_raises(self, monkeypatch):
        monkeypatch.setattr(gs, "VALUE_CAP", 1.5)
        slow = gs.make_chain(1.0, 2.0, 0, lambda x: 0.01, feeder=10.0)
        fast = gs.make_chain(1.0, 2.0, 0, lambda x: 0.01, feeder=50.0)
        with pytest.raises(BlowUpError) as lone:
            gs.evolve_chain(slow, 10.0)
        with pytest.raises(BlowUpError) as first:
            gs.evolve_chain(fast, 10.0)
        with pytest.raises(BlowUpError) as info:
            gs.evolve_chains([slow, fast], 10.0)
        assert info.value.location == lone.value.location \
            > first.value.location
        assert np.array_equal(info.value.solution.f_steps,
                              lone.value.solution.f_steps)
