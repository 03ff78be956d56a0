import math
import re

import numpy as np
import pytest

from gelshoot import gelsim as gs
from gelshoot.errors import BlowUpError, DomainError
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
        p = make_params(2.0, 2.0)      # the exponent pair (a0, b0)
        x = np.geomspace(0.1, 10.0, 20000)
        F = x ** -2.5
        dF = -2.5 * x ** -3.5
        assert gs.selfsimilar_residual(x, F, p, dF=dF) < 1e-10

    def test_zero_profile(self):
        p = make_params(2.0, 3.0)
        x = np.geomspace(0.1, 10.0, 100)
        assert gs.selfsimilar_residual(x, np.zeros_like(x), p) == 0.0

    def test_shooting_profile_cross_check(self):
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
        assert gs.selfsimilar_residual(x, F, p, dF=dF) < 10.0 * tol

    def test_bad_grid(self):
        p = make_params(2.0, 3.0)
        with pytest.raises(DomainError):
            gs.selfsimilar_residual(np.array([-1.0, 1.0]),
                                    np.array([1.0, 1.0]), p)


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

    def test_collapse_improves_for_relaxing_data(self):
        def bumped(x):
            return x ** -2.5 * (1.0 + 0.5
                                * math.exp(-(math.log(x) - 1.0) ** 2))

        diag = gs.gelation_scan(2.0, init=bumped, n_chains=6, K=10,
                                horizon=8.0, feeder="stationary")
        metrics = np.array([m for m in diag.collapse_metric if m])
        med = np.median(metrics, axis=0)
        assert med[0] > med[1] > med[2]

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

    def test_seed_domain(self):
        with pytest.raises(DomainError):
            gs.make_chain(2.5, 2.0, 4, "exp")
        with pytest.raises(DomainError):
            gs.make_chain(1.0, 2.0, 4, "unknown-init")


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
