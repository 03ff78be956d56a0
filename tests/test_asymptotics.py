import math

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from gelshoot import asymptotics as asy
from gelshoot.errors import DomainError, SeriesOverflowError, TermCapError

LN2 = math.log(2.0)

# frozen independent evaluations
ALPHA_LN2 = 2.2991138170001097
T_STAR_1 = 1.5936242600400401
D_1 = 0.18624975627100618
W_1 = 0.5252241460859855
LIMIT_B1 = 0.4426950408889634        # (1 - ln2)/ln2


class TestAlphaRoot:
    def test_critical_value(self):
        al = asy.alpha_root(LN2)
        assert al == pytest.approx(ALPHA_LN2, rel=1e-12)
        assert al > 2.0
        # root residual, the actual contract
        assert abs(LN2 * al / (2.0 * (1.0 - 2.0 ** -al)) - 1.0) < 1e-12

    def test_unit_b_has_integer_root(self):
        al = asy.alpha_root(1.0)
        assert al == pytest.approx(1.0, abs=1e-12)
        assert al == 1.0        # g(1) = 0 exactly, and the bisection keeps it
        assert abs(al / (2.0 * (1.0 - 2.0 ** -al)) - 1.0) < 1e-12

    def test_independent_bisection_oracle(self):
        b = 0.9
        oracle = brentq(lambda a: b * a - 2.0 * (1.0 - 2.0 ** -a),
                        1e-9, 10.0, xtol=1e-14)
        assert asy.alpha_root(b) == pytest.approx(oracle, abs=1e-12)

    @pytest.mark.parametrize("b", [1.2, 1.3, 1.32, 1.38, 1.386, 1.3862])
    def test_mpmath_root_near_two_ln2(self, b):
        # b alpha/(2 (1 - 2^-alpha)) - 1 cancels as b -> 2 ln 2, where the
        # direct form was off by 4.2e-17, 7.5e-15, 6.9e-13 and 2.8e-12 at
        # 1.2, 1.38, 1.386 and 1.3862
        with mp.workdps(50):
            bm = mp.mpf(b)
            x0 = 4 * (2 * mp.log(2) - bm) / (bm * mp.log(2))  # alpha ~ x0
            ref = mp.findroot(lambda a: bm * a / (2 * (1 - mp.power(2, -a)))
                              - 1, (x0 / 2, 2 * x0), solver="anderson")
            assert abs(asy.alpha_root(b) / ref - 1) <= 1e-14

    def test_mpmath_scan_up_to_two_ln2(self):
        # alpha ln 2 falls from 0.13 to 0 on [1.30, 2 ln 2); with the split
        # form only below alpha ln 2 = 0.1 the direct form was off by
        # 4.2e-15 at b = 1.3179779918999772 and 2.1e-15 at 1.3190843
        bs = np.linspace(1.30, 2.0 * LN2, 161)[:-1].tolist() \
            + [1.3179779918999772, 1.3190843, 1.386294361]
        worst = 0.0
        for b in bs:
            with mp.workdps(50):
                bm = mp.mpf(b)
                ref = mp.findroot(
                    lambda a: bm * a / (2 * (1 - mp.power(2, -a))) - 1,
                    mp.mpf(asy.alpha_root(b)))
                worst = max(worst, abs(asy.alpha_root(b) / ref - 1))
        assert worst <= 1e-15

    def test_domain(self):
        with pytest.raises(DomainError):
            asy.alpha_root(2.0 * LN2)
        with pytest.raises(DomainError):
            asy.alpha_root(0.0)

    @pytest.mark.parametrize("b", [1e-300, 1.2e-308])
    def test_root_near_the_top_of_the_doubles(self, b):
        # the root is about 2/b; at b = 1e-300 the computed left side at
        # 2/b is 1 - 2^-53, below the root; at 1.2e-308 (2/b = 1.67e308)
        # doubling the bracket's top once overflowed to inf and returned
        # its bottom, 1e-300
        al = asy.alpha_root(b)
        assert al == pytest.approx(2.0 / b, rel=1e-15)
        assert b * al / (2.0 * -math.expm1(-al * LN2)) - 1.0 == 0.0

    def test_root_past_the_doubles_is_a_domain_error(self):
        with pytest.raises(DomainError, match="no finite double"):
            asy.alpha_root(1e-310)


class TestGamma1Series:
    def test_zero_a1_gives_the_constant(self):
        prof = asy.gamma1_series(LN2, 0.0, 10)
        xs = np.linspace(0.0, 0.5, 11)
        assert prof.eval(xs) == pytest.approx(np.ones_like(xs))

    def test_recursion_against_direct_substitution(self):
        prof = asy.gamma1_series(LN2, -1.0, 30)
        al, a = prof.alpha, prof.coefficients
        for n in range(2, 30):
            lhs = (n * LN2 * al / (1.0 - 2.0 ** (-n * al)) - 2.0) * a[n]
            rhs = sum(a[m] * a[n - m] for m in range(1, n))
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-13)

    def test_profile_positive_decreasing(self):
        prof = asy.gamma1_series(LN2, -1.0, 30)
        traj = asy.gamma1_trajectory(prof, 1e3, tol=1e-10)
        ts, us, dus = traj.nodes()
        assert np.all(us > 0.0)
        assert np.all(dus <= 1e-12)     # decreasing in z = ln x

    def test_integrated_form_constant(self):
        # b Phi(x) - int_{x/2}^x Phi^2/s ds equals b - ln2, so it vanishes
        # at the critical b
        prof = asy.gamma1_series(LN2, -1.0, 40)
        for x in (0.1, 0.3, 0.6):
            integral, _ = quad(lambda s: prof.eval(s) ** 2 / s, x / 2.0, x,
                               epsabs=1e-13, epsrel=1e-13)
            assert LN2 * prof.eval(x) - integral == pytest.approx(
                0.0, abs=1e-10)

    def test_tail_doubling_inequality(self):
        prof = asy.gamma1_series(LN2, -1.0, 30)
        traj = asy.gamma1_trajectory(prof, 2e3, tol=1e-10)
        zs = np.linspace(math.log(0.8), math.log(4.0), 40)
        phi_x = traj.eval_many(zs)
        phi_2x = traj.eval_many(zs + LN2)
        # the squared-decay bound is checkable down to the integrator's
        # absolute resolution; below that the computed tail saturates
        resolvable = phi_2x > 1e-7
        assert resolvable.sum() > 10
        assert np.all(phi_2x[resolvable]
                      <= phi_x[resolvable] ** 2 * (1.0 + 1e-6))

    @pytest.mark.parametrize("b,a1", [(LN2, -1.0), (1.0, -1.0), (1.0, -0.5),
                                      (0.9, -2.0), (1.2, -1.0), (1.3, -0.3)])
    def test_coefficients_against_mpmath(self, b, a1):
        # the same recursion at 50 digits and the same alpha
        prof = asy.gamma1_series(b, a1, 40)
        with mp.workdps(50):
            al = mp.mpf(prof.alpha)
            a = [mp.mpf(1), mp.mpf(a1)]
            for n in range(2, 41):
                denom = n * b * al / (1 - mp.power(2, -n * al)) - 2
                a.append(mp.fsum(a[m] * a[n - m] for m in range(1, n))
                         / denom)
            worst = max(abs(got / ref - 1) for got, ref
                        in zip(prof.coefficients, a) if ref != 0)
        assert all(type(c) is float for c in prof.coefficients)
        assert worst <= 1e-13

    def test_positive_a1_rejected(self):
        with pytest.raises(DomainError):
            asy.gamma1_series(LN2, 0.5, 10)

    def test_underflowing_switchover_is_typed(self):
        # near b = 2 ln 2, alpha = 1.96e-4 and a_40 = 5.9e150: the x where
        # the last term falls to 1e-14 is (1e-14/a_40)^(1/(40 alpha)) = 0
        prof = asy.gamma1_series(1.3862, -1.0, 40)
        with pytest.raises(SeriesOverflowError) as info:
            prof.switchover()
        msg = str(info.value)
        assert "b=1.3862" in msg and "alpha=0.000196" in msg
        assert "a_N=5.92e+150" in msg and info.value.order == 40


class TestGamma1UnitB:
    def test_limit_value(self):
        out = asy.gamma1_b1_limit(-1.0, x_max=2e5)
        assert out["limit"] == pytest.approx(LIMIT_B1, abs=1e-5)
        # the fields a caller reads
        assert set(out) == {"limit", "tail_exponent_fit"}

    def test_limit_independent_of_a1(self):
        limits = [asy.gamma1_b1_limit(a1, x_max=2e5)["limit"]
                  for a1 in (-0.5, -1.0, -2.0)]
        assert max(limits) - min(limits) < 1e-6

    def test_power_law_approach(self):
        # the deviation decays like x^(-p) with p near 1.31, not
        # exponentially
        out = asy.gamma1_b1_limit(-1.0, x_max=2e5)
        assert out["tail_exponent_fit"] == pytest.approx(1.31, abs=0.05)


class TestPsiSeries:
    def test_values_at_origin(self):
        assert asy.psi_series_eval(0.1, 0.0) == 0.0
        assert asy.psi_derivative(0.1, 0.0) == 1.0

    @pytest.mark.parametrize("y", [0.25, 1.0, 5.0, 12.0, 20.0])
    def test_linear_equation_residual(self, y):
        assert abs(asy.psi_residual(0.1, y)) < 1e-9

    def test_coefficient_limit_toward_unit_eps(self):
        # all product factors approach 1, so Psi sums to (e^(2y)-1)/2
        val = asy.psi_series_eval(1.0 - 1e-9, 3.0)
        assert val == pytest.approx((math.exp(6.0) - 1.0) / 2.0, rel=1e-6)

    def test_log_mode_for_huge_arguments(self):
        eps = 5e-4
        lv = asy.psi_log_eval(eps, 1.0 / eps)
        assert lv > 700.0           # beyond the double range
        with pytest.raises(OverflowError):
            asy.psi_series_eval(eps, 1.0 / eps)

    @pytest.mark.parametrize("eps,y", [(0.02, 5e4), (0.1, 1e251)])
    def test_term_cap_is_typed(self, eps, y):
        # the terms peak near order 2y, beyond the cap; the truncated sum
        # gave log Psi = 5.7e7 at y = 1e251, where 1e252 is predicted
        with pytest.raises(TermCapError) as info:
            asy.psi_log_eval(eps, y)
        for part in (f"eps={eps!r}", f"y={y!r}", str(asy.PSI_TERM_CAP)):
            assert part in str(info.value)

    @pytest.mark.parametrize("eps,y", [(1e-4, 7500.0), (0.1, 10.0),
                                       (0.5, 3.0)])
    def test_log_psi_against_mpmath(self, eps, y):
        # the series summed at 60 digits; (1 - eps)^n in doubles put the
        # first case 4.7e-13 off
        with mp.workdps(60):
            e, ym = mp.mpf(eps), mp.mpf(y)
            term = total = ym
            power = mp.mpf(1)
            n = 0
            while n < 3 * y + 20 or term > total * mp.mpf(10) ** -65:
                n += 1
                power *= 1 - e
                term *= 2 * (1 - power) * ym / (n + 1)
                total += term
            ref = mp.log(total)
        assert abs(asy.psi_log_eval(eps, y) / ref - 1) <= 1e-13

    def test_eps_below_the_unit_roundoff(self):
        # 1 - eps rounds to 1 there, and log1p(-1) once raised ValueError;
        # Psi(y) = y (1 + eps y/2 + ...)
        assert asy.psi_log_eval(1e-17, 2.0) == pytest.approx(
            math.log(2.0), rel=1e-15)
        assert asy.psi_derivative(1e-300, 2.0) == pytest.approx(1.0,
                                                                rel=1e-15)

    def test_domain(self):
        with pytest.raises(DomainError):
            asy.psi_series_eval(0.0, 1.0)
        with pytest.raises(DomainError):
            asy.psi_series_eval(0.5, -1.0)


class TestLaplaceQuantities:
    def test_saddle_point(self):
        lq = asy.laplace_quantities(1.0)
        assert lq.t_star == pytest.approx(T_STAR_1, abs=1e-10)
        # root property via an independent brentq
        oracle = brentq(lambda t: t - 2.0 * (1.0 - math.exp(-t)),
                        1e-6, 5.0, xtol=1e-13)
        assert lq.t_star == pytest.approx(oracle, abs=1e-10)

    def test_curvature_closed_form(self):
        lq = asy.laplace_quantities(1.0)
        assert lq.D == pytest.approx(D_1, abs=1e-10)

    def test_exponent_integral_by_coarse_simpson(self):
        lq = asy.laplace_quantities(1.0)
        # independent composite-Simpson oracle
        n = 20000
        t = np.linspace(1e-12, lq.t_star, n + 1)
        f = np.log(2.0 * (1.0 - np.exp(-t)) / t)
        simpson = (t[1] - t[0]) / 3.0 * (f[0] + f[-1]
                                         + 4.0 * f[1:-1:2].sum()
                                         + 2.0 * f[2:-1:2].sum())
        assert lq.W == pytest.approx(simpson, abs=1e-6)
        assert lq.W == pytest.approx(W_1, abs=1e-8)
        assert lq.W == pytest.approx(0.525, abs=0.002)

    def test_positivity(self):
        for eta in (0.6, 1.0, 2.5):
            lq = asy.laplace_quantities(eta)
            assert lq.W > 0.0 and lq.D > 0.0 and lq.U > 0.0
            assert lq.t_star / (1.0 - math.exp(-lq.t_star)) \
                == pytest.approx(2.0 * eta, abs=1e-12)

    def test_derivative_identity_by_finite_differences(self):
        # dW/deta = t*/eta; verified before the matching slope relies on it
        for eta in (0.8, 1.0, 1.7):
            h = 1e-5
            fd = (asy.laplace_quantities(eta + h).W
                  - asy.laplace_quantities(eta - h).W) / (2.0 * h)
            assert asy.w_prime(eta) == pytest.approx(fd, abs=1e-8)

    def test_domain(self):
        with pytest.raises(DomainError):
            asy.laplace_quantities(0.5)


def saddle_oracle(eta: float):
    """t*, W, D and U at 50 digits.  W by its closed form
    t*(1 + ln(2 eta/t*)) - pi^2/6 + Li2(e^-t*), since the integrand of
    ln(2 eta (1-e^-t)/t) is 0/0 at t = 0."""
    with mp.workdps(50):
        e = mp.mpf(eta)
        # the double t* only starts the secant iteration
        t = mp.findroot(lambda t: t / (2 * e * -mp.expm1(-t)) - 1,
                        mp.mpf(asy.t_star(eta)))
        W = t * (1 + mp.log(2 * e / t)) - mp.pi ** 2 / 6 \
            + mp.polylog(2, mp.exp(-t))
        D = (1 - t / mp.expm1(t)) / (2 * t)
        U = e * mp.sqrt(mp.pi * -mp.expm1(-t)) / (mp.sqrt(D) * t ** 1.5)
        return t, W, D, U


class TestSaddleOracle:
    @pytest.mark.parametrize("eta", [
        0.5 + 1e-13, 0.5 + 1e-8, 0.5 + 1e-6, 0.5 + 1e-4, 0.5 + 1e-2, 0.55,
        0.6, LN2, 0.75, 1.0, 1.3, 2.0, 5.0, 20.0, 1e3, 1e6, 1e12, 1e100])
    def test_against_mpmath(self, eta):
        # t*(1/2 + 1e-13) = 4e-13 lies below 1e-12, where the bracket once
        # began; eta = ln 2 puts u = 1 - e^-t* at 1/2, the last point W
        # takes from its u series
        lq = asy.laplace_quantities(eta)
        got = (lq.t_star, lq.W, lq.D, lq.U)
        for name, g, r in zip("tWDU", got, saddle_oracle(eta)):
            assert abs(g / r - 1) <= 1e-13, name


class TestPsiAsymptotics:
    def test_defect_decreases_at_unit_eta(self):
        rows = asy.psi_asymptotics_check(1.0, [0.1, 0.05, 0.02])
        rs = [abs(r["r"]) for r in rows]
        assert rs[0] > rs[1] > rs[2]

    def test_defect_decreases_at_lower_eta(self):
        rows = asy.psi_asymptotics_check(0.75, [0.1, 0.05, 0.02])
        rs = [abs(r["r"]) for r in rows]
        assert rs[0] > rs[1] > rs[2]

    def test_degenerate_scale_reported(self):
        # near the boundary the saddle flattens; the defect is larger but
        # still finite (reported, not asserted against a rate)
        near = asy.psi_asymptotics_check(0.55, [0.05])[0]
        assert math.isfinite(near["r"])


class TestCriticalDelta:
    def test_closed_form(self):
        lq = asy.laplace_quantities(1.0)
        out = asy.critical_delta(0.05, 1.0)
        oracle = math.sqrt(0.05) * math.exp(-lq.W / 0.05) / lq.U
        assert out["delta"] == pytest.approx(oracle, rel=1e-12)

    def test_exponentially_small(self):
        out = asy.critical_delta(0.01, 1.0)
        lq = asy.laplace_quantities(1.0)
        # the dominant part of log delta is -W/eps
        assert out["log_delta"] == pytest.approx(-lq.W / 0.01, rel=0.10)

    def test_matching_slope_is_the_saddle_ratio(self):
        out = asy.critical_delta(0.05, 1.3)
        assert out["matching_slope"] == pytest.approx(
            asy.t_star(1.3) / 1.3, rel=1e-12)
        assert out["y_bar"] == pytest.approx(1.3 / 0.05)
        assert set(out) == {"delta", "log_delta", "matching_slope", "y_bar"}


class TestTailExponents:
    def test_closed_forms(self):
        te = asy.tail_exponents(0.1, 1.0)
        assert te.beta == pytest.approx(6.5788134789605838, rel=1e-13)
        assert te.alpha == te.beta - 1.0
        assert te.K1_over_c1 == pytest.approx(4.0 * te.beta * 0.81,
                                              rel=1e-13)
        assert te.sigma_rate == pytest.approx(LN2, rel=1e-13)
        assert te.K0_over_c0 == pytest.approx(4.0 * LN2, rel=1e-13)

    def test_small_eps_limit(self):
        te = asy.tail_exponents(1e-4, 1.0)
        assert te.eps * te.beta == pytest.approx(LN2, abs=1e-4)

    def test_matching_closure_identity(self):
        # the amplitude bridge is exact once alpha - beta = -1 is used
        mc = asy.matching_closure(0.1, 1.0)
        assert abs(mc["identity_defect"]) < 1e-10
        # the leading-order form differs at finite eps and is reported
        assert abs(mc["leading_order_defect"]) > 0.1

    def test_domain(self):
        with pytest.raises(DomainError):
            asy.tail_exponents(0.6, 1.0)
