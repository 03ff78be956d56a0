"""Borderline homogeneity: the exact critical case and its linearization.

At the lowest gelling homogeneity the profile equation in Phi form reads

    b x Phi'(x) = Phi(x)^2 - Phi(x/2)^2,   Phi(0) = 1,

with exact decaying solutions at b = ln 2 built from a fractional-power
series 1 + sum a_n x^(n alpha), and a nonconstant analytic branch at b = 1
whose limit value is (1 - ln 2)/ln 2.  Slightly above the borderline the
linearized growth function Psi obeys Psi' = 2 Psi - 2 Psi((1-eps) y) + 1;
its large-argument behavior is governed by saddle-point quantities
(t*, W, D, U) and yields the exponentially small critical coupling and the
far-field tail exponents.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, SeriesOverflowError, TermCapError
from .profiles import LN2, bisect_root, fsum_dot, horner

GAMMA1_B1_LIMIT = (1.0 - LN2) / LN2


# ---------------------------------------------------------------------------
# fractional-exponent profile series at the borderline homogeneity

_TWO_LN2 = 2.0 * LN2
_TWO_LN2_LO = 4.638093627692599e-17  # 2 ln 2 - _TWO_LN2
# B_2k/(2k)!, k = 1..10: t/(e^t - 1) = 1 - t/2 + sum_k B_2k t^2k/(2k)!
_BERNOULLI = (1 / 12, -1 / 720, 1 / 30240, -1 / 1209600, 1 / 47900160,
              -691 / 1307674368000, 1 / 74724249600,
              -3617 / 10670622842880000, 43867 / 5109094217170944000,
              -174611 / 802857662698291200000)


def alpha_root(b: float) -> float:
    """Unique positive root of b*alpha / (2 (1 - 2^-alpha)) = 1.

    Exists for 0 < b < 2 ln 2 (the left side starts below 1 and increases);
    for b = 1 the root is exactly 1.  The left side exceeds b alpha/2, so
    the root lies below 2/b, a bound widened by 2^-50 for rounding and
    capped at the largest double, past which the root is no finite double.
    """
    if not b > 0.0:
        raise DomainError("b must be positive")
    if b >= 2.0 * LN2:
        raise DomainError(
            f"no positive root for b >= 2 ln 2 = {2.0 * LN2:.6f}")

    def g(al: float) -> float:
        x = al * LN2
        if x >= 1.0:
            return b * al / (2.0 * -math.expm1(-x)) - 1.0
        # as b -> 2 ln 2 the left side cancels against 1 (the form above is
        # 4.2e-15 off in alpha at b = 1.318, 2.8e-12 at 1.3862): split off
        # (b - 2 ln 2)/(2 ln 2) and add b/(2 ln 2) (x/(1 - e^-x) - 1), by
        # _BERNOULLI at t = -x, which rounds exactly below x = 1 as in _q
        s = x * (0.5 + x * horner(_BERNOULLI, x * x))
        return ((b - _TWO_LN2) - _TWO_LN2_LO + b * s) / _TWO_LN2

    hi = min(2.0 / b * (1.0 + 2.0 ** -50), math.nextafter(math.inf, 0.0))
    if g(hi) < 0.0:
        raise DomainError(f"the root, about 2/b, is no finite double at "
                          f"b = {b!r}")
    # g tends to b/(2 ln 2) - 1 < 0 as alpha -> 0
    return bisect_root(g, 1e-300, hi)


@dataclass(frozen=True)
class Gamma1Profile:
    """Profile Phi(x) = 1 + sum_{n>=1} a_n x^(n alpha) at the borderline.

    a1 < 0 is the free coefficient; the rest follow from the recursion

        (n b alpha / (1 - 2^(-n alpha)) - 2) a_n = sum_{m<n} a_m a_{n-m}.
    """

    b: float
    alpha: float
    coefficients: tuple       # a_0 = 1, a_1, ..., a_N, floats

    def eval(self, x):
        return horner(self.coefficients, x ** self.alpha)

    def switchover(self) -> float:
        """Largest x where the last retained series term stays below 1e-14,
        at most 2."""
        N = len(self.coefficients) - 1
        aN = abs(self.coefficients[N])
        if aN == 0.0:
            return 1.0
        log_x = (math.log(1e-14) - math.log(aN)) / (N * self.alpha)
        x = math.exp(min(log_x, LN2))
        if not x > 0.0:
            raise SeriesOverflowError(
                f"gamma1 series at b={self.b!r}, alpha={self.alpha:.3g}, "
                f"a_N={aN:.3g} (switchover x underflows)", N)
        return x


def gamma1_series(b: float, a1: float, N: int) -> Gamma1Profile:
    """Coefficients of the fractional-power profile for given a1 <= 0.

    a1 < 0 gives the decreasing branch; a1 = 0 collapses the series to the
    constant profile.
    """
    if not a1 <= 0.0:   # NaN fails too
        raise DomainError("a1 must be nonpositive; the profile decreases")
    if N < 2:
        raise DomainError("need N >= 2")
    al = alpha_root(b)
    a = [1.0, float(a1)]
    for n in range(2, N + 1):
        denom = n * b * al / (1.0 - 2.0 ** (-n * al)) - 2.0
        a.append(fsum_dot(a[1:n], a[n - 1:0:-1]) / denom)
    return Gamma1Profile(b=b, alpha=al, coefficients=tuple(a))


def gamma1_trajectory(profile: Gamma1Profile, x_max: float,
                      tol: float) -> dc.DenseTrajectory:
    """Continue the series profile by integrating in z = ln x.

    The log variable turns the halved argument into a constant shift, so
    steps grow with x and large spans stay cheap.
    """
    from . import delaycore as dc
    if not x_max > 0.0:
        raise DomainError(f"x_max = {x_max!r} must be positive")
    x0 = profile.switchover()
    z0 = math.log(x0)
    hist = dc.FunctionHistory(lambda z: profile.eval(math.exp(z)),
                              z0 - 2.0 * LN2, z0)
    rhs = dc.gamma1_log_equation(profile.b)
    z_max = math.log(x_max)
    return dc.integrate(rhs, hist, (z0, z_max), tol=tol)


def gamma1_b1_limit(a1: float, x_max: float = 1e5,
                    tol: float = 1e-10) -> dict:
    """Long-range limit of the analytic nonconstant profile at b = 1.

    The limit is (1 - ln2)/ln2 independently of a1 < 0; the approach is a
    power law x^(-p) with p ~ 1.31, reported from a tail fit.
    """
    import statistics  # inside: laplace and tails would pay its 4-6 ms
    prof = gamma1_series(1.0, a1, 40)
    if abs(prof.alpha - 1.0) > 1e-12:
        raise DomainError("expected integer-exponent branch at b = 1")
    traj = gamma1_trajectory(prof, x_max, tol=tol)
    # power-law tail fit of |Phi - limit| on the last two decades
    z_tail = traj.ts[-1] - 2.0 * math.log(10.0)
    tail = [(z, math.log(abs(u - GAMMA1_B1_LIMIT)))
            for z, u in zip(traj.ts, traj.us)
            if z > z_tail and abs(u - GAMMA1_B1_LIMIT) > 1e-14]
    fit_p = -statistics.linear_regression(*zip(*tail)).slope \
        if len(tail) > 10 else None
    return {"limit": traj.us[-1], "tail_exponent_fit": fit_p}


# ---------------------------------------------------------------------------
# linearized growth function Psi and its saddle-point asymptotics


PSI_TERM_CAP = 100000


def _psi_log_terms(eps: float, y: float) -> list:
    """Logs of the positive series terms of Psi(y), lowest order first,
    until they fall 36 below the largest; TermCapError when PSI_TERM_CAP
    terms do not get there (the terms peak near order 2y)."""
    if not 0.0 < eps < 1.0:
        raise DomainError("eps must lie in (0,1)")
    if y < 0.0:
        raise DomainError("Psi is evaluated for y >= 0")
    if y == 0.0:
        return [-math.inf]
    ly = math.log(y)
    log_q = math.log1p(-eps)  # (1 - eps)^n = e^(n log_q), eps < 1e-16 too
    logs = [ly]
    log_prod = log_fact = 0.0
    m = ly
    for n in range(1, PSI_TERM_CAP + 1):
        log_prod += math.log(-math.expm1(n * log_q))
        log_fact += math.log(n + 1.0)
        term = n * LN2 + log_prod - log_fact + (n + 1) * ly
        logs.append(term)
        if term > m:
            m = term
        if n > 8 and term < m - 36.0 and term < logs[-2]:
            return logs
    raise TermCapError(f"Psi series at eps={eps!r}, y={y!r}", PSI_TERM_CAP)


def _log_sum(logs: list) -> tuple:
    """The largest log m and s = fsum(e^(l - m)), so that sum e^l = e^m s."""
    m = max(logs)
    return m, math.fsum(math.exp(v - m) for v in logs)


def psi_log_eval(eps: float, y: float) -> float:
    """log Psi(y), summed stably in log space (Psi's terms are positive)."""
    m, s = _log_sum(_psi_log_terms(eps, y))
    return m if m == -math.inf else m + math.log(s)


def psi_series_eval(eps: float, y: float) -> float:
    """Psi(y) = y + sum 2^n prod_k (1-(1-eps)^k) / (n+1)! y^(n+1).

    Term count adapts until the tail is negligible.  Values beyond the
    double range overflow; use psi_log_eval there.
    """
    lv = psi_log_eval(eps, y)
    if lv > 700.0:
        raise OverflowError(
            f"Psi overflows doubles (log Psi = {lv:.1f}); use psi_log_eval")
    return math.exp(lv)


def psi_derivative(eps: float, y: float) -> float:
    """Term-wise derivative of the Psi series."""
    if y == 0.0:
        return 1.0
    ly = math.log(y)
    m, s = _log_sum([v - ly + math.log(n + 1.0)
                     for n, v in enumerate(_psi_log_terms(eps, y))])
    return math.exp(m) * s


def psi_residual(eps: float, y: float) -> float:
    """Defect of Psi in Psi'(y) - 2 Psi(y) + 2 Psi((1-eps) y) - 1, relative."""
    dp = psi_derivative(eps, y)
    p1 = psi_series_eval(eps, y)
    p2 = psi_series_eval(eps, (1.0 - eps) * y)
    scale = abs(dp) + 2.0 * abs(p1) + 2.0 * abs(p2) + 1.0
    return (dp - 2.0 * p1 + 2.0 * p2 - 1.0) / scale


@dataclass(frozen=True)
class LaplaceQuantities:
    """Saddle-point data of the Psi asymptotics at scale parameter eta."""

    eta: float
    t_star: float
    W: float
    D: float
    U: float


# (k-1)/k^2 for k >= 2 and 1/k^2 for k >= 1: the series of W and Li2
_W_SERIES = tuple((k - 1) / k ** 2 for k in range(2, 62))
_LI2_SERIES = tuple(1 / k ** 2 for k in range(1, 61))


def _q(t: float) -> float:
    """1 - t/(e^t - 1), summed from its series below t = 1, where the
    direct form cancels."""
    if t < 1.0:
        return t * (0.5 - t * horner(_BERNOULLI, t * t))
    return 1.0 - t * math.exp(-t) / -math.expm1(-t)


def t_star(eta: float) -> float:
    """Unique positive root of t / (1 - e^-t) = 2 eta, for eta > 1/2, as
    the root of t - _q(t) = 2 eta - 1 (exact for eta <= 1), whose left side
    increases from 0 at t = 0."""
    if not (eta > 0.5 and math.isfinite(2.0 * eta)):
        raise DomainError("eta must exceed 1/2, with 2 eta finite")
    c = 2.0 * eta - 1.0
    return bisect_root(lambda t: t - _q(t) - c, 0.0, 2.0 * eta)


def laplace_quantities(eta: float) -> LaplaceQuantities:
    """Saddle point t*, exponent integral W, curvature D, prefactor U.

    W integrates ln(2 eta (1-e^-t)/t) from 0 to t*.  With
    int_0^T ln(1-e^-t) dt = Li2(e^-T) - pi^2/6 it is
    t*(1 + ln(2 eta/t*)) - pi^2/6 + Li2(e^-t*), and with u = 1 - e^-t* =
    t*/(2 eta) also sum_{k>=2} (k-1)/k^2 u^k, summed for u <= 1/2, where
    the closed form cancels.  D = (1 - t*/(e^t* - 1))/(2 t*).
    """
    ts = t_star(eta)
    u = -math.expm1(-ts)
    if u <= 0.5:
        W = u * u * horner(_W_SERIES, u)
    else:  # 1 - u = e^-t*, subtracted exactly (Sterbenz)
        W = ts * (1.0 + math.log(2.0 * eta / ts)) - math.pi ** 2 / 6.0 \
            + (1.0 - u) * horner(_LI2_SERIES, 1.0 - u)
    q = _q(ts)
    # U = eta sqrt(pi u) / (sqrt(D) t*^1.5), with D t* = q/2
    U = eta * math.sqrt(2.0 * math.pi * u / q) / ts
    return LaplaceQuantities(eta=eta, t_star=ts, W=W, D=q / (2.0 * ts), U=U)


def w_prime(eta: float) -> float:
    """d W / d eta = t*(eta) / eta (the boundary term vanishes at t*)."""
    return t_star(eta) / eta


def psi_asymptotics_check(eta: float, eps_list) -> list[dict]:
    """Defect of log Psi(eta/eps) against the saddle-point prediction.

    Returns rows {eps, log_psi, log_pred, r}; the prediction is
    log U - (1/2) log eps + W/eps and r is the difference.
    """
    lq = laplace_quantities(eta)
    rows = []
    for eps in eps_list:
        if not 0.0 < eps < 1.0:
            raise DomainError("eps must lie in (0,1)")
        lp = psi_log_eval(eps, eta / eps)
        pred = math.log(lq.U) - 0.5 * math.log(eps) + lq.W / eps
        rows.append({"eps": float(eps), "log_psi": lp, "log_pred": pred,
                     "r": lp - pred})
    return rows


def critical_delta(eps: float, eta_bar: float) -> dict:
    """Exponentially small critical coupling and the matching descriptor.

    delta = sqrt(eps) e^(-W(eta_bar)/eps) / U(eta_bar); the transition
    region matches onto 1 - e^(slope (y - y_bar)) with slope = W'(eta_bar).
    """
    lq = laplace_quantities(eta_bar)
    log_delta = 0.5 * math.log(eps) - lq.W / eps - math.log(lq.U)
    return {
        "delta": math.exp(log_delta) if log_delta > -700.0 else 0.0,
        "log_delta": log_delta,
        "matching_slope": w_prime(eta_bar),
        "y_bar": eta_bar / eps,
    }


# ---------------------------------------------------------------------------
# far-field tail exponents and matching


@dataclass(frozen=True)
class TailExponents:
    eps: float
    eta_bar: float
    beta: float
    alpha: float
    K1_over_c1: float
    sigma_rate: float
    K0_over_c0: float


def tail_exponents(eps: float, eta_bar: float) -> TailExponents:
    """Closed-form tail data: H ~ K1 y^alpha e^(-c1 y^beta) far out and
    K0 e^(sigma (y-y_bar)) e^(-c0 e^(sigma (y-y_bar))) in the transition."""
    if not 0.0 < eps < 0.5:
        raise DomainError("eps must lie in (0, 1/2)")
    if not 0.0 < eta_bar < math.inf:
        raise DomainError("eta_bar must be positive and finite")
    beta = -LN2 / math.log1p(-eps)
    return TailExponents(
        eps=eps,
        eta_bar=eta_bar,
        beta=beta,
        alpha=beta - 1.0,
        K1_over_c1=4.0 * beta * (1.0 - eps) ** 2,
        sigma_rate=LN2 / eta_bar,
        K0_over_c0=4.0 * LN2 / eta_bar,
    )


def matching_closure(eps: float, eta_bar: float) -> dict:
    """Propagate the transition amplitudes to the far field and back.

    Given c0 = 1 and K0 = (4 ln2/eta_bar) c0, the scale bridges
    c1 = c0 (eps/eta_bar)^beta and K1 = K0 (eps/eta_bar)^alpha force
    K1 = 4 c1 ln2 / eps exactly when alpha - beta = -1 is used exactly;
    4 c1 beta (1-eps)^2 is the same quantity to leading order in eps.
    """
    te = tail_exponents(eps, eta_bar)
    # work in logs: the scale factors overflow doubles for small eps
    log_scale = math.log(eps / eta_bar)
    log_c1 = te.beta * log_scale
    log_K1 = math.log(te.K0_over_c0) + te.alpha * log_scale
    log_K1_identity = math.log(4.0 * LN2 / eps) + log_c1
    log_K1_leading = math.log(4.0 * te.beta * (1.0 - eps) ** 2) + log_c1
    return {
        "log_K1_matched": log_K1,
        "log_K1_identity": log_K1_identity,
        "log_K1_leading_order": log_K1_leading,
        "identity_defect": log_K1 - log_K1_identity,
        "leading_order_defect": log_K1 - log_K1_leading,
    }
