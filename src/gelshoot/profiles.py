"""Model parameters, local series data, and closed-form residuals.

The self-similar profile of the diagonal-kernel coagulation equation can be
written in four equivalent sets of variables:

    F(x)    density profile,
    Phi(x)  = x^(gamma+1) F(x),
    H(y)    with Phi(x) = y H(y), y = x^(1/b),
    phi(z)  = y H(y), z = ln y.

All scalar parameters derived from (gamma, b) live in ModelParams and are
computed once at construction.
"""

from __future__ import annotations

import math
import operator
import sys
from bisect import bisect_left
from dataclasses import dataclass

from .errors import DomainError, NoSignChangeError, SeriesOverflowError

LN2 = math.log(2.0)
# largest gamma for which 2**gamma is a finite double, the one upper bound
# on gamma for make_params and stability.b_star
GAMMA_MAX = math.nextafter(float(sys.float_info.max_exp), 0.0)


@dataclass(frozen=True)
class ModelParams:
    """Homogeneity, shooting parameter, and every derived constant.

    gamma     : homogeneity exponent, > 1
    b         : shooting parameter, > 0
    a         : exponent paired with b through b = 1/(1+gamma-a)
    sigma     : 2^(gamma-1-2/b); equals 1 exactly at b = b0
    q         : proportional delay ratio 2^(-1/b), in (0,1)
    d         : constant delay ln2/b of the log-variable equation
    theta     : 2^(gamma-1)
    b0        : 2/(gamma-1), carrier of the explicit power-law solution
    eps_delay : 1 - 2^(-1/b)
    phi_inf   : constant solution 1/(2^(gamma-1)-1)
    """

    gamma: float
    b: float
    a: float
    sigma: float
    q: float
    d: float
    theta: float
    b0: float
    eps_delay: float
    phi_inf: float


def check_gamma(gamma: float) -> float:
    """gamma as a float; DomainError unless 1 < gamma <= GAMMA_MAX."""
    gamma = float(gamma)
    if not gamma > 1.0:
        raise DomainError(f"gamma must exceed 1, got {gamma}")
    if gamma > GAMMA_MAX:
        raise DomainError(f"gamma must not exceed GAMMA_MAX = {GAMMA_MAX!r} "
                          f"(2**gamma overflows above it), got {gamma}")
    return gamma


def make_params(gamma: float, b: float) -> ModelParams:
    """Build a ModelParams, populating all derived fields.

    Raises DomainError for gamma outside (1, GAMMA_MAX] or b outside (0, inf).
    """
    gamma = check_gamma(gamma)
    b = float(b)
    if not 0.0 < b < math.inf:
        raise DomainError(f"b must be positive and finite, got {b}")
    q = 2.0 ** (-1.0 / b)
    p = ModelParams(
        gamma=gamma,
        b=b,
        a=1.0 + gamma - 1.0 / b,
        sigma=2.0 ** (gamma - 1.0 - 2.0 / b),
        q=q,
        d=LN2 / b,
        theta=2.0 ** (gamma - 1.0),
        b0=2.0 / (gamma - 1.0),
        eps_delay=1.0 - q,
        phi_inf=1.0 / (2.0 ** (gamma - 1.0) - 1.0),
    )
    # exact identity d*b = ln2, allowed to drift by a few ulps only
    if abs(p.d * p.b - LN2) > 4.0 * math.ulp(LN2):
        raise DomainError(f"inconsistent delay identity for b={b}")
    return p


# ---------------------------------------------------------------------------
# local power series of the H profile at the origin


@dataclass(frozen=True)
class PowerSeries:
    """Truncated power series at the origin, lowest order first."""

    coefficients: tuple
    validity_radius_estimate: float

    @property
    def order(self) -> int:
        return len(self.coefficients) - 1


def fsum_dot(u, v) -> float:
    """sum_k u_k v_k by math.fsum, correctly rounded (each series
    recursion's convolution); NaN where a partial sum leaves the doubles."""
    try:
        return math.fsum(map(operator.mul, u, v))
    except (OverflowError, ValueError):
        return math.nan


def _quadratic_delay_series(c0: float, c1: float, r: float, N: int,
                            where: str) -> tuple:
    """Coefficients of u' = c0 u(y)^2 - c1 u(r y)^2, u(0) = 1:

        a_{n+1} = (c0 - c1 r^n) / (n+1) * sum_{k<=n} a_k a_{n-k},

    as Python floats, so that Horner sums on a float stay on floats; each
    convolution is summed by fsum_dot.
    Raises SeriesOverflowError at the first coefficient that is not finite.
    """
    a = [1.0]
    rn = 1.0  # r^n
    for n in range(N):
        a.append((c0 - c1 * rn) * fsum_dot(a, reversed(a)) / (n + 1))
        if not math.isfinite(a[-1]):
            raise SeriesOverflowError(where, n + 1)
        rn *= r
    return tuple(a)


def local_series(params: ModelParams, N: int) -> PowerSeries:
    """Series coefficients of H(y) = sum a_n y^n near y = 0.

    a_0 = 1 and

        a_{n+1} = (1 - sigma 2^(-n/b)) / (n+1) * sum_{k<=n} a_k a_{n-k}.

    The radius estimate is 1/c with c = sup_n |1 - sigma 2^(-n/b)|, from the
    geometric coefficient bound |a_n| <= c^n.
    """
    if N < 1:
        raise DomainError("series order N must be >= 1")
    a = _quadratic_delay_series(
        1.0, params.sigma, params.q, N,
        f"local series at gamma={params.gamma:g}, b={params.b:g}")
    c = max(abs(params.sigma - 1.0), 1.0)
    return PowerSeries(coefficients=a, validity_radius_estimate=1.0 / c)


def pantograph_series(p: float, eta: float, N: int) -> PowerSeries:
    """Series of the solution to u' = -u(p y)^2 + eta u(y)^2, u(0) = 1.

    Used to bootstrap proportional-delay integrations away from y = 0;
    the profile series above is the special case p = q, eta = 1/sigma after
    rescaling.
    """
    if not 0.0 < p < 1.0:
        raise DomainError(f"delay ratio must lie in (0,1), got {p}")
    a = _quadratic_delay_series(eta, 1.0, p, N,
                                f"pantograph series at p={p:g}, eta={eta:g}")
    c = max(abs(eta - 1.0), 1.0)
    return PowerSeries(coefficients=a, validity_radius_estimate=1.0 / c)


def horner(coefficients, u):
    """sum_n coefficients[n] u^n by Horner's rule, for a float or an array u.

    The one polynomial evaluation of the package: series values and the
    borderline profile.
    """
    acc = 0.0
    for c in coefficients[::-1]:
        acc = acc * u + c
    return acc


def bisect(f, lo: float, hi: float, width: float, start=None):
    """The package's one bracketing loop, on [lo, hi] with f(lo) < 0 <=
    f(hi), else NoSignChangeError.  It steps to the secant point
    (f1 x0 - f0 x1)/(f1 - f0) of its two latest points when that lies
    inside the bracket and the last three evaluations halved it; else it
    checks any unevaluated end and halves.  So on a side of only +-1 every
    step is the midpoint.  It stops at a latest |f| <= stop (0 without a
    start), hi - lo <= width or adjacent doubles, and returns (lo, f_lo,
    hi, f_hi).  start = (x, slope, stop) evaluates x first and steps from
    it by the slope, the ends unevaluated (f None) until a step leaves
    the bracket."""
    x0 = f0 = f_lo = f_hi = None
    if start is None:
        f_lo, f_hi = f(lo), f(hi)
        if not f_lo < 0.0 <= f_hi:
            raise NoSignChangeError(lo, f_lo, hi, f_hi)
        x0, f0, x1, f1, stop = lo, f_lo, hi, f_hi, 0.0
    else:
        x1, slope, stop = start
        f1 = f(x1)
        if f1 < 0.0:
            lo, f_lo = x1, f1
        else:
            hi, f_hi = x1, f1
    widths = (math.inf,) * 3  # hi - lo before the last three evaluations
    while not abs(f1) <= stop and hi - lo > width:  # a NaN f goes on
        x = (x1 - f1 / slope if x0 is None else math.nan if f1 == f0
             else (f1 * x0 - f0 * x1) / (f1 - f0))
        if not (lo < x < hi and hi - lo <= 0.5 * widths[0]):
            f_lo = f(lo) if f_lo is None else f_lo
            f_hi = f(hi) if f_hi is None else f_hi
            if not f_lo < 0.0 <= f_hi:
                raise NoSignChangeError(lo, f_lo, hi, f_hi)
            x = 0.5 * lo + 0.5 * hi
            if not lo < x < hi:
                break
        widths = widths[1:] + (hi - lo,)
        x0, f0, x1, f1 = x1, f1, x, f(x)
        if f1 < 0.0:
            lo, f_lo = x, f1
        else:
            hi, f_hi = x, f1
    return lo, f_lo, hi, f_hi


def bisect_root(f, lo: float, hi: float) -> float:
    """Root of f in [lo, hi], where f(lo) < 0 <= f(hi): runs bisect until
    f is 0 or lo and hi are adjacent doubles, so no tolerance is chosen, and
    returns the end with the smaller |f|."""
    lo, f_lo, hi, f_hi = bisect(f, lo, hi, 0.0)
    return lo if -f_lo < f_hi else hi


def series_eval(series: PowerSeries, y: float) -> float:
    """Horner evaluation of the truncated series at y, as a Python float."""
    return float(horner(series.coefficients, y))


def log_grid(lo: float, hi: float, n: int):
    """The point of index i in range(n), n >= 2, of a grid from lo to hi,
    both exact, evenly spaced in log10: numpy.geomspace's formula on
    math.log10 and pow, one point at a time."""
    a = math.log10(lo)
    step = (math.log10(hi) - a) / (n - 1)

    def point(i: int) -> float:
        return lo if i == 0 else hi if i == n - 1 else 10.0 ** (i * step + a)
    return point


def lin_grid(lo: float, hi: float, n: int) -> list:
    """n >= 1 points from lo to hi by numpy.linspace's formula, hi last:
    i ((hi - lo)/(n - 1)) + lo, or (i/(n - 1)) (hi - lo) + lo where that
    step underflows to 0."""
    delta, div = hi - lo, max(n - 1, 1)
    step = delta / div
    return [(i * step if step else i / div * delta) + lo
            for i in range(n - 1)] + [hi if n > 1 else lo]


def series_switchover(series: PowerSeries) -> float:
    """Largest y at which the last few series terms stay below 1e-14.

    Searches a 400-point log grid inside the radius estimate; the returned
    point is where stepping should take over from the series.  The terms
    grow with y, so a bisection finds the last point that passes.
    """
    a = [abs(c) for c in series.coefficients]
    n = series.order
    hi = series.validity_radius_estimate
    if not math.isfinite(hi):
        hi = 1.0
    grid = log_grid(1e-8, 0.95 * hi, 400)

    def ok(i):
        # require the three highest retained orders small, not just the last
        y = grid(i)
        return (a[n] * y ** n + a[n - 1] * y ** (n - 1)
                + a[n - 2] * y ** (n - 2)) < 1e-14

    # the passing points are a prefix of a rising grid and a suffix of one
    # that falls (0.95 hi < 1e-8): the last of them is the answer, and
    # grid(0) when none passes
    if ok(399):
        return grid(399)
    first_bad = bisect_left(range(399), True, key=lambda i: not ok(i))
    return grid(max(first_bad - 1, 0))


# ---------------------------------------------------------------------------
# explicit reference solutions and their residuals


def _sup(defects) -> float:
    """max |d| over the defects, NaN when one is NaN or leaves the doubles
    (a power that overflows, a square that underflows to a divisor 0)."""
    try:
        d = [abs(v) for v in defects]
    except (OverflowError, ZeroDivisionError):
        return math.nan
    return math.nan if any(map(math.isnan, d)) else max(d)


def phi_equation_residual(params: ModelParams, x: list, phi, dphi) -> float:
    """Max residual of b x Phi' = Phi - theta Phi(x/2)^2 + Phi(x)^2."""
    b, th = params.b, params.theta
    return _sup(b * s * dphi(s) - (p - th * (p2 * p2) + p * p)
                for s, p, p2 in ((s, phi(s), phi(s / 2.0)) for s in x))


def h_equation_residual(params: ModelParams, y: list, h, dh) -> float:
    """Max residual of H' = -sigma H(q y)^2 + H(y)^2."""
    sg, q = params.sigma, params.q
    return _sup(dh(s) - (-sg * (hq * hq) + hs * hs)
                for s, hs, hq in ((s, h(s), h(q * s)) for s in y))


def explicit_solution_residual(params: ModelParams, which: str,
                               grid) -> float:
    """Residual of a named closed-form solution on a positive grid.

    which: 'Phi0'   power law x^(1/b0) in the Phi equation,
           'PhiInf' the constant 1/(2^(gamma-1)-1) in the Phi equation,
           'HInf'   PhiInf/y in the H equation.
    """
    xs = [float(s) for s in grid] if getattr(grid, "ndim", 1) == 1 else []
    if not xs or not 0.0 < xs[0] or not all(map(operator.lt, xs, xs[1:])):
        raise DomainError("grid must be positive and strictly increasing")
    if which == "Phi0":
        e = 1.0 / params.b0
        return phi_equation_residual(
            params, xs, lambda x: x ** e, lambda x: e * x ** (e - 1.0))
    c = params.phi_inf
    if which == "PhiInf":
        return phi_equation_residual(params, xs, lambda x: c, lambda x: 0.0)
    if which == "HInf":
        return h_equation_residual(
            params, xs, lambda y: c / y, lambda y: -c / (y * y))
    raise DomainError(f"unknown closed form {which!r}")
