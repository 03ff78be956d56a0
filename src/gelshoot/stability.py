"""Stability of the constant profile: explicit boundary and winding counts.

Linearizing the log-variable profile equation around its constant solution
gives a scalar delay equation whose characteristic function is

    F(lam) = e^(-dt*lam) + lam - st,

after normalizing with st = (theta+1)/(2 theta) and dt = (2 theta/(theta-1)) d.
All roots have negative real part exactly when dt < d* = arccos(st)/sqrt(1-st^2),
equivalently b > b_star(gamma).  Root counts in the right half plane are
computed with the argument principle on a large half-disk; roots come in
conjugate pairs, and the reported winding is the pair count (the number of
loops the image curve makes around the origin).
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass

from .errors import (DomainError, NoSignChangeError, OriginOnCurveError,
                     SampleBudgetError, WindingCountError)
from .profiles import (LN2, ModelParams, bisect, check_gamma, lin_grid,
                       make_params)


def b_star(gamma: float) -> float:
    """Critical shooting parameter below which the constant profile loses
    stability."""
    gamma = check_gamma(gamma)
    st = 0.5 + 2.0 ** (-gamma)
    if st == 1.0:
        raise DomainError(f"gamma must be at least {1.0 + 2.0 ** -51!r} for "
                          f"b_star: 0.5 + 2**-gamma rounds to 1 at {gamma!r}")
    return (2.0 ** gamma * LN2 * math.sqrt(1.0 - st * st)
            / ((2.0 ** (gamma - 1.0) - 1.0) * math.acos(st)))


def p_ratio(rho: float) -> float:
    """The ratio b_star/b0 expressed through rho = 1 - 2^(-(gamma-1))."""
    if not 0.0 < rho < 1.0:
        raise DomainError(f"rho must lie in (0,1), got {rho}")
    return (-math.log1p(-rho) / rho) * math.sqrt(rho - rho * rho / 4.0) \
        / math.acos(1.0 - rho / 2.0)


@dataclass(frozen=True)
class CharProblem:
    """Normalized characteristic-equation data for given (gamma, b)."""

    sigma_tilde: float
    d_tilde: float
    d_star: float

    @staticmethod
    def from_params(params: ModelParams) -> "CharProblem":
        th = params.theta
        st = (th + 1.0) / (2.0 * th)
        return CharProblem(
            sigma_tilde=st,
            d_tilde=2.0 * th / (th - 1.0) * params.d,
            d_star=math.acos(st) / math.sqrt(1.0 - st * st),
        )


@dataclass(frozen=True)
class WindingResult:
    """Pair count of unstable roots plus the sampled stability curve."""

    winding: int
    root_count: int
    curve: tuple                # certified samples of F(it), |t| <= R
    min_distance: float


def _unwrapped_angle_sum(z) -> float:
    """Total continuous argument increment along a sampled curve: the sum
    of the principal angles of z_k+1 / z_k."""
    return math.fsum(map(cmath.phase, map(operator.truediv, z[1:], z)))


def _axis_image(st: float, dt: float, t: float) -> complex:
    """F(it) = e^(-i dt t) + it - st, the image of the imaginary axis."""
    return complex(-st + math.cos(dt * t), t - math.sin(dt * t))


ORIGIN_FLOOR = 1e-8          # a sample this near 0 declines the count
# the half-disk's radius R: a root with Re lam >= 0 has |lam| =
# |st - e^(-dt lam)| <= 1 + st < 2, and |F| >= R - 1 - st > 2 on the arc
DISK_RADIUS = 4.0
SAMPLE_BUDGET = 250_000      # about 1.2 us a sample: 0.3 s in process


def _certified(f, lo: float, hi: float, speed: float, budget: int):
    """Abscissas s and samples z = f(s) on [lo, hi], |f'| <= speed, taken
    by a walk: each step is h = 0.999 |z_k| / speed, so speed*h <
    max(|z_k|, |z_k+1|) and the piece lies in a disk about an end that
    excludes 0; its argument increment is then the principal angle.  A
    sample within ORIGIN_FLOOR of 0 raises, which bounds a step below by
    0.999*ORIGIN_FLOOR/speed; a walk that needs more than budget samples
    raises too, naming f and how far it got."""
    s, z = [lo], [f(lo)]
    t, w, c = lo, z[0], 0.999 / speed
    while t < hi:
        a = abs(w)
        if a < ORIGIN_FLOOR:
            raise OriginOnCurveError(
                f"curve passes within {a:.2e} of the origin, below the "
                f"floor {ORIGIN_FLOOR:.0e}")
        if len(s) >= budget:
            raise SampleBudgetError(
                f"the {f.__name__} walk spends the sample budget "
                f"{SAMPLE_BUDGET} at {(t - lo) / (hi - lo):.3f} of its range")
        u = min(t + c * a, hi)
        while not speed * (u - t) < a:   # t + h rounded up
            u = 0.5 * (t + u)
        t, w = u, f(u)
        s.append(t)
        z.append(w)
    return s, z


def winding_number(params: ModelParams) -> WindingResult:
    """Count unstable characteristic roots by the argument principle.

    The boundary of the right half-disk of radius R = DISK_RADIUS maps to
    the closed curve {F(it)} + {F(R e^(i phi))}; its total winding around
    the origin equals the number of roots with positive real part, which is
    even by conjugate symmetry.  The reported winding is the pair count: 0
    exactly when b > b_star.  _certified samples both parts, as |dF(it)/dt|
    <= 1 + dt and |dF/dphi| <= R (1 + dt) on the arc, within SAMPLE_BUDGET
    samples in all: the count is exact, or OriginOnCurveError, or
    SampleBudgetError, or WindingCountError for no even integer count.
    """
    import logging

    cp = CharProblem.from_params(params)
    st, dt, R = cp.sigma_tilde, cp.d_tilde, DISK_RADIUS
    # |F(it)| <= 1 + R + st caps each axis step at (1 + R + st)/(1 + dt),
    # so the axis alone takes more samples than this (dt up to 1.7e5 passes)
    floor = 2.0 * R * (1.0 + dt) / (1.0 + R + st)
    if not floor <= SAMPLE_BUDGET:
        raise SampleBudgetError(
            f"at least {floor:.3g} axis samples at d_tilde = {dt:.3g}, "
            f"over the sample budget {SAMPLE_BUDGET}")

    def axis(t):
        return _axis_image(st, dt, t)

    def arc(phi):
        lam = cmath.rect(R, phi)
        return cmath.exp(-dt * lam) + lam - st

    _, z1 = _certified(axis, -R, R, 1.0 + dt, SAMPLE_BUDGET)
    _, z2 = _certified(arc, -math.pi / 2.0, math.pi / 2.0, R * (1.0 + dt),
                       SAMPLE_BUDGET - len(z1))
    closed = z1[::-1] + z2   # down the axis, then the arc
    min_distance = min(map(abs, closed))
    logging.getLogger(__name__).debug(
        "winding: %d axis and %d arc samples, closest sampled |F| = %.3e",
        len(z1), len(z2), min_distance)

    total = _unwrapped_angle_sum(closed) / (2.0 * math.pi)
    count = int(round(total))
    if abs(total - count) > 0.05 or count < 0 or count % 2 != 0:
        raise WindingCountError(f"{total:.4f} turns: no even root count")
    return WindingResult(winding=count // 2, root_count=count,
                         curve=tuple(z1), min_distance=min_distance)


def b_star_by_winding(gamma: float, tol_b: float = 1e-4) -> float:
    """Locate the winding transition by bisection in b.

    Independent numerical route to the closed-form boundary.
    """
    def side(b: float) -> float:
        try:
            w = winding_number(make_params(gamma, b)).winding
        except OriginOnCurveError:
            return 0.0  # the curve passes through the origin at b
        return 1.0 if w == 0 else -1.0

    ref = b_star(gamma)
    try:
        lo, _, hi, f_hi = bisect(side, 0.6 * ref, 1.6 * ref, tol_b)
    except NoSignChangeError:
        raise DomainError("bisection endpoints do not straddle the "
                          "boundary") from None
    return hi if f_hi == 0.0 else 0.5 * lo + 0.5 * hi


# ---------------------------------------------------------------------------
# empirical stability of the constant profile


@dataclass(frozen=True)
class DecayReport:
    decayed: bool
    final_deviation: float
    sup_deviation: float


DECAY_HORIZON = 200.0


def stability_empirical(params: ModelParams, perturbation) -> DecayReport:
    """Integrate the log-variable equation from a perturbed constant history
    up to z = DECAY_HORIZON.

    The history on [-d, 0] is phi_inf + perturbation(z).  For b > b_star the
    deviation decays exponentially.  On the unstable side the run stops
    early once the deviation escapes well past the constant (deep
    instability dives to a blow-up), and the report says it did not decay.
    The perturbation must stay below 0.1 * phi_inf in magnitude at 64
    evenly spaced points of [-d, 0].
    """
    from . import delaycore as dc
    pinf = params.phi_inf
    d = params.d
    sup0 = max(abs(perturbation(z)) for z in lin_grid(-d, 0.0, 64))
    if sup0 > 0.1 * pinf + 1e-15:
        raise DomainError("perturbation exceeds a tenth of the constant")

    escape = max(100.0 * sup0, 2.0 * pinf)
    hist = dc.FunctionHistory(lambda z: pinf + perturbation(z), -d, 0.0)
    rhs = dc.phi_equation(params)
    traj = dc.integrate(rhs, hist, (0.0, DECAY_HORIZON), tol=1e-9,
                        stop_condition=lambda z, u: abs(u - pinf) > escape)
    dev = [abs(u - pinf) for u in traj.us]
    decayed = traj.event_t is None and dev[-1] < 1e-6 * max(1.0, pinf)
    return DecayReport(decayed=decayed, final_deviation=dev[-1],
                       sup_deviation=max(dev))


def stability_scan(gamma: float, b_values) -> list[dict]:
    """Winding, root count and thresholds for b values at fixed gamma."""

    def one(b: float) -> dict:
        p = make_params(gamma, float(b))
        cp = CharProblem.from_params(p)
        w = winding_number(p)
        return {"gamma": gamma, "b": float(b), "winding": w.winding,
                "root_count": w.root_count, "d_tilde": cp.d_tilde,
                "d_star": cp.d_star}

    return [one(b) for b in b_values]


def curve_samples(params: ModelParams) -> list:
    """Imaginary-axis image of the characteristic function at 4000 points
    on |t| <= DISK_RADIUS, the part of the axis the winding count reads,
    for plotting, as complex numbers."""
    cp = CharProblem.from_params(params)
    return [_axis_image(cp.sigma_tilde, cp.d_tilde, t) for t in
            lin_grid(-DISK_RADIUS, DISK_RADIUS, 4000)]
