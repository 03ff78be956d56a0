"""Long-time classification of profile solutions and the critical bracket.

For b > b0 the profile H starts from the analytic local series at the
origin and is continued by the delay integrator.  Its long-time behavior
falls into one of four classes:

  SignChange           H crosses to negative values (b too close to b0),
  ConvergesToConstant  the log-variable profile settles on the constant,
  Oscillating          sustained oscillations / stair-like H (b below the
                       stability boundary),
  Undetermined         none of the above resolved by y_max.

Bisecting SignChange against the rest brackets the critical parameter
between the sign-changing and oscillating regimes.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Optional

from . import delaycore as dc
from .errors import (BracketFailureError, DomainError, GelshootError,
                     NoPlateausError, NoSignChangeError)
from .profiles import (ModelParams, bisect, check_gamma, local_series,
                       log_grid, make_params, pantograph_series,
                       series_switchover)
from .stability import b_star


# classifier thresholds: the depth below zero that counts as a sign change,
# the allowed deviation of the log-profile from the constant over the
# trailing CONV_WINDOW (in z) of the run, and the number of interior extrema
# with swings above EXTREMA_AMP that makes a run oscillating
TOL_NEG = 1e-9
TOL_CONV = 1e-3
CONV_WINDOW = 0.25
MIN_EXTREMA = 3
EXTREMA_AMP = 1e-4


@dataclass(frozen=True)
class Classification:
    """Outcome of a classification run plus its evidence."""

    kind: str                       # SignChange | ConvergesToConstant |
    #                                 Oscillating | Undetermined
    trajectory: dc.DenseTrajectory
    y_cross: Optional[float] = None
    tail_residual: Optional[float] = None
    num_extrema: Optional[int] = None
    min_level: Optional[float] = None
    plateau_ratios: tuple = ()
    y_max_reached: Optional[float] = None

    def evidence(self) -> dict:
        out = {"kind": self.kind}
        for k in ("y_cross", "tail_residual", "num_extrema", "min_level",
                  "y_max_reached"):
            v = getattr(self, k)
            if v is not None:
                out[k] = v
        if self.plateau_ratios:
            out["plateau_ratios"] = list(self.plateau_ratios)
        return out


def _series_run(series, rhs: dc.DelayRHS, y_max: float,
                tol: float) -> dc.DenseTrajectory:
    """Run rhs from its local series up to y_max, stopped at the first node
    (y0 included) below -TOL_NEG."""
    import logging
    y0 = min(series_switchover(series), 0.25 * y_max)
    hist = dc.SeriesHistory(series, y0)
    traj = dc.integrate(rhs, hist, (y0, y_max), tol=tol,
                        stop_condition=lambda y, u: u < -TOL_NEG)
    logging.getLogger(__name__).debug(
        "%s run: %d steps, %d on own panels, %d extra passes, %d fallbacks",
        rhs.name, len(traj.ts) - 1, traj.n_overlap, traj.n_passes,
        traj.n_fallback)
    return traj


def h_profile(params: ModelParams, y_max: float,
              tol: float = 1e-9) -> dc.DenseTrajectory:
    """Series-started trajectory of the H equation on [0, y_max], stopped
    at the first node below -TOL_NEG."""
    return _series_run(local_series(params, 40), dc.h_equation(params),
                       y_max, tol)


def _refine_crossing(traj: dc.DenseTrajectory) -> float:
    """Abscissa where a run of _series_run first falls below -TOL_NEG.

    The run stops at the first node that lies below the level, so the
    crossing lies on its last panel, or inside the series segment when the
    start node, then the only node, is already below the level.
    """
    ts = traj.ts
    lo, hi = (traj.history.lo, ts[0]) if traj.us[0] < -TOL_NEG \
        else (ts[-2], ts[-1])
    lo, _, hi, _ = bisect(
        lambda y: 1.0 if traj.eval(y) < -TOL_NEG else -1.0, lo, hi, 0.0)
    return 0.5 * lo + 0.5 * hi


def _phi_extrema(phi, slope, amp_tol: float) -> int:
    """Interior extrema of phi(z) = y H(y) with swings above amp_tol, from
    its node values and slopes d phi/dz."""
    kept = 0
    last = phi[0]
    for s0, s1, v in zip(slope, slope[1:], phi[1:]):
        if (s0 < 0.0 < s1 or s1 < 0.0 < s0) and abs(v - last) > amp_tol:
            kept += 1
            last = v
    return kept


def classify(params: ModelParams, y_max: float = 500.0,
             tol: float = 1e-9) -> Classification:
    """Classify the long-time behavior of the profile for (gamma, b).

    Requires b > b0; integration stops early at a decisive sign change.
    """
    if params.b <= params.b0:
        raise DomainError(
            f"classification needs b > b0 = {params.b0:.6g}, got {params.b}")
    traj = h_profile(params, y_max, tol=tol)
    if traj.event_t is not None:
        return Classification(kind="SignChange", trajectory=traj,
                              y_cross=_refine_crossing(traj))

    ts = traj.ts
    phi = [t * u for t, u in zip(ts, traj.us)]
    # the slope d phi/dz = y (H + y H') is analytic in the node data, so
    # extrema are sign changes of that expression
    slope = [t * (u + t * du) for t, u, du in zip(ts, traj.us, traj.dus)]
    n_ext = _phi_extrema(phi, slope, EXTREMA_AMP)
    min_level = min(phi)
    # the windows in z = ln y are suffixes of the nodes, as ln is monotone
    z0, z1 = math.log(ts[0]), math.log(ts[-1])
    window = bisect_left(ts, z1 - CONV_WINDOW, key=math.log)
    tail_residual = max(abs(v - params.phi_inf) for v in phi[window:])

    if n_ext >= MIN_EXTREMA and min_level > 0.0:
        ratios = ()
        try:
            _, ratios_list = _plateau_levels(traj)
            ratios = tuple(ratios_list)
        except NoPlateausError:
            pass
        return Classification(kind="Oscillating", trajectory=traj,
                              num_extrema=n_ext, min_level=min_level,
                              plateau_ratios=ratios,
                              tail_residual=tail_residual)

    # quiet trailing quarter guards against calling an oscillation trough
    # converged
    quarter = bisect_left(ts, z1 - 0.25 * (z1 - z0), key=math.log)
    n_tail_ext = _phi_extrema(phi[quarter:], slope[quarter:], EXTREMA_AMP)
    if tail_residual < TOL_CONV and n_tail_ext == 0:
        return Classification(kind="ConvergesToConstant", trajectory=traj,
                              tail_residual=tail_residual)

    return Classification(kind="Undetermined", trajectory=traj,
                          y_max_reached=ts[-1],
                          tail_residual=tail_residual,
                          num_extrema=n_ext, min_level=min_level)


def scan_b(gamma: float, b_grid, y_max: float = 500.0,
           tol: float = 1e-9) -> list[dict]:
    """Classify each b on a grid; per-point failures are recorded rows."""

    def one(b: float) -> dict:
        row = {"gamma": gamma, "b": float(b)}
        try:
            c = classify(make_params(gamma, b), y_max=y_max, tol=tol)
            row["class"] = c.kind
            row["y_event"] = c.y_cross if c.y_cross is not None else ""
            row["extra"] = c.evidence()
        except (GelshootError, ArithmeticError) as err:
            # a failing point does not stop the scan; other errors are bugs
            row["class"] = "Error"
            row["y_event"] = ""
            row["extra"] = {"error": f"{type(err).__name__}: {err}"}
        return row

    return [one(b) for b in b_grid]


@dataclass(frozen=True)
class CriticalBracket:
    b_lo: float        # classified SignChange
    b_hi: float        # classified non-SignChange
    width: float
    gamma: float
    class_hi: str


def bracket_bbar(gamma: float, tol_b: float = 1e-3, y_max: float = 500.0,
                 tol: float = 1e-9) -> CriticalBracket:
    """Bisect the SignChange boundary in b, starting from (b0, b_star).

    The result is a numerical bracket for the critical parameter, not a
    proof; near the boundary the non-sign-changing side may legitimately
    classify as Undetermined.
    """
    if not 0.0 < tol_b < math.inf:
        raise DomainError("tol_b must be positive and finite")
    check_gamma(gamma)
    lo = 2.0 / (gamma - 1.0) * (1.0 + 1e-4)
    hi = b_star(gamma)
    if not lo < hi:
        raise DomainError(f"no bracket start below b* at gamma={gamma!r}: "
                          f"b0*(1+1e-4) = {lo!r} >= b* = {hi!r}")

    kinds = {}

    def side(b: float) -> float:
        kinds[b] = classify(make_params(gamma, b), y_max=y_max, tol=tol).kind
        return -1.0 if kinds[b] == "SignChange" else 1.0

    try:
        lo, _, hi, _ = bisect(side, lo, hi, tol_b)
    except NoSignChangeError:
        raise BracketFailureError(lo, hi, kinds[lo], kinds[hi]) from None
    return CriticalBracket(b_lo=lo, b_hi=hi, width=hi - lo, gamma=gamma,
                           class_hi=kinds[hi])


# ---------------------------------------------------------------------------
# limit profile (infinite homogeneity) and its stair structure


@dataclass(frozen=True)
class LimitRun:
    trajectory: dc.DenseTrajectory
    eps: float
    crossed_zero_at: Optional[float]


def limit_profile(eps: float, y_max: float = 2e5, tol: float = 1e-9,
                  eta: float = 0.0) -> LimitRun:
    """Series-started run of h' = -h(y(1+eps)/2)^2 + eta h(y)^2, h(0)=1."""
    traj = _series_run(pantograph_series(0.5 * (1.0 + eps), eta, 40),
                       dc.rescaled_h_equation(eps, eta), y_max, tol)
    crossed = None
    if traj.event_t is not None:
        crossed = _refine_crossing(traj)
    return LimitRun(trajectory=traj, eps=eps, crossed_zero_at=crossed)


def _plateau_levels(traj: dc.DenseTrajectory):
    """Plateau levels of a stair-like positive profile.

    Treads of the stair are interior local minima of the logarithmic slope
    |d ln h / d ln y| (flat in h over a wide y range), sampled at 30 points
    per decade and separated by risers where the slope exceeds 1.  A tread
    counts when its slope minimum is below 0.6 and its level sits below
    half the starting value, which excludes the flat start at the origin.
    """
    ts, us = traj.ts, traj.us
    last = next((k for k, u in enumerate(us) if not u > 0.0), len(us)) - 1
    if last < 8:
        raise NoPlateausError("profile too short for plateau detection")
    y_lo = max(2.0 * ts[0], 1e-3)
    y_hi = ts[last] * 0.999
    if y_hi <= y_lo * 1.5:
        raise NoPlateausError("profile span too short for plateau detection")
    n = max(16, int(30 * math.log10(y_hi / y_lo)))
    y = list(map(log_grid(y_lo, y_hi, n), range(n)))
    h = [traj.eval(v) for v in y]
    while h and h[-1] <= 0.0:
        del y[-1], h[-1]
    s = [abs(v * traj.deriv(v) / g) if g else math.inf
         for v, g in zip(y, h)]

    u_start = us[0]
    levels, spans = [], []
    i = 1
    while i < len(y) - 1:
        if s[i] < 0.6 and s[i] <= s[i - 1] and s[i] <= s[i + 1]:
            j0 = i
            while j0 > 0 and s[j0 - 1] < 1.0:
                j0 -= 1
            j1 = i
            while j1 < len(y) - 1 and s[j1 + 1] < 1.0:
                j1 += 1
            k = min(range(i, j1 + 1), key=s.__getitem__)
            level = h[k]
            if level < 0.5 * u_start and j0 > 0:
                levels.append(level)
                spans.append((y[j0], y[j1]))
            i = j1 + 1
        else:
            i += 1
    if len(levels) < 2:
        raise NoPlateausError(
            f"found {len(levels)} plateau(s); need at least 2")
    ratios = [levels[k + 1] / levels[k] for k in range(len(levels) - 1)]
    return list(zip(levels, spans)), ratios


def plateau_diagnostics(traj: dc.DenseTrajectory, eps: float) -> dict:
    """Successive plateau levels and ratios of a stair-like limit profile.

    For small eps > 0 the ratios approach c0 * eps with an O(eps^2)
    correction, c0 being the first moment of the Green kernel Q.
    """
    levels, ratios = _plateau_levels(traj)
    return {
        "eps": eps,
        "levels": [lv for lv, _ in levels],
        "spans": [sp for _, sp in levels],
        "ratios": ratios,
    }
