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
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import delaycore as dc
from .errors import (BracketFailureError, DomainError, GelshootError,
                     NoPlateausError, NoSignChangeError)
from .profiles import (ModelParams, bisect, check_gamma, make_params,
                       local_series, pantograph_series, series_switchover)
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


def _phi_extrema(ts, us, dus, amp_tol: float):
    """Interior extrema of phi(z) = y H(y) with swings above amp_tol.

    The slope d phi/dz = y (H + y H') is analytic in the node data, so
    extrema are sign changes of that expression.
    """
    phi = ts * us
    slope = ts * (us + ts * dus)
    sign = np.sign(slope)
    nz = sign != 0.0
    idx = np.nonzero(nz[1:] & nz[:-1] & (sign[1:] * sign[:-1] < 0.0))[0] + 1
    if len(idx) == 0:
        return 0, phi
    vals = phi[idx]
    kept = []
    last = phi[0]
    for v in vals:
        if abs(v - last) > amp_tol:
            kept.append(v)
            last = v
    return len(kept), phi


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

    ts, us, dus = traj.nodes()
    n_ext, phi = _phi_extrema(ts, us, dus, EXTREMA_AMP)
    min_level = float(np.min(phi))
    dev = np.abs(phi - params.phi_inf)
    z = np.log(ts)
    window = z >= z[-1] - CONV_WINDOW
    tail_residual = float(np.max(dev[window]))

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
    quarter = z >= z[-1] - 0.25 * (z[-1] - z[0])
    n_tail_ext, _ = _phi_extrema(ts[quarter], us[quarter], dus[quarter],
                                 EXTREMA_AMP)
    if tail_residual < TOL_CONV and n_tail_ext == 0:
        return Classification(kind="ConvergesToConstant", trajectory=traj,
                              tail_residual=tail_residual)

    return Classification(kind="Undetermined", trajectory=traj,
                          y_max_reached=float(ts[-1]),
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
    ts, us, _ = traj.nodes()
    pos = us > 0.0
    last = int(np.argmin(pos)) - 1 if not pos.all() else len(ts) - 1
    if last < 8:
        raise NoPlateausError("profile too short for plateau detection")
    y_lo = max(2.0 * ts[0], 1e-3)
    y_hi = ts[last] * 0.999
    if y_hi <= y_lo * 1.5:
        raise NoPlateausError("profile span too short for plateau detection")
    n = max(16, int(30 * math.log10(y_hi / y_lo)))
    y = np.geomspace(y_lo, y_hi, n)
    h = traj.eval_many(y)
    if np.any(h <= 0.0):
        keep = np.nonzero(h > 0.0)[0]
        y, h = y[: keep[-1] + 1], h[: keep[-1] + 1]
    dh = np.array([traj.deriv(float(v)) for v in y])
    s = np.abs(y * dh / h)

    u_start = float(us[0])
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
            k = i + int(np.argmin(s[i:j1 + 1]))
            level = float(h[k])
            if level < 0.5 * u_start and j0 > 0:
                levels.append(level)
                spans.append((float(y[j0]), float(y[j1])))
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
