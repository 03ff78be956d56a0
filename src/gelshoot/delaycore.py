"""Adaptive integrator for delay ODEs with interpolable dense history.

Handles the two delay shapes used by the profile equations: proportional
(pantograph) delays t -> p t with p in (0,1) and constant shifts t -> t - d.
A classical RK4 step-doubling estimate controls accuracy, and dense output
is cubic Hermite per step.  A step past the delay cap, whose delayed
arguments pass the last accepted node, reads its own panel through a
provisional node re-solved in passes, or falls back to the cap.

The tolerance knob also caps the nominal step through

    h_cap(tol, t) = H_REF * (tol / TOL_REF)^ORDER_EXP * max(1, |t|/T_SCALE),

so halving tol shrinks smooth-problem errors by about 2^(4*0.9) ~ 12x, which
is the advertised convergence contract of the integrator (see the order
tests).  Rough regimes are governed by the embedded estimate instead.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Callable, Optional

from .errors import (BlowUpError, DomainError, OutOfRangeError,
                     StepBudgetError, StepUnderflowError)
from .profiles import LN2, ModelParams, PowerSeries, series_eval

TOL_REF = 1e-10
H_REF = 0.02
ORDER_EXP = 0.9
T_SCALE = 10.0
DEFAULT_TOL = 1e-10
VALUE_CAP = 1e12
# solves of a step on its own panel: at most MAX_PASSES, until u2 moves
# by at most tol * (1 + |u2|), the scale of the step's error test
MAX_PASSES = 4
# attempted steps of one run: accepted, rejected or fallen back
MAX_STEPS = 10 ** 6


# ---------------------------------------------------------------------------
# right-hand sides


@dataclass(frozen=True)
class DelayRHS:
    """Descriptor of u'(t) = f(t, u(t), u(tau(t))) with tau(t) < t.

    step_cap(t), the largest h with tau(t + h) <= t, is the fallback cap.
    """

    name: str
    f: Callable[[float, float, float], float]
    delay_arg: Callable[[float], float]
    step_cap: Callable[[float], float]


def _proportional(name: str, f, p: float) -> DelayRHS:
    """Pantograph delay t -> p t, 0 < p < 1, whose step cap is (1/p - 1) t."""
    if not 0.0 < p < 1.0:
        raise DomainError(f"{name} equation: delay ratio {p!r} not in (0, 1)")
    r = 1.0 / p - 1.0
    return DelayRHS(name=name, f=f, delay_arg=lambda t: p * t,
                    step_cap=lambda t: r * t)


def _shifted(name: str, f, d: float) -> DelayRHS:
    """Constant shift t -> t - d, whose step cap is d."""
    return DelayRHS(name=name, f=f, delay_arg=lambda t: t - d,
                    step_cap=lambda t: d)


def h_equation(params: ModelParams) -> DelayRHS:
    """H' = -sigma H(q y)^2 + H(y)^2."""
    s = params.sigma
    return _proportional("H", lambda y, u, ud: -s * ud * ud + u * u,
                         params.q)


def phi_equation(params: ModelParams) -> DelayRHS:
    """phi' = phi - theta phi(z-d)^2 + phi(z)^2, constant shift d."""
    th = params.theta
    return _shifted("phi", lambda z, u, ud: u - th * ud * ud + u * u,
                    params.d)


def limit_h_equation(eps: float) -> DelayRHS:
    """h' = -h(y (1+eps)/2)^2, the large-homogeneity limit profile."""
    return rescaled_h_equation(eps, 0.0)


def rescaled_h_equation(eps: float, eta: float) -> DelayRHS:
    """h' = -h(x (1+eps)/2)^2 + eta h(x)^2."""
    return _proportional("rescaled-h" if eta else "limit-h",
                         lambda x, u, ud: -ud * ud + eta * u * u,
                         0.5 * (1.0 + eps))


def linear_g_equation() -> DelayRHS:
    """phi' = phi - 2 phi(x/2), the linear delay equation."""
    return _proportional("linear-G", lambda x, u, ud: u - 2.0 * ud, 0.5)


def gamma1_phi_equation(b: float) -> DelayRHS:
    """b x Phi' = -Phi(x/2)^2 + Phi(x)^2; singular at x = 0."""
    return _proportional(
        "Phi-gamma1", lambda x, u, ud: (u * u - ud * ud) / (b * x), 0.5)


def gamma1_log_equation(b: float) -> DelayRHS:
    """The same profile equation in z = ln x: b psi' = psi^2 - psi(z-ln2)^2."""
    return _shifted("Phi-gamma1-log",
                    lambda z, u, ud: (u * u - ud * ud) / b, LN2)


# ---------------------------------------------------------------------------
# initial segments (history)


class History:
    """Evaluable data: an initial segment on [lo, hi], hi being the
    integration start, or a DenseTrajectory."""

    lo: float
    hi: float

    def eval(self, t: float) -> float:
        raise NotImplementedError

    def eval_many(self, t: np.ndarray) -> np.ndarray:
        """eval at every entry of t, in t's shape: the one vector lookup."""
        import numpy as np
        t = np.asarray(t, dtype=float)
        return np.array([self.eval(float(s)) for s in t.ravel()]) \
            .reshape(t.shape)


class SeriesHistory(History):
    """Power-series initial segment at the origin, covering [0, hi]."""

    def __init__(self, series: PowerSeries, hi: float):
        self.series = series
        self.lo = 0.0
        self.hi = hi

    def eval(self, t: float) -> float:
        return series_eval(self.series, t)


class FunctionHistory(History):
    """Initial segment fn on [lo, hi]; a constant one is a constant fn."""

    def __init__(self, fn: Callable[[float], float], lo: float, hi: float):
        self.fn = fn
        self.lo = lo
        self.hi = hi

    def eval(self, t: float) -> float:
        return float(self.fn(t))


# ---------------------------------------------------------------------------
# dense trajectory


def _basis(t0, h, t) -> tuple:
    """Hermite weights at t on the panel [t0, t0 + h], float or array."""
    s = (t - t0) / h
    s2 = s * s
    s3 = s2 * s
    return (2.0 * s3 - 3.0 * s2 + 1.0, (s3 - 2.0 * s2 + s) * h,
            -2.0 * s3 + 3.0 * s2, (s3 - s2) * h)


def hermite_weights(ts: np.ndarray, t: np.ndarray) -> tuple:
    """Panel index i and the cubic Hermite weights at t of us[i], dus[i],
    us[i+1] and dus[i+1] on nodes ts.  Points outside [ts[0], ts[-1]] take
    the cubic of the nearest panel.
    """
    import numpy as np
    i = np.clip(np.searchsorted(ts, t, side="right") - 1, 0, len(ts) - 2)
    return (i, *_basis(ts[i], ts[i + 1] - ts[i], t))


def hermite_apply(w: tuple, us: np.ndarray, dus: np.ndarray) -> np.ndarray:
    """Hermite values of nodal values us and slopes dus at prepared weights."""
    i, a0, b0, a1, b1 = w
    return a0 * us[i] + b0 * dus[i] + a1 * us[i + 1] + b1 * dus[i + 1]


def _slope(t0, h, t, u0, du0, u1, du1) -> float:
    """Hermite slope at t from (u0, du0) at t0 and (u1, du1) at t0 + h."""
    s = (t - t0) / h
    return ((6.0 * s * s - 6.0 * s) * (u0 - u1) / h
            + (3.0 * s * s - 4.0 * s + 1.0) * du0
            + (3.0 * s * s - 2.0 * s) * du1)


_EDGE_TOL = 1e-12


class DenseTrajectory(History):
    """Piecewise cubic Hermite record of an accepted integration.

    eval, the one lookup into the trajectory and its initial segment, routes
    below the first node to the initial segment and raises OutOfRangeError
    below the segment's start, beyond the last node and at NaN; eval_many
    applies it entry by entry.  The derivative covers only the integrated
    range [ts[0], ts[-1]].
    """

    def __init__(self, history: History):
        self.history = history
        self.ts: list[float] = []
        self.us: list[float] = []
        self.dus: list[float] = []
        # rejected steps, accepted steps that read their own panel, extra
        # corrector passes and fallbacks to the delay cap
        self.n_rejected = self.n_overlap = self.n_passes = self.n_fallback = 0
        self.event_t: Optional[float] = None

    # -- construction -----------------------------------------------------

    def _append(self, t: float, u: float, du: float):
        self.ts.append(t)
        self.us.append(u)
        self.dus.append(du)

    # -- evaluation --------------------------------------------------------

    def nodes(self):
        """The node lists ts, us and dus as arrays."""
        import numpy as np
        return (np.asarray(self.ts), np.asarray(self.us),
                np.asarray(self.dus))

    def eval(self, t: float) -> float:
        ts = self.ts
        # an interior panel, ts[i] <= t < ts[i + 1], returns before any edge
        # test; NaN bisects to the last node and takes the edge tests
        i = bisect.bisect_right(ts, t) - 1
        if 0 <= i < len(ts) - 1:
            us, t0 = self.us, ts[i]
            if t == t0:
                return us[i]
            dus = self.dus
            a0, b0, a1, b1 = _basis(t0, ts[i + 1] - t0, t)
            return a0 * us[i] + b0 * dus[i] + a1 * us[i + 1] + b1 * dus[i + 1]
        if t < ts[0]:
            if t < self.history.lo - _EDGE_TOL:
                raise OutOfRangeError(f"{t} below history start")
            return self.history.eval(t)
        if not t <= ts[-1] + _EDGE_TOL * max(abs(ts[-1]), 1.0):
            raise OutOfRangeError(f"{t} beyond last node {ts[-1]}")
        return self.us[-1]

    def deriv(self, t: float) -> float:
        ts, us, dus = self.ts, self.us, self.dus
        # written so that NaN raises
        if not ts[0] <= t <= ts[-1]:
            raise OutOfRangeError(f"{t} outside [{ts[0]}, {ts[-1]}]")
        i = min(bisect.bisect_right(ts, t) - 1, len(ts) - 2)
        return _slope(ts[i], ts[i + 1] - ts[i], t, us[i], dus[i], us[i + 1],
                      dus[i + 1])


# ---------------------------------------------------------------------------
# the integrator


def _order_cap(tol: float) -> Callable[[float], float]:
    c = H_REF * (tol / TOL_REF) ** ORDER_EXP  # h_cap's factor, once per tol
    return lambda t: c * max(1.0, abs(t) / T_SCALE)


def integrate(rhs: DelayRHS, init: History, span, tol: float = DEFAULT_TOL,
              u0: Optional[float] = None,
              stop_condition: Optional[Callable[[float, float], bool]] = None
              ) -> DenseTrajectory:
    """Integrate a delay ODE over span = (t_start, t_end).

    The initial value defaults to the history evaluated at t_start (pass u0
    explicitly for jump data).  stop_condition(t, u), when given, ends the
    run at the first node where it holds, the start node included, before
    the value cap is tested; the node is recorded in the trajectory's
    event_t.

    Raises DomainError unless the span is finite and longer than the
    end-point tolerance and tol is positive and finite; BlowUpError when
    |u| exceeds VALUE_CAP, StepUnderflowError when the step control
    collapses, and StepBudgetError after MAX_STEPS attempted steps
    (accepted, rejected or fallen back) short of the span's end, or, with
    no stop_condition, before the first step if the order cap needs more.
    """
    t0, t1 = float(span[0]), float(span[1])
    t_stop = t1 - _EDGE_TOL * max(1.0, abs(t1))  # the loop's end bound
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise DomainError(f"span ({t0}, {t1}) must be finite")
    if not t0 < t_stop:
        raise DomainError(f"span ({t0}, {t1}) must be increasing and "
                          "longer than the end-point tolerance")
    if not 0.0 < tol < math.inf:
        raise DomainError("tol must be positive and finite")
    if init.hi < t0 - _EDGE_TOL:
        raise DomainError("initial segment does not reach the start point")
    order_cap, delay_cap = _order_cap(tol), rhs.step_cap
    # a run that only its end can stop is refused when the order cap alone
    # needs more steps than the budget: c max(1, |t|/T_SCALE) does not fall
    # on [-T_SCALE, inf), where a step gains at most c in the W below; one
    # step less allows for a step from below -T_SCALE and for rounding
    if stop_condition is None:
        w0, w1 = (s if s <= T_SCALE
                  else T_SCALE * (1.0 + math.log(s / T_SCALE))
                  for s in (max(t0, -T_SCALE), t_stop))
        floor = (w1 - w0) / order_cap(0.0) - 1.0
        if floor > MAX_STEPS:
            raise StepBudgetError(rhs.name, t0, t1, None, floor, MAX_STEPS)

    traj = DenseTrajectory(init)
    t = t0
    u = float(init.eval(t0)) if u0 is None else float(u0)
    # every delayed value is traj_eval(tau(x)), which reads the initial
    # segment below t0; histories return Python floats and the loop keeps
    # to them: on numpy scalars it runs about half again as long
    f, tau, traj_eval = rhs.f, rhs.delay_arg, traj.eval
    ts, us, dus = traj.ts, traj.us, traj.dus
    ts_append, us_append, dus_append = ts.append, us.append, dus.append
    traj._append(t, u, 0.0)
    du = f(t, u, traj_eval(tau(t)))
    dus[0] = du
    if stop_condition is not None and stop_condition(t, u):
        traj.event_t = t
        return traj
    # the first step keeps to the delay cap, so every own-panel step has a
    # last panel to predict from; the underflow test refuses a zero cap, a
    # proportional delay from the origin (start from a series at t > 0)
    h = min(order_cap(t), t1 - t, 0.05 / (1.0 + abs(du)),
            delay_cap(t) * (1.0 - 1e-12))
    reach = math.inf  # step bound in delay caps after a step did not settle
    for _ in range(MAX_STEPS):
        if not t < t_stop:
            break
        cap = delay_cap(t) * (1.0 - 1e-12)
        h = min(h, order_cap(t), t1 - t, reach * cap)
        # h < 1e-14 max(1, |t|), relative to t (a bound on the whole span
        # rejects the ordinary first steps of a long run), spelled without a
        # max() call on every step
        if h < 1e-14 or h < 1e-14 * abs(t):
            raise StepUnderflowError(t, h)
        # step doubling: one RK4 step of h against two of h/2, all three
        # starting with the node derivative du; the delayed value depends
        # only on the stage abscissa, so each distinct abscissa is looked
        # up once (tm is shared by five stages)
        hh = 0.5 * h
        qh = 0.5 * hh
        tm, te = t + hh, t + h
        tq, t3, te2 = t + qh, tm + qh, tm + hh
        # a step past the delay cap reads its own panel through a node at te,
        # predicted from the last panel, then set to u2 until u2 settles
        own = h > cap
        if own:
            tp, up, dp = ts[-2], us[-2], dus[-2]
            a0, b0, a1, b1 = _basis(tp, t - tp, te)
            ts_append(te)
            us_append(a0 * up + b0 * dp + a1 * u + b1 * du)
            dus_append(_slope(tp, t - tp, te, up, dp, u, du))
        settled = False  # and so when MAX_PASSES allows no pass
        for n in range(MAX_PASSES if own else 1):
            if n:
                traj.n_passes += 1
                us[-1] = u2
                dus[-1] = f(te, u2, traj_eval(tau(te)))
            dm, de = traj_eval(tau(tm)), traj_eval(tau(te))
            dq, d3 = traj_eval(tau(tq)), traj_eval(tau(t3))
            de2 = de if te2 == te else traj_eval(tau(te2))
            k2 = f(tq, u + qh * du, dq)
            k3 = f(tq, u + qh * k2, dq)
            k4 = f(tm, u + hh * k3, dm)
            u_half = u + hh * (du + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
            k1 = f(tm, u_half, dm)
            k2 = f(t3, u_half + qh * k1, d3)
            k3 = f(t3, u_half + qh * k2, d3)
            k4 = f(te2, u_half + hh * k3, de2)
            u2 = u_half + hh * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
            scale = tol * (1.0 + abs(u2))
            settled = not own or abs(u2 - us[-1]) <= scale
            if settled:
                break
        if own:
            del ts[-1], us[-1], dus[-1]
        if not settled:   # no convergence: retry at the delay cap
            traj.n_fallback += 1
            reach = 0.5 * (1.0 + h / cap)
            h = cap
            continue
        # the full step of the estimate, once, on the last pass's lookups
        k2 = f(tm, u + hh * du, dm)
        k3 = f(tm, u + hh * k2, dm)
        k4 = f(te, u + h * k3, de)
        est = abs(u2 - (u + h * (du + 2.0 * k2 + 2.0 * k3 + k4) / 6.0))
        if est <= scale:
            t = te
            u = u2
            du = f(t, u, de)  # the last pass's lookup at tau(te), same nodes
            traj.n_overlap += own
            ts_append(t)
            us_append(u)
            dus_append(du)
            if stop_condition is not None and stop_condition(t, u):
                traj.event_t = t
                return traj
            if abs(u) > VALUE_CAP:
                raise BlowUpError(t, traj)
        else:
            traj.n_rejected += 1
        # one law for both outcomes; a NaN estimate, a reject, takes 0.2
        h *= min(5.0, max(0.2, 0.9 * (scale / est) ** 0.2)) if est else 5.0
    if t < t_stop:
        raise StepBudgetError(rhs.name, t, t1, traj, None, MAX_STEPS)
    return traj


# ---------------------------------------------------------------------------
# diagnostics


def monotonicity_and_bound_check(traj: DenseTrajectory,
                                 params: ModelParams,
                                 slack: float = 1e-9) -> dict:
    """Check H' <= 0 while H > 0 and H(y) <= 1/(1+(sigma-1)y) + slack.

    Both properties hold for profile solutions with b > b0; violations are
    reported, not raised.
    """
    import numpy as np
    ts, us, dus = traj.nodes()
    pos = us > slack
    mono_bad = np.nonzero(pos & (dus > slack))[0]
    bound = 1.0 / (1.0 + (params.sigma - 1.0) * ts) + slack
    bound_bad = np.nonzero(us > bound)[0]
    report = {
        "monotone_ok": len(mono_bad) == 0,
        "bound_ok": len(bound_bad) == 0,
        "first_monotone_violation": float(ts[mono_bad[0]]) if len(mono_bad)
        else None,
        "first_bound_violation": float(ts[bound_bad[0]]) if len(bound_bad)
        else None,
        "max_bound_excess": float(np.max(us - bound)) if len(ts) else 0.0,
    }
    return report
