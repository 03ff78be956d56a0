"""Fixed-point construction of the critical profile at large homogeneity.

After rescaling, the profile solves h' = -h(x(1+eps)/2)^2 + eta h(x)^2 with
h(0) = 1, and the perturbation W = h - e^(-x) satisfies the integral
equation W = T[W] with

    T[W](x) = -int_x^inf e^s Q(s) R[W](s) ds
              + int_0^x e^(s-x) Gtilde(x, s) R[W](s) ds,

where R[W] collects the source and quadratic terms.  The scalar

    F(W, eps, eta) = int_0^inf e^s Q(s) R[W](s) ds

is the limiting value the unnormalized perturbation would approach at
infinity; driving F to zero in eps at fixed eta selects the decaying
profile, and the pair (eps, eta) maps back to the critical shooting
parameter b.

All integrals run on one octave-aligned grid on [0, X_MAX] with per-panel
Gauss rules.  The kernels and the interpolation weights depend only on
the grid (the delayed ones also on eps), so they are built once and a
Picard sweep reduces to one matrix-vector product plus gathers.  The
range is fixed because the residue route for Gtilde is accurate only up
to x = 40: at small xi the partial sums of Q that it adds cancel, to a
relative error of 1.1e-4 at (x, xi) = (60, 1e-4) and 6.0 at (80, 1e-3).
"""

from __future__ import annotations

import functools
import logging
import math
import time
from dataclasses import dataclass

import numpy as np

from . import greens
from .delaycore import hermite_apply, hermite_weights
from .errors import DomainError, GelshootError, NonContractionError, \
    RoundoffFloorError
from .profiles import LN2, bisect, check_gamma

X_MAX = 40.0
PER_OCTAVE = 18  # nodes per octave of the grid, which spans 19 octaves
MAX_SWEEPS = 80  # picard_solve's sweep budget
F_TOL = 1e-9  # |F| stop of the eps root at eta = ETA_MAX, for eps and bbar
F_FLOOR = 1e-16  # below eta ~ 1e-9 the computed F scatters by 2-4e-17
ETA_MAX = 0.05  # largest eta at eps = 0 for the eps root
# smallest eta at eps = 0 for the eps root: F sees eps only through 1 + eps,
# and eps/eta strays from 0.2097 by 0.45% above it, 0.91% in [2^-50, 2^-49)
ETA_MIN = 2.0 ** -49
FIRST_ORDER_STEP = 1e-6  # eps or eta of the sweeps behind d_eps and d_eta

log = logging.getLogger(__name__)


class PositivityViolationError(GelshootError):
    """Reconstructed profile dipped below the admissible floor."""


# ---------------------------------------------------------------------------
# grid with precomputed kernels

# literals: leggauss(3)'s 5/9 differs in its last bit, which would move K
_GL3_X = np.array([-math.sqrt(0.6), 0.0, math.sqrt(0.6)])
_GL3_W = np.array([5.0 / 9.0, 8.0 / 9.0, 5.0 / 9.0])


class _PointPlan:
    """Hermite weights and exponentials of R[W] at a point set: at the
    points and their halves once, at the delayed halves once per eps."""

    def __init__(self, x: np.ndarray, pts: np.ndarray):
        self.x, self.pts, self._delayed = x, pts, (None,)
        self.here = hermite_weights(x, pts)
        self.half = hermite_weights(x, 0.5 * pts)
        self.e_here, self.e_half = np.exp(-pts), np.exp(-(0.5 * pts))

    def delayed(self, eps: float) -> tuple:
        """Weights, e^(-(1+eps) pts), e^(-(1+eps) pts/2) for the latest eps."""
        plan = self._delayed
        if plan[0] != eps:  # one tuple, so a reader never mixes two eps
            half_eps = 0.5 * self.pts * (1.0 + eps)
            plan = (eps, hermite_weights(self.x, half_eps),
                    np.exp(-self.pts * (1.0 + eps)), np.exp(-half_eps))
            self._delayed = plan
        return plan[1:]


# residue terms of Gtilde in each 100-row block of K: gtilde_exact's
# truncation on the block (the next term is under 1e-18 of its largest
# |Gtilde|); more terms add only round-off from the alternating weights
KERNEL_TERMS = (12, 12, 12, 14)


class FixedPointGrid:
    """Octave-aligned quadrature grid on [0, X_MAX] with precomputed Green
    kernels: 0 and X_MAX 2^(-k/PER_OCTAVE), k = 0..19 PER_OCTAVE."""

    def __init__(self):
        # one octave scaled by exact powers of two: x/2 is bitwise a node
        octave = X_MAX * 2.0 ** (np.arange(1 - PER_OCTAVE, 1) / PER_OCTAVE)
        steps = np.ldexp(octave, np.arange(-19, 1)[:, None]).ravel()
        self.x = np.append(0.0, steps[PER_OCTAVE - 1:])
        self.g, self.gw = greens.gauss_panels(self.x, _GL3_X, _GL3_W)
        # volume kernel K[j, m] = e^(g_m - x_j) Gtilde(x_j, g_m) on the panels
        # fully below x_j, by blocks of 100 rows up to their last row's panels
        t0 = time.perf_counter()
        self.K = np.zeros((len(self.x), len(self.g)))
        self.blocks = [self.K[r0:r0 + 100, :3 * (r0 + 99)]
                       for r0 in range(0, len(self.x), 100)]
        madds = self._fill_kernel()
        log.debug("kernel built in %.3f s from %d entries in %d multiply-adds"
                  " with %s residue terms", time.perf_counter() - t0,
                  sum(b.size for b in self.blocks), madds, KERNEL_TERMS)
        # suffix kernel of the Q route: e^s Q(s) at the Gauss points, weighted
        self.exq_w = greens.exq_eval(self.g) * self.gw
        self.at_g = _PointPlan(self.x, self.g)
        self.at_x = _PointPlan(self.x, self.x)
        # first-order fields (W, dW) of dW*/d eps and dW*/d eta at (0, 0):
        # T[0] = 0 there and T has no part linear in W, so each is one sweep
        # from W = 0 at a small step, divided by it
        zero = np.zeros_like(self.x)
        self.d_eps, self.d_eta = (
            np.array(self.apply(zero, zero, eps, eta)[:2]) / FIRST_ORDER_STEP
            for eps, eta in ((FIRST_ORDER_STEP, 0.0), (0.0, FIRST_ORDER_STEP)))

    def _fill_kernel(self) -> int:
        """Write e^(g - x) Gtilde(x, g) gw into the blocks of K; returns the
        multiply-adds of the products.

        The n-th residue term closes left where 2^n g <= x, exactly where
        g <= x/2^n; times e^(g - x) it is then the sum over i + k = n,
        i >= 1, of c_n w_i E_i(x) e^(g(1 - 2^k)), E_i(x) = e^(-x(1 - 2^-i)).
        Where it closes right it is -c_n w_0 e^(g(1 - 2^n)), free of x.  So
        where nu terms close left an entry is sum_{i <= nu} E_i(x) D_i(g),
        with E_0 = 1 against the right-closing terms.  In a row nu is
        constant on runs of columns cut at x/2^n: a block takes one product
        per nu over its rows' runs and keeps each row's own run."""
        n = np.arange(max(KERNEL_TERMS) + 1.0)
        P = np.exp(np.multiply.outer(1.0 - 2.0 ** n, self.g)) * self.gw
        E = np.exp(np.multiply.outer(self.x, 2.0 ** -n - 1.0))
        cw = [greens.term_coefficient(m) * greens._residue_weights(m)
              for m in range(n.size)]
        # cut[j, v]: row j's columns where at least v terms close left, as
        # int16, which makes the masks below cheaper
        cut = np.searchsorted(self.g, np.multiply.outer(self.x, 0.5 ** n),
                              side="right").astype(np.int16)
        cut[:, 0] = 3 * np.arange(len(cut))
        cols, madds = np.arange(self.g.size, dtype=np.int16), 0
        for N in sorted(set(KERNEL_TERMS)):
            # the right-closing terms past nu, summed from the smallest
            right = np.cumsum([-w[0] * p for w, p in zip(cw[N:0:-1],
                                                         P[N:0:-1])],
                              axis=0)[::-1]
            D = np.zeros((N + 1, self.g.size))
            for nu in range(N + 1):
                D[0] = right[nu] if nu < N else 0.0
                if nu:  # D_i gains its k = nu - i term
                    D[1:nu + 1] += cw[nu][1:, None] * P[nu - 1::-1]
                for r0, Kb, terms in zip(range(0, len(cut), 100), self.blocks,
                                         KERNEL_TERMS, strict=True):
                    rows = slice(r0, r0 + len(Kb))
                    lo = cut[rows, nu + 1:nu + 2] if nu < N else 0
                    hi = cut[rows, nu:nu + 1]
                    a, b = int(np.min(lo)), int(hi[-1, 0])
                    if terms != N or a >= b:
                        continue
                    np.copyto(Kb[:, a:b], E[rows, :nu + 1] @ D[:nu + 1, a:b],
                              where=(cols[a:b] >= lo) & (cols[a:b] < hi))
                    madds += len(Kb) * (nu + 1) * (b - a)
        return madds

    # -- operator -----------------------------------------------------------

    def r_terms(self, W: np.ndarray, dW: np.ndarray, at: _PointPlan,
                eps: float, eta: float) -> np.ndarray:
        """R[W] on a plan: source, delayed-shift, quadratic, coupling."""
        w_eps, e_eps, e_half_eps = at.delayed(eps)
        w_half = hermite_apply(at.half, W, dW)
        w_half_eps = hermite_apply(w_eps, W, dW)
        w_here = hermite_apply(at.here, W, dW)
        return (at.e_here - e_eps
                + 2.0 * at.e_half * w_half
                - 2.0 * e_half_eps * w_half_eps
                - w_half_eps ** 2
                + eta * (at.e_here + w_here) ** 2)

    def volume(self, Rg: np.ndarray) -> np.ndarray:
        """K @ Rg by the kernel's nonzero row blocks."""
        return np.concatenate([b @ Rg[:b.shape[1]] for b in self.blocks])

    def apply(self, W: np.ndarray, dW: np.ndarray, eps: float, eta: float):
        """One sweep of the integral operator: returns (T, dT, F)."""
        Rg = self.r_terms(W, dW, self.at_g, eps, eta)
        panel_q = (self.exq_w * Rg).reshape(-1, 3).sum(axis=1)
        suffix = np.concatenate([np.cumsum(panel_q[::-1])[::-1], [0.0]])
        T = -suffix + self.volume(Rg)
        F = float(suffix[0])
        # derivative: dT(x) = R(x) - 2 e^(-x/2) (T(x/2) + F)
        Rx = self.r_terms(W, dW, self.at_x, eps, eta)
        # T(x/2) from the incoming slopes: at the fixed point T = W, dT = dW
        t_half = hermite_apply(self.at_x.half, T, dW)
        dT = Rx - 2.0 * self.at_x.e_half * (t_half + F)
        return T, dT, F


@functools.cache
def default_grid() -> FixedPointGrid:
    """The process's one grid; its kernels take about 3 MB."""
    return FixedPointGrid()


# ---------------------------------------------------------------------------
# state and operations


@dataclass(frozen=True)
class FixedPointState:
    """Gridded perturbation with iteration diagnostics.

    F_value is F of the last sweep's input W, which lies within the
    solve's tol of the returned W; f_eval recomputes F from W itself."""

    x: np.ndarray
    W: np.ndarray
    dW: np.ndarray
    eps: float
    eta: float
    F_value: float
    sup_diff_history: tuple

    @property
    def iterations(self) -> int:
        """Sweeps of the solve, one history entry each."""
        return len(self.sup_diff_history)

    def to_dict(self) -> dict:
        return {
            "eps": self.eps, "eta": self.eta, "F": self.F_value,
            "iterations": self.iterations,
            "sup_diff_history": list(self.sup_diff_history),
            "grid": self.x.tolist(), "W": self.W.tolist(),
        }


_DECAY_RATES = (0.49, 0.45, 0.4, 0.35, 0.3, 0.25, 0.2, 0.15, 0.1, 0.05)


def certify_decay(x: np.ndarray, values: np.ndarray, x_lo: float,
                  x_hi: float):
    """Largest envelope rate d with |v(x)| <= M e^(-d x) non-violated.

    Scans candidate rates from above; d certifies when |v| e^(d x) never
    exceeds 1.05 times its running minimum on [x_lo, x_hi] (the envelope
    is effectively non-increasing there).  Returns (M, d) or (None, None).
    """
    mask = (x >= x_lo) & (x <= x_hi) & (np.abs(values) > 1e-250)
    if mask.sum() < 10:
        return None, None
    xs, vs = x[mask], np.abs(values[mask])
    for d in _DECAY_RATES:
        env = vs * np.exp(d * xs)
        if np.all(env <= 1.05 * np.minimum.accumulate(env)):
            M = float(np.max(np.abs(values) * np.exp(d * np.minimum(x, x_hi))))
            return M, d
    return None, None


def picard_solve(eps: float, eta: float,
                 tol: float = 1e-12,
                 warm_start: np.ndarray | None = None) -> FixedPointState:
    """Iterate W <- T[W] from zero (or a warm start, the pair W, dW as a
    2-row array or tuple, read and never written) to the fixed point.

    Outside the small-parameter contraction regime the iteration may
    diverge; three consecutive sup-difference increases raise
    NonContractionError rather than hiding the failure.  A sup-difference
    that stops falling within 16 ulps of max|W| is round-off (sweeps at
    eps = eta = 0.01 stall at 3.4 ulps), and a tol below it raises
    RoundoffFloorError.
    """
    if not -1.0 < eps < 1.0 or not abs(eta) < 1.0:
        raise DomainError("need -1 < eps < 1 (delay ratio) and |eta| < 1")
    if not 0.0 < tol < math.inf:
        raise DomainError("tol must be positive and finite")
    grid = default_grid()
    W = dW = np.zeros_like(grid.x)
    if warm_start is not None:
        W, dW = warm_start
    history, grew = (), 0
    for _ in range(MAX_SWEEPS):
        T, dT, F = grid.apply(W, dW, eps, eta)
        sup = float(np.max(np.abs(T - W)))
        W, dW = T, dT
        history += (sup,)
        if sup < tol:
            return FixedPointState(x=grid.x, W=W, dW=dW, eps=eps, eta=eta,
                                   F_value=F, sup_diff_history=history)
        floor = 16.0 * np.finfo(float).eps * float(np.max(np.abs(W)))
        if len(history) >= 2 and history[-2] <= sup <= floor:
            raise RoundoffFloorError(tol, floor, history)
        if len(history) >= 2 and sup > history[-2]:
            grew += 1
            if grew >= 3:
                raise NonContractionError(history)
        else:
            grew = 0
    raise NonContractionError(history)


def f_eval(state: FixedPointState) -> float:
    """F(W, eps, eta), recomputed from the state's W: the oracles' check
    on the F_value that the last sweep computed.

    The fixed-point normalization parks the limiting value at W(0) = -F,
    so |W(X_MAX)| doubles as a sanity check on the domain truncation.
    """
    grid = default_grid()
    Rg = grid.r_terms(state.W, state.dW, grid.at_g, state.eps, state.eta)
    return float(np.sum(grid.exq_w * Rg))


def contraction_factor(eps: float, eta: float, w1: np.ndarray,
                       w2: np.ndarray) -> float:
    """sup|T[W1] - T[W2]| / sup|W1 - W2| for two admissible profiles.

    The inputs are value arrays on the default grid; derivatives are taken
    by finite differences so the comparison depends only on the values.
    """
    grid = default_grid()
    d1 = np.gradient(w1, grid.x, edge_order=2)
    d2 = np.gradient(w2, grid.x, edge_order=2)
    T1, _, _ = grid.apply(w1, d1, eps, eta)
    T2, _, _ = grid.apply(w2, d2, eps, eta)
    num = float(np.max(np.abs(T1 - T2)))
    den = float(np.max(np.abs(w1 - w2)))
    return num / den


# ---------------------------------------------------------------------------
# the critical curve eps(eta) and the critical shooting parameter


def _root_in_eps(eta_of, tol: float):
    """Root (eps, state) of eps -> F(W*(eps, eta_of(eps)), eps, eta_of(eps))
    by profiles.bisect on [0, 20 eta] over Picard solves, each read by its
    F_value, from the first-order root kappa1 eta with a Newton step of
    slope c0.  The first two solves start from the grid's first-order
    fields, every later one from the secant through the last two solves.
    F grows in eps and falls in eta, and eta_of must not grow with eps.
    Stops at a bracket under 1e-16 or |F| <= tol eta/ETA_MAX, floored at
    F_FLOOR (eta at eps = 0), and returns the last solve."""
    eta0 = eta_of(0.0)
    if not ETA_MIN <= eta0 <= ETA_MAX:
        raise DomainError(f"eta = {eta0:.3g} at eps = 0 lies outside "
                          f"[{ETA_MIN:.3g}, {ETA_MAX}]: below, 1 + eps cannot "
                          "hold eps; above, T need not contract")
    grid, c0 = default_grid(), greens.c0_moment()
    last = []  # (eps, eta, stacked W and dW, state) of the last two solves

    def solve(eps):
        eta = eta_of(eps)
        if len(last) < 2:  # first order about the last solve or W*(0, 0) = 0
            e1, h1, w1, _ = last[0] if last else (0.0, 0.0, 0.0, None)
            start = w1 + (eps - e1) * grid.d_eps + (eta - h1) * grid.d_eta
        else:  # the secant through the last two solves
            (e0, _, w0, _), (e1, _, w1, _) = last
            start = w1 + (eps - e1) / (e1 - e0) * (w1 - w0)
        state = picard_solve(eps, eta, warm_start=start)
        last[:] = last[-1:] + [(eps, eta, np.array((state.W, state.dW)),
                                state)]
        log.debug("root iterate eps = %.17g, eta = %.17g, F = %.3e "
                  "in %d sweeps from %.3e", eps, eta, state.F_value,
                  state.iterations, state.sup_diff_history[0])
        return state.F_value

    kappa1_eta = -greens.eta_derivative_moment() / c0 * eta0
    bisect(solve, 0.0, 20.0 * eta0, 1e-16,
           (kappa1_eta, c0, max(tol * (eta0 / ETA_MAX), F_FLOOR)))
    state = last[-1][3]
    return state.eps, state


def eps_of_eta(eta: float, tol: float = F_TOL):
    """Root of eps -> F at fixed eta; returns (eps, state) of the root's
    last Picard solve, whose state.eps is eps.

    tol is the |F| stop at eta = ETA_MAX; below, the stop is tol eta/ETA_MAX,
    but never under F_FLOOR, so that eps keeps its relative accuracy."""
    if not 0.0 < tol < math.inf:
        raise DomainError("tol must be positive and finite")
    if eta == 0.0:
        return 0.0, picard_solve(0.0, 0.0)
    return _root_in_eps(lambda eps: eta, tol)


@dataclass(frozen=True)
class CriticalProfile:
    gamma: float
    bbar: float
    eps: float
    eta: float
    state: FixedPointState
    h: np.ndarray
    tail_rate_fit: float


def bbar_of_gamma(gamma: float) -> CriticalProfile:
    """Critical shooting parameter at large homogeneity.

    The relations 2^(1/b) = 2/(1 + eps) and eta = 2^(2/b + 1 - gamma) make
    b and eta closed-form functions of eps, so bbar is the one root in eps
    of F(W*(eps, eta(eps)), eps, eta(eps)), found as eps_of_eta's is, to
    |F| <= F_TOL eta/ETA_MAX (floored at F_FLOOR) at the eta of eps = 0;
    eta shrinks as eps grows.
    The reconstructed h = e^(-x) + W must stay positive and decay;
    violations raise PositivityViolationError.
    """
    gamma = check_gamma(gamma)

    def b_of(eps):
        return LN2 / (LN2 - math.log1p(eps))

    def eta_of(eps):
        return 2.0 ** (2.0 / b_of(eps) + 1.0 - gamma)

    eps, state = _root_in_eps(eta_of, F_TOL)
    h = np.exp(-state.x) + state.W
    if float(np.min(h)) < -1e-9:
        raise PositivityViolationError(
            f"reconstructed profile reaches {float(np.min(h)):.3e}")
    _, rate = certify_decay(state.x, h, 4.0, 0.9 * X_MAX)
    if rate is None:
        raise PositivityViolationError("no exponential envelope certified")
    return CriticalProfile(gamma=gamma, bbar=b_of(eps), eps=eps, eta=state.eta,
                           state=state, h=h, tail_rate_fit=rate)
