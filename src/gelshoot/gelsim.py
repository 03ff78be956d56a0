"""Time evolution of the diagonal-kernel coagulation equation on dyadic
chains.

The pointwise rate equation couples a size xi only to xi/2, so the sites
xi0 * 2^k with a seed xi0 in [1, 2) form a closed chain

    df_k/dt = (1/4) (xi_k/2)^(gamma+1) f_{k-1}^2 - xi_k^(gamma+1) f_k^2,

with f_{-1} = 0.  Chains evolve independently of each other (exactly, not
approximately), so a multi-chain scan is a loop of single-chain solves and
joint evolution is bitwise identical to separate evolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .delaycore import VALUE_CAP, hermite_apply, hermite_weights
from .errors import BlowUpError, DomainError, SolverFailureError
from .profiles import ModelParams

MAX_CHAINS = 300  # per gelation_scan; a default chain takes 9-15 ms
# DOP853's rtol floor, 100 eps: below it scipy warns and runs at the floor
TOL_MIN = 100.0 * float(np.finfo(float).eps)


@dataclass(frozen=True)
class DyadicChain:
    """Densities on one dyadic chain of sites xi0 * 2^k, k = 0..K.

    feeder is the fixed density below the bottom site: zero for a truncated
    chain, or the stationary extension when checking the stationary power
    law on a finite chain.
    """

    xi0: float
    gamma: float
    f: np.ndarray
    feeder: float

    def __post_init__(self):
        if not 1.0 <= self.xi0 < 2.0:
            raise DomainError("seed must lie in [1, 2)")

    @property
    def sites(self) -> np.ndarray:
        return self.xi0 * 2.0 ** np.arange(len(self.f))


def make_chain(xi0: float, gamma: float, K: int, init,
               feeder="zero") -> DyadicChain:
    """Build a chain from a named or callable initial profile.

    feeder: 'zero', 'stationary' (the power-law value at xi0/2), or a float.
    """
    if K < 0:
        raise DomainError(f"site count K = {K} must not be negative")
    # chain_rhs refuses a top site xi0 2^K = inf; refuse it before the sites
    if K >= 1024 and xi0 >= 1.0 and not gamma <= -1.0:
        raise DomainError(f"chain rates (xi0*2^k)^(gamma+1) are not finite "
                          f"at gamma={gamma!r} with {K + 1} sites")
    sites = xi0 * 2.0 ** np.arange(K + 1)
    if callable(init):
        f0 = np.array([float(init(x)) for x in sites])
    elif init == "exp":
        f0 = np.exp(-sites)
    elif init == "stationary":
        f0 = sites ** (-(gamma + 3.0) / 2.0)
    else:
        raise DomainError(f"unknown initial profile {init!r}")
    if feeder == "zero":
        fb = 0.0
    elif feeder == "stationary":
        fb = (xi0 / 2.0) ** (-(gamma + 3.0) / 2.0)
    else:
        fb = float(feeder)
    return DyadicChain(xi0=xi0, gamma=gamma, f=f0, feeder=fb)


def chain_rhs(chain: DyadicChain) -> Callable:
    """The chain's rate equation; DomainError unless every gain and loss
    rate is finite (no solver finishes on a non-finite rate)."""
    sites = chain.sites
    with np.errstate(over="ignore", invalid="ignore"):
        gain = 0.25 * (sites / 2.0) ** (chain.gamma + 1.0)
        loss = sites ** (chain.gamma + 1.0)
    if not (np.all(np.isfinite(gain)) and np.all(np.isfinite(loss))):
        raise DomainError(f"chain rates (xi0*2^k)^(gamma+1) are not finite "
                          f"at gamma={chain.gamma!r} with {len(sites)} sites")
    feeder = chain.feeder

    def rhs(t, f):
        prev = np.concatenate([[feeder], f[:-1]])
        return gain * prev * prev - loss * f * f

    return rhs


@dataclass(frozen=True)
class ChainSolution:
    t: np.ndarray               # uniform snapshot times
    f: np.ndarray               # snapshot states, shape (K+1, len(t))
    t_steps: np.ndarray         # the solver's accepted step abscissae
    f_steps: np.ndarray         # states at accepted steps
    dense: object               # the solver's dense interpolant


def evolve_chain(chain: DyadicChain, t_end: float,
                 tol: float = 1e-10) -> ChainSolution:
    """Advance a chain from t = 0 to t_end with adaptive explicit stepping.

    Stops early (BlowUpError) if any site exceeds VALUE_CAP; the partial
    solution rides on the exception.  The 65 uniform snapshots come from
    the dense interpolant; accepted-step states are kept alongside
    (nonnegativity holds at accepted steps).
    """
    if not 0.0 < t_end < math.inf:
        raise DomainError("t_end must be positive and finite")
    if not TOL_MIN <= tol < 1.0:
        raise DomainError(f"tol = {tol!r} not in [{TOL_MIN!r}, 1)")
    if not np.all(np.isfinite(chain.f)):
        raise DomainError("chain state must be finite")
    from scipy.integrate import solve_ivp

    def hit_cap(t, f):
        return VALUE_CAP - float(np.max(f))

    hit_cap.terminal = True
    hit_cap.direction = -1.0

    # trial stages may overflow before the cap event sees an accepted step;
    # such a run ends in SolverFailureError below, not in numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        sol = solve_ivp(chain_rhs(chain), (0.0, t_end), chain.f,
                        method="DOP853", rtol=tol,
                        atol=min(tol * 1e-2, 1e-14), events=hit_cap,
                        dense_output=True)
    if not sol.success and sol.status != 1:
        raise SolverFailureError(float(sol.t[-1]), sol.message)
    t_last = float(sol.t[-1])
    snap_t = np.linspace(0.0, t_last, 65)
    out = ChainSolution(t=snap_t, f=sol.sol(snap_t), t_steps=sol.t,
                        f_steps=sol.y, dense=sol.sol)
    if sol.status == 1:
        raise BlowUpError(t_last, solution=out)
    return out


def evolve_chains(chains, t_end: float, **kwargs) -> list:
    """Evolve several chains: exactly a loop of single-chain solves.

    The pointwise equation couples no two chains, so joint evolution is
    bitwise identical to evolving each chain separately.
    """
    return [evolve_chain(c, t_end, **kwargs) for c in chains]


def chain_rhs_residual(chain: DyadicChain) -> float:
    """Max |df/dt| of the chain's state; zero for stationary profiles."""
    return float(np.max(np.abs(chain_rhs(chain)(0.0, chain.f))))


def single_site_closed_form(xi0: float, gamma: float, c: float,
                            t) -> np.ndarray:
    """Pure-loss site: f(t) = c / (1 + xi0^(gamma+1) c t)."""
    t = np.asarray(t, dtype=float)
    return c / (1.0 + xi0 ** (gamma + 1.0) * c * t)


# ---------------------------------------------------------------------------
# self-similar residual of a density profile


def selfsimilar_residual(x: np.ndarray, F: np.ndarray,
                         params: ModelParams, dF: np.ndarray) -> float:
    """Max residual of the self-similar profile equation on a grid.

    Checks -a b F - b x F' - (1/4)(x/2)^(gamma+1) F(x/2)^2
    + x^(gamma+1) F(x)^2 with F(x/2) from the cubic Hermite in ln x, whose
    node slopes are x F'.
    """
    x, F, dF = (np.asarray(v, dtype=float) for v in (x, F, dF))
    if x.ndim != 1 or len(x) < 2 or not x.shape == F.shape == dF.shape:
        raise DomainError("need a 1-D grid of >= 2 points, one F, dF each")
    if not np.all(np.isfinite(x) & np.isfinite(F) & np.isfinite(dF)):
        raise DomainError("grid, F and dF must be finite")
    if np.any(x <= 0.0) or np.any(np.diff(x) <= 0.0) or x[-1] < 2.0 * x[0]:
        raise DomainError("grid must be positive, increasing, an octave wide")
    inner = x / 2.0 >= x[0]
    xs, Fs, dFs = x[inner], F[inner], dF[inner]
    F_half = hermite_apply(hermite_weights(np.log(x), np.log(xs / 2.0)),
                           F, x * dF)
    g = params.gamma
    res = (-params.a * params.b * Fs - params.b * xs * dFs
           - 0.25 * (xs / 2.0) ** (g + 1.0) * F_half ** 2
           + xs ** (g + 1.0) * Fs ** 2)
    return float(np.max(np.abs(res)))


# ---------------------------------------------------------------------------
# gelation scan over many chains


@dataclass(frozen=True)
class SimDiagnostics:
    """Per-chain blow-up estimates and self-similar collapse quality."""

    gamma: float
    seeds: np.ndarray
    t_hat: list                 # per chain: list of per-site estimates
    collapse_metric: list       # sup-distance sequence of rescaled snapshots
    horizon: float


def riccati_blowup_estimate(t: np.ndarray, f: np.ndarray) -> Optional[float]:
    """Extrapolated time at which 1/f would hit zero.

    Fits 1/f linearly over the last 12 points of the longest growth stretch
    of the site.  This extrapolation is finite whenever the site is being fed
    faster than it drains; it is a gelation diagnostic, not a statement
    that the pointwise density diverges.  Returns None for sites that
    never grow.
    """
    pos = f > 0.0
    grow = np.nonzero(pos[1:] & pos[:-1] & (np.diff(f) > 0.0))[0]
    if len(grow) < 12:
        return None
    # longest contiguous growth stretch
    breaks = np.nonzero(np.diff(grow) > 1)[0]
    segments = np.split(grow, breaks + 1)
    seg = max(segments, key=len)
    if len(seg) < 12:
        return None
    idx = np.concatenate([seg, [seg[-1] + 1]])[-12:]
    inv = 1.0 / f[idx]
    slope, intercept = np.polyfit(t[idx], inv, 1)
    if slope >= 0.0:
        return None
    return float(-intercept / slope)


def gelation_scan(gamma: float, init="exp", n_chains: int = 64,
                  K: int = 10, horizon: float = 5.0,
                  tol: float = 1e-10, feeder="zero") -> SimDiagnostics:
    """Evolve log-spaced chains and report blow-up estimates and collapse.

    The collapse metric rescales trailing snapshots by the stationary-pair
    exponents (a0, b0) with the fitted chain t_hat and reports sup-distances
    between consecutive rescaled profiles; a decreasing sequence indicates
    approach to a self-similar shape.
    """
    if not 1 <= n_chains <= MAX_CHAINS:
        raise DomainError(f"n_chains = {n_chains} not in [1, {MAX_CHAINS}]")
    seeds = np.geomspace(1.0, 2.0, n_chains, endpoint=False)
    a0 = (gamma + 3.0) / 2.0
    b0 = 2.0 / (gamma - 1.0) if gamma != 1.0 else math.inf
    t_hats = []
    collapse = []
    for xi0 in seeds:
        chain = make_chain(xi0, gamma, K, init, feeder=feeder)
        try:
            sol = evolve_chain(chain, horizon, tol=tol)
        except BlowUpError as err:
            sol = err.solution
        est = [riccati_blowup_estimate(sol.t_steps, sol.f_steps[k]) for k in
               range(sol.f_steps.shape[0])]
        t_hats.append(est)
        finite = [e for e in est if e is not None and e > 0.0]
        if finite and gamma > 1.0:
            # rescaling needs a singular time beyond the data; when the
            # extrapolated estimate falls inside the run (saturating
            # dynamics) it is clamped just past the end
            t_hat = min(finite)
            t_last = float(sol.t[-1])
            if t_hat <= t_last:
                t_hat = 1.05 * t_last
            sites = chain.sites

            def rescaled(tj):
                tau = t_hat - tj
                xs = tau ** b0 * sites
                Fs = sol.dense(tj) / tau ** (a0 * b0)
                return np.log(xs), Fs * xs ** a0

            # distance of each ladder snapshot to the final one; a
            # decreasing sequence signals approach to a common rescaled
            # shape as t -> t_hat
            ref = rescaled(t_last)
            metrics = []
            for j in range(1, 6):
                cur = rescaled(t_last * (1.0 - 2.0 ** (-j)))
                lo = max(ref[0][0], cur[0][0])
                hi = min(ref[0][-1], cur[0][-1])
                grid = np.linspace(lo, hi, 64)
                d = np.max(np.abs(np.interp(grid, *cur)
                                  - np.interp(grid, *ref)))
                metrics.append(float(d))
            collapse.append(metrics)
        else:
            collapse.append([])
    return SimDiagnostics(gamma=gamma, seeds=seeds, t_hat=t_hats,
                          collapse_metric=collapse, horizon=horizon)
