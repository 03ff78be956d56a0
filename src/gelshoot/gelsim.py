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
from .profiles import ModelParams, bisect_root

MAX_CHAINS = 300  # per gelation_scan; a default chain takes 4-6 ms
# the rtol floor scipy's DOP853 enforces, 100 eps: tighter tolerances sit
# at the rounding of a step, so evolve_chain refuses them
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
    prev = np.empty(len(sites))  # the feeder, then f shifted up a site
    prev[0] = chain.feeder

    def rhs(t, f):
        prev[1:] = f[:-1]
        return gain * prev * prev - loss * f * f

    return rhs


# DOP853 (Hairer, Norsett & Wanner, Solving ODEs I, II.5-II.6) with the
# coefficients of scipy.integrate's port: stages 0-11 make the step, 12 is
# the slope at its end and 13-15 serve the 7th-order dense output
_A = np.array([row + (0.0,) * (16 - len(row)) for row in (
    (),
    (0.05260015195876773,),
    (0.0197250569845379, 0.0591751709536137),
    (0.02958758547680685, 0, 0.08876275643042054),
    (0.2413651341592667, 0, -0.8845494793282861, 0.924834003261792),
    (0.037037037037037035, 0, 0, 0.17082860872947386, 0.12546768756682242),
    (0.037109375, 0, 0, 0.17025221101954405, 0.06021653898045596,
     -0.017578125),
    (0.03709200011850479, 0, 0, 0.17038392571223998, 0.10726203044637328,
     -0.015319437748624402, 0.008273789163814023),
    (0.6241109587160757, 0, 0, -3.3608926294469414, -0.868219346841726,
     27.59209969944671, 20.154067550477894, -43.48988418106996),
    (0.47766253643826434, 0, 0, -2.4881146199716677, -0.590290826836843,
     21.230051448181193, 15.279233632882423, -33.28821096898486,
     -0.020331201708508627),
    (-0.9371424300859873, 0, 0, 5.186372428844064, 1.0914373489967295,
     -8.149787010746927, -18.52006565999696, 22.739487099350505,
     2.4936055526796523, -3.0467644718982196),
    (2.273310147516538, 0, 0, -10.53449546673725, -2.0008720582248625,
     -17.9589318631188, 27.94888452941996, -2.8589982771350235,
     -8.87285693353063, 12.360567175794303, 0.6433927460157636),
    (0.054293734116568765, 0, 0, 0, 0, 4.450312892752409,
     1.8915178993145003, -5.801203960010585, 0.3111643669578199,
     -0.1521609496625161, 0.20136540080403034, 0.04471061572777259),
    (0.056167502283047954, 0, 0, 0, 0, 0, 0.25350021021662483,
     -0.2462390374708025, -0.12419142326381637, 0.15329179827876568,
     0.00820105229563469, 0.007567897660545699, -0.008298),
    (0.03183464816350214, 0, 0, 0, 0, 0.028300909672366776,
     0.053541988307438566, -0.05492374857139099, 0, 0,
     -0.00010834732869724932, 0.0003825710908356584,
     -0.00034046500868740456, 0.1413124436746325),
    (-0.42889630158379194, 0, 0, 0, 0, -4.697621415361164,
     7.683421196062599, 4.06898981839711, 0.3567271874552811, 0, 0, 0,
     -0.0013990241651590145, 2.9475147891527724, -9.15095847217987))])
_B = _A[12, :12]
_C = np.array([
    0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
    0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
    0.6512820512820513, 0.6, 0.8571428571428571, 1.0, 1.0, 0.1, 0.2,
    0.7777777777777778])
_E3 = np.array([
    -0.18980075407240762, 0, 0, 0, 0, 4.450312892752409, 1.8915178993145003,
    -5.801203960010585, -0.4226823213237919, -0.1521609496625161,
    0.20136540080403034, 0.02265179219836082, 0])
_E5 = np.array([
    0.01312004499419488, 0, 0, 0, 0, -1.2251564463762044,
    -0.4957589496572502, 1.6643771824549864, -0.35032884874997366,
    0.3341791187130175, 0.08192320648511571, -0.022355307863886294, 0])
_D = np.array([
    [-8.428938276109013, 0, 0, 0, 0, 0.5667149535193777, -3.0689499459498917,
     2.38466765651207, 2.117034582445028, -0.871391583777973,
     2.2404374302607883, 0.6315787787694688, -0.08899033645133331,
     18.148505520854727, -9.194632392478356, -4.436036387594894],
    [10.427508642579134, 0, 0, 0, 0, 242.28349177525817, 165.20045171727028,
     -374.5467547226902, -22.113666853125306, 7.733432668472264,
     -30.674084731089398, -9.332130526430229, 15.697238121770845,
     -31.139403219565178, -9.35292435884448, 35.81684148639408],
    [19.985053242002433, 0, 0, 0, 0, -387.0373087493518, -189.17813819516758,
     527.8081592054236, -11.57390253995963, 6.8812326946963,
     -1.0006050966910838, 0.7777137798053443, -2.778205752353508,
     -60.19669523126412, 84.32040550667716, 11.99229113618279],
    [-25.69393346270375, 0, 0, 0, 0, -154.18974869023643, -231.5293791760455,
     357.6391179106141, 93.40532418362432, -37.45832313645163,
     104.0996495089623, 29.8402934266605, -43.53345659001114,
     96.32455395918828, -39.17726167561544, -149.72683625798564]])


def _rms(x: np.ndarray) -> float:
    return np.linalg.norm(x) / x.size ** 0.5


def _dense(ts, hs, ys, Fs) -> Callable:
    """The steps' 7th-order interpolant: a scalar t gives shape (n,), an
    array of m times (n, m).  ts are the step ends (the first the start),
    hs the step sizes, ys the states at ts, Fs the steps' coefficients."""
    def dense(t):
        t = np.asarray(t, dtype=float)
        i = np.clip(np.searchsorted(ts, t) - 1, 0, len(hs) - 1)
        x = ((t - ts[i]) / hs[i])[..., None]
        y = np.zeros(t.shape + ys.shape[1:])
        for j in range(7):
            y += Fs[i, 6 - j]
            y *= x if j % 2 == 0 else 1.0 - x
        return (y + ys[i]).T

    return dense


def _dop853(rhs, y, t_end, rtol, atol):
    """Integrate y' = rhs(t, y) from t = 0 to t_end, or to where max y
    first crosses VALUE_CAP from below.  Returns the step ends, the states
    there, the step sizes, the steps' interpolant coefficients and whether
    the cap ended the run."""
    n = len(y)
    K = np.empty((16, n))
    KT = [K[:s].T for s in range(16)]
    A, C = [_A[s, :s] for s in range(16)], _C.tolist()
    f = rhs(0.0, y)
    # the initial step: 0.01 of the scaled state over the scaled slope,
    # then the 8th root of 0.01 over the slope's scaled change
    scale = atol + np.abs(y) * rtol
    d0, d1 = _rms(y / scale), _rms(f / scale)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, t_end)
    d2 = _rms((rhs(h0, y + h0 * f) - f) / scale) / h0
    h1 = (max(1e-6, h0 * 1e-3) if d1 <= 1e-15 and d2 <= 1e-15
          else (0.01 / max(d1, d2)) ** 0.125)
    h_abs = min(100 * h0, h1, t_end)
    t, ts, ys, hs, Fs = 0.0, [0.0], [y], [], []
    while t < t_end:
        min_step = 10.0 * (math.nextafter(t, math.inf) - t)
        h_abs, rejected = max(h_abs, min_step), False
        while True:
            if not h_abs >= min_step:  # a NaN step size too
                raise SolverFailureError(t, f"step size {h_abs:.3g} fails "
                                            f"the floor of 10 ulps of t, "
                                            f"{min_step:.3g}")
            t_new = min(t + h_abs, t_end)
            h = h_abs = t_new - t
            K[0] = f
            for s in range(1, 12):
                K[s] = rhs(t + C[s] * h, y + np.dot(KT[s], A[s]) * h)
            y_new = y + h * np.dot(KT[12], _B)
            K[12] = f_new = rhs(t + h, y_new)
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            e5 = np.linalg.norm(np.dot(KT[13], _E5) / scale) ** 2
            e3 = np.linalg.norm(np.dot(KT[13], _E3) / scale) ** 2
            err = (0.0 if e5 == 0 and e3 == 0
                   else h * e5 / np.sqrt((e5 + 0.01 * e3) * n))
            if err < 1:
                factor = 10 if err == 0 else min(10, 0.9 * err ** -0.125)
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(0.2, 0.9 * err ** -0.125)
            rejected = True
        for s in range(13, 16):
            K[s] = rhs(t + C[s] * h, y + np.dot(KT[s], A[s]) * h)
        dy = y_new - y
        F = np.empty((7, n))
        F[0], F[1], F[2] = dy, h * f - dy, 2 * dy - h * (f_new + f)
        F[3:] = h * np.dot(_D, K)
        hs.append(h)
        Fs.append(F)
        if np.max(y) < VALUE_CAP <= np.max(y_new):
            # the crossing on this step's interpolant ends the run there;
            # at t_new the bracket reads y_new, which the interpolant may
            # round below the cap
            step = _dense(np.array([t, t_new]), np.array([h]), y[None],
                          F[None])
            t = bisect_root(lambda s: float(np.max(
                step(s) if s < t_new else y_new)) - VALUE_CAP, t, t_new)
            ts.append(t)
            ys.append(step(t))
            return ts, ys, hs, Fs, True
        t, y, f = t_new, y_new, f_new
        ts.append(t)
        ys.append(y)
    return ts, ys, hs, Fs, False


@dataclass(frozen=True)
class ChainSolution:
    t: np.ndarray               # uniform snapshot times
    f: np.ndarray               # snapshot states, shape (K+1, len(t))
    t_steps: np.ndarray         # the solver's accepted step abscissae
    f_steps: np.ndarray         # states at accepted steps
    dense: Callable             # the steps' 7th-order interpolant


def evolve_chain(chain: DyadicChain, t_end: float,
                 tol: float = 1e-10) -> ChainSolution:
    """Advance a chain from t = 0 to t_end with the package's DOP853.

    Stops early (BlowUpError) where the largest site first crosses
    VALUE_CAP; the partial solution rides on the exception.  The 65
    uniform snapshots come from the dense interpolant; accepted-step
    states are kept alongside (nonnegativity holds at accepted steps).
    """
    if not 0.0 < t_end < math.inf:
        raise DomainError("t_end must be positive and finite")
    if not TOL_MIN <= tol < 1.0:
        raise DomainError(f"tol = {tol!r} not in [{TOL_MIN!r}, 1)")
    if not np.all(np.isfinite(chain.f)):
        raise DomainError("chain state must be finite")
    rhs = chain_rhs(chain)
    # trial stages may overflow before the cap sees an accepted step; such
    # a run ends in SolverFailureError, not in numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        ts, ys, hs, Fs, capped = _dop853(rhs, chain.f, t_end, tol,
                                         min(tol * 1e-2, 1e-14))
        ts, ys = np.array(ts), np.array(ys)
        dense = _dense(ts, np.array(hs), ys, np.array(Fs))
        snap_t = np.linspace(0.0, ts[-1], 65)
        out = ChainSolution(t=snap_t, f=dense(snap_t), t_steps=ts,
                            f_steps=ys.T, dense=dense)
    if capped:
        raise BlowUpError(float(ts[-1]), solution=out)
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
