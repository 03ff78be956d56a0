"""Time evolution of the diagonal-kernel coagulation equation on dyadic
chains.

The pointwise rate equation couples a size xi only to xi/2, so the sites
xi0 * 2^k with a seed xi0 in [1, 2) form a closed chain

    df_k/dt = (1/4) (xi_k/2)^(gamma+1) f_{k-1}^2 - xi_k^(gamma+1) f_k^2,

with f_{-1} = 0.  Chains evolve independently of each other (exactly, not
approximately), so the package's DOP853 steps chains of one length
together, STACK_ROWS to a stack, each row bitwise as evolved alone.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .delaycore import VALUE_CAP, hermite_apply, hermite_weights
from .errors import BlowUpError, DomainError, SolverFailureError
from .profiles import ModelParams, bisect_root

MAX_CHAINS = 300  # per gelation_scan; 300 default chains take 0.6 s
# chains per _dop853 stack: a stack keeps its rows' steps (1 KB each at
# 11 sites) until it ends, where a loop of lone solves kept one chain's
STACK_ROWS = 8
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


def _count(name: str, n) -> int:
    try:
        return operator.index(n)
    except TypeError:
        raise DomainError(f"{name} = {n!r} is not an integer") from None


def make_chain(xi0: float, gamma: float, K: int, init,
               feeder="zero") -> DyadicChain:
    """Build a chain from a named or callable initial profile.

    feeder: 'zero', 'stationary' (the power-law value at xi0/2), or a float.
    """
    if _count("K", K) < 0:
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
        try:
            fb = float(feeder)
        except (TypeError, ValueError):
            raise DomainError(f"unknown feeder {feeder!r}") from None
    return DyadicChain(xi0=xi0, gamma=gamma, f=f0, feeder=fb)


def chain_rhs(chain) -> Callable:
    """The chain's rate equation, or for a list of equal-length chains that
    of their stack, one chain a row of f; DomainError unless every gain
    and loss rate is finite (no solver finishes on a non-finite rate)."""
    chains = chain if isinstance(chain, list) else [chain]
    with np.errstate(over="ignore", invalid="ignore"):
        rates = np.array([(0.25 * (c.sites / 2.0) ** (c.gamma + 1.0),
                           c.sites ** (c.gamma + 1.0)) for c in chains])
    for c, r in zip(chains, rates):
        if not np.all(np.isfinite(r)):
            raise DomainError(f"chain rates (xi0*2^k)^(gamma+1) are not "
                              f"finite at gamma={c.gamma!r} with "
                              f"{len(c.f)} sites")
    gain, loss = rates[:, 0], rates[:, 1]
    prev = np.empty(gain.shape)  # the feeder, then f shifted up a site
    prev[:, 0] = [c.feeder for c in chains]
    if not isinstance(chain, list):
        gain, loss, prev = gain[0], loss[0], prev[0]

    def rhs(t, f):
        prev[..., 1:] = f[..., :-1]
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


def _norms(x: np.ndarray) -> np.ndarray:
    """np.linalg.norm of each row, bitwise: one ddot per row, as norm's."""
    return np.sqrt(x[:, None, :] @ x[:, :, None])[:, 0, 0]


def _dense(ts, hs, ys, Fs, t) -> np.ndarray:
    """The steps' 7th-order interpolant at t, shape (n,) or (n, len(t)):
    ts are the step ends (the first the start), hs the step sizes, ys the
    states at ts, Fs the steps' coefficients."""
    t = np.asarray(t, dtype=float)
    i = np.clip(np.searchsorted(ts, t) - 1, 0, len(hs) - 1)
    x = ((t - ts[i]) / hs[i])[..., None]
    y = np.zeros(t.shape + ys.shape[1:])
    for j in range(7):
        y += Fs[i, 6 - j]
        y *= x if j % 2 == 0 else 1.0 - x
    return (y + ys[i]).T


def _dop853(rhs, y, t_end, rtol, atol) -> list:
    """Integrate the autonomous y' = rhs(0, y) on each row of the (m, n)
    stack y from t = 0 to t_end, or to where the row's max first crosses
    VALUE_CAP from below; each row has its own t, step size and records,
    and every operation is row-local.  Returns per row its step ends,
    states, step sizes, interpolant coefficients and whether the cap
    ended it, or its SolverFailureError (later rows None, as in a loop)."""
    m, n = y.shape
    K = np.empty((m, 16, n))
    hc, sums = np.empty((m, n)), np.empty((m, n))  # no broadcasting in h*sum
    # stage sums: np.matmul on each row's F-order (n, s) view is one gemv a
    # row, rounding as np.dot (which a lone row takes: matmul on a stack of
    # one costs it 9-10%).  np.dot over the stack (s, m, n) is not row-local
    # and np.add.reduce of a * K rounds otherwise: both leave solve_ivp.
    dot, Kr, out = (np.dot, K[0], sums[0]) if m == 1 else (np.matmul, K, sums)
    KT = [Kr[..., :s, :].swapaxes(-1, -2) for s in range(16)]
    Ks = [K[:, s] for s in range(16)]
    A = [_A[s, :s] for s in range(16)]
    f = rhs(0.0, y)
    # the initial step and the step law stay per row on numpy scalars, as
    # array power rounds otherwise
    scale = atol + np.abs(y) * rtol
    d0, d1 = _norms(y / scale) / n ** 0.5, _norms(f / scale) / n ** 0.5
    h0 = [min(1e-6 if a < 1e-5 or b < 1e-5 else 0.01 * a / b, t_end)
          for a, b in zip(d0, d1)]
    d2 = (_norms((rhs(0.0, y + np.array(h0)[:, None] * f) - f) / scale)
          / n ** 0.5 / h0)
    h_abs = [min(100 * a, max(1e-6, a * 1e-3) if b <= 1e-15 and c <= 1e-15
                 else (0.01 / max(b, c)) ** 0.125, t_end)
             for a, b, c in zip(h0, d1, d2)]
    t, t_new, h, rejected = [0.0] * m, [0.0] * m, [0.0] * m, [False] * m
    runs = [([0.0], [y[i]], [], []) for i in range(m)]
    res, live = [None] * m, list(range(m))
    y_max = y.max(axis=1).tolist()
    while live:
        for i in live:
            floor = 10.0 * (math.nextafter(t[i], math.inf) - t[i])
            if not rejected[i]:
                h_abs[i] = max(h_abs[i], floor)
            if not h_abs[i] >= floor:  # a NaN step size too
                res[i] = SolverFailureError(
                    t[i], f"step size {h_abs[i]:.3g} fails the floor of "
                          f"10 ulps of t, {floor:.3g}")
                live = live[:live.index(i)]
                break
            t_new[i] = min(t[i] + h_abs[i], t_end)
            h[i] = h_abs[i] = t_new[i] - t[i]
        if not live:
            break
        hc[...] = np.array(h)[:, None]
        Ks[0][...] = f
        for s in range(1, 13):  # A[12] is scipy's B: stage 12 ends the step
            dot(KT[s], A[s], out=out)
            y_new = y + sums * hc
            Ks[s][...] = f_new = rhs(0.0, y_new)
        scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
        dot(KT[13], _E5, out=out)
        n5 = _norms(sums / scale)
        dot(KT[13], _E3, out=out)
        n3 = _norms(sums / scale)
        accepted = []
        for i in live:
            e5, e3 = n5[i] ** 2, n3[i] ** 2
            err = (0.0 if e5 == 0 and e3 == 0
                   else h[i] * e5 / np.sqrt((e5 + 0.01 * e3) * n))
            if err < 1:
                factor = 10 if err == 0 else min(10, 0.9 * err ** -0.125)
                h_abs[i] *= min(1, factor) if rejected[i] else factor
                accepted.append(i)
            else:
                h_abs[i] *= max(0.2, 0.9 * err ** -0.125)
                rejected[i] = True
        if not accepted:
            continue
        for s in range(13, 16):
            dot(KT[s], A[s], out=out)
            Ks[s][...] = rhs(0.0, y + sums * hc)
        dy = y_new - y
        F = np.empty((m, 7, n))
        F[:, 0], F[:, 1], F[:, 2] = dy, hc * f - dy, 2 * dy - hc * (f_new + f)
        F[:, 3:] = dot(_D, Kr) * hc[:, None]
        new_max = y_new.max(axis=1).tolist()
        for i in accepted:
            ts, ys, hs, Fs = runs[i]
            hs.append(h[i])
            Fs.append(F[i].copy())  # not a view pinning the stack's F
            capped = y_max[i] < VALUE_CAP <= new_max[i]
            if capped:
                # the crossing on the step's interpolant ends the row; at
                # t_new read y_new, which the interpolant may round below
                step = (np.array([t[i], t_new[i]]), np.array([h[i]]),
                        y[i][None], F[i][None])
                t_new[i] = bisect_root(lambda s: float(np.max(
                    _dense(*step, s) if s < step[0][1] else y_new[i]))
                    - VALUE_CAP, t[i], t_new[i])
            ts.append(t_new[i])
            ys.append(_dense(*step, t_new[i]) if capped else y_new[i].copy())
            t[i], y_max[i], rejected[i] = t_new[i], new_max[i], False
            if capped or not t[i] < t_end:
                res[i] = runs[i] + (capped,)
        stay = [i for i in live if rejected[i]]
        if stay:
            y_new[stay], f_new[stay] = y[stay], f[stay]
        y, f = y_new, f_new
        live = [i for i in live if res[i] is None]
    return res


@dataclass(frozen=True)
class ChainSolution:
    t: np.ndarray               # uniform snapshot times
    f: np.ndarray               # snapshot states, shape (K+1, len(t))
    t_steps: np.ndarray         # the solver's accepted step abscissae
    f_steps: np.ndarray         # states at accepted steps


def evolve_chain(chain: DyadicChain, t_end: float,
                 **kwargs) -> ChainSolution:
    """Advance a chain to t_end as a stack of one; its one keyword is
    evolve_chains' tol.  Stops early (BlowUpError, with the partial
    solution) where the largest site first crosses VALUE_CAP.  Keeps the
    accepted-step states and 65 uniform snapshots of their interpolant."""
    return evolve_chains([chain], t_end, **kwargs)[0]


def evolve_chains(chains, t_end: float, tol: float = 1e-10) -> list:
    """Evolve chains of any lengths as evolve_chain would, in input order:
    the equation couples no two chains, so chains of one length step as
    stacks whose rows come out bitwise as alone.  Raises the error of the
    first chain in input order that has one, as a loop of evolve_chain
    would."""
    out = [sol for _, sol in sorted(_solve(chains, t_end, tol))]
    for sol in out:
        if isinstance(sol, Exception):
            raise sol
    return out


def _solve(chains, t_end: float, tol: float):
    """Yield each chain's input index and its ChainSolution, or the error
    its solve raises (None after a SolverFailureError in its stack): one
    _dop853 stack of at most STACK_ROWS equal-length chains at a time, in
    input order within a length.  An input error raises its DomainError
    before any chain is solved."""
    chains, stacks = list(chains), {}
    for i, c in enumerate(chains):
        if not 0.0 < t_end < math.inf:
            raise DomainError("t_end must be positive and finite")
        if not TOL_MIN <= tol < 1.0:
            raise DomainError(f"tol = {tol!r} not in [{TOL_MIN!r}, 1)")
        if not (np.all(np.isfinite(c.f)) and math.isfinite(c.feeder)):
            raise DomainError("chain state and feeder must be finite")
        stacks.setdefault(len(c.f), []).append(i)
    groups = [rows[k:k + STACK_ROWS] for rows in stacks.values()
              for k in range(0, len(rows), STACK_ROWS)]
    laws = [chain_rhs([chains[i] for i in rows]) for rows in groups]
    for rhs, rows in zip(laws, groups):
        # trial stages may overflow before the cap sees an accepted step;
        # such a run ends in SolverFailureError, not in numpy warnings
        with np.errstate(over="ignore", invalid="ignore"):
            runs = _dop853(rhs, np.array([chains[i].f for i in rows], float),
                           t_end, tol, min(tol * 1e-2, 1e-14))
            for k, run in enumerate(runs):
                if isinstance(run, tuple):
                    ts, ys, hs, Fs, capped = (np.array(r) for r in run)
                    snap_t = np.linspace(0.0, ts[-1], 65)
                    runs[k] = ChainSolution(
                        snap_t, _dense(ts, hs, ys, Fs, snap_t), ts, ys.T)
                    if capped:
                        runs[k] = BlowUpError(float(ts[-1]), solution=runs[k])
        yield from zip(rows, runs)


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
    """Per-chain, per-site blow-up estimates of a gelation scan."""

    gamma: float
    seeds: np.ndarray
    t_hat: list                 # per chain: list of per-site estimates
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
                  tol: float = 1e-10) -> SimDiagnostics:
    """Evolve log-spaced zero-feeder chains to the horizon or the cap and
    report riccati_blowup_estimate on each site's accepted steps."""
    if not 1 <= _count("n_chains", n_chains) <= MAX_CHAINS:
        raise DomainError(f"n_chains = {n_chains} not in [1, {MAX_CHAINS}]")
    seeds = np.geomspace(1.0, 2.0, n_chains, endpoint=False)
    chains = [make_chain(xi0, gamma, K, init) for xi0 in seeds]
    t_hats = []
    for _, sol in _solve(chains, horizon, tol):
        if isinstance(sol, BlowUpError):
            sol = sol.solution
        elif isinstance(sol, Exception):
            raise sol
        t_hats.append([riccati_blowup_estimate(sol.t_steps, f)
                       for f in sol.f_steps])
    return SimDiagnostics(gamma=gamma, seeds=seeds, t_hat=t_hats,
                          horizon=horizon)
