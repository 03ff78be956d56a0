"""Fundamental solution of the linear delay equation phi' = phi - 2 phi(x/2).

The response G(x, xi) to a unit point source at xi vanishes for x < xi and
splits as

    G(x, xi) = e^x Q(xi) + Gtilde(x, xi),

where Q is an explicit alternating exponential series and Gtilde collects
the remaining inverse-Laplace contributions on a vertical contour
Re z = Ltilde in (1/2, 1).  Three evaluation routes are provided and cross
checked against each other:

  * g_by_ode        direct integration of the delay equation (reference),
  * e^x Q + quadrature of the contour terms (verification),
  * e^x Q + residue closed form of the contour terms (fast; the
    fixed-point kernel fills its entries from the same residue weights).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import delaycore as dc
from .errors import DomainError, TruncationWarning

#: coefficients a_n = 2^(2n) / prod_{j=1..n} (2^j - 1); Q = sum (-1)^n a_n e^(-2^n xi)
_NQ = 20


@lru_cache(maxsize=None)
def q_coefficients(n_max: int = _NQ) -> np.ndarray:
    """a_0, ..., a_n_max: the one table of Q's coefficients."""
    a = np.empty(n_max + 1)
    a[0] = 1.0
    prod = 1.0
    for n in range(1, n_max + 1):
        prod *= 2.0 ** n - 1.0
        a[n] = 4.0 ** n / prod
    return a


def _q_sum(xi, N: int, shift: float):
    """sum_{n<=N} (-1)^n a_n e^(xi (shift - 2^n)) for a scalar or an array."""
    xi_arr = np.asarray(xi, dtype=float)
    n = np.arange(N + 1)
    signed = np.where(n % 2 == 0, 1.0, -1.0) * q_coefficients(N)
    # xi (shift - 2^n) overflows to -inf from xi ~ 1e302 on; e^-inf = 0
    with np.errstate(over="ignore"):
        terms = signed * np.exp(np.outer(xi_arr.ravel(), shift - 2.0 ** n))
    out = terms.sum(axis=1).reshape(xi_arr.shape)
    return float(out) if np.isscalar(xi) or xi_arr.ndim == 0 else out


def q_eval(xi, N: int = _NQ):
    """Alternating series for Q(xi), truncated after N terms.

    Terms beyond n = 2 are strictly decreasing in magnitude, so the first
    omitted term bounds the truncation error (see q_tail_bound).
    Accepts scalars or arrays; xi must be >= 0.
    """
    if N < 1:
        raise DomainError("need at least one series term")
    if not np.all(np.asarray(xi, dtype=float) >= 0.0):  # NaN fails too
        raise DomainError("Q is evaluated for xi >= 0")
    return _q_sum(xi, N, 0.0)


def q_tail_bound(xi: float, N: int = _NQ) -> float:
    """Magnitude of the first omitted term, valid as a bound for N >= 2."""
    if math.isnan(xi):
        raise DomainError("Q's tail bound needs a number xi")
    a = q_coefficients(N + 1)[N + 1]
    return float(a * math.exp(-(2.0 ** (N + 1)) * xi))


def exq_eval(xi) -> np.ndarray:
    """e^xi Q(xi), summed without the overall exponential (stable for large xi)."""
    return _q_sum(xi, _NQ, 1.0)


def gauss_panels(edges, rule_x, rule_w) -> tuple:
    """Nodes and weights of a Gauss rule on [-1, 1] mapped to each panel
    [edges[i], edges[i+1]], panel by panel: the one panel quadrature."""
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    return ((mid[:, None] + half[:, None] * rule_x[None, :]).ravel(),
            (half[:, None] * rule_w[None, :]).ravel())


@lru_cache(maxsize=None)
def _gauss_legendre_8():
    """8-point Gauss-Legendre nodes and weights on [-1, 1], built once."""
    return np.polynomial.legendre.leggauss(8)


def c0_moment() -> float:
    """First moment of Q: integral of eta Q(eta) over (0, inf), by series.

    Term-wise integration gives sum_n (-1)^n a_n / 4^n = 1 + sum_{n>=1}
    (-1)^n / prod_{j<=n}(2^j - 1); the n = 0 and n = 1 terms cancel exactly.
    """
    total = 0.0
    for n, a in enumerate(q_coefficients().tolist()):
        total += (-1) ** n * a / 4 ** n
    return total


def c0_moment_quad() -> float:
    """The same moment by the 8-point Gauss rule on octave panels 0 and
    60 2^(-k/2), k = 80..0, the independent route; t Q(t) < 1e-24 past 60."""
    edges = np.append(0.0, 60.0 * 2.0 ** (-np.arange(80, -1, -1) / 2.0))
    t, w = gauss_panels(edges, *_gauss_legendre_8())
    return float(np.sum(w * t * q_eval(t)))


def eta_derivative_moment() -> float:
    """Integral of e^(-xi) Q(xi) over (0, inf): sum (-1)^n a_n / (1 + 2^n)."""
    total = 0.0
    for n, a in enumerate(q_coefficients().tolist()):
        total += (-1) ** n * a / (1 + 2 ** n)
    return total


# ---------------------------------------------------------------------------
# route 1: direct integration of the delay equation


def g_by_ode(x: float, xi: float, tol: float = 1e-10) -> float:
    """G(x, xi) by integrating phi' = phi - 2 phi(x/2) from the unit jump.

    Requires x > xi > 0; for x < xi the solution is identically zero.
    """
    if not xi > 0.0:
        raise DomainError("source point xi must be positive")
    if x < xi:
        return 0.0
    if xi >= x - 1e-12 * max(1.0, abs(x)):
        return 1.0  # phi(xi) = 1 on a span too short for integrate
    # a unit point source released at xi: the run starts at value 1 while
    # every delayed lookup below xi sees the zero history
    traj = dc.integrate(dc.linear_g_equation(),
                        dc.FunctionHistory(lambda s: 0.0, -math.inf, xi),
                        (xi, x), tol=tol, u0=1.0)
    return traj.eval(x)


# ---------------------------------------------------------------------------
# route 2: contour quadrature of the Gtilde terms


# the vertical-contour abscissa Re z, strictly inside (1/2, 1)
L_TILDE = 0.75


@dataclass(frozen=True)
class GreensEval:
    """Evaluation configuration for the decomposition routes.

    T_max caps the truncated integration range in the imaginary direction;
    tail_target is the omitted tail each contour term may leave.
    """

    T_max: float = 200.0
    tail_target: float = 1e-8

    def __post_init__(self):
        if not 1.0 <= self.T_max < math.inf:  # the tail bound needs t >= 1
            raise DomainError("T_max must be at least 1 and finite")
        if not self.tail_target > 0.0:
            raise DomainError("tail_target must be positive")


def term_coefficient(n: int) -> float:
    """Signed prefactor (-1)^n 2^(2n) / 2^(n(n+1)/2) of the n-th term."""
    return (-1.0) ** n * 2.0 ** (2 * n) / 2.0 ** (n * (n + 1) / 2)


def _term_tail_estimate(n: int, a: float, L: float, T: float) -> float:
    """Bound on the omitted |t| > T part of the n-th contour integral."""
    amp = math.exp(a * L) / math.pi
    return amp * min(1.0 / (max(abs(a), 1e-30) * T ** (n + 1)),
                     1.0 / (n * T ** n))


def contour_term_quadrature(n: int, x: float, xi: float,
                            cfg: GreensEval = GreensEval()):
    """Numerical value of (1/2pi) int e^((x - 2^n xi)(L + it)) / prod dt.

    Integrates over t in [-T, T] with T chosen from the integrand decay
    (1/t^(n+1), oscillation e^(iat) with a = x - 2^n xi) but capped at
    cfg.T_max.  Returns (value, tail_estimate).
    """
    a = x - 2.0 ** n * xi
    L = L_TILDE
    T = 10.0
    while T < cfg.T_max and _term_tail_estimate(n, a, L, T) >= cfg.tail_target:
        T *= 1.5
    T = min(T, cfg.T_max)
    tail = _term_tail_estimate(n, a, L, T)

    # Panel widths: the integrand's poles sit at distance >= L - 1/2 from
    # the real axis, so panels near t = 0 must stay below that scale; they
    # may grow linearly with t afterwards, capped by the oscillation
    # wavelength 2pi/|a|.
    width_cap = 1.5 / max(abs(a), 0.1)
    w0 = min(0.8 * (L - 0.5), width_cap)
    edges = [0.0]
    while edges[-1] < T:
        t_cur = edges[-1]
        w = min(max(w0, 0.15 * t_cur), width_cap)
        edges.append(min(t_cur + w, T))
    tm, wm = gauss_panels(np.asarray(edges), *_gauss_legendre_8())
    poles = L - 2.0 ** (-np.arange(n + 1.0))  # L - 2^(-j), j = 0..n
    zden = np.ones_like(tm, dtype=complex)
    for p in poles:
        zden *= p + 1j * tm
    integrand = np.exp(a * (L + 1j * tm)) / zden
    # integrand(-t) = conj(integrand(t)): fold the negative half-line
    val = float(np.sum(wm * integrand.real))
    return val / math.pi, tail


def gtilde_quadrature(x: float, xi: float,
                      cfg: GreensEval = GreensEval()) -> float:
    """Gtilde(x, xi) as a truncated sum of contour-term quadratures.

    The sum stops after 16 terms (term magnitudes fall like
    2^(2n) / 2^(n(n+1)/2), so the cap is rarely reached).  Emits
    TruncationWarning when the estimated omitted tail of any term
    exceeds cfg.tail_target.
    """
    if not x > xi > 0.0:
        raise DomainError("need x > xi > 0")
    total = 0.0
    for n in range(1, 17):
        coef = term_coefficient(n)
        a = x - 2.0 ** n * xi
        # crude whole-term bound: |coef| e^(a L) * O(1/n)
        if abs(coef) * math.exp(min(a * L_TILDE, 500.0)) * 8.0 \
                < 1e-16 * (1.0 + abs(total)) and n > 1:
            break
        val, tail = contour_term_quadrature(n, x, xi, cfg)
        if tail > cfg.tail_target:
            warnings.warn(
                f"term n={n} at (x,xi)=({x:.3g},{xi:.3g}): estimated "
                f"quadrature tail {tail:.2e} exceeds target "
                f"{cfg.tail_target:.2e}; raise T_max",
                TruncationWarning, stacklevel=2)
        total += coef * val
    return total


# ---------------------------------------------------------------------------
# route 3: residue closed form of the same contour terms


@lru_cache(maxsize=64)
def _residue_weights(n: int) -> np.ndarray:
    """Partial-fraction weights w_i = 1 / prod_{k != i} (2^-i - 2^-k) of the
    n-th term from Q's table: c_n w_i = (-1)^(n-i) a_i a_(n-i) 2^(i(i-1)/2)."""
    a, i = q_coefficients(24), np.arange(n + 1)
    return (-1.0) ** (n - i) * a[i] * a[n - i] * 2.0 ** (i * (i - 1) // 2) \
        / term_coefficient(n)


def _residue_factors(x, xi):
    """e^(x 2^-j) and e^(-2^k xi), j, k = 0..24, along a new last axis."""
    p = 2.0 ** np.arange(25.0)
    return (np.exp(np.multiply.outer(x, 1.0 / p)),
            np.exp(np.multiply.outer(xi, -p)))


def _residue_term(n: int, a, ex, exi):
    """The n-th contour integral at a = x - 2^n xi from the factors of
    e^(a 2^-j) = e^(x 2^-j) e^(-2^(n-j) xi).  Closing the contour left (a > 0)
    collects the poles 2^-j, j >= 1; closing right (a < 0) only the pole at
    1.  Both branches agree at a = 0 because the weights sum to zero."""
    w = _residue_weights(n)
    left = np.einsum("...j,...j->...", ex[..., 1:n + 1] * w[1:],
                     exi[..., n - 1::-1])
    return np.where(a < 0.0, -w[0] * ex[..., 0] * exi[..., n], left)


def contour_term_residues(n: int, a) -> np.ndarray:
    """Exact value of the n-th contour integral at offset a = x - 2^n xi."""
    a = np.asarray(a, dtype=float)
    out = _residue_term(n, a, *_residue_factors(a, 0.0))
    return float(out) if out.ndim == 0 else out


def gtilde_exact(x, xi):
    """Gtilde by the residue closed form, at most 24 terms; vectorized over
    x and xi."""
    x_arr = np.asarray(x, dtype=float)
    xi_arr = np.asarray(xi, dtype=float)
    ex, exi = _residue_factors(x_arr, xi_arr)
    total = np.zeros(np.broadcast_shapes(x_arr.shape, xi_arr.shape))
    for n in range(1, 25):
        coef = term_coefficient(n)
        a = x_arr - 2.0 ** n * xi_arr
        if n > 2 and abs(coef) * math.exp(float(np.max(a, initial=-np.inf))) \
                < 1e-18 * (1.0 + max(np.max(total), -np.min(total))):
            break
        total += coef * _residue_term(n, a, ex, exi)
        terms = n
    import logging
    logging.getLogger(__name__).debug(
        "gtilde_exact: %d residue terms on %s x %s", terms, x_arr.shape,
        xi_arr.shape)
    return float(total) if total.ndim == 0 else total


def g_decomposition(x, xi):
    """G(x, xi) = e^x Q(xi) + Gtilde(x, xi) via the exact residue route."""
    x_arr = np.asarray(x, dtype=float)
    out = np.exp(x_arr) * q_eval(xi) + gtilde_exact(x_arr, xi)
    return float(out) if np.isscalar(x) else out


# ---------------------------------------------------------------------------
# bound audits


def bounds_audit() -> dict:
    """Fit the smallest constants in the decay and Lipschitz bounds.

    Fits C0 with |Q(xi)| <= C0 e^(-xi), the growth exponent of Gtilde in
    x - xi against the admissible rate 1 - beta = L_TILDE (the contour
    abscissa), and the Lipschitz constant of xi -> e^xi Q(xi)
    relative to e^(-xi).
    """
    xi_grid = np.linspace(0.0, 20.0, 201)
    xi_pairs = [(t, t + h) for t in np.linspace(0.2, 6.0, 30)
                for h in (1e-3, 0.1)]
    L = L_TILDE
    c0_q = float(np.max(np.abs(q_eval(xi_grid)) * np.exp(xi_grid)))

    # Lipschitz of e^xi Q(xi), measured against e^(-xi_lo)
    ratios = []
    for x1, x2 in xi_pairs:
        num = abs(exq_eval(x1) - exq_eval(x2))
        ratios.append(num / (abs(x1 - x2) * math.exp(-min(x1, x2))))
    c0_lip = float(max(ratios))

    # growth of Gtilde(x, xi) in x - xi at fixed xi = 1
    xi0 = 1.0
    xs = xi0 + np.linspace(0.05, 10.0, 120)
    g = gtilde_exact(xs, xi0)
    mask = np.abs(g) > 1e-12
    slope = float(np.polyfit(xs[mask] - xi0, np.log(np.abs(g[mask])), 1)[0])
    c0_g = float(np.max(np.abs(g) * np.exp(-(1.0 - (1.0 - L)) * (xs - xi0))))
    return {
        "c0_q": c0_q,
        "c0_q_lipschitz": c0_lip,
        "gtilde_rate_fit": slope,
        "gtilde_rate_allowed": L,
        "gtilde_prefactor": c0_g,
        "rate_ok": slope <= L + 0.01,
    }
