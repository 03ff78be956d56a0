"""Seeded inputs for the gelshoot benchmark workloads.

A workload turns a seed into a fixed list of operations, one pass.  The
program sees only these generated inputs.  Parameters are drawn by
stratified sampling (one uniform draw in each of n equal slices of a
range) so that the total work of a pass hardly depends on the seed while
every draw still does.

This module imports nothing from gelshoot: the inputs, and the theorems the
oracles rely on (the explicit stability boundary b_star), are written down
here independently of the code under test.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

LN2 = math.log(2.0)

WORKLOADS = ("shoot-map", "critical-curve", "evolve", "cold-cli")

WHY = {
    "shoot-map": (
        "(gamma, b) classification map: delaycore's proportional-delay path "
        "and the shooting post-processing do nearly all the work; the "
        "large-b share exercises the vanishing-lag step cap"),
    "critical-curve": (
        "eps(eta) and bbar(gamma) on the cached Green kernel: Picard sweeps "
        "and the kernel build do all the work and delaycore is never called"),
    "evolve": (
        "constant-shift and jump-history delay runs plus dyadic-chain "
        "kinetics: delaycore under other delay shapes and step laws, and "
        "the only workload that runs gelsim and asymptotics"),
    "cold-cli": (
        "sequential cold processes of the README subcommands: import and "
        "per-process set-up make up most of every operation"),
}

# evolve samples G(x, xi) where both routes are trusted: x <= 40 is the
# fixed-point kernel's domain, xi >= 0.1 and |e^x Q(xi)| <= 1e10 keep the
# direct integration below the integrator's value cap (1e12).  Smaller xi
# at large x is where the residue route loses accuracy (ROADMAP item 4,
# which owns that oracle).
G_X_MAX = 40.0
G_XI_RANGE = (0.1, 2.0)
G_ENVELOPE = 1e10

CLASS_KINDS = ("SignChange", "ConvergesToConstant", "Oscillating",
               "Undetermined")

CLI_SUBCOMMANDS = ("params", "b-star", "classify", "winding", "laplace",
                   "tails", "greens-q", "fixedpoint", "bbar")


@dataclass(frozen=True)
class Op:
    """One operation of a pass: a kind and its keyword arguments."""

    kind: str
    args: dict = field(hash=False)


def b_star(gamma: float) -> float:
    """Explicit stability boundary of the constant profile (closed form)."""
    st = 0.5 + 2.0 ** (-gamma)
    return (2.0 ** gamma * LN2 * math.sqrt(1.0 - st * st)
            / ((2.0 ** (gamma - 1.0) - 1.0) * math.acos(st)))


def q_series(xi: float, terms: int = 30) -> float:
    """Q(xi) = sum (-1)^n 4^n / prod_{j<=n}(2^j - 1) e^(-2^n xi)."""
    total, coef = 0.0, 1.0
    for n in range(terms + 1):
        if n:
            coef *= 4.0 / (2.0 ** n - 1.0)
        total += (-1.0) ** n * coef * math.exp(-(2.0 ** n) * xi)
    return total


def strata(rng: random.Random, lo: float, hi: float, n: int) -> list:
    """One draw in each of n equal slices of (lo, hi]."""
    w = (hi - lo) / n
    return [lo + (i + 1.0 - rng.random()) * w for i in range(n)]


def uniform(rng: random.Random, lo: float, hi: float) -> float:
    """One draw in (lo, hi]."""
    return strata(rng, lo, hi, 1)[0]


def _shuffled(rng, values):
    values = list(values)
    rng.shuffle(values)
    return values


def lhs(rng: random.Random, n: int, *ranges) -> list:
    """n points whose coordinates are each stratified over their range and
    paired at random (a Latin hypercube sample)."""
    return list(zip(*(_shuffled(rng, strata(rng, lo, hi, n))
                      for lo, hi in ranges)))


def _shoot_map(rng):
    ops = []
    for gamma in strata(rng, 1.2, 5.0, 6):
        b0 = 2.0 / (gamma - 1.0)
        bs = b_star(gamma)
        bs_grid = strata(rng, b0 * (1.0 + 1e-3), 4.0 * bs, 8) \
            + strata(rng, 50.0, 300.0, 4)
        ops += [Op("map_point", {"gamma": gamma, "b": b}) for b in bs_grid]
        ops.append(Op("bracket", {"gamma": gamma, "tol_b": 1e-3}))
    return ops


def _critical_curve(rng):
    ops = [Op("eps_of_eta", {"eta": eta})
           for eta in strata(rng, 0.0, 0.05, 16)]
    ops += [Op("bbar", {"gamma": g}) for g in strata(rng, 7.5, 30.0, 24)]
    return ops


def _evolve(rng):
    ops = []
    # both sides of the boundary, away from it, so the decay horizon (200)
    # resolves the answer; unstable runs stop early, stable ones do not
    unstable = lhs(rng, 12, (1.2, 5.0), (0.5, 0.85), (0.01, 0.08))
    stable = lhs(rng, 12, (1.2, 5.0), (1.2, 3.0), (0.01, 0.08))
    for pair in zip(unstable, stable):
        for gamma, ratio, amp in pair:
            ops.append(Op("empirical", {"gamma": gamma,
                                        "b": ratio * b_star(gamma),
                                        "amp": amp}))
    for a1 in strata(rng, -3.0, -0.3, 8):
        ops.append(Op("gamma1_limit", {"a1": a1}))
    lo, hi = (math.log(v) for v in G_XI_RANGE)
    for log_xi, frac in lhs(rng, 24, (lo, hi), (0.0, 1.0)):
        xi = math.exp(log_xi)
        x_cap = min(G_X_MAX, math.log(G_ENVELOPE / abs(q_series(xi))))
        ops.append(Op("g_by_ode", {"x": xi + 0.5 + frac * (x_cap - xi - 0.5),
                                   "xi": xi}))
    # chain seeds live in [1, 2)
    for xi0, gamma, c, t_end in lhs(rng, 16, (1.0, 1.999), (1.5, 5.0),
                                    (0.1, 2.0), (1.0, 5.0)):
        ops.append(Op("single_site", {"xi0": xi0, "gamma": gamma, "c": c,
                                      "t_end": t_end}))
    # DOP853 on a chain is explicit: the cost grows like the stiffest rate,
    # (xi0 2^K)^(gamma+1), and reaches seconds per chain past gamma ~ 3
    for gamma in strata(rng, 1.5, 2.5, 8):
        ops.append(Op("gelation_scan", {"gamma": gamma, "n_chains": 4,
                                        "K": 8, "horizon": 5.0}))
    return ops


def _num(x: float) -> str:
    return f"{x:.6g}"


def _cold_cli(rng):
    g = uniform(rng, 1.5, 5.0)
    bs = b_star(g)
    b_conv = uniform(rng, 1.2 * bs, 3.0 * bs)
    argvs = {
        "params": ["--gamma", _num(g), "--b",
                   _num(uniform(rng, 1.0, 10.0))],
        "b-star": ["--gamma", _num(uniform(rng, 1.5, 30.0))],
        "classify": ["--gamma", _num(g), "--b", _num(b_conv)],
        "winding": ["--gamma", _num(g), "--b",
                    _num(uniform(rng, 0.5 * bs, 2.0 * bs))],
        "laplace": ["--eta", _num(uniform(rng, 0.6, 2.0))],
        "tails": ["--eps", _num(uniform(rng, 0.05, 0.2)),
                  "--eta", _num(uniform(rng, 0.5, 2.0))],
        "greens-q": ["--grid",
                     f"0:{_num(uniform(rng, 5.0, 20.0))}:201"],
        "fixedpoint": ["--eps", _num(uniform(rng, 0.005, 0.02)),
                       "--eta", _num(uniform(rng, 0.005, 0.02))],
        # bbar's cost falls 8x from gamma 12 to 20 and is flat beyond, so
        # a seed moves this process (the pass's slowest) only a little
        "bbar": ["--gamma", _num(uniform(rng, 20.0, 30.0))],
    }
    return [Op("cli", {"argv": [name] + argvs[name]})
            for name in CLI_SUBCOMMANDS]


_GENERATORS = {"shoot-map": _shoot_map, "critical-curve": _critical_curve,
               "evolve": _evolve, "cold-cli": _cold_cli}


def generate(workload: str, seed: int) -> list:
    """The pass of a workload for a seed; equal seeds give equal lists."""
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    return _GENERATORS[workload](random.Random(f"{workload}/{seed}"))
