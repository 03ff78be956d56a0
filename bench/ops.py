"""Running benchmark operations against gelshoot, and checking them.

Each operation kind has a runner (the timed call into the library or the
command line) and an oracle.  Oracles use theorems and pinned acceptance
values only; they run outside the timed region and raise OracleError when a
result contradicts them.  canonical() renders a result with every float in
repr form and arrays by their bytes, so a digest over a pass shows
bitwise identity across commits.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np

from gelshoot import (asymptotics, cli, delaycore, fixedpoint, gelsim,
                      greens, shooting, stability)
from gelshoot.errors import BlowUpError
from gelshoot.profiles import make_params

import workloads

BENCH = Path(__file__).resolve().parent

GAMMA1_B1_LIMIT = (1.0 - workloads.LN2) / workloads.LN2
EPS_ETA_SLOPE = 0.2097          # pinned by acceptance criterion 08
BBAR_TOL_B = 1e-10              # bbar_of_gamma's default stopping tolerance
BBAR_F_TOL = 1e-9               # bbar_of_gamma's default F tolerance
EPS_F_TOL = 1e-9                # eps_of_eta's default F tolerance
CLI_TIMEOUT_S = 170.0


class OracleError(Exception):
    """A result contradicts its oracle."""


def _require(ok, message: str):
    if not ok:
        raise OracleError(message)


# ---------------------------------------------------------------------------
# command-line operations


@dataclasses.dataclass(frozen=True)
class CliResult:
    returncode: int
    stdout: bytes


class CliRunner:
    """Runs one gelshoot subcommand in a fresh process.

    With trace_dir set, the process is bench/cli_child.py, which runs the
    same command line with the layer tracer installed; the child's trace
    is collected in child_traces.
    """

    def __init__(self, root: Path, env: dict, trace_dir: Path | None = None):
        self.root = root
        self.env = env
        self.trace_dir = trace_dir
        self.child_traces: list = []

    def __call__(self, argv) -> CliResult:
        if self.trace_dir is None:
            cmd = [sys.executable, "-m", "gelshoot.cli", *argv]
        else:
            out = self.trace_dir / f"child-{len(self.child_traces)}.json"
            cmd = [sys.executable, str(BENCH / "cli_child.py"), str(out),
                   *argv]
        proc = subprocess.run(cmd, cwd=self.root, env=self.env,
                              capture_output=True, timeout=CLI_TIMEOUT_S)
        if self.trace_dir is not None:
            self.child_traces.append(json.loads(out.read_text()))
            out.unlink()
        return CliResult(proc.returncode, proc.stdout)


def cli_in_process(argv) -> CliResult:
    """The same command line run in this process, for the CLI oracle."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    return CliResult(code, buf.getvalue().encode())


# ---------------------------------------------------------------------------
# runners: the timed call of each operation kind


def _empirical(a):
    p = make_params(a["gamma"], a["b"])
    amp = a["amp"] * p.phi_inf
    return stability.stability_empirical(p, lambda z: amp * math.cos(z))


def _single_site(a):
    c = a["c"]
    chain = gelsim.make_chain(a["xi0"], a["gamma"], 0, lambda x: c)
    return gelsim.evolve_chain(chain, a["t_end"], tol=1e-12)


def _map_point(a):
    p = make_params(a["gamma"], a["b"])
    return shooting.classify(p), stability.winding_number(p)


RUNNERS = {
    "map_point": _map_point,
    "bracket": lambda a: shooting.bracket_bbar(a["gamma"], tol_b=a["tol_b"]),
    "eps_of_eta": lambda a: fixedpoint.eps_of_eta(a["eta"]),
    "bbar": lambda a: fixedpoint.bbar_of_gamma(a["gamma"]),
    "empirical": _empirical,
    "gamma1_limit": lambda a: asymptotics.gamma1_b1_limit(a["a1"]),
    "g_by_ode": lambda a: greens.g_by_ode(a["x"], a["xi"]),
    "single_site": _single_site,
    "gelation_scan": lambda a: gelsim.gelation_scan(
        a["gamma"], n_chains=a["n_chains"], K=a["K"], horizon=a["horizon"]),
}


def run_op(op, cli_runner: CliRunner | None = None):
    if op.kind == "cli":
        return cli_runner(op.args["argv"])
    return RUNNERS[op.kind](op.args)


# ---------------------------------------------------------------------------
# oracles


def _check_map_point(a, out, expected):
    c, w = out
    _require(c.kind in workloads.CLASS_KINDS, f"unknown class {c.kind!r}")
    p = make_params(a["gamma"], a["b"])
    rep = delaycore.monotonicity_and_bound_check(c.trajectory, p)
    _require(rep["monotone_ok"],
             f"H increases while positive at y={rep['first_monotone_violation']}")
    _require(rep["bound_ok"],
             f"H above 1/(1+(sigma-1)y) at y={rep['first_bound_violation']}")
    stable = a["b"] > workloads.b_star(a["gamma"])
    _require((w.winding == 0) == stable,
             f"winding {w.winding} but b {'>' if stable else '<='} b_star")


def _check_bracket(a, br, expected):
    g = a["gamma"]
    _require(0.0 < br.b_hi - br.b_lo <= a["tol_b"] * (1.0 + 1e-12),
             f"bracket width {br.b_hi - br.b_lo} outside (0, tol_b]")
    _require(br.b_hi <= workloads.b_star(g), "b_hi above b_star")
    k_lo = shooting.classify(make_params(g, br.b_lo)).kind
    k_hi = shooting.classify(make_params(g, br.b_hi)).kind
    _require(k_lo == "SignChange", f"b_lo classifies as {k_lo}")
    _require(k_hi != "SignChange", "b_hi classifies as SignChange")


def _check_eps_of_eta(a, out, expected):
    eps, state = out
    eta = a["eta"]
    f = fixedpoint.f_eval(state)
    _require(abs(f) <= EPS_F_TOL, f"|F| = {abs(f):.3e} above {EPS_F_TOL}")
    _require(state.eps == eps and state.eta == eta,
             "state does not carry (eps, eta)")
    if eta <= 0.01:
        _require(abs(eps / eta - EPS_ETA_SLOPE) < 0.01,
                 f"eps/eta = {eps / eta:.5f} not within 0.01 of 0.2097")


def _check_bbar(a, crit, expected):
    g = a["gamma"]
    f = fixedpoint.f_eval(crit.state)
    _require(abs(f) <= BBAR_F_TOL, f"|F| = {abs(f):.3e} above {BBAR_F_TOL}")
    b_eps = workloads.LN2 / (workloads.LN2 - math.log1p(crit.eps))
    _require(abs(crit.bbar - b_eps) <= 1e-12 * crit.bbar,
             f"2^(1/b) = 2/(1+eps) off by {crit.bbar - b_eps:.3e} in b")
    # eta comes from the previous iterate of the b loop, so the eta-b
    # relation holds to that loop's stopping tolerance
    b_eta = 2.0 / (math.log2(crit.eta) + g - 1.0)
    _require(abs(crit.bbar - b_eta) <= BBAR_TOL_B,
             f"eta = 2^(2/b+1-gamma) off by {crit.bbar - b_eta:.3e} in b")
    _require(float(np.min(crit.h)) > 0.0, "profile h not positive")
    _require(0.0 < crit.tail_rate_fit < 0.5,
             f"tail rate {crit.tail_rate_fit} outside (0, 0.5)")


def _check_empirical(a, rep, expected):
    stable = a["b"] > workloads.b_star(a["gamma"])
    _require(rep.decayed == stable,
             f"decayed={rep.decayed} but b {'>' if stable else '<='} b_star")


def _check_gamma1(a, out, expected):
    err = abs(out["limit"] - GAMMA1_B1_LIMIT)
    _require(err < 1e-5, f"b=1 limit off (1-ln2)/ln2 by {err:.2e}")


def _check_g_by_ode(a, g, expected):
    # the two routes agree relative to the unit source strength
    ref = greens.g_decomposition(a["x"], a["xi"])
    err = abs(g - ref) / max(abs(g), 1.0)
    _require(err <= 1e-4, f"ODE and residue routes differ by {err:.2e}")


def _check_single_site(a, sol, expected):
    exact = a["c"] / (1.0 + a["xi0"] ** (a["gamma"] + 1.0) * a["c"] * sol.t)
    err = float(np.max(np.abs(sol.f[0] - exact) / exact))
    _require(err < 1e-10, f"single site off the closed form by {err:.2e}")


def _check_gelation_scan(a, diag, expected):
    """Chains are exactly decoupled: a chain evolved alone gives the same
    blow-up estimates, bitwise, as inside the scan."""
    _require(len(diag.t_hat) == a["n_chains"], "wrong number of chains")
    chain = gelsim.make_chain(float(diag.seeds[-1]), a["gamma"], a["K"],
                              "exp")
    try:
        sol = gelsim.evolve_chain(chain, a["horizon"])
    except BlowUpError as err:
        sol = err.solution
    alone = [gelsim.riccati_blowup_estimate(sol.t_steps, sol.f_steps[k])
             for k in range(sol.f_steps.shape[0])]
    _require(alone == diag.t_hat[-1], "scan differs from a lone chain")


def _check_cli(a, res, expected):
    want = expected[tuple(a["argv"])]
    _require(res.returncode == 0, f"exit code {res.returncode}")
    _require(res.returncode == want.returncode and res.stdout == want.stdout,
             "output differs from the in-process call")


ORACLES = {
    "map_point": _check_map_point, "bracket": _check_bracket,
    "eps_of_eta": _check_eps_of_eta, "bbar": _check_bbar,
    "empirical": _check_empirical,
    "gamma1_limit": _check_gamma1, "g_by_ode": _check_g_by_ode,
    "single_site": _check_single_site,
    "gelation_scan": _check_gelation_scan, "cli": _check_cli,
}


def check(op, result, expected_cli=None):
    """Raise OracleError when the result of op contradicts its oracle.

    expected_cli maps a command line (tuple) to its in-process result.
    """
    ORACLES[op.kind](op.args, result, expected_cli)


# ---------------------------------------------------------------------------
# canonical form for the output digest


def canonical(obj) -> str:
    """Deterministic text of a result: scalars in repr, arrays as a hash of
    their bytes (bitwise, like repr of every element, but fast)."""
    if isinstance(obj, (bool, int, float, complex, str, bytes, type(None))):
        return repr(obj)
    if isinstance(obj, np.generic):
        return canonical(obj.item())
    if isinstance(obj, np.ndarray):
        data = np.ascontiguousarray(obj).tobytes()
        return f"{obj.dtype.str}{obj.shape}:" \
            f"{hashlib.sha256(data).hexdigest()}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(canonical(v) for v in obj) + "]"
    if isinstance(obj, dict):
        return "{" + ",".join(f"{k!r}:{canonical(v)}"
                              for k, v in sorted(obj.items())) + "}"
    if isinstance(obj, delaycore.DenseTrajectory):
        return canonical({"nodes": obj.nodes(), "n_rejected": obj.n_rejected,
                          "event_t": obj.event_t})
    if dataclasses.is_dataclass(obj):
        return type(obj).__name__ + canonical(
            {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)
             if not callable(getattr(obj, f.name))})
    return type(obj).__name__
