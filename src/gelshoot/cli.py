"""Command-line interface: every operation as a deterministic subcommand.

Outputs are CSV (17 significant digits) or JSON; every run emits a
provenance header echoing the resolved configuration.  Exit codes: 0 on
success, 1 on domain errors (bad flags and values included), 2 on
numerical failures (with an error JSON on stderr).  A config file of
key=value lines seeds the options and flags override it; GELSHOOT_LOG in
{quiet, info, debug} sets verbosity.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from dataclasses import asdict, astuple

from . import __version__, profiles
from .errors import BlowUpError, DomainError, GelshootError
from .profiles import make_params

log = logging.getLogger("gelshoot")


def fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def _write(path, text: str):
    """Write text to the file at path, or to stdout when path is None."""
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as err:
        raise DomainError(f"cannot write output file {path!r}: {err}") \
            from err


def _tagged(out, tag: str, ext: str):
    """out with _tag after its stem and its own extension, or ext when it
    has none; no path (stdout) stays None."""
    if out is None:
        return None
    stem, own = os.path.splitext(out)
    return f"{stem}_{tag}{own or ext}"


def write_csv(path, header, rows, provenance):
    lines = [f"# gelshoot {__version__}", f"# config: {provenance}"]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(fmt(v) for v in row))
    _write(path, "\n".join(lines) + "\n")
    if path is not None:
        log.info("wrote %d rows to %s", len(lines) - 3, path)


def emit_json(path, payload, provenance):
    """Write the result as strict JSON; a NaN or infinity in it is a
    numerical failure, and nothing is written."""
    doc = {"provenance": {"tool": f"gelshoot {__version__}",
                          "config": provenance}, "result": payload}
    try:
        text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as err:
        raise FloatingPointError(f"result is not finite: {err}") from err
    _write(path, text + "\n")


# points of a lo:hi:n grid; a 10^9-point list once ended in MemoryError
MAX_GRID_POINTS = 10 ** 5


def parse_grid(spec: str) -> list:
    """lo:hi:n with a finite hi - lo and 1 to MAX_GRID_POINTS linearly
    spaced points (profiles.lin_grid)."""
    try:
        lo, hi, n = spec.split(":")
        lo, hi, n = float(lo), float(hi), int(n)
    except ValueError as err:
        raise DomainError(f"bad grid spec {spec!r}; expected lo:hi:n") \
            from err
    if not math.isfinite(hi - lo):   # an infinite step puts NaN in the grid
        raise DomainError(f"grid {spec!r} needs finite ends and width")
    if n < 1:
        raise DomainError(f"grid {spec!r} has no points; n must be at least 1")
    if n > MAX_GRID_POINTS:
        raise DomainError(f"grid {spec!r} has more than {MAX_GRID_POINTS} "
                          "points")
    return profiles.lin_grid(lo, hi, n)


def parse_floats(spec: str) -> list:
    """v1,v2,... as floats."""
    try:
        return [float(s) for s in spec.split(",")]
    except ValueError as err:
        raise DomainError(f"bad number list {spec!r}; expected v1,v2,...") \
            from err


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            text = fh.read()
    except (OSError, UnicodeError) as err:
        raise DomainError(f"cannot read config file {path!r}: {err}") \
            from err
    out = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DomainError(f"bad config line {raw!r}")
        k, v = line.split("=", 1)
        out[k.strip().replace("-", "_")] = v.strip()
    return out


# ---------------------------------------------------------------------------
# subcommand handlers; each writes its own output and returns None.
# A handler imports the library modules it calls, so a process loads only
# what its subcommand needs.  numpy is imported at module level by the
# array modules (fixedpoint, gelsim, greens) and elsewhere only inside
# delaycore's array helpers, so every subcommand but greens-q,
# greens-verify, fixedpoint, eps-of-eta, bbar, simulate and gelation-scan
# runs on Python floats and loads none; numpy would nearly double their
# cold time.  No subcommand loads scipy: simulate and gelation-scan step
# their chains as numpy stacks in the package's own DOP853.


def cmd_params(a):
    emit_json(a.out, asdict(make_params(a.gamma, a.b)), a.echo)


def cmd_b_star(a):
    from . import stability
    if a.digits < 0:
        raise DomainError("--digits must not be negative")
    v = stability.b_star(a.gamma)
    if a.out is not None:
        emit_json(a.out, {"gamma": a.gamma, "b_star": v}, a.echo)
    print(f"{v:.{a.digits}g}")


def cmd_profile(a):
    from . import shooting
    p = make_params(a.gamma, a.b)
    traj = shooting.h_profile(p, a.y_max, tol=a.tol)
    write_csv(a.out, ["y", "value", "derivative"],
              zip(traj.ts, traj.us, traj.dus), a.echo)


def cmd_classify(a):
    from . import shooting
    p = make_params(a.gamma, a.b)
    c = shooting.classify(p, y_max=a.y_max, tol=a.tol)
    payload = {"gamma": a.gamma, "b": a.b, "class": c.kind}
    payload.update({k: v for k, v in c.evidence().items() if k != "kind"})
    if c.kind == "ConvergesToConstant":
        payload["phi_inf"] = p.phi_inf
    emit_json(a.out, payload, a.echo)


def cmd_scan_b(a):
    from . import shooting
    rows = shooting.scan_b(a.gamma, parse_grid(a.grid), y_max=a.y_max,
                           tol=a.tol)
    write_csv(a.out, ["gamma", "b", "class", "y_event", "extra"],
              ((r["gamma"], r["b"], r["class"], r["y_event"],
                json.dumps(r["extra"]).replace(",", ";")) for r in rows),
              a.echo)


def cmd_bracket_bbar(a):
    from . import shooting
    br = shooting.bracket_bbar(a.gamma, tol_b=a.tol_b, y_max=a.y_max,
                               tol=a.tol)
    emit_json(a.out, asdict(br), a.echo)


def cmd_winding(a):
    from . import stability
    [row] = stability.stability_scan(a.gamma, [a.b])
    emit_json(a.out, row, a.echo)


def cmd_stability_scan(a):
    from . import stability
    cols = ["gamma", "b", "winding", "d_tilde", "d_star"]
    rows = stability.stability_scan(a.gamma, parse_grid(a.grid))
    write_csv(a.out, cols, ([r[c] for c in cols] for r in rows), a.echo)


def cmd_greens_q(a):
    from . import greens
    rows = [(x, greens.q_eval(x), greens.q_tail_bound(x))
            for x in parse_grid(a.grid or "0:20:201")]
    write_csv(a.out, ["xi", "Q", "tail_bound"], rows, a.echo)


def cmd_greens_verify(a):
    import warnings as _warnings

    from . import greens
    from .errors import TruncationWarning

    cfg = greens.GreensEval(T_max=a.t_max)
    pts = [(2.0, 1.0), (3.0, 1.0), (5.0, 2.0)]
    rows = []
    for (x, xi) in pts:
        ode = greens.g_by_ode(x, xi, tol=a.tol)
        with _warnings.catch_warnings(record=True) as caught:
            _warnings.simplefilter("always", TruncationWarning)
            dec = math.exp(x) * greens.q_eval(xi) \
                + greens.gtilde_quadrature(x, xi, cfg)
        exact = greens.g_decomposition(x, xi)
        rows.append({"x": x, "xi": xi, "g_ode": ode,
                     "g_quadrature_route": dec, "g_residue_route": exact,
                     "rel_ode_vs_quad": (dec - ode) / ode,
                     "truncation_notes": [str(w.message) for w in caught]})
    payload = {"points": rows, "c0_series": greens.c0_moment(),
               "c0_quadrature": greens.c0_moment_quad(),
               "Q_at_1": greens.q_eval(1.0)}
    emit_json(a.out, payload, a.echo)


def cmd_fixedpoint(a):
    from . import fixedpoint
    st = fixedpoint.picard_solve(a.eps, a.eta, tol=a.tol)
    emit_json(a.out, st.to_dict(), a.echo)


def cmd_eps_of_eta(a):
    from . import fixedpoint
    eps, st = fixedpoint.eps_of_eta(a.eta, tol=a.tol)
    emit_json(a.out, {"eta": a.eta, "eps": eps, "F": st.F_value,
                      "iterations": st.iterations,
                      "slope": eps / a.eta if a.eta else 0.0}, a.echo)


def cmd_bbar(a):
    from . import fixedpoint
    crit = fixedpoint.bbar_of_gamma(a.gamma)
    payload = {"gamma": a.gamma, "bbar": crit.bbar, "eps": crit.eps,
               "eta": crit.eta, "tail_rate": crit.tail_rate_fit,
               "min_h": float(crit.h.min())}
    if a.out and a.out.endswith(".csv"):
        write_csv(a.out, ["x", "h", "W"],
                  zip(crit.state.x, crit.h, crit.state.W), a.echo)
        emit_json(None, payload, a.echo)
    else:
        emit_json(a.out, payload, a.echo)


def cmd_gamma1(a):
    from . import asymptotics
    b = profiles.LN2 if a.b is None else a.b
    if abs(b - 1.0) < 1e-12:
        out = asymptotics.gamma1_b1_limit(a.a1, x_max=a.y_max, tol=a.tol)
        emit_json(a.out, {"b": 1.0, "a1": a.a1, **out}, a.echo)
        return
    prof = asymptotics.gamma1_series(b, a.a1, 40)
    traj = asymptotics.gamma1_trajectory(prof, a.y_max, tol=a.tol)
    write_csv(a.out, ["x", "Phi", "dPhi_dlnx"],
              zip(map(math.exp, traj.ts), traj.us, traj.dus), a.echo)


def cmd_psi_asym(a):
    from . import asymptotics
    rows = asymptotics.psi_asymptotics_check(a.eta, parse_floats(a.eps_list))
    write_csv(a.out, ["eps", "logPsi", "logPred", "r"],
              ((r["eps"], r["log_psi"], r["log_pred"], r["r"])
               for r in rows), a.echo)


def cmd_laplace(a):
    from . import asymptotics
    lq = asymptotics.laplace_quantities(a.eta)
    write_csv(a.out, ["eta", "t_star", "W", "D", "U"], [astuple(lq)], a.echo)


def cmd_tails(a):
    from . import asymptotics
    emit_json(a.out, asdict(asymptotics.tail_exponents(a.eps, a.eta)),
              a.echo)


def cmd_simulate(a):
    from . import gelsim
    chain = gelsim.make_chain(a.xi0, a.gamma, a.sites, a.init)
    try:
        sol = gelsim.evolve_chain(chain, a.t_end, tol=a.tol)
    except BlowUpError as err:
        sol = err.solution
    rows = [(t, xi, sol.f[k, j]) for j, t in enumerate(sol.t)
            for k, xi in enumerate(chain.sites)]
    write_csv(a.out, ["t", "xi", "f"], rows, a.echo)


def cmd_gelation_scan(a):
    from . import gelsim
    diag = gelsim.gelation_scan(a.gamma, init=a.init, n_chains=a.chains,
                                K=a.sites, horizon=a.t_end, tol=a.tol)
    emit_json(a.out, {
        "gamma": diag.gamma,
        "seeds": diag.seeds.tolist(),
        "t_hat": diag.t_hat,
        "horizon": diag.horizon,
    }, a.echo)


def cmd_fig2(a):
    from . import stability
    for b in parse_floats(a.b_list):
        p = make_params(a.gamma, b)
        z = stability.curve_samples(p)
        write_csv(_tagged(a.out, f"b{b:g}", ""), ["t_real", "t_imag"],
                  ((v.real, v.imag) for v in z), a.echo)


def cmd_fig3(a):
    from . import shooting
    p = make_params(a.gamma, a.b)
    traj = shooting.h_profile(p, a.y_max, tol=a.tol)
    rows = [(y, u) for y, u in zip(traj.ts, traj.us) if y > 0.0]
    write_csv(_tagged(a.out, "H", ".csv"), ["y", "H"], rows, a.echo)
    write_csv(_tagged(a.out, "phi", ".csv"), ["z", "phi"],
              ((math.log(y), y * u) for y, u in rows), a.echo)


# ---------------------------------------------------------------------------
# argument wiring


class _Parser(argparse.ArgumentParser):
    """A usage error is a domain error (exit 1, error JSON on stderr)."""

    def error(self, message):
        raise DomainError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(
        prog="gelshoot",
        description="self-similar gelling profiles of the diagonal "
                    "coagulation kernel")
    top.add_argument("--version", action="version",
                     version=f"gelshoot {__version__}")
    sub = top.add_subparsers(dest="command", required=True)

    def add(name, handler, **flags):
        """A subcommand and the flags its handler reads.  A flag's type is
        that of its default; a flag given a type instead defaults to None."""
        p = sub.add_parser(name)
        p.set_defaults(handler=handler)
        p.add_argument("--config", default=None,
                       help="key=value file; flags override")
        for dest, v in flags.items():
            kind, default = (v, None) if isinstance(v, type) else (type(v), v)
            p.add_argument("--" + dest.replace("_", "-"), dest=dest,
                           type=kind, default=default)
        p.add_argument("--out", default=None)

    add("params", cmd_params, gamma=2.0, b=2.0)
    add("profile", cmd_profile, gamma=2.0, b=3.0, tol=1e-9, y_max=200.0)
    add("classify", cmd_classify, gamma=2.0, b=3.0, tol=1e-9, y_max=500.0)
    add("scan-b", cmd_scan_b, gamma=2.0, tol=1e-9, y_max=500.0,
        grid="2.05:10:8")
    add("bracket-bbar", cmd_bracket_bbar, gamma=2.0, tol=1e-9, y_max=500.0,
        tol_b=1e-3)
    add("b-star", cmd_b_star, gamma=2.0, digits=5)
    add("winding", cmd_winding, gamma=2.0, b=3.0)
    add("stability-scan", cmd_stability_scan, gamma=2.0, grid="1:6:11")
    add("greens-q", cmd_greens_q, grid=str)
    add("greens-verify", cmd_greens_verify, tol=1e-10, t_max=1e6)
    add("fixedpoint", cmd_fixedpoint, tol=1e-12, eps=0.01, eta=0.01)
    add("eps-of-eta", cmd_eps_of_eta, tol=1e-9, eta=0.01)
    add("bbar", cmd_bbar, gamma=13.0)
    add("gamma1", cmd_gamma1, b=float, tol=1e-10, y_max=1e5, a1=-1.0)
    add("psi-asym", cmd_psi_asym, eta=1.0, eps_list="0.1,0.05,0.02")
    add("laplace", cmd_laplace, eta=1.0)
    add("tails", cmd_tails, eps=0.1, eta=1.0)
    add("simulate", cmd_simulate, gamma=2.0, tol=1e-10, xi0=1.0, sites=10,
        init="exp", t_end=5.0)
    add("gelation-scan", cmd_gelation_scan, gamma=2.0, tol=1e-10, sites=10,
        init="exp", t_end=5.0, chains=64)
    add("fig2", cmd_fig2, gamma=2.0, b_list="3.0,2.3,0.25")
    add("fig3", cmd_fig3, gamma=2.0, b=2.3, tol=1e-9, y_max=200.0)
    return top


def parse_args(argv: list) -> argparse.Namespace:
    """Parse a command line, seeding it from its --config file if any.

    The file's settings are parsed as flags placed before the command
    line's own, so flags win and every value goes through its flag's type.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.config is None:
        return args
    settings = load_config(args.config)
    for k in settings:
        if k in ("command", "config", "handler") or not hasattr(args, k):
            raise DomainError(f"unknown config key {k!r} for {args.command}")
    at = argv.index(args.command) + 1
    tokens = [f"--{k.replace('_', '-')}={v}" for k, v in settings.items()]
    try:
        return parser.parse_args(argv[:at] + tokens + argv[at:])
    except DomainError as err:
        raise DomainError(f"config file {args.config!r}: {err}") from err


def main(argv=None) -> int:
    level = os.environ.get("GELSHOOT_LOG", "quiet").lower()
    logging.basicConfig(
        level={"quiet": logging.WARNING, "info": logging.INFO,
               "debug": logging.DEBUG}.get(level, logging.WARNING),
        format="%(levelname)s %(name)s: %(message)s")
    try:
        args = parse_args(sys.argv[1:] if argv is None else list(argv))
        if args.out == "":
            raise DomainError("--out names no file; omit it for stdout")
        public = {k: v for k, v in sorted(vars(args).items())
                  if k not in ("command", "echo", "handler") and v is not None}
        args.echo = " ".join(f"{k}={v}" for k, v in public.items())
        log.debug("resolved config: %s", args.echo)
        args.handler(args)
        log.info("%s finished", args.command)
        return 0
    except DomainError as err:
        json.dump({"error": "domain", "message": str(err)}, sys.stderr)
        sys.stderr.write("\n")
        return 1
    except (GelshootError, OverflowError, FloatingPointError) as err:
        json.dump({"error": "numerical", "type": type(err).__name__,
                   "message": str(err)}, sys.stderr)
        sys.stderr.write("\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
