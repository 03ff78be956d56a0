"""Command-line interface: every operation as a deterministic subcommand.

Outputs are CSV (17 significant digits) or JSON; every run emits a
provenance header echoing the resolved configuration.  Exit codes: 0 on
success, 1 on domain errors, 2 on numerical failures (with an error JSON
on stderr).  A config file of key=value lines seeds the options and flags
override it; GELSHOOT_LOG in {quiet, info, debug} sets verbosity.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys

import numpy as np

from . import __version__, profiles
from .errors import DomainError, GelshootError
from .profiles import make_params

log = logging.getLogger("gelshoot")

SUBCOMMANDS = ("params", "profile", "classify", "scan-b", "bracket-bbar",
               "b-star", "winding", "stability-scan", "greens-q",
               "greens-verify", "fixedpoint", "eps-of-eta", "bbar",
               "gamma1", "psi-asym", "laplace", "tails", "simulate",
               "fig2", "fig3")


def fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def write_csv(path, header, rows, provenance):
    lines = [f"# gelshoot {__version__}", f"# config: {provenance}"]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(fmt(v) for v in row))
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)
        log.info("wrote %d rows to %s", len(lines) - 3, path)


def emit_json(path, payload, provenance):
    doc = {"provenance": {"tool": f"gelshoot {__version__}",
                          "config": provenance}, "result": payload}
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def parse_grid(spec: str) -> np.ndarray:
    """lo:hi:n with linear spacing."""
    try:
        lo, hi, n = spec.split(":")
        return np.linspace(float(lo), float(hi), int(n))
    except ValueError as err:
        raise DomainError(f"bad grid spec {spec!r}; expected lo:hi:n") \
            from err


def load_config(path: str) -> dict:
    out = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise DomainError(f"bad config line {raw!r}")
            k, v = line.split("=", 1)
            out[k.strip().replace("-", "_")] = v.strip()
    return out


# ---------------------------------------------------------------------------
# subcommand handlers; each returns (payload kind, data) and may write files.
# A handler imports the library modules it calls, so a process loads only
# what its subcommand needs: importing scipy takes far longer than the work
# of the cheap subcommands.


def cmd_params(a):
    p = make_params(a.gamma, a.b)
    emit_json(a.out, json.loads(p.to_json()), a.echo)


def cmd_b_star(a):
    from . import stability
    v = stability.b_star(a.gamma)
    if a.out is not None:
        emit_json(a.out, {"gamma": a.gamma, "b_star": v}, a.echo)
    print(f"{v:.{a.digits}g}")


def cmd_profile(a):
    from . import shooting
    p = make_params(a.gamma, a.b)
    traj = shooting.h_profile(p, a.y_max, tol=a.tol)
    ts, us, dus = traj.nodes()
    write_csv(a.out, ["y", "value", "derivative"],
              zip(ts, us, dus), a.echo)


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
    grid = parse_grid(a.grid)
    rows = shooting.scan_b(a.gamma, grid, y_max=a.y_max, tol=a.tol,
                           jobs=a.jobs)
    write_csv(a.out, ["gamma", "b", "class", "y_event", "extra"],
              ((r["gamma"], r["b"], r["class"], r["y_event"],
                json.dumps(r["extra"]).replace(",", ";")) for r in rows),
              a.echo)


def cmd_bracket_bbar(a):
    from . import shooting
    br = shooting.bracket_bbar(a.gamma, tol_b=a.tol_b, y_max=a.y_max,
                               tol=a.tol)
    emit_json(a.out, {"gamma": br.gamma, "b_lo": br.b_lo, "b_hi": br.b_hi,
                      "width": br.width, "class_hi": br.class_hi}, a.echo)


def cmd_winding(a):
    from . import stability
    p = make_params(a.gamma, a.b)
    w = stability.winding_number(p)
    cp = stability.CharProblem.from_params(p)
    emit_json(a.out, {"gamma": a.gamma, "b": a.b, "winding": w.winding,
                      "root_count": w.root_count, "d_tilde": cp.d_tilde,
                      "d_star": cp.d_star}, a.echo)


def cmd_stability_scan(a):
    from . import stability
    grid = parse_grid(a.grid)
    rows = stability.stability_scan(a.gamma, grid, jobs=a.jobs)
    write_csv(a.out, ["gamma", "b", "winding", "d_tilde", "d_star"],
              ((r["gamma"], r["b"], r["winding"], r["d_tilde"],
                r["d_star"]) for r in rows), a.echo)


def cmd_greens_q(a):
    from . import greens
    grid = parse_grid(a.grid) if a.grid else np.linspace(0.0, 20.0, 201)
    rows = [(x, greens.q_eval(float(x)), greens.q_tail_bound(float(x)))
            for x in grid]
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
               "min_h": float(np.min(crit.h))}
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
        emit_json(a.out, {"b": 1.0, "a1": a.a1, "limit": out["limit"],
                          "tail_exponent_fit": out["tail_exponent_fit"]},
                  a.echo)
        return
    prof = asymptotics.gamma1_series(b, a.a1, 40)
    traj = asymptotics.gamma1_trajectory(prof, a.y_max, tol=a.tol)
    ts, us, dus = traj.nodes()
    write_csv(a.out, ["x", "Phi", "dPhi_dlnx"],
              zip(np.exp(ts), us, dus), a.echo)


def cmd_psi_asym(a):
    from . import asymptotics
    eps_list = [float(s) for s in a.eps_list.split(",")]
    rows = asymptotics.psi_asymptotics_check(a.eta, eps_list)
    write_csv(a.out, ["eps", "logPsi", "logPred", "r"],
              ((r["eps"], r["log_psi"], r["log_pred"], r["r"])
               for r in rows), a.echo)


def cmd_laplace(a):
    from . import asymptotics
    lq = asymptotics.laplace_quantities(a.eta)
    write_csv(a.out, ["eta", "t_star", "W", "D", "U"],
              [(lq.eta, lq.t_star, lq.W, lq.D, lq.U)], a.echo)


def cmd_tails(a):
    from . import asymptotics
    te = asymptotics.tail_exponents(a.eps, a.eta)
    emit_json(a.out, {"eps": te.eps, "eta_bar": te.eta_bar,
                      "beta": te.beta, "alpha": te.alpha,
                      "K1_over_c1": te.K1_over_c1,
                      "sigma_rate": te.sigma_rate,
                      "K0_over_c0": te.K0_over_c0}, a.echo)


def cmd_simulate(a):
    from . import gelsim
    if a.scan:
        diag = gelsim.gelation_scan(a.gamma, init=a.init, n_chains=a.scan,
                                    K=a.sites, horizon=a.t_end, tol=a.tol)
        emit_json(a.out, {
            "gamma": diag.gamma,
            "seeds": diag.seeds.tolist(),
            "t_hat": diag.t_hat,
            "collapse_metric": diag.collapse_metric,
            "horizon": diag.horizon,
        }, a.echo)
        return
    chain = gelsim.make_chain(a.xi0, a.gamma, a.sites, a.init)
    try:
        sol = gelsim.evolve_chain(chain, a.t_end, tol=a.tol)
    except GelshootError as err:
        sol = getattr(err, "solution", None)
        if sol is None:
            raise
    rows = []
    for j, t in enumerate(sol.t):
        for k, xi in enumerate(chain.sites):
            rows.append((t, xi, sol.f[k, j]))
    write_csv(a.out, ["t", "xi", "f"], rows, a.echo)


def cmd_fig2(a):
    from . import stability
    bs = [float(s) for s in a.b_list.split(",")]
    for b in bs:
        p = make_params(a.gamma, b)
        z = stability.curve_samples(p)
        path = None
        if a.out:
            stem, dot, ext = a.out.rpartition(".")
            path = f"{stem}_b{b:g}.{ext}" if dot else f"{a.out}_b{b:g}"
        write_csv(path, ["t_real", "t_imag"],
                  zip(z.real, z.imag), a.echo)


def cmd_fig3(a):
    from . import shooting
    p = make_params(a.gamma, a.b)
    traj = shooting.h_profile(p, a.y_max, tol=a.tol,
                              stop_on_sign_change=True)
    ts, us, dus = traj.nodes()
    keep = ts > 0.0
    ts, us = ts[keep], us[keep]
    if a.out:
        stem, dot, ext = a.out.rpartition(".")
        base = stem if dot else a.out
        ext = ext if dot else "csv"
        write_csv(f"{base}_H.{ext}", ["y", "H"], zip(ts, us), a.echo)
        write_csv(f"{base}_phi.{ext}", ["z", "phi"],
                  zip(np.log(ts), ts * us), a.echo)
    else:
        write_csv(None, ["y", "H"], zip(ts, us), a.echo)
        write_csv(None, ["z", "phi"], zip(np.log(ts), ts * us), a.echo)


HANDLERS = {
    "params": cmd_params, "profile": cmd_profile, "classify": cmd_classify,
    "scan-b": cmd_scan_b, "bracket-bbar": cmd_bracket_bbar,
    "b-star": cmd_b_star, "winding": cmd_winding,
    "stability-scan": cmd_stability_scan, "greens-q": cmd_greens_q,
    "greens-verify": cmd_greens_verify, "fixedpoint": cmd_fixedpoint,
    "eps-of-eta": cmd_eps_of_eta, "bbar": cmd_bbar, "gamma1": cmd_gamma1,
    "psi-asym": cmd_psi_asym, "laplace": cmd_laplace, "tails": cmd_tails,
    "simulate": cmd_simulate, "fig2": cmd_fig2, "fig3": cmd_fig3,
}


# ---------------------------------------------------------------------------
# self tests: tiny example tables per subcommand


def _close(a, b, tol):
    return abs(a - b) <= tol


def selftest(name: str) -> int:
    checks = []
    if name == "b-star":
        from . import stability
        checks = [("b*(2) near 2.5374", _close(stability.b_star(2.0),
                                               2.5374403762870335, 1e-12)),
                  ("b*(30) matches the large-gamma limit",
                   _close(stability.b_star(30.0),
                          3.0 * math.sqrt(3.0) * math.log(2.0) / math.pi,
                          1e-3))]
    elif name == "params":
        p = make_params(2.0, 4.0)
        checks = [("sigma = sqrt(2)", _close(p.sigma, math.sqrt(2.0), 1e-15)),
                  ("q = 2^(-1/4)", _close(p.q, 2.0 ** -0.25, 1e-15)),
                  ("phi_inf(3) = 1/3",
                   _close(make_params(3.0, 1.0).phi_inf, 1.0 / 3.0, 1e-15))]
    elif name == "greens-q":
        from . import greens
        checks = [("Q(1)", _close(greens.q_eval(1.0), -0.07680055520582965,
                                  1e-9)),
                  ("c0 series vs quadrature",
                   _close(greens.c0_moment(), greens.c0_moment_quad(),
                          1e-9))]
    elif name == "winding":
        from . import stability
        w0 = stability.winding_number(make_params(2.0, 3.0)).winding
        w1 = stability.winding_number(make_params(2.0, 2.3)).winding
        checks = [("stable side has no turns", w0 == 0),
                  ("unstable side has one turn", w1 == 1)]
    elif name == "classify":
        from . import shooting
        kinds = [shooting.classify(make_params(2.0, b), y_max=200.0).kind
                 for b in (2.05, 2.3, 10.0)]
        checks = [("b=2.05 changes sign", kinds[0] == "SignChange"),
                  ("b=2.3 oscillates", kinds[1] == "Oscillating"),
                  ("b=10 settles on the constant",
                   kinds[2] == "ConvergesToConstant")]
    elif name == "laplace":
        from . import asymptotics
        lq = asymptotics.laplace_quantities(1.0)
        checks = [("t*(1)", _close(lq.t_star, 1.5936242600400401, 1e-10)),
                  ("D(1)", _close(lq.D, 0.18624975627100618, 1e-10)),
                  ("W(1)", _close(lq.W, 0.5252241460859855, 1e-8))]
    elif name == "tails":
        from . import asymptotics
        te = asymptotics.tail_exponents(0.1, 1.0)
        checks = [("beta(0.1)", _close(te.beta, 6.578813478960584, 1e-12)),
                  ("alpha = beta - 1", te.alpha == te.beta - 1.0)]
    elif name == "gamma1":
        from . import asymptotics
        checks = [("alpha(ln2) > 2",
                   asymptotics.alpha_root(math.log(2.0)) > 2.0),
                  ("alpha(1) = 1",
                   _close(asymptotics.alpha_root(1.0), 1.0, 1e-12))]
    elif name == "fixedpoint":
        from . import fixedpoint
        st = fixedpoint.picard_solve(0.01, 0.01)
        checks = [("converged", st.sup_diff_history[-1] < 1e-10),
                  ("limit value stored at the origin",
                   _close(st.W[0], -st.F_value, 1e-12))]
    elif name == "eps-of-eta":
        from . import fixedpoint
        eps, _ = fixedpoint.eps_of_eta(0.01)
        checks = [("slope near 0.21", _close(eps / 0.01, 0.2097, 0.01))]
    elif name == "bbar":
        from . import fixedpoint
        crit = fixedpoint.bbar_of_gamma(13.0)
        checks = [("bbar(13) near 1.0003", _close(crit.bbar, 1.0003, 5e-4)),
                  ("profile positive", float(np.min(crit.h)) > 0.0)]
    elif name == "simulate":
        from . import gelsim
        ch = gelsim.make_chain(1.3, 2.0, 0, lambda x: 0.7)
        sol = gelsim.evolve_chain(ch, 2.0, tol=1e-12)
        exact = gelsim.single_site_closed_form(1.3, 2.0, 0.7, sol.t)
        checks = [("single-site closed form",
                   float(np.max(np.abs(sol.f[0] - exact))) < 1e-10)]
    elif name == "psi-asym":
        from . import asymptotics
        rows = asymptotics.psi_asymptotics_check(1.0, [0.1, 0.05])
        checks = [("defect shrinks with eps",
                   abs(rows[1]["r"]) < abs(rows[0]["r"]))]
    else:
        # remaining subcommands exercise machinery covered above
        checks = [("no dedicated table; module import", True)]
    ok = True
    for label, passed in checks:
        print(f"[{'PASS' if passed else 'FAIL'}] {name}: {label}")
        ok &= passed
    return 0 if ok else 2


# ---------------------------------------------------------------------------
# argument wiring


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="gelshoot",
        description="self-similar gelling profiles of the diagonal "
                    "coagulation kernel")
    top.add_argument("--version", action="version",
                     version=f"gelshoot {__version__}")
    sub = top.add_subparsers(dest="command", required=True)

    def add(name, **defaults):
        p = sub.add_parser(name)
        p.add_argument("--config", default=None,
                       help="key=value file; flags override")
        p.add_argument("--gamma", type=float, default=defaults.get("gamma"))
        p.add_argument("--b", type=float, default=defaults.get("b"))
        p.add_argument("--tol", type=float,
                       default=defaults.get("tol", 1e-9))
        p.add_argument("--y-max", type=float, dest="y_max",
                       default=defaults.get("y_max", 500.0))
        p.add_argument("--grid", default=defaults.get("grid"))
        p.add_argument("--out", default=None)
        p.add_argument("--jobs", type=int, default=1)
        p.add_argument("--format", choices=("csv", "json"), default="json")
        p.add_argument("--selftest", action="store_true")
        return p

    add("params", gamma=2.0, b=2.0)
    add("profile", gamma=2.0, b=3.0, y_max=200.0)
    add("classify", gamma=2.0, b=3.0)
    add("scan-b", gamma=2.0, grid="2.05:10:8")
    p = add("bracket-bbar", gamma=2.0)
    p.add_argument("--tol-b", type=float, dest="tol_b", default=1e-3)
    p = add("b-star", gamma=2.0)
    p.add_argument("--digits", type=int, default=5)
    add("winding", gamma=2.0, b=3.0)
    add("stability-scan", gamma=2.0, grid="1:6:11")
    add("greens-q")
    p = add("greens-verify", tol=1e-10)
    p.add_argument("--t-max", type=float, dest="t_max", default=1e6)
    p = add("fixedpoint", tol=1e-12)
    p.add_argument("--eps", type=float, default=0.01)
    p.add_argument("--eta", type=float, default=0.01)
    p = add("eps-of-eta", tol=1e-9)
    p.add_argument("--eta", type=float, default=0.01)
    add("bbar", gamma=13.0)
    p = add("gamma1", y_max=1e5, tol=1e-10)
    p.add_argument("--a1", type=float, default=-1.0)
    p = add("psi-asym")
    p.add_argument("--eta", type=float, default=1.0)
    p.add_argument("--eps-list", dest="eps_list", default="0.1,0.05,0.02")
    p = add("laplace")
    p.add_argument("--eta", type=float, default=1.0)
    p = add("tails")
    p.add_argument("--eps", type=float, default=0.1)
    p.add_argument("--eta", type=float, default=1.0)
    p = add("simulate", gamma=2.0, tol=1e-10)
    p.add_argument("--xi0", type=float, default=1.0)
    p.add_argument("--sites", type=int, default=10)
    p.add_argument("--init", default="exp")
    p.add_argument("--t-end", type=float, dest="t_end", default=5.0)
    p.add_argument("--scan", type=int, default=0,
                   help="run a multi-chain gelation scan with this many "
                        "seeds and emit diagnostics JSON")
    p = add("fig2", gamma=2.0)
    p.add_argument("--b-list", dest="b_list", default="3.0,2.3,0.25")
    add("fig3", gamma=2.0, b=2.3, y_max=200.0)
    return top


def _apply_config(args, argv):
    if getattr(args, "config", None):
        overrides = load_config(args.config)
        explicit = {a.lstrip("-").replace("-", "_").split("=")[0]
                    for a in argv if a.startswith("--")}
        for k, v in overrides.items():
            if not hasattr(args, k):
                raise DomainError(f"unknown config key {k!r}")
            if k not in explicit:
                cur = getattr(args, k)
                cast = type(cur) if cur is not None else str
                setattr(args, k, cast(v) if cast is not bool
                        else v.lower() in ("1", "true", "yes"))
    return args


def main(argv=None) -> int:
    level = os.environ.get("GELSHOOT_LOG", "quiet").lower()
    logging.basicConfig(
        level={"quiet": logging.WARNING, "info": logging.INFO,
               "debug": logging.DEBUG}.get(level, logging.WARNING),
        format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        args = _apply_config(args, sys.argv[1:] if argv is None else argv)
        if args.selftest:
            return selftest(args.command)
        public = {k: v for k, v in sorted(vars(args).items())
                  if k not in ("command", "selftest", "echo") and
                  v is not None}
        args.echo = " ".join(f"{k}={v}" for k, v in public.items())
        log.debug("resolved config: %s", args.echo)
        HANDLERS[args.command](args)
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
