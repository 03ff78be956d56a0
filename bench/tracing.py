"""Layer tracing of gelshoot from outside the package.

install() rebinds public functions and methods of the gelshoot modules to
wrappers defined here; uninstall() puts the originals back.  Nothing under
src/ is edited.  While the tracer is active each wrapped call records a
span (name, parent, start, end) in memory; calls too frequent for spans
(f-evaluations, dense-history lookups, series evaluations) are counted, and
their time is charged to the enclosing integrate span so that its self time
(span minus children) excludes them.

A span's self time is its duration minus its children's.  layer_metrics()
turns the aggregated counts and times into the benchmark's per-layer
metrics.
"""

from __future__ import annotations

import dataclasses
import functools
import statistics
import time
from collections import defaultdict

from gelshoot import (asymptotics, delaycore, fixedpoint, gelsim, greens,
                      shooting, stability)
from gelshoot.errors import BlowUpError

from workloads import CLASS_KINDS

_pc = time.perf_counter

INTEGRATE = "delaycore.integrate"
BRACKET = "shooting.bracket_bbar"
RHS_BUILDERS = ("h_equation", "phi_equation", "limit_h_equation",
                "rescaled_h_equation", "linear_g_equation",
                "gamma1_phi_equation", "gamma1_log_equation")


class Tracer:
    """Spans and counters of one traced stretch of work."""

    def __init__(self):
        self.active = False
        self._saved: list = []
        self.reset()

    def reset(self):
        # span: [name, parent index, start, end, seconds of children]
        self.spans: list = []
        self.stack: list = []
        self.counts = defaultdict(int)
        self.seconds = defaultdict(float)
        self.self_seconds = defaultdict(float)
        self.gauges: dict = {}

    # -- spans ---------------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, parent, _pc(), 0.0, 0.0])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> float:
        rec = self.spans[idx]
        rec[3] = _pc()
        self.stack.pop()
        dur = rec[3] - rec[2]
        if rec[1] >= 0:
            self.spans[rec[1]][4] += dur
        self.counts[rec[0]] += 1
        self.seconds[rec[0]] += dur
        self.self_seconds[rec[0]] += dur - rec[4]
        return dur

    def parent_name(self, idx: int):
        parent = self.spans[idx][1]
        return self.spans[parent][0] if parent >= 0 else None

    def in_integrate(self) -> bool:
        return bool(self.stack) and self.spans[self.stack[-1]][0] == INTEGRATE

    def charge(self, name: str, dur: float):
        """Count a sub-span event inside the current span."""
        self.counts[name] += 1
        self.seconds[name] += dur
        self.spans[self.stack[-1]][4] += dur

    def snapshot(self) -> dict:
        """Aggregated counts and times, mergeable with merge_raw()."""
        return {"counts": dict(self.counts), "seconds": dict(self.seconds),
                "self_seconds": dict(self.self_seconds),
                "gauges": dict(self.gauges)}

    # -- installation ----------------------------------------------------------

    def _rebind(self, owner, attr, new):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        if self._saved:
            return
        span = functools.partial(_span, self)
        self._rebind(delaycore, "integrate",
                     span(INTEGRATE, delaycore.integrate, _after_integrate))
        self._rebind(delaycore.DenseTrajectory, "eval", _timed_in_integrate(
            self, "delaycore.lookup", delaycore.DenseTrajectory.eval))
        self._rebind(delaycore.SeriesHistory, "eval", _timed_in_integrate(
            self, "profiles.series_eval", delaycore.SeriesHistory.eval))
        for name in RHS_BUILDERS:
            self._rebind(delaycore, name,
                         _counting_builder(self, getattr(delaycore, name)))
        for owner, attr, name, after in (
                (shooting, "classify", "shooting.classify", _after_classify),
                (shooting, "bracket_bbar", BRACKET, None),
                (stability, "winding_number", "stability.winding_number",
                 None),
                (stability, "stability_empirical",
                 "stability.stability_empirical", None),
                (greens, "g_by_ode", "greens.g_by_ode", None),
                (greens, "gtilde_exact", "greens.gtilde_exact", None),
                (fixedpoint.FixedPointGrid, "__init__",
                 "fixedpoint.grid_build", _after_grid_build),
                (fixedpoint.FixedPointGrid, "apply", "fixedpoint.sweep",
                 None),
                (fixedpoint, "picard_solve", "fixedpoint.picard_solve", None),
                (fixedpoint, "eps_of_eta", "fixedpoint.eps_of_eta", None),
                (fixedpoint, "bbar_of_gamma", "fixedpoint.bbar_of_gamma",
                 None),
                (asymptotics, "gamma1_b1_limit",
                 "asymptotics.gamma1_b1_limit", None),
                (gelsim, "evolve_chain", "gelsim.evolve_chain",
                 _after_evolve_chain),
                (gelsim, "gelation_scan", "gelsim.gelation_scan", None)):
            self._rebind(owner, attr, span(name, getattr(owner, attr), after))

    def uninstall(self):
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)


# ---------------------------------------------------------------------------
# wrappers


def _span(tr: Tracer, name: str, fn, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tr.active:
            return fn(*args, **kwargs)
        idx = tr.open(name)
        try:
            out = fn(*args, **kwargs)
        except BaseException as err:
            dur = tr.close(idx)
            if after is not None:
                after(tr, idx, dur, args, None, err)
            raise
        dur = tr.close(idx)
        if after is not None:
            after(tr, idx, dur, args, out, None)
        return out
    return wrapper


def _timed_in_integrate(tr: Tracer, name: str, method):
    @functools.wraps(method)
    def wrapper(self, t):
        if not (tr.active and tr.in_integrate()):
            return method(self, t)
        t0 = _pc()
        value = method(self, t)
        tr.charge(name, _pc() - t0)
        return value
    return wrapper


def _counting_builder(tr: Tracer, builder):
    """Wrap a DelayRHS builder so the f it returns counts its calls."""
    @functools.wraps(builder)
    def wrapper(*args, **kwargs):
        rhs = builder(*args, **kwargs)
        if getattr(rhs.f, "counted", False):
            return rhs
        f = rhs.f

        def counted(t, u, ud):
            if tr.active:
                tr.counts["delaycore.f_eval"] += 1
            return f(t, u, ud)
        counted.counted = True
        return dataclasses.replace(rhs, f=counted)
    return wrapper


def _after_integrate(tr, idx, dur, args, traj, err):
    if err is not None:
        traj = getattr(err, "trajectory", None)
    if traj is not None:
        tr.counts["delaycore.accepted"] += len(traj.ts) - 1
        tr.counts["delaycore.rejected"] += traj.n_rejected


def _after_classify(tr, idx, dur, args, c, err):
    if c is None:
        return
    tr.counts["classify." + c.kind] += 1
    tr.seconds["classify." + c.kind] += dur
    if tr.parent_name(idx) == BRACKET:
        tr.counts["bracket.classify"] += 1
    else:
        tr.counts["map." + c.kind] += 1


def _after_grid_build(tr, idx, dur, args, out, err):
    if err is None:
        grid = args[0]
        tr.gauges["kernel_entries"] = int(grid.K.size)
        tr.gauges["kernel_bytes"] = int(grid.K.nbytes)


def _after_evolve_chain(tr, idx, dur, args, sol, err):
    if isinstance(err, BlowUpError):
        tr.counts["gelsim.blowup"] += 1
        sol = getattr(err, "solution", None)
    if sol is not None:
        tr.counts["gelsim.steps"] += len(sol.t_steps) - 1


# ---------------------------------------------------------------------------
# aggregation


def merge_raw(raws) -> dict:
    out = {"counts": defaultdict(int), "seconds": defaultdict(float),
           "self_seconds": defaultdict(float), "gauges": {}}
    for raw in raws:
        for key in ("counts", "seconds", "self_seconds"):
            for name, v in raw[key].items():
                out[key][name] += v
        for name, v in raw["gauges"].items():
            out["gauges"][name] = max(v, out["gauges"].get(name, v))
    return out


def _ratio(num, den):
    return num / den if den else 0.0


def is_time(name: str) -> bool:
    return name.endswith(("_ms", "_us")) or ".classify_ms." in name


def layer_metrics(raw: dict, time_scale: float = 1.0) -> dict:
    """Per-layer metrics of one pass (plus its set-up) from merged raw data.

    Times named *_ms, *_us are per call unless the name says self_ms, which
    is the layer's total self time in the pass.  Every time is multiplied
    by time_scale (see speed.py).
    """
    c = defaultdict(int, raw["counts"])
    s = defaultdict(float, raw["seconds"])
    ss = defaultdict(float, raw["self_seconds"])
    g = raw["gauges"]

    def per_call_ms(name):
        return 1e3 * _ratio(s[name], c[name])

    acc, rej = c["delaycore.accepted"], c["delaycore.rejected"]
    fe, look = c["delaycore.f_eval"], c["delaycore.lookup"]
    entries = g.get("kernel_entries", 0)
    mapped = sum(c["map." + k] for k in CLASS_KINDS)
    m = {
        "delaycore.integrate_calls": c[INTEGRATE],
        "delaycore.accepted_steps": acc,
        "delaycore.rejected_steps": rej,
        "delaycore.accept_ratio": _ratio(acc, acc + rej),
        "delaycore.f_evals": fe,
        "delaycore.f_evals_per_step": _ratio(fe, acc),
        "delaycore.lookups": look,
        "delaycore.lookup_us": 1e6 * _ratio(s["delaycore.lookup"], look),
        "delaycore.step_us": 1e6 * _ratio(s[INTEGRATE], acc),
        "delaycore.self_ms": 1e3 * ss[INTEGRATE],
    }
    for k in CLASS_KINDS:
        m["shooting.classify_ms." + k] = 1e3 * _ratio(s["classify." + k],
                                                      c["classify." + k])
    m.update({
        "shooting.classify_self_ms": 1e3 * ss["shooting.classify"],
        "shooting.bracket_ms": per_call_ms(BRACKET),
        "shooting.classify_per_bracket": _ratio(c["bracket.classify"],
                                                c[BRACKET]),
    })
    for k in CLASS_KINDS:
        m["shooting.share." + k] = _ratio(c["map." + k], mapped)
    m.update({
        "profiles.series_us": 1e6 * _ratio(s["profiles.series_eval"],
                                           c["profiles.series_eval"]),
        "stability.winding_ms": per_call_ms("stability.winding_number"),
        "fixedpoint.grid_build_ms": per_call_ms("fixedpoint.grid_build"),
        "fixedpoint.grid_builds": c["fixedpoint.grid_build"],
        "greens.gtilde_exact_ms": per_call_ms("greens.gtilde_exact"),
        "greens.kernel_entries": entries,
        "fixedpoint.kernel_bytes": g.get("kernel_bytes", 0),
        "fixedpoint.sweeps": c["fixedpoint.sweep"],
        "fixedpoint.sweep_us": 1e6 * _ratio(s["fixedpoint.sweep"],
                                            c["fixedpoint.sweep"]),
        "fixedpoint.sweep_flops": 2 * entries,
        "fixedpoint.sweeps_per_solve": _ratio(c["fixedpoint.sweep"],
                                              c["fixedpoint.picard_solve"]),
        "fixedpoint.picard_solves": c["fixedpoint.picard_solve"],
        "stability.empirical_ms": per_call_ms(
            "stability.stability_empirical"),
        "greens.g_by_ode_ms": per_call_ms("greens.g_by_ode"),
        "asymptotics.gamma1_ms": per_call_ms("asymptotics.gamma1_b1_limit"),
        "gelsim.evolve_chain_ms": per_call_ms("gelsim.evolve_chain"),
        "gelsim.chains": c["gelsim.evolve_chain"],
        "gelsim.accepted_steps": c["gelsim.steps"],
        "gelsim.blowup_share": _ratio(c["gelsim.blowup"],
                                      c["gelsim.evolve_chain"]),
    })
    return {k: v * time_scale if is_time(k) else v for k, v in m.items()}


def count_metrics(m: dict) -> dict:
    """The deterministic part of layer_metrics(): counts and ratios of
    counts, which must repeat exactly across traced passes."""
    return {k: v for k, v in m.items() if not is_time(k)}


def median_metrics(per_pass: list) -> dict:
    """Counts from the first pass, times as medians over passes."""
    return {k: v if not is_time(k) else statistics.median(m[k] for m in
                                                          per_pass)
            for k, v in per_pass[0].items()}
