"""gelshoot benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload shoot-map --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from src/.
The workload's seeded pass of operations (bench/workloads.py) is repeated,
one operation at a time, until --seconds have elapsed (whole passes, at
least one); every result is checked by its oracle (bench/ops.py).  The
last line of standard output is one JSON object: {"correct", "attempted",
"failed", "metrics"}.

--trace 0 reports the end-to-end metrics:
  setup_s      median over fresh processes of imports plus lazy cache fill
               (for cold-cli: a cold `gelshoot --version` process)
  wall_s       the pass's time, each operation at its median over passes
  op_p50_ms    median over the pass's operations of their median times
  op_tail_ms   highest percentile of those times with at least ten
               operations beyond it (the maximum when the pass has fewer
               than 20 operations)
  peak_rss_mb  peak resident memory of this process (cold-cli: of the
               command-line children)

Every time is scaled to a reference host speed by speed probes run next
to it (bench/speed.py); the scale factors and the unscaled figures are
printed with the run.
BLAS runs on one thread, here and in every child process.

--trace 1 alternates untraced and traced passes, reports every per-layer
metric in bench/layers.json plus trace.overhead, and writes the spans to
.bench_trace/<workload>-<seed>.json.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".bench_trace"
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 120.0
TAIL_BEYOND = 10
# one operation runs on one core of the 2-core host: a two-thread BLAS
# matrix-vector product made Picard sweeps depend on the other core's load
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}

IMPORT_MODULES = {"import.numpy_ms": "numpy",
                  "import.scipy_integrate_ms": "scipy.integrate",
                  "import.scipy_optimize_ms": "scipy.optimize",
                  "import.scipy_interpolate_ms": "scipy.interpolate"}


def child_env() -> dict:
    env = dict(os.environ, **ONE_THREAD)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


# ---------------------------------------------------------------------------
# set-up probes and import times


def parse_importtime(text: str) -> dict:
    """Import metrics (ms) from `python -X importtime` output.

    A module's figure is its cumulative time where it was first imported,
    so nested figures overlap (scipy.optimize loads inside scipy.integrate).
    import.total_ms sums the top-level gelshoot imports.
    """
    rows = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, cum_us, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip(" ")) - 1) // 2
        rows.append((depth, name.strip(), int(self_us), int(cum_us)))
    first: dict = {}
    for _, name, _, cum in rows:
        first.setdefault(name, cum)

    def ours(name):
        return name == "gelshoot" or name.startswith("gelshoot.")
    out = {"import.total_ms": 1e-3 * sum(c for d, n, _, c in rows
                                         if d == 0 and ours(n))}
    for metric, module in IMPORT_MODULES.items():
        out[metric] = 1e-3 * first.get(module, 0)
    out["import.gelshoot_self_ms"] = 1e-3 * sum(s for _, n, s, _ in rows
                                                if ours(n))
    return out


def probe_setup(workload: str, importtime: bool):
    """One fresh-process set-up, timed from outside and scaled to the
    reference speed: (seconds, import metrics or None)."""
    if workload == "cold-cli":
        cmd = [sys.executable, "-m", "gelshoot.cli", "--version"]
    else:
        cmd = [sys.executable, str(BENCH / "probe.py"), workload]
    if importtime:
        cmd[1:1] = ["-X", "importtime"]
    env = child_env()
    before = speed.interpreter(env)
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=PROBE_TIMEOUT_S)
    wall = time.perf_counter() - t0
    k = speed.scales([before, speed.interpreter(env)],
                     speed.INTERPRETER_WINDOW)[0]
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    imports = None
    if importtime:
        imports = {m: v * k for m, v in parse_importtime(proc.stderr).items()}
    return wall * k, imports


# ---------------------------------------------------------------------------
# passes


class Pass:
    """Runs the pass's operations one at a time and checks each result.

    Each operation is timed between readings of a speed probe, and its
    time is scaled to the reference speed (see speed.py).
    """

    def __init__(self, ops, run_op, check, canonical, probe, window):
        self.ops = ops
        self.run_op = run_op
        self.check = check
        self.canonical = canonical
        self.probe = probe
        self.window = window

    def run(self, tracer=None, digest=None, on_result=None):
        """Returns (scaled seconds per operation, scale factors, failures)."""
        times, readings, failures = [], [self.probe()], []
        for i, op in enumerate(self.ops):
            if tracer is not None:
                tracer.active = True
                span = tracer.open("op." + op.kind)
            t0 = time.perf_counter()
            try:
                result, error = self.run_op(op), None
            except Exception as err:   # a failing operation is counted
                result, error = None, err
            times.append(time.perf_counter() - t0)
            if tracer is not None:
                tracer.close(span)
                tracer.active = False
            readings.append(self.probe())
            if error is None:
                try:
                    self.check(op, result)
                except Exception as err:
                    error = err
            if error is not None:
                failures.append((i, op, error))
            if digest is not None:
                digest.update(f"{op.kind}{sorted(op.args.items())}"
                              f"{self.canonical(result)}\n".encode())
            if on_result is not None:
                on_result(op, result)
        scales = speed.scales(readings, self.window)
        return [t * k for t, k in zip(times, scales)], scales, failures


def tail(values):
    """(value, percentile) of the tail rule on sorted-able values."""
    v = sorted(values)
    n = len(v)
    if n >= 2 * TAIL_BEYOND:
        return v[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n
    return v[-1], 100.0


def report_failures(failures):
    for i, op, err in failures[:20]:
        print(f"FAILED op {i} {op.kind} {op.args}: "
              f"{type(err).__name__}: {err}", file=sys.stderr)


def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cold-cli" \
        else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# main


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args(argv)

    if not (SRC / "gelshoot" / "__init__.py").is_file():
        print(f"error: no gelshoot sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.update(ONE_THREAD)   # before numpy is first imported
    import workloads
    ops_list = workloads.generate(a.workload, a.seed)
    layers = json.loads((BENCH / "layers.json").read_text())

    probes = [probe_setup(a.workload, bool(a.trace))
              for _ in range(SETUP_PROBES)]

    import gelshoot
    import ops
    import probe
    import tracing
    if Path(gelshoot.__file__).resolve().parent != SRC / "gelshoot":
        print(f"error: gelshoot imported from {gelshoot.__file__}",
              file=sys.stderr)
        return 2

    env = child_env()
    tracer = tracing.Tracer() if a.trace else None
    setup_raw, setup_spans = None, []
    expected_cli = None
    if a.workload == "cold-cli":
        expected_cli = {tuple(op.args["argv"]): ops.cli_in_process(
            op.args["argv"]) for op in ops_list}
    else:
        if tracer is not None:
            tracer.install()
            tracer.active = True
        probe.prepare(a.workload)
        if tracer is not None:
            tracer.active = False
            tracer.uninstall()
            setup_raw = tracer.snapshot()
            setup_spans = tracer.spans
            tracer.reset()

    plain_cli = ops.CliRunner(ROOT, env)

    if a.workload == "cold-cli":
        probe_speed = functools.partial(speed.interpreter, env)
        window = speed.INTERPRETER_WINDOW
    else:
        probe_speed, window = speed.kernel, speed.KERNEL_WINDOW

    def make_pass(cli_runner):
        return Pass(ops_list, lambda op: ops.run_op(op, cli_runner),
                    lambda op, res: ops.check(op, res, expected_cli),
                    ops.canonical, probe_speed, window)

    plain = make_pass(plain_cli)
    per_op = [[] for _ in ops_list]
    raw_op = [[] for _ in ops_list]
    all_scales = []
    attempted = failed = 0
    digest = hashlib.sha256()
    shares: dict = {}

    def count_class(op, res):
        if op.kind == "map_point" and res is not None:
            shares[res[0].kind] = shares.get(res[0].kind, 0) + 1

    def run_plain(first):
        nonlocal attempted, failed
        times, scales, failures = plain.run(
            digest=digest if first else None,
            on_result=count_class if first else None)
        attempted += len(times)
        failed += len(failures)
        report_failures(failures)
        all_scales.extend(scales)
        for i, (dt, k) in enumerate(zip(times, scales)):
            per_op[i].append(dt)
            raw_op[i].append(dt / k)
        return sum(times)

    t_start = time.perf_counter()

    def another_pass():
        return time.perf_counter() - t_start < a.seconds

    if not a.trace:
        run_plain(True)
        while another_pass():
            run_plain(False)
    else:
        TRACE_DIR.mkdir(exist_ok=True)
        traced_cli = ops.CliRunner(ROOT, env, trace_dir=TRACE_DIR)
        traced = make_pass(traced_cli)
        plain_times, traced_times, per_pass, spans = [], [], [], []
        while not traced_times or another_pass():
            plain_times.append(run_plain(not plain_times))
            tracer.reset()
            traced_cli.child_traces.clear()
            tracer.install()
            try:
                times, scales, failures = traced.run(tracer=tracer)
            finally:
                tracer.uninstall()
            attempted += len(times)
            failed += len(failures)
            report_failures(failures)
            traced_times.append(sum(times))
            raws = [tracer.snapshot()] + [t["raw"] for t in
                                          traced_cli.child_traces]
            if setup_raw is not None:
                raws.append(setup_raw)
            per_pass.append(tracing.layer_metrics(
                tracing.merge_raw(raws), statistics.median(scales)))
            spans.append({"pass": len(spans), "spans": tracer.spans,
                          "children": [t["spans"] for t in
                                       traced_cli.child_traces]})

    n = len(ops_list)
    op_s = [statistics.median(t) for t in per_op]
    op_ms = [1e3 * t for t in op_s]
    tail_ms, tail_pct = tail(op_ms)
    setup_s = statistics.median(s for s, _ in probes)
    print(f"workload {a.workload} seed {a.seed}: {n} operations per pass, "
          f"{len(per_op[0])} passes")
    print(f"why: {workloads.WHY[a.workload]}")
    print(f"fail_ratio {failed / attempted:.6g} ({failed}/{attempted})")
    print(f"digest sha256:{digest.hexdigest()}")
    print(f"op_tail_ms taken at p{tail_pct:.4g} of {n} operations")
    print(f"host speed: times scaled by a median factor of "
          f"{statistics.median(all_scales):.4f} (range "
          f"{min(all_scales):.4f} to {max(all_scales):.4f})")
    raw_ms = [1e3 * statistics.median(t) for t in raw_op]
    print(f"unscaled: wall_s {1e-3 * sum(raw_ms):.6g} op_p50_ms "
          f"{statistics.median(raw_ms):.6g} op_tail_ms {tail(raw_ms)[0]:.6g}")
    if shares:
        total = sum(shares.values())
        print("classify outcome share: " + ", ".join(
            f"{k} {shares.get(k, 0) / total:.4f}"
            for k in workloads.CLASS_KINDS))

    if not a.trace:
        values = {"setup_s": setup_s, "wall_s": sum(op_s),
                  "op_p50_ms": statistics.median(op_ms),
                  "op_tail_ms": tail_ms,
                  "peak_rss_mb": peak_rss_mb(a.workload)}
        units = layers["end_to_end"]
    else:
        values = tracing.median_metrics(per_pass)
        for k in tracing.count_metrics(per_pass[0]):
            if any(m[k] != values[k] for m in per_pass[1:]):
                print(f"warning: count {k} differs between traced passes",
                      file=sys.stderr)
        imports = [m for _, m in probes]
        for k in imports[0]:
            values[k] = statistics.median(m[k] for m in imports)
        for name in workloads.CLI_SUBCOMMANDS:
            values["cli.cold_ms." + name] = 0.0
        if a.workload == "cold-cli":
            for op, t in zip(ops_list, op_ms):
                values["cli.cold_ms." + op.args["argv"][0]] = t
        values["trace.overhead"] = (statistics.median(traced_times)
                                    / statistics.median(plain_times) - 1.0)
        units = layers["per_layer"]
        out = TRACE_DIR / f"{a.workload}-{a.seed}.json"
        out.write_text(json.dumps({"workload": a.workload, "seed": a.seed,
                                   "span_fields": ["name", "parent", "start",
                                                   "end", "child_s"],
                                   "setup": setup_spans, "passes": spans}))
        print(f"trace.overhead {values['trace.overhead']:.4f} "
              f"(traced {statistics.median(traced_times):.4f} s vs "
              f"untraced {statistics.median(plain_times):.4f} s per pass); "
              f"spans in {out.relative_to(ROOT)}")

    missing = sorted(set(units) - set(values))
    extra = sorted(set(values) - set(units))
    if missing or extra:
        print(f"error: metrics missing {missing} or unlisted {extra}",
              file=sys.stderr)
        return 2
    metrics = {k: {"value": values[k], "unit": units[k]["unit"]}
               for k in units}
    for k, m in metrics.items():
        print(f"{k} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
