"""Self-tests of the benchmark: seeded inputs, traced counts, oracles.

    PYTHONPATH=src python3 -m pytest bench/tests -q
"""

import copy
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import ops  # noqa: E402
import probe  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import Op  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_same_inputs(workload):
    assert workloads.generate(workload, 7) == workloads.generate(workload, 7)
    assert workloads.generate(workload, 7) != workloads.generate(workload, 8)


def test_inputs_stay_in_their_domains():
    for seed in range(20):
        for op in workloads.generate("shoot-map", seed):
            if op.kind == "map_point":
                assert op.args["b"] > 2.0 / (op.args["gamma"] - 1.0)
        for op in workloads.generate("critical-curve", seed):
            if op.kind == "eps_of_eta":
                assert 0.0 < op.args["eta"] <= 0.05
            else:
                assert 7.5 < op.args["gamma"] <= 30.0
        for op in workloads.generate("evolve", seed):
            if op.kind == "g_by_ode":
                assert op.args["xi"] + 0.5 <= op.args["x"] <= 40.0
            if op.kind == "single_site":
                assert 1.0 <= op.args["xi0"] < 2.0


def _traced_counts(op_list):
    tr = tracing.Tracer()
    tr.install()
    tr.active = True
    try:
        for op in op_list:
            ops.run_op(op)
    finally:
        tr.active = False
        tr.uninstall()
    return tracing.count_metrics(tracing.layer_metrics(tr.snapshot()))


def _first_of_each_kind(workload, seed=3):
    seen = {}
    for op in workloads.generate(workload, seed):
        seen.setdefault(op.kind, op)
    return list(seen.values())


@pytest.mark.parametrize("workload", ["shoot-map", "critical-curve",
                                      "evolve"])
def test_two_traced_runs_give_identical_counts(workload):
    op_list = _first_of_each_kind(workload)
    if workload == "shoot-map":
        op_list[-1] = Op("bracket", {"gamma": 5.0, "tol_b": 1e-2})
    probe.prepare(workload)
    first, second = _traced_counts(op_list), _traced_counts(op_list)
    assert first == second
    key = {"shoot-map": "delaycore.accepted_steps",
           "critical-curve": "fixedpoint.sweeps",
           "evolve": "gelsim.accepted_steps"}[workload]
    assert first[key] > 0


def test_tracer_is_removed_after_uninstall():
    from gelshoot import delaycore, fixedpoint
    before = (delaycore.integrate, fixedpoint.FixedPointGrid.apply)
    tr = tracing.Tracer()
    tr.install()
    assert delaycore.integrate is not before[0]
    tr.uninstall()
    assert (delaycore.integrate, fixedpoint.FixedPointGrid.apply) == before


# ---------------------------------------------------------------------------
# each oracle accepts the real result and rejects a tampered one


def _tampered_trajectory(traj):
    bad = copy.copy(traj)
    bad.us = [u + 0.5 for u in traj.us]
    return bad


def _tamper_scan(diag):
    last = list(diag.t_hat[-1])
    i = next(i for i, v in enumerate(last) if v is not None)
    last[i] = np.nextafter(last[i], np.inf)
    return dataclasses.replace(diag, t_hat=diag.t_hat[:-1] + [last])


CASES = [
    (Op("map_point", {"gamma": 2.0, "b": 10.0}),
     lambda out: (dataclasses.replace(
         out[0], trajectory=_tampered_trajectory(out[0].trajectory)),
         out[1])),
    (Op("map_point", {"gamma": 2.0, "b": 2.3}),
     lambda out: (out[0], dataclasses.replace(out[1], winding=0))),
    (Op("bracket", {"gamma": 5.0, "tol_b": 1e-2}),
     lambda br: dataclasses.replace(br, b_lo=br.b_lo - 0.02)),
    (Op("eps_of_eta", {"eta": 0.004}),
     lambda out: (out[0], dataclasses.replace(out[1], W=out[1].W + 1e-4))),
    (Op("bbar", {"gamma": 20.0}),
     lambda crit: dataclasses.replace(crit, tail_rate_fit=0.6)),
    (Op("bbar", {"gamma": 20.0}),
     lambda crit: dataclasses.replace(crit, bbar=crit.bbar + 1e-9)),
    (Op("empirical", {"gamma": 2.0, "b": 1.5 * workloads.b_star(2.0),
                      "amp": 0.05}),
     lambda rep: dataclasses.replace(rep, decayed=False)),
    (Op("gamma1_limit", {"a1": -1.0}),
     lambda out: dict(out, limit=out["limit"] + 2e-5)),
    (Op("g_by_ode", {"x": 6.0, "xi": 0.7}), lambda g: g * (1.0 + 1e-3)),
    (Op("single_site", {"xi0": 1.3, "gamma": 2.0, "c": 0.7, "t_end": 3.0}),
     lambda sol: dataclasses.replace(sol, f=sol.f * (1.0 + 1e-9))),
    (Op("gelation_scan", {"gamma": 1.6, "n_chains": 2, "K": 8,
                          "horizon": 5.0}), _tamper_scan),
]


@pytest.mark.parametrize("op,tamper", CASES,
                         ids=[f"{op.kind}-{i}" for i, (op, _) in
                              enumerate(CASES)])
def test_oracle_rejects_tampered_result(op, tamper):
    result = ops.run_op(op)
    ops.check(op, result)
    with pytest.raises(ops.OracleError):
        ops.check(op, tamper(result))


def test_cli_oracle_rejects_tampered_output():
    argv = ["b-star", "--gamma", "3.5"]
    op = Op("cli", {"argv": argv})
    expected = {tuple(argv): ops.cli_in_process(argv)}
    result = ops.run_op(op, ops.CliRunner(ROOT, run.child_env()))
    ops.check(op, result, expected)
    with pytest.raises(ops.OracleError):
        ops.check(op, ops.CliResult(0, result.stdout + b" "), expected)


# ---------------------------------------------------------------------------
# reporting helpers and the contract


def test_tail_has_ten_operations_beyond_it():
    value, pct = run.tail(range(40))
    assert value == 29 and pct == 75.0
    assert run.tail(range(9)) == (8, 100.0)


def test_parse_importtime_nests_and_sums_gelshoot():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |       2000 |   numpy",
        "import time:        50 |       2100 | gelshoot.profiles",
        "import time:        30 |         30 | gelshoot",
        "import time:        10 |        500 |     scipy.optimize",
        "import time:        20 |        900 |   scipy.integrate",
        "import time:        40 |        950 | gelshoot.greens",
    ])
    m = run.parse_importtime(text)
    assert m["import.total_ms"] == pytest.approx(3.08)
    assert m["import.gelshoot_self_ms"] == pytest.approx(0.12)
    assert m["import.numpy_ms"] == pytest.approx(2.0)
    assert m["import.scipy_optimize_ms"] == pytest.approx(0.5)
    assert m["import.scipy_interpolate_ms"] == 0.0


def test_layer_units_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers = json.loads((BENCH / "layers.json").read_text())
    for key in ("end_to_end", "per_layer"):
        listed = {m["name"]: (m["unit"], m["better"]) for m in spec[key]}
        assert listed == {k: (v["unit"], v["better"])
                          for k, v in layers[key].items()}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "shoot-map", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
