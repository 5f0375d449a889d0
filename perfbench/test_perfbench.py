"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest perfbench
"""

from __future__ import annotations

import csv
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import worker  # noqa: E402
import spans  # noqa: E402
from spans import Tracer, instrument, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from psifrac import analysis, calculus, cli, operators, solver  # noqa: E402


def test_self_time_subtracts_children():
    # outer [0, 10] holds inner [1, 4] and inner [5, 9]
    ticks = iter([0.0, 1.0, 4.0, 5.0, 9.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    inner = tracer.wrap("inner", lambda: None)

    def body():
        inner()
        inner()

    tracer.wrap("outer", body)()
    calls, self_s, durations = tracer.self_times()
    assert calls == {"outer": 1, "inner": 2}
    assert self_s == {"outer": 3.0, "inner": 7.0}
    assert durations["inner"] == [3.0, 4.0]
    assert [span[3] for span in tracer.spans] == [-1, 0, 0]


def test_patching_a_missing_function_fails_loudly():
    with pytest.raises(AttributeError, match="solve_e"):
        Tracer().patch(({},), "solve_e", "operators.solve_e")


def _namespaces():
    owners = [calculus, operators, analysis, solver, cli]
    owners = [vars(m) for m in owners]
    owners += [vars(operators.ComposedOperator), vars(analysis.TentBasis), cli._COMMANDS]
    return [dict(ns) for ns in owners]


def test_traced_pass_counts_and_restores_originals(tmp_path):
    before = _namespaces()
    tracer = Tracer()
    try:
        instrument(tracer)
        assert operators.ComposedOperator.solve_interior.__wrapped__
        main = tracer.wrap("cli.main", cli.main)
        invocations = WORKLOADS["certify-n1025"].invocations(0, smoke=True)
        _, problems, _ = worker.run_pass(main, invocations, tmp_path, tracer)
    finally:
        tracer.restore()
    after = _namespaces()
    for old, new in zip(before, after):
        assert old.keys() == new.keys()
        assert all(old[k] is new[k] for k in old)
    assert not any(problems)

    m = {k: v for k, (v, _) in layer_metrics(tracer).items()}
    assert m["cli.main.calls"] == 3
    assert m["operators.principal_eigenpair.calls"] == 3
    assert m["solver.solve_between.calls"] == 2
    assert m["solver.converged_frac"] == 1.0
    assert m["operators.eigen_iterations"] > 0
    # self times partition the top-level spans exactly
    top = sum(end - start for _, start, end, parent, _ in tracer.spans if parent < 0)
    modules = sum(m[f"{mod}.self_s"] for mod in spans.MODULES)
    assert modules == pytest.approx(top, rel=1e-9)
    assert {span[4] for span in tracer.spans} == {1, 2, 3}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_pass_is_correct(name, tmp_path):
    invocations = WORKLOADS[name].invocations(7, smoke=True)
    wall, problems, errors = worker.run_pass(cli.main, invocations, tmp_path)
    assert wall > 0
    assert problems == [[] for _ in invocations]
    assert errors and all(0 < e < 0.1 for e in errors)


def test_seed_changes_inputs_not_subcommands():
    for workload in WORKLOADS.values():
        a = [inv.argv for inv in workload.invocations(1)]
        b = [inv.argv for inv in workload.invocations(2)]
        assert a == [inv.argv for inv in workload.invocations(1)]
        assert a != b
        assert sorted(x[0] for x in a) == sorted(x[0] for x in b)


def _run_once(inv, out: Path) -> None:
    out.mkdir()
    assert cli.main(list(inv.argv) + ["--output-dir", str(out)]) == 0
    assert inv.check(0, out)[0] == []


def _edit_report(out: Path, edit) -> None:
    report = json.loads((out / "report.json").read_text())
    edit(report)
    (out / "report.json").write_text(json.dumps(report))


def test_checks_reject_corrupted_outputs(tmp_path):
    verify = WORKLOADS["certify-n1025"].invocations(0, smoke=True)[1]
    assert verify.argv[0] == "verify"
    _run_once(verify, tmp_path / "verify")
    _edit_report(tmp_path / "verify", lambda r: r.update(lambda1=r["lambda1"] * 1.02))
    problems, _ = verify.check(0, tmp_path / "verify")
    assert any("pi^2" in p for p in problems)
    assert verify.check(2, tmp_path / "verify")[0] == ["exit code 2"]

    (sweep,) = WORKLOADS["sweep-n769"].invocations(0, smoke=True)
    _run_once(sweep, tmp_path / "sweep")
    path = tmp_path / "sweep" / "sweep.csv"
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    rows[0].update(converged="true", positive="true")  # lambda ~ 0.5, below mu1
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    problems, _ = sweep.check(0, tmp_path / "sweep")
    assert any("below mu1" in p for p in problems)

    conv = WORKLOADS["fractional-n1025"].invocations(0, smoke=True)[-1]
    _run_once(conv, tmp_path / "conv")

    def grow(report):
        errs = report["convergence"]["hilfer_left/power_1.5"]
        errs[-1] = 2 * errs[-2]

    _edit_report(tmp_path / "conv", grow)
    problems, _ = conv.check(0, tmp_path / "conv")
    assert any("grows" in p for p in problems)


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    cmd = [sys.executable, "perfbench/run.py", "--workload", "certify-n1025", "--seed", "3"]
    return subprocess.run(
        cmd + list(args), cwd=cwd, env=env, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("trace", [0, 1])
def test_run_prints_every_declared_metric(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    proc = _bench(ROOT, "--seconds", "0.1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }


def test_run_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    ignore = shutil.ignore_patterns("out", "__pycache__")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=ignore)
    proc = _bench(tmp_path, "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
