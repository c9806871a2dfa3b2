"""Self-test of the benchmark, at a tiny run length.

    python3 -m pytest perfbench/test_run.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from carptdsc import bench, maens, solution  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _main(capsys, workload: str, trace: int) -> tuple[list[str], dict]:
    assert run.main(["--workload", workload, "--seed", "0", "--seconds", "0",
                     "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_printed_with_its_unit(capsys, monkeypatch, trace, kind):
    monkeypatch.setattr(workloads, "DEPARTURE_GEN_SEEDS", 1)  # one 3-plan operation
    lines, result = _main(capsys, "departures", trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    printed = {tuple(line.split()[::2]) for line in lines[:-1] if len(line.split()) == 3}
    assert all((name, unit) in printed for name, unit in expected.items())


def _good_solution(p: workloads.Prepared) -> tuple[solution.Solution, float]:
    plan = maens.init_individual(p.inst, p.sp, np.random.Generator(np.random.PCG64(0)))
    sol = solution.Solution(plan, tuple(0.0 for _ in solution.split_routes(plan)))
    return sol, solution.evaluate_solution(sol, p.inst, p.sp)


def test_checks_reject_hand_corrupted_solutions():
    static, k03 = workloads.classic_setup(0)[:2]
    sol, cost = _good_solution(static)
    assert workloads.check_solution(sol, cost, static) == ""

    dropped = solution.Solution(sol.plan[:1] + sol.plan[2:], sol.departures)
    assert "all_tasks_served" in workloads.check_solution(dropped, cost, static)
    assert workloads.check_solution(sol, cost - 1.0, static).startswith("cost mismatch")

    sol, cost = _good_solution(k03)
    late = solution.Solution(sol.plan, (k03.inst.horizon + 1.0,) + sol.departures[1:])
    assert workloads.check_solution(late, cost, k03).startswith("infeasible: horizon")


def test_corrupted_output_counts_as_failed(capsys, monkeypatch):
    static = workloads.classic_setup(0)[0]
    sol, cost = _good_solution(static)
    corrupted = solution.Solution(sol.plan[:1] + sol.plan[2:], sol.departures)

    def check(candidate):
        out = workloads.Outcome(case=static.case, k=0.0, three_segment=False, cost=cost)
        out.reason = workloads.check_solution(candidate, cost, static)
        return out

    fake = workloads.Workload(
        "corrupt", "one good and one corrupted solution", lambda seed: None,
        lambda state, seed: [lambda: [check(sol)], lambda: [check(corrupted)]],
        lambda *args: {})
    monkeypatch.setitem(workloads.WORKLOADS, "corrupt", fake)
    lines, result = _main(capsys, "corrupt", 0)
    assert (result["attempted"], result["failed"], result["correct"]) == (2, 1, False)
    assert result["metrics"]["pass_ratio"]["value"] == 0.5
    assert any("all_tasks_served" in line for line in lines)


def test_timings_scale_with_host_speed_and_nothing_else():
    records = [([workloads.Outcome("a", 0.0, False, cost=7.0)], 2.0, False)]
    usual = run.end_to_end([0.5], records, 1.0)
    slow_host = run.end_to_end([0.5], records, 0.5)
    for name, factor in (("setup_s", 0.5), ("run_s_p50", 0.5), ("runs_per_min", 2.0),
                         ("plans_per_s", 2.0), ("pass_ratio", 1.0), ("cost_mean", 1.0)):
        assert slow_host[name]["value"] == pytest.approx(usual[name]["value"] * factor)


def test_known_defect_counts_as_failed_but_not_incorrect():
    out = workloads.Outcome("gdb1-3lp-k3", 3.0, True, reason="SolverError: none")
    assert not out.ok and out.known_defect
    out = workloads.Outcome("gdb1-3lp-k3", 3.0, True, reason="ValueError: bad")
    assert not out.known_defect


def test_stats_step_skips_cases_whose_runs_all_failed():
    outcomes = [
        workloads.Outcome("a", 1.0, True, cost=9.0, cost_at_0=10.0),
        workloads.Outcome("a", 1.0, True, cost=8.0, cost_at_0=10.0),
        workloads.Outcome("b", 3.0, True, reason="SolverError: none"),
    ]
    assert run.stats_step(bench, outcomes) == 1


def test_tracer_restores_every_name():
    before = (bench.evolve, maens.crossover, solution.RouteEvaluator.evaluate)
    with tracing.Tracer().installed():
        assert bench.evolve is maens.evolve is not before[0]
    assert (bench.evolve, maens.crossover, solution.RouteEvaluator.evaluate) == before


def test_crosscheck_matches_the_roadmap_count():
    assert run.crosscheck(workloads, tracing) == run.CROSSCHECK_EVALUATIONS


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "classic", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
