import random
import re
import signal
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest

from carptdsc.bench import RunConfig, prepare_instance, solve_once_detailed
from carptdsc.cli import main
from carptdsc.instance import InstanceError
from carptdsc.instance_io import (
    ParseError, generate_td, parse_carp, read_annotation, serialize_annotation,
)

from conftest import DATA

GDB1 = str(DATA / "gdb1.dat")
R101 = str(DATA / "r101_25.txt")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_prints_solution(capsys):
    code, out, _ = run_cli(
        capsys, "solve", "--instance", GDB1, "--seed", "1",
        "--psize", "4", "--generations", "2",
    )
    assert code == 0
    assert out.startswith("route 1:")
    assert "total " in out.splitlines()[-1]


def test_solve_warns_about_an_infeasible_final_plan(capsys):
    # stage 2 on gdb1 3LP k = 0.5, gen-seed 0 moves route 4's departure so
    # far that it returns after H = 728; stdout and exit status stay as
    # for a feasible plan
    code, out, err = run_cli(
        capsys, "solve", "--instance", GDB1, "--family", "3lp", "--slope-set", "0.5",
        "--gen-seed", "0", "--seed", "0",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[3].startswith("route 4: 5 31 10 1 30; depart 491.629239;")
    assert lines[-1] == "total 1418.503713"
    assert err == (
        "warning: the final plan is infeasible: horizon_tasks, horizon_return; "
        "route 4 departs at 491.629239 and returns at 885.628890, after the horizon 728\n"
    )
    code, _, err = run_cli(capsys, "solve", "--instance", GDB1, "--generations", "2")
    assert (code, err) == (0, "")


def test_solve_prints_its_recorded_output(capsys):
    """Both stages are deterministic per seed: gdb1 3LP k = 2 (gen-seed 3,
    seed 0) prints the recorded plan, departures and costs byte for byte."""
    code, out, err = run_cli(
        capsys, "solve", "--instance", GDB1, "--family", "3lp", "--slope-set", "2",
        "--gen-seed", "3", "--seed", "0",
    )
    assert (code, err) == (0, "")
    assert out == (DATA / "gdb1-3lp-k2-solve-seed0.txt").read_text()


def test_solve_with_golden_section_prints_its_recorded_output(capsys):
    """Stage 2 by golden-section search is deterministic too: gdb1 3LP
    k = 1 (gen-seed 3, seed 0) prints the recorded plan, departures and
    costs byte for byte."""
    code, out, err = run_cli(
        capsys, "solve", "--instance", GDB1, "--family", "3lp", "--slope-set", "1",
        "--gen-seed", "3", "--seed", "0",
    )
    assert (code, err) == (0, "")
    assert out == (DATA / "gdb1-3lp-k1-solve-seed0.txt").read_text()


def test_solve_crossover_only_prints_its_recorded_output(capsys):
    """Without local search every child is priced from crossover's route
    totals, kept up without walks on this exact instance: a generated
    long-route instance (10 generations, pls 0, seed 0) prints the recorded
    plan and costs byte for byte."""
    code, out, err = run_cli(
        capsys, "solve", "--instance", str(DATA / "long-routes-0.dat"),
        "--generations", "10", "--pls", "0", "--seed", "0",
    )
    assert (code, err) == (0, "")
    assert out == (DATA / "long-routes-0-solve-seed0.txt").read_text()


def test_solve_with_local_search_on_long_routes_prints_its_recorded_output(capsys):
    """A static long-route instance with local search on (5 generations,
    seed 0) runs crossover's repair and the moves on routes of 10-16
    tasks, and prints the recorded plan and costs byte for byte."""
    code, out, err = run_cli(
        capsys, "solve", "--instance", str(DATA / "long-routes-0.dat"),
        "--generations", "5", "--seed", "0",
    )
    assert (code, err) == (0, "")
    assert out == (DATA / "long-routes-0-solve-ls-seed0.txt").read_text()


def test_solve_on_a_static_instance_prints_its_recorded_output(capsys):
    """Static gdb1 (seed 0, the CLI defaults) runs crossover and local search
    on an instance with no ramp and no horizon, and prints the recorded
    plan and costs byte for byte."""
    code, out, err = run_cli(capsys, "solve", "--instance", GDB1, "--seed", "0")
    assert (code, err) == (0, "")
    assert out == (DATA / "gdb1-static-solve-seed0.txt").read_text()


def test_solve_on_a_static_instance_with_fractional_costs_prints_its_recorded_output(capsys):
    """gdb1 with every required-edge cost + 0.1 is static but not exact, so
    crossover's repair takes the general loop over route tables: seed 0 at
    the CLI defaults prints the output recorded before the exact loop was
    added, byte for byte."""
    code, out, err = run_cli(capsys, "solve", "--instance", str(DATA / "gdb1-tenth.dat"),
                             "--seed", "0")
    assert (code, err) == (0, "")
    assert out == (DATA / "gdb1-tenth-solve-seed0.txt").read_text()


def test_solve_on_a_solomon_instance_prints_its_recorded_output(capsys):
    """r101_25 has one orientation per task and non-integral Euclidean legs,
    so crossover's repair screens every cut of every route table: seed 0
    at the CLI defaults prints the recorded plan, departures and costs
    byte for byte."""
    code, out, err = run_cli(capsys, "solve", "--instance", R101, "--seed", "0")
    assert (code, err) == (0, "")
    assert out == (DATA / "r101_25-solve-seed0.txt").read_text()


def test_solve_solomon_with_truncation(capsys):
    code, out, _ = run_cli(
        capsys, "solve", "--instance", R101, "--max-customers", "8",
        "--algorithm", "init-only", "--seed", "2",
    )
    assert code == 0
    assert out.startswith("route 1:")


@pytest.mark.parametrize("count", ["-1", "-5"])
def test_solve_rejects_a_negative_max_customers(capsys, count):
    code, out, err = run_cli(capsys, "solve", "--instance", R101, "--max-customers", count,
                             "--algorithm", "init-only")
    assert (code, out) == (1, "")
    assert err == f"error: max_customers must be non-negative, got {count}\n"


@pytest.mark.parametrize("argv,message", [
    (["solve", "--seed", "-1"], "seeds must lie in [0, 2**32), got base seed -1 for 1 run(s)"),
    (["solve", "--seed", "4294967296", "--algorithm", "init-only"],
     "seeds must lie in [0, 2**32), got base seed 4294967296 for 1 run(s)"),
    (["bench", "--seed", "-1", "--runs", "1"],
     "seeds must lie in [0, 2**32), got base seed -1 for 1 run(s)"),
    (["bench", "--seed", "4294967295", "--runs", "2", "--algorithm", "init-only"],
     "seeds must lie in [0, 2**32), got base seed 4294967295 for 2 run(s)"),
    (["solve", "--family", "3lp", "--gen-seed", "-1"], "generator seed must be non-negative, got -1"),
    (["generate", "--family", "3lp", "--gen-seed", "-1"],
     "generator seed must be non-negative, got -1"),
])
def test_seeds_outside_their_range_are_rejected(capsys, argv, message):
    code, out, err = run_cli(capsys, argv[0], "--instance", GDB1, *argv[1:])
    assert (code, out) == (1, "")
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("argv,run", [
    (["solve"], {"runs": 1}),
    (["bench"], {}),
    (["oracle", "--plan", "0 1 0", "--oracle-step", "1"], {}),
    (["generate", "--family", "3lp"], {"family": "3lp"}),
])
def test_bare_instance_builds_the_default_config(monkeypatch, capsys, argv, run):
    from carptdsc import bench, cli
    from carptdsc.bench import RunConfig

    built = []
    config = cli._config

    def record(args, **kw):
        built.append(config(args, **kw))
        return built[-1]

    def stop(*args, **kwargs):
        raise RuntimeError("stop")

    monkeypatch.setattr(cli, "_config", record)
    for name in ("prepare_instance", "run_experiment", "load_instance_text"):
        monkeypatch.setattr(bench, name, stop)
    code, _, err = run_cli(capsys, argv[0], "--instance", GDB1, *argv[1:])
    assert (code, err) == (1, "error: stop\n")
    want = RunConfig(instances=(GDB1,), **run)
    assert built == [want]
    assert built[0].maens_params == want.maens_params


def test_generate_and_reuse_annotation(tmp_path, capsys):
    ann_path = str(tmp_path / "gdb1-3lp.ann")
    code, _, _ = run_cli(
        capsys, "generate", "--instance", GDB1, "--family", "3lp",
        "--slope-set", "2", "--gen-seed", "4", "--out", ann_path,
    )
    assert code == 0
    assert Path(ann_path).read_text().startswith("carptdsc-annotation v1")

    code, out, _ = run_cli(
        capsys, "solve", "--instance", GDB1, "--annotation", ann_path,
        "--algorithm", "init-only", "--seed", "3",
    )
    assert code == 0
    assert "depart" in out


def test_generate_without_out_writes_the_annotation_to_stdout(tmp_path, capsys):
    ann_path = tmp_path / "gdb1.ann"
    argv = ["generate", "--instance", GDB1, "--family", "3lp", "--slope-set", "2",
            "--gen-seed", "4"]
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    run_cli(capsys, *argv, "--out", str(ann_path))
    assert out == ann_path.read_text()
    _, static = parse_carp(Path(GDB1).read_text())
    _, ann = generate_td(static, "3lp", (2.0,), 4)
    assert read_annotation(out) == ann


def test_solve_trace_needs_a_population(tmp_path, capsys):
    trace_path = tmp_path / "trace.csv"
    code, out, err = run_cli(capsys, "solve", "--instance", GDB1, "--algorithm", "init-only",
                             "--trace", str(trace_path))
    assert (code, out) == (1, "")
    assert err == "error: --trace needs a population-based algorithm\n"
    assert not trace_path.exists()


def test_solve_trace_csv(tmp_path, capsys):
    trace_path = tmp_path / "trace.csv"
    code, _, _ = run_cli(
        capsys, "solve", "--instance", GDB1, "--seed", "1",
        "--psize", "4", "--generations", "3", "--trace", str(trace_path),
    )
    assert code == 0
    lines = trace_path.read_text().strip().splitlines()
    assert lines[0] == "generation,best_penalized,best_feasible"
    assert len(lines) == 4  # header + one row per generation
    best = [float(l.split(",")[1]) for l in lines[1:]]
    assert all(b <= a + 1e-9 for a, b in zip(best, best[1:]))


def test_bench_writes_report(tmp_path, capsys):
    out_path = str(tmp_path / "rep.txt")
    code, out, _ = run_cli(
        capsys, "bench", "--instance", GDB1, "--algorithm", "init-only",
        "--runs", "2", "--seed", "7", "--out", out_path,
    )
    assert code == 0
    assert out.startswith("carptdsc-report v1")
    assert Path(out_path).exists()
    assert Path(out_path + ".csv").exists()


def test_bench_rerun_identical_costs(tmp_path, capsys):
    args = ["bench", "--instance", GDB1, "--algorithm", "init-only",
            "--runs", "3", "--seed", "11"]
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    costs1 = [l.split()[3] for l in out1.splitlines() if l.startswith("run ")]
    costs2 = [l.split()[3] for l in out2.splitlines() if l.startswith("run ")]
    assert costs1 == costs2


def test_oracle_subcommand(tmp_path, capsys):
    ann_path = str(tmp_path / "ann.txt")
    run_cli(capsys, "generate", "--instance", GDB1, "--family", "3lp",
            "--slope-set", "0.5", "--gen-seed", "1", "--out", ann_path)
    code, out, _ = run_cli(
        capsys, "oracle", "--instance", GDB1, "--annotation", ann_path,
        "--plan", "0 1 3 0 5 0", "--oracle-step", "1.0",
    )
    assert code == 0
    assert out.count("oracle depart") == 2
    assert out.strip().splitlines()[-1].startswith("total ")


def test_oracle_out_writes_the_plan_at_the_oracle_departures(tmp_path, capsys):
    out_path = tmp_path / "plan.txt"
    code, out, _ = run_cli(
        capsys, "oracle", "--instance", GDB1, "--family", "3lp", "--slope-set", "2",
        "--gen-seed", "3", "--plan", "0 1 3 0 5 0", "--oracle-step", "0.5",
        "--out", str(out_path),
    )
    assert code == 0
    departs = re.findall(r"oracle depart (\S+) cost (\S+)", out)
    lines = out_path.read_text().splitlines()
    assert len(departs) == 2 and len(lines) == 3
    for (t, cost), line in zip(departs, lines):
        assert line.endswith(f"; depart {t}; cost {cost}")
    assert lines[-1] == out.splitlines()[-1]  # the total line


def test_unreachable_tasks_are_named(tmp_path, capsys):
    # an edge (13, 14) that no deadhead path joins to the depot's component
    text = (Path(GDB1).read_text().replace("VERTICES : 12", "VERTICES : 14")
            .replace("REQUIRED_EDGES : 22", "REQUIRED_EDGES : 23", 1)
            .replace("NON_REQUIRED_EDGE_LIST :",
                     "( 13, 14) cost 5 demand 1\nNON_REQUIRED_EDGE_LIST :"))
    path = tmp_path / "island.dat"
    path.write_text(text)
    reason = ("constructor could not place any remaining task: "
              "the depot cannot reach the unserved tasks 45")
    for extra in ((), ("--family", "3lp")):
        code, out, err = run_cli(capsys, "solve", "--instance", str(path), *extra)
        assert (code, out, err) == (1, "", f"error: {reason}\n")
    code, out, err = run_cli(capsys, "bench", "--instance", str(path), "--runs", "2")
    assert code == 0
    run_lines = [line.split(" ", 5) for line in out.splitlines() if line.startswith("run ")]
    assert [fields[:4] + fields[5:] for fields in run_lines] == [
        ["run", "gdb1", str(seed), "failed", reason] for seed in (0, 1)]
    assert err == "warning: 2 run(s) failed; aggregates cover the rest\n"


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_bench_rejects_fewer_than_one_job(capsys, jobs):
    code, _, err = run_cli(capsys, "bench", "--instance", GDB1, "--runs", "1", "--jobs", jobs)
    assert code == 1
    assert err == f"error: need at least one job, got {jobs}\n"


@pytest.mark.parametrize("flag,value,message", [
    ("--psize", "1", "population size must be >= 2, got 1"),
    ("--generations", "0", "need at least one generation"),
    ("--pls", "2", "local-search probability must be in [0, 1], got 2.0"),
])
def test_bench_rejects_bad_solver_settings_before_any_run(capsys, flag, value, message):
    code, out, err = run_cli(capsys, "bench", "--instance", GDB1, "--runs", "2", flag, value)
    assert (code, out) == (1, "")
    assert err == f"error: {message}\n"


def test_bench_records_an_infeasible_final_plan_as_failed(capsys):
    # the plan that solve warns about: route 4 returns after the horizon
    code, out, err = run_cli(
        capsys, "bench", "--instance", GDB1, "--family", "3lp", "--slope-set", "0.5",
        "--gen-seed", "0", "--runs", "1", "--seed", "0",
    )
    assert code == 0
    assert "instance gdb1 : failed" in out
    run_line = [line for line in out.splitlines() if line.startswith("run ")]
    assert len(run_line) == 1
    assert run_line[0].startswith("run gdb1 0 failed ")
    assert run_line[0].endswith(" infeasible final plan: horizon_tasks, horizon_return")
    assert err == "warning: 1 run(s) failed; aggregates cover the rest\n"


def test_solve_and_bench_keep_flat_routes_at_departure_0(capsys):
    # at 3LP k = 0 no route's cost moves with its departure; stage 2 used to
    # drift every route past H = 728, so solve warned and bench failed both runs
    code, out, err = run_cli(capsys, "solve", "--instance", GDB1, "--family", "3lp",
                             "--slope-set", "0")
    assert (code, err) == (0, "")
    routes = out.splitlines()[:-1]
    assert routes and all("; depart 0.000000;" in line for line in routes)
    code, out, err = run_cli(capsys, "bench", "--instance", GDB1, "--family", "3lp",
                             "--slope-set", "0", "--gen-seed", "3", "--runs", "2")
    assert (code, err) == (0, "")
    assert [line.split()[:3] for line in out.splitlines() if line.startswith("run ")] == [
        ["run", "gdb1", "0"], ["run", "gdb1", "1"]]
    assert "failed" not in out


def test_bench_rejects_an_instance_name_with_whitespace(tmp_path, capsys):
    # read back, "run gdb 1 0 ..." would name an instance "gdb" whose costs are the seeds
    path = tmp_path / "gdb1.dat"
    path.write_text(Path(GDB1).read_text().replace("NAME : gdb1", "NAME : gdb 1"))
    out_path = tmp_path / "r.txt"
    code, out, err = run_cli(capsys, "bench", "--instance", str(path), "--runs", "2",
                             "--generations", "2", "--out", str(out_path))
    assert (code, out) == (1, "")
    assert err == "error: instance name 'gdb 1' contains whitespace; a report cannot hold it\n"
    assert not out_path.exists()


def test_bench_runs_every_instance_given(capsys):
    code, out, _ = run_cli(capsys, "bench", "--instance", GDB1, "--instance", R101,
                           "--algorithm", "init-only", "--runs", "1")
    assert code == 0
    names = [line.split()[1] for line in out.splitlines() if line.startswith("instance ")]
    assert names == ["gdb1", "r101_25"]


@pytest.mark.parametrize("argv", [
    ["solve"],
    ["generate", "--family", "3lp"],
    ["oracle", "--plan", "0 1 3 0 5 0", "--oracle-step", "1"],
])
def test_single_instance_commands_reject_a_second_instance(capsys, argv):
    code, out, err = run_cli(capsys, argv[0], "--instance", GDB1, "--instance", R101, *argv[1:])
    assert (code, out) == (1, "")
    assert err == f"error: {argv[0]} takes one --instance, got 2\n"


def test_stats_subcommand(tmp_path, capsys):
    rep_a = str(tmp_path / "a.txt")
    rep_b = str(tmp_path / "b.txt")
    run_cli(capsys, "bench", "--instance", GDB1, "--algorithm", "init-only",
            "--runs", "3", "--seed", "0", "--out", rep_a)
    run_cli(capsys, "bench", "--instance", GDB1, "--algorithm", "init-only",
            "--runs", "3", "--seed", "60", "--out", rep_b)
    lb_path = tmp_path / "lb.txt"
    lb_path.write_text("gdb1 316\n")
    code, out, _ = run_cli(capsys, "stats", rep_a, rep_b, "--lb", str(lb_path))
    assert code == 0
    assert "w-d-l" in out
    assert "No.best" in out
    assert "Ave.PDR vs LB" in out


def test_missing_file_nonzero_exit(capsys):
    code, _, err = run_cli(capsys, "solve", "--instance", "/nope/missing.dat")
    assert code == 1
    assert "error:" in err


def test_bad_plan_nonzero_exit(capsys):
    code, _, err = run_cli(
        capsys, "oracle", "--instance", GDB1, "--plan", "1 2 3",
        "--oracle-step", "1.0",
    )
    assert code == 1
    assert "error:" in err


def test_stats_with_an_all_failed_instance(tmp_path, capsys):
    report = (
        "carptdsc-report v1\nalgorithm : a\nruns : 2\nbase_seed : 0\n"
        "instance fine : ave 5.0 std 0.0 best 5.0 ave_time 0.5\n"
        "run fine 0 5.0 0.5\nrun fine 1 5.0 0.5\n"
        "instance dead : failed ave_time 0.1\n"
        "run dead 0 failed 0.1 no feasible plan\nrun dead 1 failed 0.1 boom\n"
    )
    path = tmp_path / "r.txt"
    path.write_text(report)
    lb_path = tmp_path / "lb.txt"
    lb_path.write_text("fine 4\n\ndead 1\n")
    code, out, err = run_cli(capsys, "stats", str(path), str(path), "--lb", str(lb_path))
    assert (code, err) == (0, "")
    assert "fine: ave 5.000 vs 5.000" in out
    assert "dead: every run failed in one report; left out" in out
    assert "w-d-l 0-1-0" in out
    assert "No.best 1 vs 1" in out
    assert "Ave.PDR vs LB: 25.000% vs 25.000%" in out


@pytest.mark.parametrize("bad", [
    "run gdb1 0", "run gdb1 zero 320.0 0.5", "run gdb1 0 320.0 fast",
    "run gdb1 0 nan 0.5", "run gdb1 0 -inf 0.5", "run gdb1 0 320.0 inf", "run gdb1 0 failed nan",
])
def test_stats_names_a_malformed_run_line(tmp_path, capsys, bad):
    path = tmp_path / "r.txt"
    path.write_text(
        "carptdsc-report v1\nalgorithm : a\nruns : 1\nbase_seed : 0\n\n"
        f"instance gdb1 : ave 320.0 std 0.0 best 320.0 ave_time 0.5\n{bad}\n"
    )
    code, _, err = run_cli(capsys, "stats", str(path), str(path))
    assert code == 1
    assert "report line 7:" in err
    assert "run <instance> <seed> <cost or failed> <seconds> [reason]" in err
    assert repr(bad) in err


@pytest.mark.parametrize("bad", ["gdb1 abc", "gdb1 316 extra", "gdb1 inf", "gdb1"])
def test_stats_names_a_malformed_lb_line(tmp_path, capsys, bad):
    path = tmp_path / "r.txt"
    path.write_text(
        "carptdsc-report v1\nalgorithm : a\nruns : 1\nbase_seed : 0\n"
        "instance gdb1 : ave 320.0 std 0.0 best 320.0 ave_time 0.5\nrun gdb1 0 320.0 0.5\n"
    )
    lb_path = tmp_path / "lb.txt"
    lb_path.write_text(f"gdb1 316\n\n{bad}\n")
    code, _, err = run_cli(capsys, "stats", str(path), str(path), "--lb", str(lb_path))
    assert code == 1
    assert err == f"error: lb line 3: want '<instance> <lower bound>', got {bad!r}\n"


def test_stats_names_a_bad_header_line(tmp_path, capsys):
    path = tmp_path / "r.txt"
    path.write_text("carptdsc-report v1\nalgorithm : a\nruns : two\nbase_seed : 0\n")
    code, _, err = run_cli(capsys, "stats", str(path), str(path))
    assert code == 1
    assert "report line 3: want 'runs : <integer>', got 'runs : two'" in err


NO_TASKS_DAT = """NAME : empty
VERTICES : 2
REQUIRED_EDGES : 0
NON_REQUIRED_EDGES : 1
VEHICLES : 1
CAPACITY : 5
REQUIRED_EDGE_LIST :
NON_REQUIRED_EDGE_LIST :
( 1, 2) cost 3
DEPOT : 1
"""


@pytest.mark.parametrize("extra", [(), ("--family", "3lp")])
def test_solve_rejects_an_instance_without_tasks(tmp_path, capsys, extra):
    path = tmp_path / "empty.dat"
    path.write_text(NO_TASKS_DAT)
    code, out, err = run_cli(capsys, "solve", "--instance", str(path), *extra)
    assert (code, out) == (1, "")
    assert err == "error: instance has no tasks\n"


def test_solve_out_file_matches_stdout(tmp_path, capsys):
    out_path = tmp_path / "sol.txt"
    code, out, _ = run_cli(
        capsys, "solve", "--instance", GDB1, "--algorithm", "init-only",
        "--seed", "3", "--out", str(out_path),
    )
    assert code == 0
    assert out_path.read_text() == out


QUICK = ("--generations", "1", "--psize", "2")


def _horizon_annotation(value):
    def argv(tmp_path):
        path = tmp_path / "gdb1.ann"
        main(["generate", "--instance", GDB1, "--family", "3lp", "--slope-set", "2",
              "--gen-seed", "3", "--out", str(path)])
        lines = [f"horizon : {value}" if line.startswith("horizon") else line
                 for line in path.read_text().splitlines()]
        path.write_text("\n".join(lines) + "\n")
        return ["solve", "--instance", GDB1, "--annotation", str(path),
                "--algorithm", "maens-only", *QUICK]
    return argv


def _nan_capacity_instance(tmp_path):
    path = tmp_path / "gdb1.dat"
    path.write_text(Path(GDB1).read_text().replace("CAPACITY : 5", "CAPACITY : nan"))
    return ["solve", "--instance", str(path), *QUICK]


def _nan_demand_instance(tmp_path):
    path = tmp_path / "gdb1.dat"
    path.write_text(Path(GDB1).read_text().replace(
        "( 1, 2) cost 13 demand 1", "( 1, 2) cost 13 demand nan"))
    return ["solve", "--instance", str(path), *QUICK]


def _nan_edge_cost_instance(tmp_path):
    path = tmp_path / "gdb1.dat"
    path.write_text(Path(GDB1).read_text()
                    .replace("NON_REQUIRED_EDGES : 0", "NON_REQUIRED_EDGES : 1")
                    .replace("DEPOT : 1", "( 1, 12) cost nan\nDEPOT : 1"))
    return ["solve", "--instance", str(path), *QUICK]


def _oracle(step, plan="0 1 3 0 5 0"):
    return ["oracle", "--instance", GDB1, "--family", "3lp", "--slope-set", "2",
            "--gen-seed", "3", "--plan", plan, "--oracle-step", step]


@pytest.mark.parametrize("argv,message", [
    (["solve", "--instance", GDB1, "--family", "3lp", "--slope-set", "nan", *QUICK],
     "k must be finite, got nan"),
    (["solve", "--instance", GDB1, "--family", "3lp", "--slope-set", "inf", *QUICK],
     "k must be finite, got inf"),
    (_oracle("nan"), "step must be finite and positive, got nan"),
    (_oracle("inf"), "step must be finite and positive, got inf"),
    (_oracle("1e-320"), "step 1e-320 is too small: a grid on [0.0, 714.0] would be infinite"),
    (_horizon_annotation("nan"), "line 4: horizon must be finite and positive, got nan"),
    (_horizon_annotation("inf"), "line 4: horizon must be finite and positive, got inf"),
    (_nan_capacity_instance, "vehicle capacity must be positive, got nan"),
    (_nan_demand_instance, "task 1 demand must be non-negative, got nan"),
    (_nan_edge_cost_instance, "arc 45 travel time and cost must be non-negative, got nan and nan"),
], ids=["slope-nan", "slope-inf", "oracle-step-nan", "oracle-step-inf",
        "oracle-step-subnormal", "horizon-nan", "horizon-inf", "capacity-nan", "demand-nan",
        "edge-cost-nan"])
def test_non_finite_inputs_are_rejected(tmp_path, capsys, argv, message):
    if callable(argv):
        argv = argv(tmp_path)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == f"error: {message}\n"


def test_oracle_warns_about_an_infeasible_plan(capsys):
    # task 1 served twice and every other task left unserved; stdout and
    # exit status stay as for a feasible plan
    code, out, err = run_cli(capsys, *_oracle("0.1", plan="0 1 1 0"))
    assert code == 0
    assert out.splitlines()[-1] == "total 61.742807"
    assert err == ("warning: the plan at the oracle departures is infeasible: "
                   "no_duplicate_service, all_tasks_served\n")
    # a plan that serves every task once, each route back by the horizon
    full = "0 1 42 19 28 0 7 10 35 11 17 0 40 5 29 38 31 0 23 44 0 15 22 34 26 4 0 14 0"
    code, out, err = run_cli(capsys, *_oracle("0.1", plan=full))
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == "total 1424.542493"


@pytest.mark.parametrize("plan", ["0 99999 0", "0 1 99999 0", "0 1 0 99999 0"])
def test_oracle_names_an_unknown_task_id(capsys, plan):
    # first in its route or not, in the first route or a later one, the ID
    # is named before any route is printed
    code, out, err = run_cli(capsys, *_oracle("1", plan=plan))
    assert (code, out) == (1, "")
    assert err == "error: unknown or depot task ID 99999 in route\n"


def _edited(tmp_path, source, edits):
    """A copy of ``source`` in ``tmp_path`` with each (old, new) text replaced once."""
    text = Path(source).read_text()
    for old, new in edits:
        assert text.count(old) == 1, old
        text = text.replace(old, new)
    path = tmp_path / ("edited-" + Path(source).name)
    path.write_text(text)
    return str(path)


def _instance(source, *edits):
    return lambda tmp_path: ["solve", "--instance", _edited(tmp_path, source, edits),
                             "--algorithm", "init-only"]


def _annotation(*edits, solver=("--algorithm", "init-only")):
    def argv(tmp_path):
        path = tmp_path / "gdb1.ann"
        main(["generate", "--instance", GDB1, "--family", "3lp", "--slope-set", "2",
              "--gen-seed", "3", "--out", str(path)])
        return ["solve", "--instance", GDB1, "--annotation", _edited(tmp_path, path, edits),
                *solver]
    return argv


# lines 4, 11 and 12 of the annotation above
HORIZON = ("horizon : 714.0", "horizon : 1e300")
TASK_5 = "task 5 c_min 19.0 bt 316.4198175685346 et 364.80434393518965"
TASK_6 = TASK_5.replace("task 5", "task 6")
TOO_LARGE = ("arc travel times, arc travel costs and task service costs at their peak on "
             "[0, horizon] sum to {}; they must stay below 2**53")


@pytest.mark.parametrize("argv,message", [
    (lambda tmp_path: ["solve", "--instance", GDB1, "--algorithm", "init-only",
                       "--max-customers", "3"],
     "--max-customers applies to Solomon files, not DAT"),
    (_instance(GDB1, ("VERTICES : 12", "VERTICES : nan")),
     "line 3: VERTICES must be a whole number, got 'nan'"),
    (_instance(GDB1, ("DEPOT : 1", "DEPOT : inf")),
     "line 32: DEPOT must be a whole number, got 'inf'"),
    (_instance(GDB1, ("REQUIRED_EDGES : 22", "REQUIRED_EDGES : 22.7")),
     "line 4: REQUIRED_EDGES must be a whole number, got '22.7'"),
    (_instance(R101, ("\n    1      41 ", "\n  nan      41 ")),
     "line 11: customer number must be a whole number, got 'nan'"),
    (_annotation((TASK_5, TASK_5.replace("task 5", "task 5.5"))),
     "line 11: task ID must be a whole number, got '5.5'"),
    (_annotation((TASK_5, TASK_5.replace("c_min 19.0", "c_min x"))),
     "line 11: non-numeric c_min: 'x'"),
    (_instance(GDB1, ("( 1, 2) cost 13 demand 1", "( 1, 2) cost nan demand 1")),
     "line 9: tasks 1 and 2: c_min must be finite, got nan"),
    (_annotation((TASK_5, TASK_5.replace("bt 316.4198175685346", "bt 900"))),
     "line 11: task 5: need 0 <= bt <= et, got bt=900.0, et=364.80434393518965"),
    (_instance(R101, ("  7         50  ", "  7        500  ")),
     "line 12: task 2: need 0 <= bt <= et, got bt=500.0, et=60.0"),
    (_instance(GDB1, ("VERTICES : 12", "VERTICES : 13"), ("DEPOT : 1", "DEPOT : 13")),
     "depot vertex 13 never appears in the edge lists"),
    (_instance(GDB1, ("DEPOT : 1", "DEPOT : 99")),
     "depot vertex 99 never appears in the edge lists"),
    # a full solve: local search cycled through rounding-sized "gains" here
    (lambda tmp_path: ["solve", "--instance", _edited(tmp_path, GDB1, [
        ("( 1, 2) cost 13 demand 1", "( 1, 2) cost 1e308 demand 1")]),
        "--generations", "2", "--psize", "2"],
     TOO_LARGE.format("inf")),
    (_instance(GDB1, ("NON_REQUIRED_EDGES : 0", "NON_REQUIRED_EDGES : 1"),
               ("DEPOT : 1", "( 1, 12) cost inf\nDEPOT : 1")),
     "arc 45 travel time and cost must be finite, got inf and inf"),
    (_instance(R101, ("\n    2      35 ", "\n    1      35 ")),
     "line 12: customer number must be 2, its row's position after the depot, got 1"),
    (lambda tmp_path: [*_annotation()(tmp_path), "--family", "2lp"],
     "--annotation supplies the time-dependent costs and --family generates them; "
     "give one, not both"),
    (lambda tmp_path: ["solve", "--instance", GDB1, "--algorithm", "init-only",
                       "--slope-set", "2", "--gen-seed", "5"],
     "--slope-set needs --family, or no cost layer is generated"),
    (lambda tmp_path: [*_annotation()(tmp_path), "--gen-seed", "5"],
     "--gen-seed needs --family, or no cost layer is generated"),
    (lambda tmp_path: ["solve", "--instance", GDB1, "--algorithm", "init-only",
                       "--family", "2lp", "--slope-set", "2"],
     "--slope-set applies to --family 3lp; 2lp has slope 1 everywhere"),
    # a full solve: local search cycled here too, and ncs overflowed squaring 1e300
    (_annotation(HORIZON, (TASK_5, "task 5 c_min 19.0 bt 1e299 et 2e299"),
                 (TASK_6, "task 6 c_min 19.0 bt 1e299 et 2e299"),
                 solver=("--generations", "2", "--psize", "2")),
     TOO_LARGE.format("8.72e+301")),
    (_annotation(HORIZON, solver=("--generations", "2", "--psize", "2")),
     TOO_LARGE.format("8.8e+301")),
    (_annotation(("family : 3lp", "family : banana")),
     "line 2: family must be '2lp' or '3lp', got 'banana'"),
    (_annotation(("family : 3lp", "family : 2lp")),
     "line 2: family 2lp disagrees with the task records; "
     "2lp holds if and only if every task has bt = et = 0"),
    (_annotation(("k : 2.0", "k : -inf")), "line 3: k must be finite and non-negative, got -inf"),
    (_instance(R101, ("\n    1      41 ", "\n    1     inf ")),
     "line 11: coordinates must be finite, got (inf, 49.0)"),
    (_instance(GDB1, ("VERTICES : 12", "VERTICES : 13")),
     "12 distinct vertices referenced, header says 13"),
    (lambda tmp_path: _oracle("1", plan="0 1.5 0"), "--plan takes whole task IDs, got '1.5'"),
], ids=["max-customers-on-dat", "vertices-nan", "depot-inf", "required-edges-fraction",
        "customer-number-nan", "annotation-task-id-fraction", "annotation-c-min-text",
        "edge-cost-nan", "annotation-bt-after-et", "customer-ready-after-due",
        "isolated-depot", "unknown-depot", "edge-cost-1e308", "non-required-edge-cost-inf",
        "customer-renumbered", "annotation-with-family", "slope-set-without-family",
        "gen-seed-without-family", "slope-set-with-2lp", "annotation-huge-horizon-and-windows",
        "annotation-huge-horizon", "annotation-family-unknown", "annotation-family-disagrees",
        "annotation-k-minus-inf", "customer-coordinate-inf", "vertex-no-edge-touches",
        "oracle-plan-fraction"])
def test_malformed_input_files_name_their_field(tmp_path, capsys, argv, message):
    with _answers_within_10_s("this case"):
        code, out, err = run_cli(capsys, *argv(tmp_path))
    assert (code, out) == (1, "")
    assert err == f"error: {message}\n"


@contextmanager
def _answers_within_10_s(what):
    def hung(signum, frame):  # a case that loops fails here rather than hanging the suite
        pytest.fail(f"{what}: no answer within 10 s")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(10)
    try:
        yield
    except Exception as exc:
        pytest.fail(f"{what}: {type(exc).__name__}: {exc}")
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


FUZZ_VALUES = ("0", "-1", "1e308", "nan", "inf", "-inf", "", "x")
NUMBER = re.compile(r"\d+(?:\.\d+)?(?:e[+-]?\d+)?")


def test_mutated_input_files_solve_or_fail_to_load(tmp_path):
    """A seeded mutation fuzzer over the three input formats.

    Each case changes one number of gdb1.dat, r101_25.txt or a gdb1 3LP
    annotation to one of ``FUZZ_VALUES``, or drops, duplicates or
    truncates one line.  The copy must load and solve ``init-only``, or
    fail to load with a ParseError or InstanceError.
    """
    _, gdb1 = parse_carp(Path(GDB1).read_text())
    sources = {"gdb1.dat": Path(GDB1).read_text(), "r101_25.txt": Path(R101).read_text(),
               "gdb1.ann": serialize_annotation(generate_td(gdb1, "3lp", (2.0,), 3)[1])}
    mutated = tmp_path / "mutated"
    rng = random.Random(0)
    for case in range(2000):
        source = rng.choice(list(sources))
        text = sources[source]
        if rng.random() < 0.5:
            m = rng.choice(list(NUMBER.finditer(text)))
            value = rng.choice(FUZZ_VALUES)
            what = f"{m.group()!r} at offset {m.start()} -> {value!r}"
            text = text[:m.start()] + value + text[m.end():]
        else:
            lines = text.splitlines(keepends=True)
            i = rng.randrange(len(lines))
            what, lines[i] = rng.choice((
                ("dropped", ""),
                ("duplicated", lines[i] * 2),
                ("truncated", lines[i][:rng.randrange(len(lines[i]))]),
            ))
            what = f"line {i + 1} {what}"
            text = "".join(lines)
        mutated.write_text(text)
        if source == "gdb1.ann":
            config = RunConfig(instances=(GDB1,), algorithm="init-only", annotation=str(mutated))
        else:
            config = RunConfig(instances=(str(mutated),), algorithm="init-only")
        with _answers_within_10_s(f"case {case}, {source}: {what}"):
            try:
                inst = prepare_instance(config, config.instances[0])
            except (ParseError, InstanceError):
                continue
            solve_once_detailed(inst, config, 0)
