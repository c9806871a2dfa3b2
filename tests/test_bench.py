from pathlib import Path

import pytest

from carptdsc import bench
from carptdsc.bench import (
    RunConfig,
    average_pdr,
    compare_reports,
    pdr,
    rank_sum_p_value,
    read_report,
    run_experiment,
    serialize_report,
    wilcoxon_rank_sum,
    write_report,
)

from conftest import DATA


def test_pdr_basic():
    assert pdr(316.0, 316.0) == 0.0
    assert pdr(363.0, 316.0) == pytest.approx((363.0 - 316.0) / 316.0 * 100.0)
    with pytest.raises(ValueError):
        pdr(1.0, 0.0)
    with pytest.raises(ValueError):
        pdr(1.0, -2.0)


def test_pdr_monotone_in_first_argument():
    assert pdr(10.0, 5.0) < pdr(11.0, 5.0)


def test_rank_sum_hand_computed():
    # interleaved samples 1,3,5,7 vs 2,4,6,8: W = 1+3+5+7 = 16.
    # Exact two-sided p: 2 * P(W <= 16) = 2 * 24/70 = 48/70.
    w, p = rank_sum_p_value([1.0, 3.0, 5.0, 7.0], [2.0, 4.0, 6.0, 8.0])
    assert w == 16.0
    assert p == pytest.approx(48.0 / 70.0, abs=1e-12)


def test_rank_sum_matches_scipy_exact():
    from scipy.stats import mannwhitneyu

    a = [1.0, 3.0, 5.0, 7.0]
    b = [2.0, 4.0, 6.0, 8.0]
    w, p = rank_sum_p_value(a, b)
    ref = mannwhitneyu(a, b, alternative="two-sided", method="exact")
    # U = W - n(n+1)/2
    assert ref.statistic == w - len(a) * (len(a) + 1) / 2.0
    assert p == pytest.approx(ref.pvalue, abs=1e-12)


def test_rank_sum_matches_scipy_normal_approx():
    from scipy.stats import mannwhitneyu

    rng = __import__("numpy").random.default_rng(3)
    a = list(rng.normal(0.0, 1.0, size=20))
    b = list(rng.normal(0.8, 1.0, size=20))
    _, p = rank_sum_p_value(a, b)
    ref = mannwhitneyu(a, b, alternative="two-sided", method="asymptotic",
                       use_continuity=False)
    assert p == pytest.approx(ref.pvalue, rel=1e-9)


def test_wilcoxon_identical_equivalent():
    a = [5.0, 6.0, 7.0, 5.0]
    assert wilcoxon_rank_sum(a, list(a)).verdict == "equivalent"


def test_wilcoxon_clear_separation():
    a = [1.0 + 0.01 * i for i in range(20)]
    b = [10.0 + 0.01 * i for i in range(20)]
    res = wilcoxon_rank_sum(a, b)
    assert res.verdict == "better"
    assert wilcoxon_rank_sum(b, a).verdict == "worse"


def test_wilcoxon_ties_do_not_crash():
    a = [1.0] * 12
    b = [1.0] * 12
    assert wilcoxon_rank_sum(a, b).verdict == "equivalent"


def _desk_config(tmp_path, algorithm="init-only", runs=3, jobs=1, seed=0):
    return RunConfig(
        instances=(str(DATA / "gdb1.dat"),),
        algorithm=algorithm,
        runs=runs,
        base_seed=seed,
        jobs=jobs,
        psize=4,
        generations=3,
        out=str(tmp_path / "report.txt") if tmp_path else None,
    )


def test_run_experiment_aggregates(tmp_path):
    report = run_experiment(_desk_config(tmp_path, runs=3))
    res = report.results[0]
    assert res.name == "gdb1"
    assert len(res.runs) == 3
    assert res.best <= res.ave
    assert [r.seed for r in res.runs] == [0, 1, 2]
    assert all(r.seconds >= 0 for r in res.runs)


def test_run_single_run_stats(tmp_path):
    report = run_experiment(_desk_config(None, runs=1))
    res = report.results[0]
    assert res.ave == res.best
    assert res.std == 0.0


def test_run_experiment_deterministic():
    r1 = run_experiment(_desk_config(None, runs=3))
    r2 = run_experiment(_desk_config(None, runs=3))
    assert [rec.cost for rec in r1.results[0].runs] == [
        rec.cost for rec in r2.results[0].runs
    ]


# on a host with 4 cores: the last case asks for more workers than that
@pytest.mark.parametrize("jobs,runs,sizes", [(8, 2, [2]), (2, 3, [2]), (3, 1, []), (8, 8, [4])])
def test_run_experiment_pool_has_at_most_one_worker_per_run(monkeypatch, jobs, runs, sizes):
    made = []

    class Pool:
        """Records its size in place of starting workers; maps serially."""

        def __init__(self, max_workers):
            made.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(bench.concurrent.futures, "ProcessPoolExecutor", Pool)
    monkeypatch.setattr(bench.os, "cpu_count", lambda: 4)
    report = run_experiment(_desk_config(None, runs=runs, jobs=jobs))
    assert made == sizes
    assert [r.seed for r in report.results[0].runs] == list(range(runs))


def test_run_experiment_jobs_match_serial():
    serial = run_experiment(_desk_config(None, runs=4, jobs=1))
    parallel = run_experiment(_desk_config(None, runs=4, jobs=2))
    assert [r.cost for r in serial.results[0].runs] == [
        r.cost for r in parallel.results[0].runs
    ]


def test_report_roundtrip(tmp_path):
    report = run_experiment(_desk_config(tmp_path, runs=2))
    text = serialize_report(report)
    back = read_report(text)
    assert back.algorithm == report.algorithm
    assert back.results[0].costs == report.results[0].costs
    assert (tmp_path / "report.txt").exists()
    assert (tmp_path / "report.txt.csv").exists()


def test_compare_reports_partition():
    a = run_experiment(_desk_config(None, runs=4, seed=0))
    b = run_experiment(_desk_config(None, runs=4, seed=50))
    cmp = compare_reports(a, b)
    assert cmp.wins + cmp.draws + cmp.losses == 1


def test_average_pdr():
    report = run_experiment(_desk_config(None, runs=2))
    val = average_pdr(report, {"gdb1": 316.0})
    assert val == pytest.approx(pdr(report.results[0].ave, 316.0))
    with pytest.raises(ValueError):
        average_pdr(report, {"other": 1.0})


def test_config_validation():
    with pytest.raises(ValueError, match="at least one run"):
        RunConfig(instances=("x",), runs=0)
    for jobs in (0, -3):
        with pytest.raises(ValueError, match=f"at least one job, got {jobs}"):
            RunConfig(instances=("x",), jobs=jobs)
    with pytest.raises(ValueError, match="unknown algorithm"):
        RunConfig(instances=("x",), algorithm="magic")


@pytest.mark.parametrize("base_seed,runs", [(-1, 1), (-20, 20), (2**32, 1), (2**32 - 19, 20)])
def test_config_rejects_seeds_outside_32_bits(base_seed, runs):
    # mix_seed keeps the low 32 bits, so -1 would repeat 2**32 - 1 and 2**32 repeat 0
    with pytest.raises(ValueError, match=rf"seeds must lie in \[0, 2\*\*32\), "
                                         rf"got base seed {base_seed} for {runs} run"):
        RunConfig(instances=("x",), base_seed=base_seed, runs=runs)


@pytest.mark.parametrize("base_seed,runs", [(0, 1), (2**32 - 1, 1), (2**32 - 20, 20)])
def test_config_accepts_every_32_bit_seed(base_seed, runs):
    assert RunConfig(instances=("x",), base_seed=base_seed, runs=runs).base_seed == base_seed


def test_compare_reports_partition_two_instances():
    text = (
        "carptdsc-report v1\n"
        "algorithm : a\nruns : 3\nbase_seed : 0\n"
        "instance one : ave 1.0 std 0.0 best 1.0 ave_time 0.0\n"
        "run one 0 1.0 0.0\nrun one 1 1.0 0.0\nrun one 2 1.0 0.0\n"
        "instance two : ave 9.0 std 0.0 best 9.0 ave_time 0.0\n"
        "run two 0 9.0 0.0\nrun two 1 9.0 0.0\nrun two 2 9.0 0.0\n"
    )
    text_b = text.replace(" 1.0 0.0\n", " 2.0 0.0\n").replace("ave 1.0", "ave 2.0")
    a, b = read_report(text), read_report(text_b)
    cmp = compare_reports(a, b)
    assert cmp.wins + cmp.draws + cmp.losses == 2
    assert cmp.no_best_a + cmp.no_best_b >= 2


def test_solomon_instances_named_by_file_stem(tmp_path):
    paths = []
    for stem in ("a", "b"):
        path = tmp_path / f"{stem}.txt"
        path.write_text((DATA / "r101_25.txt").read_text())
        paths.append(str(path))
    out = tmp_path / "report.txt"
    run_experiment(
        RunConfig(instances=tuple(paths), algorithm="init-only", runs=1, out=str(out))
    )
    back = read_report(out.read_text())
    assert [(res.name, len(res.runs)) for res in back.results] == [("a", 1), ("b", 1)]


def test_failed_runs_recorded(tmp_path, monkeypatch):
    import carptdsc.bench as bench_mod

    calls = {"n": 0}
    original = bench_mod.solve_once_detailed

    def flaky(instance, config, seed):
        calls["n"] += 1
        if seed == 1:
            raise RuntimeError("boom")
        return original(instance, config, seed)

    monkeypatch.setattr(bench_mod, "solve_once_detailed", flaky)
    report = run_experiment(_desk_config(None, runs=3))
    res = report.results[0]
    assert res.failures == 1
    assert len(res.costs) == 2
    text = serialize_report(report)
    assert "failed" in text
    back = read_report(text)
    assert back.results[0].failures == 1


def _enumerated_p_value(a, b):
    """Two-sided exact p by enumerating every assignment of ranks to a."""
    import itertools

    from scipy.stats import rankdata

    n = len(a)
    ranks = list(rankdata(list(a) + list(b)))
    w = sum(ranks[:n])
    le = ge = total = 0
    for combo in itertools.combinations(range(len(ranks)), n):
        s = sum(ranks[i] for i in combo)
        total += 1
        le += s <= w + 1e-12
        ge += s >= w - 1e-12
    return w, min(1.0, 2.0 * min(le / total, ge / total))


def test_rank_sum_exact_matches_enumeration_with_ties():
    rng = __import__("numpy").random.default_rng(11)
    for _ in range(200):
        n, m = (int(x) for x in rng.integers(1, 8, size=2))
        a = [float(x) for x in rng.integers(0, 4, size=n)]
        b = [float(x) for x in rng.integers(0, 4, size=m)]
        w, p = rank_sum_p_value(a, b)
        want_w, want_p = _enumerated_p_value(a, b)
        assert w == want_w
        assert p == pytest.approx(want_p, abs=1e-12)


@pytest.mark.parametrize("n,m", [(3, 12), (9, 9), (12, 4), (9, 30)])
def test_rank_sum_exact_matches_scipy_without_ties(n, m):
    from scipy.stats import mannwhitneyu

    rng = __import__("numpy").random.default_rng(n * 100 + m)
    for shift in (0.0, 0.7, -1.5):
        a = list(rng.normal(shift, 1.0, size=n))
        b = list(rng.normal(0.0, 1.0, size=m))
        w, p = rank_sum_p_value(a, b)
        ref = mannwhitneyu(a, b, alternative="two-sided", method="exact")
        assert ref.statistic == w - n * (n + 1) / 2.0
        assert p == pytest.approx(ref.pvalue, abs=1e-12)


def test_rank_sum_nine_against_fifty_is_fast():
    import time

    rng = __import__("numpy").random.default_rng(5)
    a = [float(x) for x in rng.integers(0, 20, size=9)]  # with ties
    b = [float(x) for x in rng.integers(5, 25, size=50)]
    start = time.perf_counter()
    _, p = rank_sum_p_value(a, b)
    assert time.perf_counter() - start < 1.0
    assert 0.0 < p < 1.0
    _, p_swapped = rank_sum_p_value(b, a)
    assert p_swapped == pytest.approx(p, abs=1e-12)


def _failing_report(errors):
    from carptdsc.bench import ExperimentReport, InstanceResult, RunRecord

    ok = InstanceResult("fine", (RunRecord(0, 5.0, 0.5), RunRecord(1, None, 0.25, errors[0])))
    dead = InstanceResult("dead", tuple(
        RunRecord(i, None, 0.1 * (i + 1), err) for i, err in enumerate(errors)))
    return ExperimentReport("maens-gn", len(errors), 0, (ok, dead))


def test_report_with_all_runs_failed_roundtrips(tmp_path):
    from carptdsc.bench import report_csv

    report = _failing_report(["no feasible plan", "boom"])
    text = serialize_report(report)  # used to raise StatisticsError
    assert "instance dead : failed" in text
    back = read_report(text)
    assert [res.name for res in back.results] == ["fine", "dead"]
    dead = back.results[1]
    assert dead.failures == len(dead.runs) == 2 and dead.costs == []
    assert back.results[0].costs == [5.0]
    write_report(report, str(tmp_path / "r.txt"))
    rows = (tmp_path / "r.txt.csv").read_text().splitlines()
    assert rows[0] == "instance,seed,cost,seconds,error"
    assert rows[3:] == ["dead,0,,0.1,no feasible plan", "dead,1,,0.2,boom"]
    assert report_csv(report) == (tmp_path / "r.txt.csv").read_text()


def test_failure_reasons_roundtrip():
    import csv
    import io

    from carptdsc.bench import report_csv

    reason = "capacity or horizon\n  may be unsatisfiable, see\tlog"
    report = _failing_report([reason, "plain"])
    text = serialize_report(report)
    assert "run dead 0 failed 0.1 capacity or horizon may be unsatisfiable, see log\n" in text
    back = read_report(text)
    errors = [rec.error for res in back.results for rec in res.runs]
    assert errors == ["", "capacity or horizon may be unsatisfiable, see log",
                      "capacity or horizon may be unsatisfiable, see log", "plain"]
    rows = list(csv.DictReader(io.StringIO(report_csv(report))))
    assert [r["error"] for r in rows] == errors
    assert [r["cost"] for r in rows] == ["5.0", "", "", ""]


def test_report_without_reasons_reads_recorded_failure():
    text = (
        "carptdsc-report v1\nalgorithm : a\nruns : 2\nbase_seed : 0\n"
        "instance one : ave 1.0 std 0.0 best 1.0 ave_time 0.0\n"
        "run one 0 1.0 0.0\nrun one 1 failed 0.0\n"
    )
    runs = read_report(text).results[0].runs
    assert [r.error for r in runs] == ["", "recorded-failure"]


ALL_FAILED_REPORT = (
    "carptdsc-report v1\nalgorithm : a\nruns : 2\nbase_seed : 0\n"
    "instance fine : ave 5.0 std 0.0 best 5.0 ave_time 0.5\n"
    "run fine 0 5.0 0.5\nrun fine 1 5.0 0.5\n"
    "instance dead : failed ave_time 0.1\n"
    "run dead 0 failed 0.1 no feasible plan\nrun dead 1 failed 0.1 no feasible plan\n"
)


def test_compare_reports_leaves_out_all_failed_instances():
    a = read_report(ALL_FAILED_REPORT)
    b = read_report(ALL_FAILED_REPORT.replace(" 5.0 0.5", " 6.0 0.5"))
    cmp = compare_reports(a, b)  # used to raise "both samples must be nonempty"
    assert cmp.all_failed == ("dead",)
    assert [row.name for row in cmp.rows] == ["fine"]
    assert cmp.wins + cmp.draws + cmp.losses == 1
    assert (cmp.no_best_a, cmp.no_best_b) == (1, 0)


def test_average_pdr_skips_all_failed_instances():
    report = read_report(ALL_FAILED_REPORT)
    assert average_pdr(report, {"fine": 4.0, "dead": 1.0}) == pytest.approx(25.0)
    with pytest.raises(ValueError):
        average_pdr(report, {"dead": 1.0})


def test_run_experiment_rejects_an_instance_name_with_whitespace(tmp_path, monkeypatch):
    path = tmp_path / "gdb1.dat"
    path.write_text((DATA / "gdb1.dat").read_text().replace("NAME : gdb1", "NAME : gdb 1"))
    solved = []
    monkeypatch.setattr(bench, "solve_once_detailed", lambda *args: solved.append(args))
    out = tmp_path / "report.txt"
    config = RunConfig(instances=(str(path),), algorithm="init-only", runs=2, out=str(out))
    with pytest.raises(ValueError, match="instance name 'gdb 1' contains whitespace"):
        run_experiment(config)
    assert solved == [] and not out.exists()


@pytest.mark.parametrize("name", ["gdb 1", "gdb\t1", " gdb1"])
def test_serialize_report_rejects_an_instance_name_with_whitespace(name):
    from carptdsc.bench import ExperimentReport, InstanceResult, RunRecord

    report = ExperimentReport("maens-gn", 1, 0, (InstanceResult(name, (RunRecord(0, 5.0, 0.5),)),))
    with pytest.raises(ValueError, match="contains whitespace"):
        serialize_report(report)


def test_run_experiment_rejects_a_repeated_instance_name(tmp_path, monkeypatch):
    # read back, two "instance gdb1" blocks would pool into one instance of 2 * runs runs
    paths = []
    for stem in ("a", "b"):
        path = tmp_path / f"{stem}.dat"
        path.write_text((DATA / "gdb1.dat").read_text())
        paths.append(str(path))
    solved = []
    monkeypatch.setattr(bench, "solve_once_detailed", lambda *args: solved.append(args))
    out = tmp_path / "report.txt"
    config = RunConfig(instances=tuple(paths), algorithm="init-only", runs=2, out=str(out))
    with pytest.raises(ValueError, match="instance name 'gdb1' repeats"):
        run_experiment(config)
    assert solved == [] and not out.exists()


def test_serialize_report_rejects_a_repeated_instance_name():
    from carptdsc.bench import ExperimentReport, InstanceResult, RunRecord

    res = InstanceResult("gdb1", (RunRecord(0, 5.0, 0.5),))
    with pytest.raises(ValueError, match="instance name 'gdb1' repeats"):
        serialize_report(ExperimentReport("maens-gn", 1, 0, (res, res)))


def test_read_report_rejects_a_second_instance_line_for_a_name():
    text = (
        "carptdsc-report v1\nalgorithm : a\nruns : 1\nbase_seed : 0\n"
        "instance one : ave 1.0 std 0.0 best 1.0 ave_time 0.0\nrun one 0 1.0 0.0\n"
        "instance one : ave 2.0 std 0.0 best 2.0 ave_time 0.0\nrun one 0 2.0 0.0\n"
    )
    with pytest.raises(ValueError, match="report line 7: instance 'one' is declared twice"):
        read_report(text)


def test_max_customers_is_rejected_for_a_dat_file():
    # a DAT file has no customers to keep
    text = (DATA / "gdb1.dat").read_text()
    with pytest.raises(bench.instance_io.ParseError, match="^--max-customers applies to "):
        bench.load_instance_text(text, max_customers=3)
    assert len(bench.load_instance_text(text).tasks) == 44
