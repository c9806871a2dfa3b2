"""Benchmark harness: seeded repeated runs, aggregation, and comparison.

Each configured algorithm is run ``runs`` times per instance with seeds
``base_seed + i``; per-run wall time is recorded.  Reports serialize to a
key-value text form mirroring the usual result-table columns (Ave(std),
Best, Time) plus a CSV flattening of the raw runs.  Two reports can be
compared with a two-sided Wilcoxon rank-sum test and per-instance
performance degradation ratios.
"""

from __future__ import annotations

import concurrent.futures
import csv
import io
import itertools
import math
import os
import statistics
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import instance_io
from .departure import optimize_departures
from .instance import Instance, shortest_paths
from .maens import MaensParams, evolve, init_individual
from .solution import Solution, check_feasibility, evaluate_solution, split_routes

ALGORITHMS = ("maens-gn", "maens-only", "init-only")
REPORT_TAG = "carptdsc-report v1"
RUN_LINE = "run <instance> <seed> <cost or failed> <seconds> [reason]"
ALPHA = 0.05  # significance level of the rank-sum verdicts


@dataclass(frozen=True)
class RunConfig:
    instances: tuple[str, ...]
    algorithm: str = "maens-gn"
    annotation: Optional[str] = None  # sidecar path
    family: Optional[str] = None      # or generate one: 2lp | 3lp
    slope_set: tuple[float, ...] = (0.3, 0.5, 1.0, 2.0, 3.0)
    gen_seed: int = 0
    runs: int = 20
    base_seed: int = 0
    jobs: int = 1
    psize: int = MaensParams.psize
    generations: int = MaensParams.generations
    pls: float = MaensParams.pls
    max_customers: Optional[int] = None  # Solomon truncation
    out: Optional[str] = None
    # the solver settings above, checked by their own class; seed 0
    maens_params: MaensParams = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.runs < 1:
            raise ValueError(f"need at least one run, got {self.runs}")
        if not 0 <= self.base_seed <= 2**32 - self.runs:  # seeds base_seed + i, i < runs
            raise ValueError(f"seeds must lie in [0, 2**32), got base seed {self.base_seed} "
                             f"for {self.runs} run(s)")
        if self.jobs < 1:
            raise ValueError(f"need at least one job, got {self.jobs}")
        if self.annotation is not None and self.family is not None:
            raise ValueError("--annotation supplies the time-dependent costs and --family "
                             "generates them; give one, not both")
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}; choose from {ALGORITHMS}")
        object.__setattr__(self, "maens_params", MaensParams(
            psize=self.psize, generations=self.generations, pls=self.pls))


@dataclass(frozen=True)
class RunRecord:
    seed: int
    cost: Optional[float]
    seconds: float
    error: str = ""


@dataclass(frozen=True)
class InstanceResult:
    name: str
    runs: tuple[RunRecord, ...]

    @property
    def costs(self) -> list[float]:
        return [r.cost for r in self.runs if r.cost is not None]

    @property
    def ave(self) -> float:
        return statistics.fmean(self.costs)

    @property
    def std(self) -> float:
        costs = self.costs
        return statistics.pstdev(costs) if len(costs) > 1 else 0.0

    @property
    def best(self) -> float:
        return min(self.costs)

    @property
    def ave_time(self) -> float:
        return statistics.fmean(r.seconds for r in self.runs)

    @property
    def failures(self) -> int:
        return sum(1 for r in self.runs if r.cost is None)


@dataclass(frozen=True)
class ExperimentReport:
    algorithm: str
    runs: int
    base_seed: int
    results: tuple[InstanceResult, ...]


def load_instance_text(text: str, max_customers: Optional[int] = None) -> Instance:
    """Sniff and parse either supported instance format; only Solomon takes ``max_customers``."""
    stripped = text.lstrip()
    if stripped.upper().startswith("NAME"):
        if max_customers is not None:
            raise instance_io.ParseError("--max-customers applies to Solomon files, not DAT")
        _, inst = instance_io.parse_carp(text)
        return inst
    return instance_io.parse_solomon(text, max_customers=max_customers)


def prepare_instance(config: RunConfig, path: str) -> Instance:
    """Load ``path`` with the annotation or generated costs ``config`` names."""
    text = Path(path).read_text()
    inst = load_instance_text(text, max_customers=config.max_customers)
    if config.annotation is not None:
        ann = instance_io.read_annotation(Path(config.annotation).read_text())
        inst = instance_io.apply_annotation(inst, ann)
    elif config.family is not None:
        inst, _ = instance_io.generate_td(
            inst, config.family, config.slope_set, config.gen_seed
        )
    return inst


def solve_once_detailed(
    instance: Instance, config: RunConfig, seed: int
) -> tuple[Solution, float, Optional[list[tuple[int, float, float]]]]:
    """One seeded run; returns (solution, cost, stage-1 trace or None)."""
    sp = shortest_paths(instance)
    trace = None
    if config.algorithm == "init-only":
        rng = np.random.Generator(np.random.PCG64(seed))
        plan = init_individual(instance, sp, rng)
    else:
        result = evolve(instance, sp, replace(config.maens_params, seed=seed))
        plan = result.plan
        trace = result.trace

    if config.algorithm == "maens-gn":
        departures = optimize_departures(plan, instance, sp, seed=seed)
    else:
        departures = tuple(0.0 for _ in split_routes(plan))

    solution = Solution(plan=plan, departures=departures)
    cost = evaluate_solution(solution, instance, sp)
    return solution, cost, trace


def _run_record(instance: Instance, config: RunConfig, seed: int) -> RunRecord:
    """One seeded run; an error or an infeasible final plan makes it a failed run."""
    start = time.perf_counter()
    try:
        solution, cost, _ = solve_once_detailed(instance, config, seed)
        broken = check_feasibility(solution, instance, shortest_paths(instance)).broken
        if broken:
            raise ValueError(f"infeasible final plan: {', '.join(broken)}")
        return RunRecord(seed=seed, cost=cost, seconds=time.perf_counter() - start)
    except Exception as exc:  # failed run: recorded, not fatal
        return RunRecord(
            seed=seed, cost=None, seconds=time.perf_counter() - start, error=str(exc)
        )


def _check_report_names(names: Sequence[str]) -> None:
    """Reject instance names a report could not hold as one field each, or tell apart."""
    seen = set()
    for name in names:
        if any(ch.isspace() for ch in name):
            raise ValueError(f"instance name {name!r} contains whitespace; a report cannot hold it")
        if name in seen:
            raise ValueError(f"instance name {name!r} repeats; a report cannot tell its runs apart")
        seen.add(name)


def run_experiment(config: RunConfig) -> ExperimentReport:
    """Full protocol: every instance, ``runs`` seeded runs each.

    Runs may execute in parallel, in up to ``jobs`` worker processes (no
    more than there are runs or cores, as a pool starts all its workers
    at once); per-run seeding keeps the outcome independent of
    scheduling.  Failed runs are recorded and skipped in the aggregates.
    """
    instances = [prepare_instance(config, path) for path in config.instances]
    names = [inst.name or Path(path).stem for inst, path in zip(instances, config.instances)]
    _check_report_names(names)  # before the first run
    results = []
    workers = min(config.jobs, config.runs, os.cpu_count() or 1)
    seeds = [config.base_seed + i for i in range(config.runs)]
    for name, instance in zip(names, instances):
        if workers > 1:
            with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
                records = list(
                    pool.map(_run_record, itertools.repeat(instance),
                             itertools.repeat(config), seeds)
                )
        else:
            records = [_run_record(instance, config, s) for s in seeds]
        results.append(InstanceResult(name=name, runs=tuple(records)))

    report = ExperimentReport(
        algorithm=config.algorithm,
        runs=config.runs,
        base_seed=config.base_seed,
        results=tuple(results),
    )
    if config.out is not None:
        write_report(report, config.out)
    return report


def _one_line(reason: str) -> str:
    return " ".join(reason.split())


def serialize_report(report: ExperimentReport) -> str:
    """Key-value text form of a report.

    An instance whose runs all failed has no aggregates and is marked
    ``failed``.  A failed run's line carries its reason, with whitespace
    collapsed, after the seconds field.
    """
    lines = [
        REPORT_TAG,
        f"algorithm : {report.algorithm}",
        f"runs : {report.runs}",
        f"base_seed : {report.base_seed}",
    ]
    _check_report_names([res.name for res in report.results])
    for res in report.results:
        if res.costs:
            lines.append(
                f"instance {res.name} : ave {res.ave!r} std {res.std!r} "
                f"best {res.best!r} ave_time {res.ave_time!r}"
            )
        else:
            lines.append(f"instance {res.name} : failed ave_time {res.ave_time!r}")
        for rec in res.runs:
            cost = "failed" if rec.cost is None else repr(rec.cost)
            reason = _one_line(rec.error) if rec.cost is None else ""
            lines.append(f"run {res.name} {rec.seed} {cost} {rec.seconds!r} {reason}".rstrip())
    return "\n".join(lines) + "\n"


def report_csv(report: ExperimentReport) -> str:
    """One row per run; a failed run has an empty cost and its reason in ``error``."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["instance", "seed", "cost", "seconds", "error"])
    for res in report.results:
        for rec in res.runs:
            cost = "" if rec.cost is None else repr(rec.cost)
            reason = _one_line(rec.error) if rec.cost is None else ""
            writer.writerow([res.name, rec.seed, cost, repr(rec.seconds), reason])
    return out.getvalue()


def write_report(report: ExperimentReport, path: str) -> None:
    Path(path).write_text(serialize_report(report))
    Path(path).with_suffix(Path(path).suffix + ".csv").write_text(report_csv(report))


def read_report(text: str) -> ExperimentReport:
    lines = [(i, l.strip()) for i, l in enumerate(text.splitlines(), start=1) if l.strip()]
    if not lines or lines[0][1] != REPORT_TAG:
        raise ValueError(f"missing report tag (want {REPORT_TAG!r})")
    header: dict[str, tuple[str, int]] = {}  # key: (value, line)
    numbers: dict[str, int] = {}  # runs and base_seed
    # each instance's runs with their line numbers, in first-mention order
    runs_by_instance: dict[str, list[tuple[int, RunRecord]]] = {}
    declared: dict[str, int] = {}  # the line number of each instance line read so far
    for number, line in lines[1:]:
        if line.startswith("instance "):
            name = line[len("instance "):].split(" : ")[0]
            if name in declared:
                raise ValueError(f"report line {number}: instance {name!r} is declared twice")
            declared[name] = number
            runs_by_instance.setdefault(name, [])
        elif line.startswith("run "):
            parts = line.split()
            try:
                name, seed, cost, seconds = parts[1], int(parts[2]), parts[3], float(parts[4])
                value = None if cost == "failed" else float(cost)
                if not (math.isfinite(seconds) and (value is None or math.isfinite(value))):
                    raise ValueError("non-finite cost or seconds")
            except (IndexError, ValueError):
                raise ValueError(f"report line {number}: want {RUN_LINE!r}, got {line!r}") from None
            runs_by_instance.setdefault(name, []).append((number, RunRecord(
                seed=seed,
                cost=value,
                seconds=seconds,
                # reports written before reasons were kept have none
                error=(" ".join(parts[5:]) or "recorded-failure") if value is None else "",
            )))
        else:
            key, _, value = (part.strip() for part in line.partition(":"))
            if key in header:
                raise ValueError(f"report line {number}: {key!r} repeats line {header[key][1]}")
            header[key] = (value, number)
            if key in ("runs", "base_seed"):
                try:
                    numbers[key] = int(value)
                except ValueError:
                    raise ValueError(
                        f"report line {number}: want '{key} : <integer>', got {line!r}"
                    ) from None
    for key in ("runs", "base_seed"):
        if key not in numbers:
            raise ValueError(f"report has no '{key} : <integer>' line")
    for name, numbered in runs_by_instance.items():
        if not numbered:
            raise ValueError(f"report line {declared[name]}: instance {name!r} has no run lines")
        for end, (number, _) in enumerate(numbered, start=1):
            try:  # statistics.fmean sums with fsum, in order: name the run it overflows at
                math.fsum(rec.cost for _, rec in numbered[:end] if rec.cost is not None)
                math.fsum(rec.seconds for _, rec in numbered[:end])
            except OverflowError:
                raise ValueError(f"report line {number}: the costs or seconds of instance "
                                 f"{name!r} sum past the float range") from None
    return ExperimentReport(
        algorithm=header.get("algorithm", ("?",))[0],
        runs=numbers["runs"],
        base_seed=numbers["base_seed"],
        results=tuple(InstanceResult(name=name, runs=tuple(rec for _, rec in numbered))
                      for name, numbered in runs_by_instance.items()),
    )


def pdr(tc1: float, tc2: float) -> float:
    """Performance degradation ratio (tc1 - tc2) / tc2 * 100."""
    if tc2 <= 0:
        raise ValueError(f"reference cost must be positive, got {tc2}")
    return (tc1 - tc2) / tc2 * 100.0


@dataclass(frozen=True)
class RankSumResult:
    statistic: float  # rank sum of the first sample
    p_value: float
    verdict: str  # better | equivalent | worse (first sample vs second)


def _normal_sf(z: float) -> float:
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def _ranks(values: Sequence[float]) -> tuple[list[float], np.ndarray]:
    """Midranks of ``values``, and the size of each tie group."""
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2.0)[inverse].tolist(), counts


def _subset_sum_counts(values: Sequence[int], size: int) -> np.ndarray:
    """counts[s]: how many ``size``-subsets of ``values`` (positive ints) sum to s.

    Dynamic programming over the values, one row per subset size.  Counts
    are floats: exact up to 2**53, relatively accurate beyond.
    """
    width = sum(sorted(values)[-size:]) + 1  # no subset sums higher
    counts = np.zeros((size + 1, width))
    counts[0, 0] = 1.0
    for i, v in enumerate(values):
        for j in range(min(i + 1, size), 0, -1):
            counts[j, v:] += counts[j - 1, :width - v]
    return counts[size]


def rank_sum_p_value(a: Sequence[float], b: Sequence[float]) -> tuple[float, float]:
    """Two-sided rank-sum test; returns (rank sum of a, p value).

    Uses the exact permutation distribution of the rank sum when either
    sample has fewer than 10 observations, and the tie-corrected normal
    approximation otherwise.  The exact distribution is counted over
    doubled midranks, which are integers, so tied values stay exact.  It
    is counted for the smaller sample; when that is ``b``, its two tails
    are those of ``a`` swapped, which leaves the two-sided p unchanged.
    """
    n, m = len(a), len(b)
    if n == 0 or m == 0:
        raise ValueError("both samples must be nonempty")
    ranks, ties = _ranks(list(a) + list(b))
    w = sum(ranks[:n])

    if min(n, m) < 10:
        doubled = [int(2.0 * r) for r in ranks]
        small = doubled[:n] if n <= m else doubled[n:]
        x = sum(small)
        counts = _subset_sum_counts(doubled, len(small))
        total = float(counts.sum())
        le = float(counts[:x + 1].sum())
        ge = float(counts[x:].sum())
        p = min(1.0, 2.0 * min(le / total, ge / total))
        return w, p

    big_n = n + m
    mu = n * (big_n + 1) / 2.0
    tie_term = int((ties ** 3 - ties).sum())
    var = n * m / 12.0 * ((big_n + 1) - tie_term / (big_n * (big_n - 1)))
    if var <= 0:  # all values identical
        return w, 1.0
    z = (w - mu) / math.sqrt(var)
    return w, min(1.0, 2.0 * _normal_sf(abs(z)))


def wilcoxon_rank_sum(a: Sequence[float], b: Sequence[float]) -> RankSumResult:
    """Two-sided rank-sum verdict for minimization: is ``a`` better than ``b``?

    A difference is significant at the level ``ALPHA``.
    """
    w, p = rank_sum_p_value(a, b)
    verdict = "equivalent"
    if p < ALPHA:
        med_a, med_b = statistics.median(a), statistics.median(b)
        if med_a < med_b:
            verdict = "better"
        elif med_a > med_b:
            verdict = "worse"
    return RankSumResult(statistic=w, p_value=p, verdict=verdict)


@dataclass(frozen=True)
class InstanceComparison:
    name: str
    ave_a: float
    ave_b: float
    pdr_a_vs_b: float
    verdict: str  # a vs b


@dataclass(frozen=True)
class ReportComparison:
    rows: tuple[InstanceComparison, ...]
    wins: int
    draws: int
    losses: int
    no_best_a: int
    no_best_b: int
    # common instances left out because every run of one report failed
    all_failed: tuple[str, ...]


def compare_reports(a: ExperimentReport, b: ExperimentReport) -> ReportComparison:
    """Instance-by-instance comparison of two reports (a vs b).

    win/draw/loss counts partition the common instances on which both
    reports have a successful run; the others are listed in
    ``all_failed``.  No.best counts instances where each report attains
    the better Best value; both score on ties.
    """
    by_name_b = {res.name: res for res in b.results}
    rows = []
    all_failed = []
    no_best_a = no_best_b = 0
    for res_a in a.results:
        res_b = by_name_b.get(res_a.name)
        if res_b is None:
            continue
        if not (res_a.costs and res_b.costs):
            all_failed.append(res_a.name)
            continue
        if res_a.best <= res_b.best:
            no_best_a += 1
        if res_b.best <= res_a.best:
            no_best_b += 1
        rows.append(
            InstanceComparison(
                name=res_a.name,
                ave_a=res_a.ave,
                ave_b=res_b.ave,
                pdr_a_vs_b=pdr(res_a.ave, res_b.ave),
                verdict=wilcoxon_rank_sum(res_a.costs, res_b.costs).verdict,
            )
        )
    verdicts = [row.verdict for row in rows]
    return ReportComparison(
        rows=tuple(rows),
        wins=verdicts.count("better"),
        draws=verdicts.count("equivalent"),
        losses=verdicts.count("worse"),
        no_best_a=no_best_a,
        no_best_b=no_best_b,
        all_failed=tuple(all_failed),
    )


def average_pdr(report: ExperimentReport, references: dict[str, float]) -> float:
    """Mean PDR of per-instance averages against reference values (e.g. LBs).

    An instance whose runs all failed has no average and is left out.
    """
    values = [
        pdr(res.ave, references[res.name])
        for res in report.results
        if res.name in references and res.costs
    ]
    if not values:
        raise ValueError("no instance with a successful run matches a reference value")
    return statistics.fmean(values)
