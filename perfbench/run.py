"""Benchmark of the carptdsc solver.

    python3 perfbench/run.py --workload classic --seed 0 --seconds 30 --trace 0

Run from the root of a checkout; the library is imported from its
``src``.  Generated inputs are built from ``--seed``.  The run sets up its
inputs several times (``setup_s`` is the median), then runs whole rounds
of the workload's operations, one after another: another round starts
only while one as long as the last still ends within ``--seconds``.
Every output is checked.  End-to-end timings are wall times scaled to
the host's usual speed (see ``hostspeed.py``).  The last line of standard
output is one JSON object: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a traced run with ``--trace 1``.  Details, the
recorded inputs and the spans go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 11
# String hashes, and with them the slots of every dict the solver looks
# names up in, change with each process's hash seed: the same input's
# operation times moved by about 10 % from one process to the next.  The
# run restarts the interpreter once with this seed fixed.
HASH_SEED = "0"

# The ROADMAP's profile of gdb1 3LP k = 2, gen-seed 3, seed 100 counts
# this many RouteEvaluator.evaluate calls (route-cache misses) in evolve.
CROSSCHECK_EVALUATIONS = 337_717


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def run_ops(ops, records: list, tracer, before, speeds: list) -> None:
    """Run each operation; with a tracer, run it untraced and traced in turn.

    A record is (outcomes, seconds, traced), with one outcome per output.
    Which side of a pair goes first alternates, so neither always runs on
    a warmer machine.  ``before(i)`` runs, untimed, before operation i,
    and a host-speed sample is added to ``speeds`` before each operation.
    """
    for i, op in enumerate(ops):
        before(i)
        gc.collect()  # no op pays for the garbage of the one before
        speeds.append(hostspeed.sample())
        if tracer is None:
            start = time.perf_counter()
            outcomes = op()
            records.append((outcomes, time.perf_counter() - start, False))
            continue
        sides = (False, True) if len(records) % 4 == 0 else (True, False)
        for traced in sides:
            tracer.run = f"op-{len(records)}"
            start = time.perf_counter()
            if traced:
                with tracer.installed():
                    outcomes = op()
            else:
                outcomes = op()
            records.append((outcomes, time.perf_counter() - start, traced))


def measure(workload, seed: int, seconds: float, tracer=None, setup_tracer=None):
    """Set up, then run whole rounds while the next should end within ``seconds``.

    The first round always runs.  A workload's round is sized so that the
    number of rounds in a run does not hinge on how fast the host is.
    """
    setup_times, speeds = [], []

    def set_up():
        gc.collect()
        speeds.append(hostspeed.sample())
        start = time.perf_counter()
        if setup_tracer is None:
            state = workload.setup(seed)
        else:
            setup_tracer.run = f"setup-{len(setup_times)}"
            with setup_tracer.installed():
                state = workload.setup(seed)
        setup_times.append(time.perf_counter() - start)
        return state

    state = set_up()
    records: list = []
    ops = workload.round(state, seed)
    # The other set-ups run between the operations of the first round: the
    # host's speed drifts by a third within seconds, so set-ups done back
    # to back would sample one moment of it, not the run.
    repeats = Counter(j * len(ops) // (SETUP_REPEATS - 1) for j in range(SETUP_REPEATS - 1))

    def before(i):
        for _ in range(repeats.pop(i, 0)):
            set_up()

    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        run_ops(ops, records, tracer, before, speeds)
        now = time.perf_counter()
        if now - start + (now - round_start) > seconds:
            return state, setup_times, records, speeds


def outcomes_of(records, traced=None) -> list:
    """Every outcome of the records; only traced or untraced ones if asked."""
    return [o for outs, _, t in records if traced in (None, t) for o in outs]


def end_to_end(setup_times, records, scale: float) -> dict:
    """Timings are wall times times ``scale``, the host's speed factor."""
    outcomes = outcomes_of(records)
    passed = [o for o in outcomes if o.ok]
    busy = sum(s for _, s, _ in records) * scale
    return {
        "setup_s": _metric(_median(setup_times) * scale, "s"),
        "runs_per_min": _metric(len(records) / busy * 60.0, "1/min"),
        "run_s_p50": _metric(_median(s for _, s, _ in records) * scale, "s"),
        "plans_per_s": _metric(len(passed) / busy, "1/s"),
        "pass_ratio": _metric(len(passed) / len(outcomes), "ratio"),
        "cost_mean": _metric(_mean(o.cost for o in passed), "cost"),
        "peak_rss_mb": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def stats_step(bench, outcomes) -> int:
    """Compare final costs against departure-0 costs per case, via ``bench``.

    Cases whose runs all failed are skipped and counted: the report code
    cannot average them.  Returns the number skipped.
    """
    by_case: dict[str, list] = {}
    for o in outcomes:
        by_case.setdefault(o.case, []).append(o)
    final, at_0 = [], []
    for case, group in by_case.items():
        if not any(o.ok for o in group):
            continue
        for results, attr in ((final, "cost"), (at_0, "cost_at_0")):
            results.append(bench.InstanceResult(case, tuple(
                bench.RunRecord(i, getattr(o, attr) if o.ok else None, 0.0, o.reason)
                for i, o in enumerate(group))))
    if final:
        report = bench.ExperimentReport("final", len(outcomes), 0, tuple(final))
        bench.compare_reports(
            report, bench.ExperimentReport("departure-0", len(outcomes), 0, tuple(at_0)))
        bench.read_report(bench.serialize_report(report))
    return len(by_case) - len(final)


def crosscheck(workloads, tracing) -> int:
    """evaluate calls inside evolve for gdb1 3LP k = 2, gen-seed 3, seed 100."""
    from carptdsc import bench, instance_io

    _, gdb1 = instance_io.parse_carp(workloads.GDB1.read_text())
    td, _ = instance_io.generate_td(gdb1, "3lp", (2.0,), 3)
    tracer = tracing.Tracer()
    with tracer.installed():
        bench.solve_once_detailed(td, workloads.CLASSIC_CONFIG, 100)
    return sum(s.nested["solution.evaluate"] for s in tracer.named("maens.evolve"))


def _gain_pct(outcomes, slope_test) -> float:
    """Mean of (cost at departure 0 - final) / cost at departure 0, in %."""
    return _mean(
        (o.cost_at_0 - o.cost) / o.cost_at_0 * 100.0
        for o in outcomes
        if o.ok and o.three_segment and slope_test(o.k)
    )


def per_layer(setup_tracer, tracer, records, skipped: int, crosscheck_count: int) -> dict:
    """Layer metrics; counts and times are per traced operation unless named otherwise."""
    traced = outcomes_of(records, traced=True)
    n = sum(t for _, _, t in records)  # traced operations
    passed = [o for o in traced if o.ok]
    setup, ops = setup_tracer.totals, tracer.totals
    evolves = tracer.named("maens.evolve")

    def per_setup(name):
        return _metric(setup[name].seconds / SETUP_REPEATS, "s")

    def calls(name):
        return _metric(ops[name].calls / n, "count")

    def seconds(name):
        return _metric(ops[name].seconds / n, "s")

    def per_call(name, scale, unit):
        t = ops[name]
        return _metric(t.seconds / t.calls * scale if t.calls else 0.0, unit)

    def extra_per_call(name):
        t = ops[name]
        return _metric(t.extra / t.calls if t.calls else 0.0, "count")

    plain_s = sum(s for _, s, t in records if not t)
    traced_s = sum(s for _, s, t in records if t)
    return {
        "instance_io.parse_s": per_setup("instance_io.parse"),
        "instance_io.generate_td_s": per_setup("instance_io.generate_td"),
        "instance.shortest_paths_s": per_setup("instance.shortest_paths"),
        "solution.evaluate_calls": calls("solution.evaluate"),
        "solution.evaluate_us": per_call("solution.evaluate", 1e6, "us"),
        "maens.route_evals_per_run": _metric(
            _mean(s.nested["solution.evaluate"] for s in evolves), "count"),
        "solution.total_calls": calls("solution.total"),
        "solution.total_us": per_call("solution.total", 1e6, "us"),
        "solution.profile_points": _metric(ops["solution.profile"].extra / n, "count"),
        "solution.profile_s": seconds("solution.profile"),
        "maens.evolve_self_s": _metric(_mean(s.self_s for s in evolves), "s"),
        "maens.init_individual_calls": calls("maens.init_individual"),
        "maens.init_individual_s": seconds("maens.init_individual"),
        "maens.crossover_calls": calls("maens.crossover"),
        "maens.crossover_s": seconds("maens.crossover"),
        "maens.local_search_calls": calls("maens.local_search"),
        "maens.local_search_s": seconds("maens.local_search"),
        "maens.stage1_cost_mean": _metric(_mean(o.cost_at_0 for o in passed), "cost"),
        "maens.crosscheck_route_evals": _metric(crosscheck_count, "count"),
        "departure.gss_calls": calls("departure.gss"),
        "departure.gss_evals": extra_per_call("departure.gss"),
        "departure.gss_ms_per_route": per_call("departure.gss", 1e3, "ms"),
        "departure.ncs_calls": calls("departure.ncs"),
        "departure.ncs_evals": extra_per_call("departure.ncs"),
        "departure.ncs_ms_per_route": per_call("departure.ncs", 1e3, "ms"),
        "departure.oracle_s": seconds("departure.oracle"),
        "departure.oracle_points": _metric(ops["departure.oracle"].extra / n, "count"),
        "departure.oracle_gap_pct": _metric(
            _mean(g for o in passed for g in o.oracle_gaps), "%"),
        "departure.stage2_gain_pct_k_le1": _metric(_gain_pct(traced, lambda k: k <= 1.0), "%"),
        "departure.stage2_gain_pct_k_gt1": _metric(_gain_pct(traced, lambda k: k > 1.0), "%"),
        "departure.horizon_violations": _metric(
            sum(o.horizon_violations for o in traced) / n, "count"),
        "bench.compare_s": _metric(ops["bench.compare"].seconds, "s"),
        "bench.rank_sum_calls": _metric(ops["bench.rank_sum"].calls, "count"),
        "bench.report_roundtrip_s": _metric(
            ops["bench.serialize_report"].seconds + ops["bench.read_report"].seconds, "s"),
        "bench.skipped_cases": _metric(skipped, "count"),
        "trace.overhead_ratio": _metric(traced_s / plain_s, "ratio"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in (ROOT / "src" / "carptdsc" / "__init__.py",
                           ROOT / "tests" / "data" / "gdb1.dat",
                           ROOT / "tests" / "data" / "r101_25.txt") if not p.is_file()]
    if missing:
        print(f"error: not a carptdsc checkout, missing {missing[0]}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import tracing
    import workloads
    from carptdsc import bench

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"

    tracer = setup_tracer = None
    if args.trace:
        tracer, setup_tracer = tracing.Tracer(), tracing.Tracer()
    state, setup_times, records, speeds = measure(
        workload, args.seed, args.seconds, tracer, setup_tracer)
    elapsed = sum(s for _, s, _ in records)
    scale = hostspeed.NOMINAL_S / _median(speeds)
    outcomes = outcomes_of(records)
    if args.trace:
        tracer.run = "stats"
        with tracer.installed():
            skipped = stats_step(bench, outcomes_of(records, traced=True))
        count = crosscheck(workloads, tracing) if workload.name == "classic" else 0
        metrics = per_layer(setup_tracer, tracer, records, skipped, count)
        setup_tracer.write(OUT / f"{tag}-setup-spans.jsonl")
        tracer.write(OUT / f"{tag}-spans.jsonl")
    else:
        metrics = end_to_end(setup_times, records, scale)

    failed = [o for o in outcomes if not o.ok]
    inputs = workload.inputs(state, args.seed, outcomes, OUT)
    print(f"{workload.name}: {workload.why}")
    print(f"inputs: {json.dumps(inputs)}")
    print(f"{len(records)} operations ({len(outcomes)} outputs) in {elapsed:.2f} s; "
          f"run_s_p50 over {len(records)} samples; setup x{SETUP_REPEATS}")
    print(f"host speed: reference loop {_median(speeds) * 1e3:.2f} ms (median of "
          f"{len(speeds)}), nominal {hostspeed.NOMINAL_S * 1e3:.2f} ms; "
          f"end-to-end timings are wall times x {scale:.4f}")
    reasons = {}
    for o in failed:
        key = f"{o.case}: {o.reason}" + (" (known defect)" if o.known_defect else "")
        reasons[key] = reasons.get(key, 0) + 1
    for key, count in reasons.items():
        print(f"failed x{count} {key}")
    if args.trace and workload.name == "classic":
        verdict = "matches" if metrics["maens.crosscheck_route_evals"]["value"] == \
            CROSSCHECK_EVALUATIONS else "DIFFERS FROM"
        print(f"cross-check: {metrics['maens.crosscheck_route_evals']['value']:.0f} "
              f"evaluate calls in evolve, {verdict} the ROADMAP's {CROSSCHECK_EVALUATIONS}")
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}")

    result = {
        "correct": all(o.known_defect for o in failed),
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": metrics,
    }
    (OUT / f"{tag}.json").write_text(json.dumps({
        **result,
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "elapsed_s": elapsed, "setup_times_s": setup_times, "inputs": inputs,
        "host_speed_samples_s": speeds, "scale": scale,
        "failures": reasons,
        "operations": [
            {"seconds": s, "traced": t, "outputs": [
                {"case": o.case, "cost": o.cost, "cost_at_0": o.cost_at_0,
                 "reason": o.reason} for o in outs]}
            for outs, s, t in records
        ],
    }, indent=1, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]],
                  {**os.environ, "PYTHONHASHSEED": HASH_SEED})
    sys.exit(main())
