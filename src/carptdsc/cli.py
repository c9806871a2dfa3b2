"""Command-line interface.

Subcommands:

* ``solve``    one seeded run, prints the solution text form
* ``bench``    full benchmark protocol, writes a report (+ CSV)
* ``generate`` create a time-dependent annotation sidecar
* ``oracle``   grid-oracle departure verification for a given plan
* ``stats``    compare two report files (w-d-l, PDR, No.best)

Exit code 0 on success, nonzero on any hard error.
"""

from __future__ import annotations

import argparse
import math
import sys
from functools import partial
from pathlib import Path

from . import bench, instance_io
from .bench import RunConfig
from .departure import grid_oracle, route_objective
from .instance import shortest_paths
from .solution import Solution, check_feasibility, format_solution, split_routes


def _slopes(text: str) -> tuple[float, ...]:
    return tuple(float(x) for x in text.replace(",", " ").split())


def _add_instance_args(p: argparse.ArgumentParser, generate: bool = False):
    p.add_argument("--instance", action="append", required=True, dest="instances",
                   metavar="INSTANCE",
                   help="instance file (CARP DAT or Solomon); bench takes it repeated")
    if not generate:
        p.add_argument("--annotation", help="time-dependent annotation sidecar")
    p.add_argument("--family", choices=["2lp", "3lp"], required=generate,
                   help="generate a time-dependent cost layer of this family")
    p.add_argument("--slope-set", type=_slopes,
                   help="comma-separated slope magnitudes for 3LP generation")
    p.add_argument("--gen-seed", type=int, help="generator seed")
    p.add_argument("--max-customers", type=int, help="truncate a Solomon file")


def _add_solver_args(p: argparse.ArgumentParser):
    p.add_argument("--seed", type=int, dest="base_seed", metavar="SEED")
    p.add_argument("--psize", type=int)
    p.add_argument("--generations", type=int)
    p.add_argument("--pls", type=float)
    p.add_argument("--algorithm", choices=bench.ALGORITHMS)


def _one_instance(args) -> str:
    """The path of the single ``--instance`` that every subcommand but bench takes."""
    if len(args.instances) > 1:
        raise ValueError(f"{args.command} takes one --instance, got {len(args.instances)}")
    return args.instances[0]


def _config(args, **run) -> RunConfig:
    """The run settings ``args`` holds, then ``run``; a flag left unset keeps its default."""
    given = {k: v for k, v in vars(args).items() if k in RunConfig.__dataclass_fields__}
    # only here is a generation flag set to its default told from one left unset
    for name in ("slope_set", "gen_seed"):
        if name in given and "family" not in given:
            raise ValueError(f"--{name.replace('_', '-')} needs --family, "
                             "or no cost layer is generated")
    if given.get("family") == "2lp" and "slope_set" in given:
        raise ValueError("--slope-set applies to --family 3lp; 2lp has slope 1 everywhere")
    return RunConfig(**{**given, "instances": tuple(args.instances), **run})


def cmd_solve(args) -> int:
    config = _config(args, runs=1, out=None)
    inst = bench.prepare_instance(config, _one_instance(args))
    sp = shortest_paths(inst)
    solution, _, trace = bench.solve_once_detailed(inst, config, config.base_seed)
    if args.trace:
        if trace is None:
            raise ValueError("--trace needs a population-based algorithm")
        lines = ["generation,best_penalized,best_feasible"]
        lines += [f"{g},{bp!r},{bf!r}" for g, bp, bf in trace]
        Path(args.trace).write_text("\n".join(lines) + "\n")
    text = format_solution(solution, inst, sp)
    sys.stdout.write(text)
    if args.out:
        Path(args.out).write_text(text)
    _warn_if_infeasible("the final plan", solution, inst, sp)
    return 0


def _warn_if_infeasible(what: str, solution: Solution, inst, sp) -> None:
    """One ``warning:`` line on stderr naming each check ``solution`` fails."""
    report = check_feasibility(solution, inst, sp)
    if report.broken:
        problems = [", ".join(report.broken)]
        for i, (t, back) in enumerate(zip(solution.departures, report.returns), 1):
            if back > inst.horizon:
                problems.append(f"route {i} departs at {t:.6f} and returns at {back:.6f}, "
                                f"after the horizon {inst.horizon:g}")
        print(f"warning: {what} is infeasible: " + "; ".join(problems), file=sys.stderr)


def cmd_bench(args) -> int:
    report = bench.run_experiment(_config(args))
    sys.stdout.write(bench.serialize_report(report))
    failures = sum(res.failures for res in report.results)
    if failures:
        print(f"warning: {failures} run(s) failed; aggregates cover the rest",
              file=sys.stderr)
    return 0


def cmd_generate(args) -> int:
    config = _config(args, out=None)
    inst = bench.load_instance_text(Path(_one_instance(args)).read_text(),
                                    max_customers=config.max_customers)
    _, ann = instance_io.generate_td(inst, config.family, config.slope_set, config.gen_seed)
    text = instance_io.serialize_annotation(ann)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_oracle(args) -> int:
    inst = bench.prepare_instance(_config(args, out=None), _one_instance(args))
    if not math.isfinite(inst.horizon):
        raise ValueError(
            "instance has no finite planning horizon; supply --annotation or --family"
        )
    sp = shortest_paths(inst)
    plan = []
    for field in args.plan.replace(",", " ").split():
        try:
            plan.append(int(field))
        except ValueError:
            raise ValueError(f"--plan takes whole task IDs, got {field!r}") from None
    plan = tuple(plan)
    routes = split_routes(plan)
    total = 0.0
    departures = []
    lines = []  # printed once every route is priced, so a bad route prints nothing
    for i, route in enumerate(routes, start=1):
        obj = route_objective(route, inst, sp)
        t_star, cost = grid_oracle(obj, 0.0, inst.horizon, args.oracle_step)
        departures.append(t_star)
        total += cost
        lines.append(f"route {i}: oracle depart {t_star:.6f} cost {cost:.6f} "
                     f"(cost at 0: {obj.fn(0.0):.6f})")
    lines.append(f"total {total:.6f}")
    print("\n".join(lines))
    sol = Solution(plan=plan, departures=tuple(departures))
    if args.out:
        Path(args.out).write_text(format_solution(sol, inst, sp))
    _warn_if_infeasible("the plan at the oracle departures", sol, inst, sp)
    return 0


def cmd_stats(args) -> int:
    rep_a = bench.read_report(Path(args.report_a).read_text())
    rep_b = bench.read_report(Path(args.report_b).read_text())
    cmp = bench.compare_reports(rep_a, rep_b)
    for row in cmp.rows:
        print(f"{row.name}: ave {row.ave_a:.3f} vs {row.ave_b:.3f} "
              f"pdr {row.pdr_a_vs_b:+.3f}% verdict {row.verdict}")
    for name in cmp.all_failed:
        print(f"{name}: every run failed in one report; left out")
    print(f"w-d-l {cmp.wins}-{cmp.draws}-{cmp.losses}")
    print(f"No.best {cmp.no_best_a} vs {cmp.no_best_b}")
    if args.lb:
        refs = {}
        for number, line in enumerate(Path(args.lb).read_text().splitlines(), start=1):
            parts = line.split()
            if not parts:
                continue
            try:
                name, value = parts
                bound = float(value)
            except ValueError:  # not two fields, or not a number
                bound = math.nan
            if not math.isfinite(bound):
                raise ValueError(f"lb line {number}: want '<instance> <lower bound>', "
                                 f"got {line.strip()!r}")
            refs[name] = bound
        print(f"Ave.PDR vs LB: {bench.average_pdr(rep_a, refs):.3f}% "
              f"vs {bench.average_pdr(rep_b, refs):.3f}%")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="carptdsc")
    sub = parser.add_subparsers(dest="command", required=True)
    # a setting flag left unset is left out of ``args``, so RunConfig's default holds
    run_parser = partial(sub.add_parser, argument_default=argparse.SUPPRESS)

    p = run_parser("solve", help="one seeded run")
    _add_instance_args(p)
    _add_solver_args(p)
    p.add_argument("--trace", help="write the per-generation best-cost trace CSV here")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_solve, trace=None, out=None)

    p = run_parser("bench", help="repeated-run benchmark protocol")
    _add_instance_args(p)
    _add_solver_args(p)
    p.add_argument("--runs", type=int)
    p.add_argument("--jobs", type=int)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_bench)

    p = run_parser("generate", help="create an annotation sidecar")
    _add_instance_args(p, generate=True)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_generate, out=None)

    p = run_parser("oracle", help="grid-oracle departure verification")
    _add_instance_args(p)
    p.add_argument("--plan", required=True, help="0-delimited task sequence, e.g. '0 1 3 0 2 0'")
    p.add_argument("--oracle-step", type=float, required=True)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_oracle, out=None)

    p = sub.add_parser("stats", help="compare two report files")
    p.add_argument("report_a")
    p.add_argument("report_b")
    p.add_argument("--lb", help="file of '<instance> <lower bound>' lines")
    p.set_defaults(fn=cmd_stats)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
