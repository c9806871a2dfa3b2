"""Benchmark file parsers and the time-dependent annotation generator.

Three text formats are handled:

* CARP DAT files (undirected gdb/egl-style benchmarks)::

      NAME : gdb1
      VERTICES : 12
      REQUIRED_EDGES : 22
      NON_REQUIRED_EDGES : 0
      VEHICLES : 5
      CAPACITY : 5
      REQUIRED_EDGE_LIST :
      ( 1, 2) cost 13 demand 1
      NON_REQUIRED_EDGE_LIST :
      ( 3, 4) cost 7
      DEPOT : 1

  Each undirected required edge becomes two mutually-inverse directed
  tasks; edge cost doubles as travel time, travel cost, and the baseline
  (constant) service cost.

* Solomon-style VRPTW files: vehicle count/capacity header plus rows of
  ``id x y demand ready due service``.  Each customer becomes a degenerate
  required arc (tail = head), its time window the flat segment of a
  three-segment cost function with slope 1, its service duration the
  minimum service cost.  Travel times are full-precision Euclidean
  distances.

* Time-dependent annotation sidecars (versioned key-value text) mapping
  every task to a cost function, so one static instance can carry many
  seeded 2LP/3LP layers.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .costfn import ServiceCostFunction
from .instance import Arc, Instance, Task, build_instance, shortest_paths
from .maens import init_individual
from .solution import Solution, evaluate_solution, split_routes

ANNOTATION_TAG = "carptdsc-annotation v1"


class ParseError(ValueError):
    """Malformed input file."""


@dataclass(frozen=True)
class StaticInstanceFile:
    """Raw contents of a CARP DAT file, before graph construction."""

    name: str
    vertices: int
    required_edges: tuple[tuple[int, int, float, float], ...]  # (i, j, cost, demand)
    non_required_edges: tuple[tuple[int, int, float], ...]  # (i, j, cost)
    capacity: float
    depot: int


@dataclass(frozen=True)
class TdAnnotation:
    """Per-task cost-function layer for one static instance."""

    family: str  # "2lp" | "3lp"
    k: float
    horizon: float
    seed: int
    # (task_id, c_min, bt, et), one record per directed task
    records: tuple[tuple[int, float, float, float], ...]


def _num(text: str, lineno: int, what: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ParseError(f"line {lineno}: non-numeric {what}: {text!r}") from None


def _int(text: str, lineno: int, what: str) -> int:
    """``text`` as an integer; a float spelling must be whole and finite."""
    try:
        return int(text)
    except ValueError:
        value = _num(text, lineno, what)
    if not value.is_integer():  # nor are NaN and the infinities
        raise ParseError(f"line {lineno}: {what} must be a whole number, got {text!r}")
    return int(value)


def _cost_fn(where: str, **fields: float) -> ServiceCostFunction:
    """A task's cost function; a field it rejects is a ParseError naming ``where``."""
    try:
        return ServiceCostFunction(**fields)
    except ValueError as exc:
        raise ParseError(f"{where}: {exc}") from None


_EDGE_RE = re.compile(
    r"\(\s*(\d+)\s*,\s*(\d+)\s*\)\s+cost\s+(\S+)(?:\s+demand\s+(\S+))?\s*$"
)


def read_carp(text: str) -> StaticInstanceFile:
    """Parse the DAT layout into its raw record lists."""
    header: dict[str, tuple[str, int]] = {}  # key: (value, line)
    required: list[tuple[int, int, float, float]] = []
    non_required: list[tuple[int, int, float]] = []
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if ":" in line and not line.startswith("("):
            key, _, value = line.partition(":")
            key = key.strip().upper()
            value = value.strip()
            if key == "REQUIRED_EDGE_LIST":
                section = "required"
            elif key == "NON_REQUIRED_EDGE_LIST":
                section = "non_required"
            else:
                header[key] = (value, lineno)
                section = None
            continue
        m = _EDGE_RE.match(line)
        if m is None or section is None:
            raise ParseError(f"line {lineno}: unrecognized line {line!r}")
        i, j = int(m.group(1)), int(m.group(2))
        cost = _num(m.group(3), lineno, "edge cost")
        if section == "required":
            if m.group(4) is None:
                raise ParseError(f"line {lineno}: required edge missing demand")
            r = len(required)
            # checked here, where its line is known; carp_to_instance builds it
            _cost_fn(f"line {lineno}: tasks {2 * r + 1} and {2 * r + 2}", c_min=cost)
            required.append((i, j, cost, _num(m.group(4), lineno, "edge demand")))
        else:
            if m.group(4) is not None:
                raise ParseError(f"line {lineno}: non-required edge carries demand")
            non_required.append((i, j, cost))

    for key in ("NAME", "VERTICES", "REQUIRED_EDGES", "NON_REQUIRED_EDGES",
                "VEHICLES", "CAPACITY", "DEPOT"):
        if key not in header:
            raise ParseError(f"missing header field {key}")
    _int(*header["VEHICLES"], "VEHICLES")  # checked, not stored: the fleet is unlimited
    n_req = _int(*header["REQUIRED_EDGES"], "REQUIRED_EDGES")
    n_non = _int(*header["NON_REQUIRED_EDGES"], "NON_REQUIRED_EDGES")
    if n_req != len(required):
        raise ParseError(
            f"header claims {n_req} required edges, found {len(required)}"
        )
    if n_non != len(non_required):
        raise ParseError(
            f"header claims {n_non} non-required edges, found {len(non_required)}"
        )
    return StaticInstanceFile(
        name=header["NAME"][0],
        vertices=_int(*header["VERTICES"], "VERTICES"),
        required_edges=tuple(required),
        non_required_edges=tuple(non_required),
        capacity=_num(*header["CAPACITY"], "CAPACITY"),
        depot=_int(*header["DEPOT"], "DEPOT"),
    )


def carp_to_instance(f: StaticInstanceFile) -> Instance:
    """Build the directed instance; service costs start as constants.

    Vertex labels are mapped to dense 0-based IDs.  Required edge number r
    (1-based) yields the inverse task pair (2r-1, 2r).  The planning
    horizon is unbounded until a time-dependent annotation supplies one.
    """
    labels = sorted(
        {i for i, j, *_ in f.required_edges}
        | {j for i, j, *_ in f.required_edges}
        | {i for i, j, _ in f.non_required_edges}
        | {j for i, j, _ in f.non_required_edges}
    )
    index = {label: idx for idx, label in enumerate(labels)}

    arcs: list[Arc] = []
    tasks: list[Task] = []
    arc_id = 0

    def add_pair(i: int, j: int, cost: float) -> tuple[Arc, Arc]:
        nonlocal arc_id
        a = Arc(arc_id + 1, index[i], index[j], cost, cost)
        b = Arc(arc_id + 2, index[j], index[i], cost, cost)
        arc_id += 2
        arcs.extend((a, b))
        return a, b

    for r, (i, j, cost, demand) in enumerate(f.required_edges):
        fwd, rev = add_pair(i, j, cost)
        fn = ServiceCostFunction(c_min=cost, bt=0.0, et=0.0, k=0.0)
        tasks.append(Task(2 * r + 1, fwd, demand, fn, inverse_id=2 * r + 2))
        tasks.append(Task(2 * r + 2, rev, demand, fn, inverse_id=2 * r + 1))
    for i, j, cost in f.non_required_edges:
        add_pair(i, j, cost)

    if f.depot not in index:
        raise ParseError(f"depot vertex {f.depot} never appears in the edge lists")
    if len(labels) != f.vertices:  # a vertex no edge touches could only take memory
        raise ParseError(
            f"{len(labels)} distinct vertices referenced, header says {f.vertices}"
        )
    return build_instance(
        vertices=f.vertices,
        arcs=arcs,
        tasks=tasks,
        depot=index[f.depot],
        capacity=f.capacity,
        horizon=math.inf,
        name=f.name,
    )


def parse_carp(text: str) -> tuple[StaticInstanceFile, Instance]:
    f = read_carp(text)
    return f, carp_to_instance(f)


def parse_solomon(text: str, max_customers: Optional[int] = None) -> Instance:
    """Parse the classic Solomon layout (or a bare numeric table).

    Row 0 is the depot; ``max_customers``, when given, keeps only that many
    customers, the first in the file.
    """
    numeric_rows: list[tuple[int, list[str], list[float]]] = []  # (line, fields, values)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if not parts:
            continue
        try:
            numeric_rows.append((lineno, parts, [float(p) for p in parts]))
        except ValueError:
            continue  # title and column-header lines
    if not numeric_rows:
        raise ParseError("no numeric rows found")
    two_field = [row for row in numeric_rows if len(row[1]) == 2]
    if not two_field:
        raise ParseError("missing vehicle NUMBER/CAPACITY header row")
    lineno, parts, (_, capacity) = two_field[0]
    _int(parts[0], lineno, "vehicle count")  # checked, not stored: the fleet is unlimited
    rows, row_lines = [], []
    for lineno, parts, r in numeric_rows:
        if len(r) == 7:
            rows.append((_int(parts[0], lineno, "customer number"), *r[1:]))
            row_lines.append(lineno)
        elif len(r) != 2:
            raise ParseError(f"line {lineno}: malformed customer row: {r}")
    if not rows or rows[0][0] != 0:
        raise ParseError("first customer row must be the depot (id 0)")
    for position, (row, lineno) in enumerate(zip(rows[1:], row_lines[1:]), start=1):
        if row[0] != position:  # tasks are numbered by row, so the file's numbers must agree
            raise ParseError(f"line {lineno}: customer number must be {position}, "
                             f"its row's position after the depot, got {row[0]}")
    for row, lineno in zip(rows, row_lines):
        if not all(math.isfinite(x) for x in row[1:3]):
            raise ParseError(f"line {lineno}: coordinates must be finite, got {row[1:3]}")
    if max_customers is not None:
        if max_customers < 0:
            raise ParseError(f"max_customers must be non-negative, got {max_customers}")
        rows = rows[: max_customers + 1]
    n = len(rows)  # depot + customers

    coords = [(r[1], r[2]) for r in rows]
    arcs: list[Arc] = []
    arc_id = 0
    for u in range(n):
        for v in range(n):
            if u == v:
                continue
            arc_id += 1
            d = math.dist(coords[u], coords[v])
            arcs.append(Arc(arc_id, u, v, d, d))

    tasks: list[Task] = []
    for vid in range(1, n):
        _, _, _, demand, ready, due, service = rows[vid]
        arc_id += 1
        arc = Arc(arc_id, vid, vid, 0.0, 0.0)
        fn = _cost_fn(f"line {row_lines[vid]}: task {vid}", c_min=service, bt=ready, et=due,
                      k=1.0)
        tasks.append(Task(vid, arc, demand, fn, inverse_id=None))

    depot_due = rows[0][5]
    return build_instance(
        vertices=n,
        arcs=arcs,
        tasks=tasks,
        depot=0,
        capacity=capacity,
        horizon=depot_due,
    )


def apply_annotation(instance: Instance, ann: TdAnnotation) -> Instance:
    """Rebuild ``instance`` with the annotation's cost functions and horizon."""
    by_id = {tid: (c, bt, et) for tid, c, bt, et in ann.records}
    if set(by_id) != set(instance.real_task_ids):
        raise ParseError("annotation does not cover the task set exactly")
    tasks = []
    for tid in instance.real_task_ids:
        old = instance.tasks[tid]
        c_min, bt, et = by_id[tid]
        tasks.append(
            Task(
                id=old.id,
                arc=old.arc,
                demand=old.demand,
                cost_fn=ServiceCostFunction(c_min=c_min, bt=bt, et=et, k=ann.k),
                inverse_id=old.inverse_id,
            )
        )
    return build_instance(
        vertices=instance.num_vertices,
        arcs=instance.arcs,
        tasks=tasks,
        depot=instance.depot,
        capacity=instance.capacity,
        horizon=ann.horizon,
        name=instance.name,
    )


def generate_td(
    static_instance: Instance,
    family: str,
    slope_set: Sequence[float],
    seed: int,
) -> tuple[Instance, TdAnnotation]:
    """Overlay a seeded time-dependent layer on a static instance.

    2LP: every task keeps its static cost as c_min with bt = et = 0 and
    slope 1.  3LP: one slope magnitude is drawn from ``slope_set`` for the
    whole instance; each task's flat segment has its midpoint uniform in
    [0.1*T, 0.9*T] and width uniform in [st, 3*st] where st is the static
    service cost (inverse twins share their window).  The horizon T is
    twice the cost of one path-scanning construction at time 0 on the
    static instance.  Pure function of (instance, family, slope_set, seed).
    """
    family = family.lower()
    if family not in ("2lp", "3lp"):
        raise ValueError(f"family must be '2lp' or '3lp', got {family!r}")
    if family == "3lp" and not slope_set:
        raise ValueError("3LP generation needs a non-empty slope set")
    if seed < 0:
        raise ValueError(f"generator seed must be non-negative, got {seed}")

    rng = np.random.Generator(np.random.PCG64(seed))

    sp = shortest_paths(static_instance)
    plan = init_individual(static_instance, sp, rng)
    departures = tuple(0.0 for _ in split_routes(plan))
    horizon = 2.0 * evaluate_solution(Solution(plan, departures), static_instance, sp)

    records: list[tuple[int, float, float, float]] = []
    if family == "2lp":
        k = 1.0
        for tid in static_instance.real_task_ids:
            st = static_instance.tasks[tid].cost_fn.c_min
            records.append((tid, st, 0.0, 0.0))
    else:
        k = float(rng.choice(sorted(slope_set)))
        window: dict[int, tuple[float, float]] = {}
        for root in static_instance.roots:
            st = static_instance.tasks[root].cost_fn.c_min
            mid = rng.uniform(0.1 * horizon, 0.9 * horizon)
            width = rng.uniform(st, 3.0 * st)
            bt = max(0.0, mid - width / 2.0)
            window[root] = (bt, bt + width)
        for tid in static_instance.real_task_ids:
            st = static_instance.tasks[tid].cost_fn.c_min
            bt, et = window[static_instance.pair_root(tid)]
            records.append((tid, st, bt, et))

    ann = TdAnnotation(
        family=family, k=k, horizon=horizon, seed=seed, records=tuple(records)
    )
    return apply_annotation(static_instance, ann), ann


def serialize_annotation(ann: TdAnnotation) -> str:
    lines = [
        ANNOTATION_TAG,
        f"family : {ann.family}",
        f"k : {repr(ann.k)}",
        f"horizon : {repr(ann.horizon)}",
        f"seed : {ann.seed}",
        f"tasks : {len(ann.records)}",
    ]
    for tid, c_min, bt, et in ann.records:
        lines.append(f"task {tid} c_min {repr(c_min)} bt {repr(bt)} et {repr(et)}")
    return "\n".join(lines) + "\n"


def read_annotation(text: str) -> TdAnnotation:
    lines = [(n, l.strip()) for n, l in enumerate(text.splitlines(), start=1) if l.strip()]
    if not lines or lines[0][1] != ANNOTATION_TAG:
        raise ParseError(f"missing or unsupported format tag (want {ANNOTATION_TAG!r})")
    header: dict[str, tuple[str, int]] = {}  # key: (value, line)
    records: list[tuple[int, float, float, float]] = []
    for n, line in lines[1:]:
        if line.startswith("task "):
            parts = line.split()
            if len(parts) != 8 or parts[2] != "c_min" or parts[4] != "bt" or parts[6] != "et":
                raise ParseError(f"line {n}: malformed task record: {line!r}")
            tid = _int(parts[1], n, "task ID")
            c_min, bt, et = (_num(parts[i], n, parts[i - 1]) for i in (3, 5, 7))
            # checked where its line is known; apply_annotation adds the slope k
            _cost_fn(f"line {n}: task {tid}", c_min=c_min, bt=bt, et=et)
            records.append((tid, c_min, bt, et))
        else:
            key, _, value = line.partition(":")
            header[key.strip()] = (value.strip(), n)
    for key in ("family", "k", "horizon", "seed", "tasks"):
        if key not in header:
            raise ParseError(f"annotation missing field {key!r}")
    if _int(*header["tasks"], "tasks") != len(records):
        raise ParseError(
            f"annotation claims {header['tasks'][0]} tasks, found {len(records)}"
        )
    family, line = header["family"]
    if family not in ("2lp", "3lp"):
        raise ParseError(f"line {line}: family must be '2lp' or '3lp', got {family!r}")
    # classify's rule: two-segment iff every window is bt = et = 0
    if (family == "2lp") != all(bt == et == 0.0 for _, _, bt, et in records):
        raise ParseError(f"line {line}: family {family} disagrees with the task records; "
                         "2lp holds if and only if every task has bt = et = 0")
    k = _num(*header["k"], "k")
    if not 0 <= k < math.inf:
        raise ParseError(f"line {header['k'][1]}: k must be finite and non-negative, got {k}")
    horizon = _num(*header["horizon"], "horizon")
    if not 0 < horizon < math.inf:
        raise ParseError(f"line {header['horizon'][1]}: horizon must be finite and positive, "
                         f"got {horizon}")
    return TdAnnotation(
        family=family,
        k=k,
        horizon=horizon,
        seed=_int(*header["seed"], "seed"),
        records=tuple(records),
    )
