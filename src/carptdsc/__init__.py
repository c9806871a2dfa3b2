"""Solver library and benchmark harness for capacitated arc routing with
time-dependent service costs: a memetic routing stage followed by
per-route departure-time optimization."""

from .costfn import Family, InstanceKind, ServiceCostFunction, classify
from .departure import (
    NcsParams,
    ScalarObjective,
    grid_oracle,
    gss,
    ncs,
    optimize_departures,
    route_objective,
)
from .instance import (
    Arc,
    Instance,
    InstanceError,
    ShortestPaths,
    Task,
    build_instance,
    shortest_paths,
)
from .instance_io import (
    StaticInstanceFile,
    TdAnnotation,
    apply_annotation,
    generate_td,
    parse_carp,
    parse_solomon,
    read_annotation,
    serialize_annotation,
)
from .maens import (
    EvolveResult,
    Individual,
    MaensParams,
    SolverError,
    crossover,
    evolve,
    init_individual,
    local_search,
    select_next_task,
)
from .solution import (
    DepartureTimes,
    FeasibilityReport,
    RouteEval,
    RouteEvaluator,
    RoutingPlan,
    Solution,
    check_feasibility,
    evaluate_route,
    evaluate_solution,
    format_solution,
    join_routes,
    split_routes,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
