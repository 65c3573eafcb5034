"""Charge-scheduling optimizer and discrete-event simulator for EV fleets."""

from .fade import (
    BranchCoefficients,
    FadeModelParams,
    cyclic_fade_approx,
    cyclic_fade_exact,
    fade_fit_report,
    slot_fade,
)
from .problem import (
    ChargingTask,
    NormalizationPoints,
    ObjectiveBreakdown,
    ProblemInstance,
    SlotGrid,
    StationLimits,
    availability_weights,
    build_constraints,
    build_instance,
    charging_period,
    compute_normalization_points,
    normalized_objective,
    objective_components,
)
from .scheduler import (
    FleetState,
    Policy,
    admit_task,
    apply_slot,
    baseline_schedule,
    proposed_schedule,
)
from .simulator import (
    Event,
    MetricsReport,
    RunResult,
    SimConfig,
    peak_power_period,
    run,
    value_loss,
)
from .solver import (
    SolveReport,
    feasibility_check,
    single_objective_minimizer,
    solve,
)

__version__ = "0.1.0"
