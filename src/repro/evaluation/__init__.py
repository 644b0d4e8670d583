"""Scheduler-evaluation drivers: the simulation loop, comparisons, sweeps."""

from repro.evaluation.results import JobResult, SimulationResult
from repro.evaluation.simulator import MachineSimulation, SpaceSite, simulate
from repro.evaluation.sweep import ComparisonRow, compare_schedulers, format_table, load_sweep

__all__ = [
    "JobResult",
    "SimulationResult",
    "MachineSimulation",
    "SpaceSite",
    "simulate",
    "ComparisonRow",
    "compare_schedulers",
    "format_table",
    "load_sweep",
]
