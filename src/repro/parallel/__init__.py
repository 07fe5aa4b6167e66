"""Parallel substrate: backends, resilience, fault injection, simulation."""

from .backend import Backend, SerialBackend, ThreadBackend, get_backend
from .cost_model import CostModel, DEFAULT_COST_MODEL
from .faults import (
    FaultPlane,
    FaultRule,
    InjectedFault,
    NO_FAULTS,
    parse_fault_spec,
)
from .resilience import (
    ResilienceError,
    ResilienceReport,
    RetryPolicy,
    TaskFailure,
    TaskOutcome,
    TaskTimeout,
    supervised_map,
)
from .simcluster import SimReport, SimulatedCluster

__all__ = [
    "Backend",
    "CostModel",
    "DEFAULT_COST_MODEL",
    "FaultPlane",
    "FaultRule",
    "InjectedFault",
    "NO_FAULTS",
    "ResilienceError",
    "ResilienceReport",
    "RetryPolicy",
    "SerialBackend",
    "SimReport",
    "SimulatedCluster",
    "TaskFailure",
    "TaskOutcome",
    "TaskTimeout",
    "ThreadBackend",
    "get_backend",
    "parse_fault_spec",
    "supervised_map",
]
