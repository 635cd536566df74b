"""Safe-following-distance toolkit for the single-lane same-direction
scenario: rule engine, proper-response controller, simplex supervisor,
kinematic simulation, numerical verification, and trajectory auditing.

``from rsskit import audit`` is the audit function, which hides the
submodule of the same name; reach the module through
``importlib.import_module("rsskit.audit")``.
"""

__version__ = "0.1.0"

from .core import (
    AC,
    BC,
    RssParams,
    ScenarioState,
    Trajectory,
    TrajectorySample,
    load_params,
    validate_params,
)
from .rule import SafetyEvaluation, evaluate, safe_distance, safe_distance_raw
from .dynamics import (
    ExecutionTrace,
    integrate,
    pov_stop_distance,
    sv_stop_distance,
)
from .supervisor import SupervisorConfig, decide, run_supervised
from .audit import AuditReport, audit, check_compliance, safety_metric

__all__ = [
    "AC",
    "BC",
    "AuditReport",
    "ExecutionTrace",
    "RssParams",
    "SafetyEvaluation",
    "ScenarioState",
    "SupervisorConfig",
    "Trajectory",
    "TrajectorySample",
    "audit",
    "check_compliance",
    "decide",
    "evaluate",
    "integrate",
    "load_params",
    "pov_stop_distance",
    "run_supervised",
    "safe_distance",
    "safe_distance_raw",
    "safety_metric",
    "sv_stop_distance",
    "validate_params",
]
