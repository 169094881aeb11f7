"""Monte Carlo evaluation of medical-response mission policies.

The package simulates single-platform medical-response missions under
three control policies (teleoperation, heuristic autonomy, triage-aware
digital-twin planning) across GNSS-degradation and patient-load
conditions, and aggregates the formal metrics used to compare them:
high-severity intervention delay, service rate, failure rate, operator
workload, confidence intervals, delay quantiles, dominance relations,
and Pareto frontiers.
"""

__version__ = "0.1.0"

from .engine import (
    DEFAULT_PLATFORM_PARAMS,
    MissionEvent,
    MissionTrace,
    OperatorView,
    PlatformParams,
    check_abort,
    run_mission,
)
from .experiment import (
    DEFAULT_SWEEP_CONFIG,
    ConditionSummary,
    ParetoPoint,
    PolicyRollup,
    SweepConfig,
    SweepResult,
    TrialRecord,
    boxplot_stats,
    confidence_interval,
    pareto_front,
    quantiles,
    run_sweep,
)
from .localization import (
    DEFAULT_LOCALIZATION_PARAMS,
    DegradationProfile,
    LocalizationParams,
    integrity_schedule,
    outage_schedule,
)
from .metrics import (
    DelayRecord,
    MetricVector,
    TrialMetrics,
    aggregate_workload,
    dominates,
    failure_rate,
    intervention_delays,
    intervention_frequency,
    metric_vector,
    served_within_window,
    task_switch_rate,
    trial_metrics,
    workload,
)
from .policy import (
    DEFAULT_TRIAGE_WEIGHTS,
    PolicyId,
    TriageWeights,
    order_heuristic,
    order_teleop,
    order_triage,
    triage_score,
)
from .scenario import (
    DEFAULT_SCENARIO_PARAMS,
    Condition,
    Patient,
    Scenario,
    ScenarioParams,
    StreamPurpose,
    classify_high_severity,
    derive_stream,
    generate_scenario,
)
