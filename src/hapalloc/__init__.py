"""Platform propulsion power modeling and QoS-first energy-efficient beamforming."""

from .config import (
    Atmosphere,
    BudgetInfeasibleError,
    ConfigError,
    PlatformGeometry,
    PowerLedger,
    isa_properties,
    rf_budget,
    static_comm_power,
)
from .propulsion import (
    EfficiencySample,
    SurrogateCoeffs,
    aerodynamic_drag,
    fit_inverse_power_surrogate,
    hull_drag_coefficient,
    propulsion_power,
    reference_coeffs,
    reynolds,
    surrogate_efficiency,
)
from .beamforming import RateModel, ZfBeamformer, zf_beamformer
from .channel import ArrayGeometry, Scenario, UserLink, mean_channel_power, upa_response
from .q3e import (
    FeasibilityPartition,
    Q3eSolution,
    baseline_max_sum_rate,
    baseline_qos_only,
    feasibility_partition,
    q3e,
    solve_full_qos,
    solve_partial_qos,
)

__version__ = "0.1.0"

__all__ = [
    "Atmosphere",
    "PlatformGeometry",
    "PowerLedger",
    "ConfigError",
    "BudgetInfeasibleError",
    "isa_properties",
    "static_comm_power",
    "rf_budget",
    "EfficiencySample",
    "SurrogateCoeffs",
    "reynolds",
    "hull_drag_coefficient",
    "aerodynamic_drag",
    "surrogate_efficiency",
    "fit_inverse_power_surrogate",
    "propulsion_power",
    "reference_coeffs",
    "ArrayGeometry",
    "UserLink",
    "Scenario",
    "upa_response",
    "mean_channel_power",
    "ZfBeamformer",
    "RateModel",
    "zf_beamformer",
    "FeasibilityPartition",
    "Q3eSolution",
    "feasibility_partition",
    "q3e",
    "solve_full_qos",
    "solve_partial_qos",
    "baseline_max_sum_rate",
    "baseline_qos_only",
    "__version__",
]
