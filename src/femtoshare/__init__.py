"""Spectrum-sharing macro/femto downlink: outage bounds, self-regulated
power control, and Monte-Carlo validation."""

from .analysis import (
    BoundContext,
    FemtoOutageBreakdown,
    femto_outage_lower_bound,
    macro_outage_lower_bound,
)
from .model import (
    DB_TO_LN,
    LinkSet,
    LognormalDist,
    NetworkParams,
    PropagationLink,
    build_links,
    composite_fading_shadowing,
    fap_power_distribution,
    load_scenario,
    per_subcarrier_power,
)
from .montecarlo import (
    FemtoDrop,
    SimResult,
    drop_faps,
    estimate_ase,
    estimate_op,
)
from .regulation import (
    InfeasibleError,
    RegulationDecision,
    RegulationTable,
    decide,
    min_deployment_distance,
    min_serving_power_dbm,
    power_ceiling_dbm,
    power_floor_approx_dbm,
    power_floor_exact_dbm,
    rb_access_probability,
)

__version__ = "0.1.0"
