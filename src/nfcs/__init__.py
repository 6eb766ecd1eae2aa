"""Hybrid near/far-field channel modeling and block-sparse channel estimation
for extremely large antenna arrays."""

from .geometry import (
    SPEED_OF_LIGHT,
    ArrayConfig,
    ChannelSpec,
    b_vector,
    effective_distance,
    field_boundaries,
    near_steering,
    sample_channel,
    synthesize_channel,
)
from .dictionaries import (
    Dictionary,
    analyze,
    build_dft,
    build_dmu,
    build_polar_baseline,
    dft_grid,
    mutual_coherence,
)
from .coherence import (
    coherence_approx,
    coherence_exact,
    fresnel,
    phase_pair,
    predicted_support,
    sparsity_bound,
    thresholds,
)
from .recovery import (
    BlockOMP,
    SensingProblem,
    gen_pilots,
    ls_estimate,
    make_problem,
    nmse,
    noise_variance,
)
from .block_rip import (
    RipProbeReport,
    empirical_rip_probe,
    sample_complexity,
    varrho_bound,
)
from .harness import (
    ExperimentConfig,
    ResultRow,
    config_hash,
    emit,
    parse_rows,
    preset_config,
    run,
)

__version__ = "0.1.0"
