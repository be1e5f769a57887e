"""Blind beamforming for cascaded multi-surface reflected links.

Configure L reflecting surfaces one at a time from received-power samples
alone: probe random phase configurations, group the measurements by
(element, phase index), and keep the per-element argmax of the conditional
means.  The package also ships perfect-knowledge references, channel
condition checkers that predict when the blind scheme reaches its full
power scaling, and a reproducible experiment runner.
"""

from types import ModuleType as _ModuleType

from .beamforming import (
    BeamformingResult,
    EmptyGroupError,
    cpp_decide,
    csm_decide,
    generate_samples,
    random_beamforming,
    sequential_cpp_oracle,
    sequential_csm,
    virtual_single_irs,
    zero_phase_baseline,
)
from .channel import (
    CascadedChannelTensor,
    LinkChannelGraph,
    RadioParams,
    SnrBoost,
    direct_gain,
    dims,
    effective_channel,
    expand_links_to_tensor,
    received_power,
    snr_boost,
    stage_coefficients,
)
from .conditions import (
    ConditionReport,
    Lemma1Report,
    RankOneCheck,
    RankOneFactors,
    check_c_conditions,
    check_cprime,
    check_d_conditions,
    check_rank_one,
    gamma_min_double,
    leakage_abs_sum,
    lemma1_verify,
    recover_full_path_factors,
    theta_hat_star_all,
)
from .config import (ConfigError, ExperimentConfig, parse_config_file, parse_noise_model,
                     parse_t_rule)
from .experiments import (
    CSV_HEADER,
    ExperimentResult,
    RunRecord,
    derive_rng,
    fit_loglog_slope,
    realize_scenario,
    run_compare,
    run_conditions_probability,
    run_examples,
    run_lemma_check,
    run_scaling,
    write_csv,
    write_json,
)
from .fixtures import (
    DInstance,
    ExampleFixture,
    build_example,
    make_d_instance,
    max_leakage_scale,
)
from .phases import PhaseAssignment, PhaseGrid, as_grids, wrap_angle
from .scenario import (
    AngleTable,
    Geometry,
    PropagationMap,
    Scenario,
    build_link_graph,
    dbm_to_watts,
    default_scenario_path,
    load_adjacency,
    load_scenario,
    los_link_channels,
    nlos_link_channels,
    packaged_scenario_path,
    pathloss_amplitude,
    place_random,
    sample_propagation,
    steering_vector,
)

__version__ = "0.1.0"

__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
