"""The package's public names, pinned.

Adding or removing a public name must change this list, so every change to
the public surface shows up as a reviewed test diff.
"""

import blindbeam

PUBLIC_NAMES = [
    "AngleTable", "BeamformingResult", "CSV_HEADER", "CascadedChannelTensor",
    "ConditionReport", "ConfigError", "DInstance", "EmptyGroupError",
    "ExampleFixture", "ExperimentConfig", "ExperimentResult", "Geometry", "Lemma1Report",
    "LinkChannelGraph", "PhaseAssignment",
    "PhaseGrid", "PropagationMap", "RadioParams", "RankOneCheck", "RankOneFactors",
    "RunRecord", "Scenario", "SnrBoost", "as_grids",
    "build_example", "build_link_graph",
    "check_c_conditions", "check_cprime", "check_d_conditions",
    "check_rank_one", "cpp_decide", "csm_decide", "dbm_to_watts",
    "default_scenario_path", "derive_rng", "dims", "direct_gain", "effective_channel",
    "expand_links_to_tensor",
    "fit_loglog_slope", "gamma_min_double",
    "generate_samples", "leakage_abs_sum", "lemma1_verify", "load_adjacency",
    "load_scenario", "los_link_channels", "make_d_instance", "max_leakage_scale",
    "nlos_link_channels", "packaged_scenario_path", "parse_config_file",
    "parse_noise_model", "parse_t_rule", "pathloss_amplitude", "place_random",
    "random_beamforming", "realize_scenario", "received_power",
    "recover_full_path_factors", "run_compare", "run_conditions_probability",
    "run_examples", "run_lemma_check", "run_scaling", "sample_propagation",
    "sequential_cpp_oracle", "sequential_csm", "snr_boost", "stage_coefficients",
    "steering_vector", "theta_hat_star_all", "virtual_single_irs", "wrap_angle",
    "write_csv", "write_json", "zero_phase_baseline",
]


def test_public_names_are_pinned():
    assert sorted(blindbeam.__all__) == PUBLIC_NAMES

