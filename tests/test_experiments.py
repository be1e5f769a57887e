"""Experiment runners, config parsing, CSV output, and the CLI."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from blindbeam import (
    CSV_HEADER,
    AngleTable,
    ConfigError,
    ExperimentConfig,
    PropagationMap,
    RunRecord,
    Scenario,
    as_grids,
    build_link_graph,
    default_scenario_path,
    derive_rng,
    fit_loglog_slope,
    load_adjacency,
    load_scenario,
    packaged_scenario_path,
    parse_config_file,
    parse_noise_model,
    parse_t_rule,
    place_random,
    realize_scenario,
    run_compare,
    run_conditions_probability,
    run_examples,
    run_lemma_check,
    run_scaling,
    sample_propagation,
    snr_boost,
    write_csv,
    write_json,
    zero_phase_baseline,
)
from blindbeam import config, experiments
from blindbeam.cli import main
from blindbeam.experiments import (RUNNERS, TAG_CHANNEL, TAG_PLACEMENT, TAG_PROPAGATION,
                                   sort_records)


def run_module(*argv) -> subprocess.CompletedProcess:
    """`python -m blindbeam ARGV` in a fresh interpreter, so a traceback
    shows on stderr exactly as a user would see it."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "blindbeam", *argv],
                          capture_output=True, text=True, env=env, timeout=60)


PACKAGED_ADJACENCY = Path(experiments.__file__).parent / "data" / "adjacency_10node.txt"


def cfg(**kwargs) -> ExperimentConfig:
    return ExperimentConfig.merge(None, kwargs)


def assert_same_graph(got, want):
    """Every link of two link graphs equal bit for bit."""
    assert got.tx_to_rx == want.tx_to_rx
    assert len(got.tx_to_irs) == len(want.tx_to_irs)
    assert sorted(got.irs_to_irs) == sorted(want.irs_to_irs)
    for a, b in zip(got.tx_to_irs + got.irs_to_rx, want.tx_to_irs + want.irs_to_rx):
        assert np.array_equal(a, b)
    for key, hop in want.irs_to_irs.items():
        # the same stored form: a (u, v) pair or a matrix
        assert type(got.irs_to_irs[key]) is type(hop)
        assert np.array_equal(got.irs_to_irs[key], hop)


def stage_by_stage(seed, trial, tags, num_surfaces, n, geometry, prop, zero_nlos):
    """A realization built stage by stage with the derive_rng(seed, trial,
    TAG_*, *tags) streams: staircase placement when geometry is None, bearing
    angles, propagation sampled when prop is an eta."""
    if geometry is None:
        geometry = place_random(num_surfaces,
                                derive_rng(seed, trial, TAG_PLACEMENT, *tags))
    if not isinstance(prop, PropagationMap):
        prop = sample_propagation(prop, num_surfaces,
                                  derive_rng(seed, trial, TAG_PROPAGATION, *tags))
    return build_link_graph(geometry, AngleTable.from_geometry(geometry), prop, n,
                            derive_rng(seed, trial, TAG_CHANNEL, *tags), zero_nlos=zero_nlos)


class TestSlopeFit:
    def test_exact_quartic(self):
        ns = np.array([8, 16, 32, 64])
        slope, intercept, r2 = fit_loglog_slope(ns, ns.astype(float) ** 4)
        assert slope == pytest.approx(4.0, abs=1e-12)
        assert intercept == pytest.approx(0.0, abs=1e-12)
        assert r2 == pytest.approx(1.0)

    def test_constant_is_flat(self):
        slope, _, _ = fit_loglog_slope([8, 16, 32], [5.0, 5.0, 5.0])
        assert slope == pytest.approx(0.0, abs=1e-12)

    def test_noisy_quadratic(self, rng):
        ns = np.array([8, 16, 32, 64, 128], dtype=float)
        boosts = ns**2 * np.exp(rng.normal(0, 0.05, ns.size))
        slope, _, r2 = fit_loglog_slope(ns, boosts)
        assert slope == pytest.approx(2.0, abs=0.2)
        assert r2 > 0.98

    def test_needs_three_distinct_sizes(self):
        with pytest.raises(ValueError, match="distinct"):
            fit_loglog_slope([8, 8, 16], [1.0, 1.0, 2.0])

    def test_rejects_nonpositive_values(self):
        with pytest.raises(ValueError):
            fit_loglog_slope([8, 16, 32], [1.0, 0.0, 2.0])

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            fit_loglog_slope([8, 16, 32], [1.0, 2.0])


class TestRngStreams:
    def test_reproducible(self):
        a = derive_rng(7, 3, 1).random(4)
        b = derive_rng(7, 3, 1).random(4)
        assert np.array_equal(a, b)

    def test_tags_give_independent_streams(self):
        a = derive_rng(7, 3, 0).random(4)
        b = derive_rng(7, 3, 1).random(4)
        assert not np.array_equal(a, b)

    def test_seed_changes_stream(self):
        a = derive_rng(0, 1).random(4)
        b = derive_rng(1, 1).random(4)
        assert not np.array_equal(a, b)


def record(**overrides) -> RunRecord:
    base = dict(experiment="t", seed=0, trial=0, method="m", num_surfaces=2,
                num_elements=8, levels="4", samples=10, metric_kind="boost_linear",
                metric_value=1.0, wall_s=0.5)
    base.update(overrides)
    return RunRecord(**base)


class TestCsvOutput:
    def test_row_format_suppresses_wall_clock_by_default(self):
        row = record(metric_value=1234.56789012345).to_csv_row()
        fields = row.split(",")
        assert fields[-1] == "0"
        assert fields[-2] == "1234.56789012"
        assert len(fields) == len(CSV_HEADER.split(","))

    def test_row_format_with_timing(self):
        row = record(wall_s=0.1234).to_csv_row(timing=True)
        assert row.endswith(",0.123")

    def test_sort_is_by_trial_method_size(self):
        rows = [
            record(trial=1, method="a", num_elements=8),
            record(trial=0, method="b", num_elements=8),
            record(trial=0, method="a", num_elements=16),
            record(trial=0, method="a", num_elements=8),
        ]
        ordered = sort_records(rows)
        assert [(r.trial, r.method, r.num_elements) for r in ordered] == [
            (0, "a", 8), (0, "a", 16), (0, "b", 8), (1, "a", 8)]

    def test_write_csv_layout(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv(path, [record()], summary_lines=["# note,x=1"])
        lines = path.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert lines[-1] == "# note,x=1"
        assert len(lines) == 3

    def test_write_csv_identical_on_rewrite(self, tmp_path):
        rows = [record(trial=t, metric_value=t * 1.5) for t in range(5)]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(a, rows)
        write_csv(b, list(reversed(rows)))
        assert a.read_bytes() == b.read_bytes()

    def test_write_json_payload(self, tmp_path):
        path = tmp_path / "out.json"
        result = run_examples(cfg(n_sweep="3,5"))
        write_json(path, cfg(n_sweep="3,5"), result)
        payload = json.loads(path.read_text())
        assert set(payload) == {"config", "records", "summary", "report", "failures"}
        assert payload["config"] == {"n_sweep": "3,5"}
        assert payload["records"][0]["experiment"] == "examples"


class TestConfig:
    def test_parse_file_strips_comments_and_blanks(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("# header\n\nfoo = 1  # inline\nbar=two words\n")
        assert parse_config_file(path) == {"foo": "1", "bar": "two words"}

    def test_parse_file_errors_carry_line_numbers(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("ok = 1\nnot a pair\n")
        with pytest.raises(ConfigError, match=r":2:"):
            parse_config_file(path)

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("foo = 1\nfoo = 2\n")
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_file(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            parse_config_file(tmp_path / "absent.cfg")

    def test_merge_overrides_beat_file(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("trials = 5\nseed = 1\n")
        merged = ExperimentConfig.merge(path, {"trials": 9, "skipped": None})
        typed = merged.options(experiments.OPTIONS["scaling"])
        assert typed.trials == 9
        assert typed.seed == 1
        assert "skipped" not in merged.values

    def test_row_parsers(self):
        assert config.count("7", "n") == 7
        assert config.finite("1.5", "x") == 1.5
        assert config.boolean("yes", "flag") is True
        assert config.boolean("off", "other") is False
        assert config.int_list("1, 2 3", "ns") == [1, 2, 3]
        assert config.pair("3,4", "pt") == (3.0, 4.0)

    def test_row_parser_errors(self):
        with pytest.raises(ConfigError, match="integer"):
            config.count("seven", "n")
        with pytest.raises(ConfigError, match="'x,y'"):
            config.pair("1,2,3", "pt")
        with pytest.raises(ConfigError, match="boolean"):
            config.boolean("maybe", "flag")
        required = config.Option("absent", (), config.string, None, "a required key")
        with pytest.raises(ConfigError, match="missing"):
            ExperimentConfig({}).options([required]).absent

    def test_parse_noise_model(self):
        assert parse_noise_model("noiseless") == 0
        assert parse_noise_model("one_draw") == parse_noise_model("averaged:1") == 1
        assert parse_noise_model("averaged:32") == 32
        for text in ("sometimes", "averaged", "averaged:0", "averaged:x"):
            with pytest.raises(ConfigError):
                parse_noise_model(text)

    def test_t_rules(self):
        assert parse_t_rule("fixed:100")(5) == 100
        assert parse_t_rule("linear:2.5")(10) == 25
        assert parse_t_rule("theory:1")(10) == math.ceil(100 * math.log(10) ** 3)
        for bad in ("fixed:0", "linear:-1", "square:2", "fixed:many", ""):
            with pytest.raises(ConfigError):
                parse_t_rule(bad)


class TestScenarioFiles:
    def test_packaged_scenarios_exist(self):
        assert default_scenario_path().exists()
        assert packaged_scenario_path("double_irs_chain").exists()
        with pytest.raises(ConfigError, match="no packaged scenario"):
            packaged_scenario_path("missing")

    def test_default_scenario_contents(self):
        sc = load_scenario(default_scenario_path())
        assert sc.num_surfaces == 2
        assert sc.num_elements == 100
        assert [g.num_levels for g in sc.grids] == [4, 4]
        assert sc.geometry.num_nodes == 4
        assert sc.fixed_angle_rad is None
        assert sc.propagation == 0.0  # chain_only
        assert not sc.zero_nlos

    def test_chain_variant_zeroes_nlos(self):
        sc = load_scenario(packaged_scenario_path("double_irs_chain"))
        assert sc.zero_nlos

    def test_fixed_angle_and_eta_parsing(self, tmp_path):
        path = tmp_path / "s.cfg"
        path.write_text("surfaces = 1\nelements = 4\nsurface1 = 10,0\n"
                        "angles = fixed_deg:90\npropagation = eta:0.5\n")
        sc = load_scenario(path)
        assert sc.fixed_angle_rad == pytest.approx(math.pi / 2)
        assert sc.propagation == 0.5

    @pytest.mark.parametrize("line, want", [
        ("propagation = chain_only", 0.0),
        ("propagation = all_los", 1.0),
        ("propagation = eta:0.25", 0.25),
        ("placement = random_staircase", 0.0),
    ])
    def test_propagation_and_placement_values(self, tmp_path, line, want):
        path = tmp_path / "s.cfg"
        path.write_text(f"surfaces = 1\nelements = 4\nsurface1 = 10,0\n{line}\n")
        sc = load_scenario(path)
        assert sc.propagation == want
        assert (sc.geometry is None) == ("random_staircase" in line)

    def test_adjacency_file_is_the_propagation_map(self, tmp_path):
        path = tmp_path / "s.cfg"
        path.write_text("surfaces = 8\nelements = 4\nplacement = random_staircase\n"
                        f"propagation = adjacency:{PACKAGED_ADJACENCY}\n")
        sc = load_scenario(path)
        assert isinstance(sc.propagation, PropagationMap)
        assert np.array_equal(sc.propagation.los, load_adjacency(PACKAGED_ADJACENCY).los)

    @pytest.mark.parametrize("prop, los_pairs", [
        ("chain_only", "chain"), ("eta:0", "chain"), ("all_los", "all"), ("eta:1", "all"),
    ])
    def test_named_propagation_realizes_the_hand_built_map(self, tmp_path, prop, los_pairs):
        # chain_only and all_los are read as eta 0 and 1; the graph must equal
        # the one built from the hand-built chain or all-pairs map, with the
        # faded off-chain links drawn from the same channel stream
        path = tmp_path / "s.cfg"
        path.write_text(f"surfaces = 2\nelements = 5\nsurface1 = 15,0\nsurface2 = 22.5,13\n"
                        f"rx = 37.5,13\npropagation = {prop}\n")
        sc = load_scenario(path)
        a = np.zeros((4, 4), dtype=bool)
        for i in range(3):
            a[i, i + 1] = a[i + 1, i] = True
        if los_pairs == "all":
            a = ~np.eye(4, dtype=bool)
        for trial in (0, 3):
            graph, _, _ = realize_scenario(sc, seed=9, trial=trial)
            want = stage_by_stage(9, trial, (), 2, 5, sc.geometry, PropagationMap(a), False)
            assert_same_graph(graph, want)

    def test_random_staircase_draws_each_stage_from_its_own_stream(self, tmp_path):
        path = tmp_path / "s.cfg"
        path.write_text("surfaces = 3\nelements = 4\nplacement = random_staircase\n"
                        "propagation = eta:0.5\n")
        sc = load_scenario(path)
        for tags in ((), (1, 0), (0, 1)):
            graph, _, _ = realize_scenario(sc, seed=2, trial=1, tags=tags)
            assert_same_graph(graph, stage_by_stage(2, 1, tags, 3, 4, None, 0.5, False))

    @pytest.mark.parametrize("line", [
        "placement = grid",
        "angles = compass",
        "propagation = wormhole",
        "surfaces = 0",
    ])
    def test_bad_scenario_values(self, tmp_path, line):
        path = tmp_path / "s.cfg"
        body = {"surfaces = 0": "surfaces = 0\n"}.get(
            line, f"surfaces = 1\nsurface1 = 10,0\n{line}\n")
        path.write_text(body + "elements = 4\n")
        with pytest.raises(ConfigError):
            load_scenario(path)

    def test_realize_is_trial_reproducible(self):
        sc = load_scenario(default_scenario_path())
        g1, grids, params = realize_scenario(sc, seed=3, trial=2, num_elements=6)
        g2, _, _ = realize_scenario(sc, seed=3, trial=2, num_elements=6)
        g3, _, _ = realize_scenario(sc, seed=3, trial=3, num_elements=6)
        assert g1.tx_to_rx == g2.tx_to_rx
        assert np.array_equal(g1.tx_to_irs[1], g2.tx_to_irs[1])
        # the tx -> first-surface hop is deterministic line of sight; trial
        # randomness enters through the faded off-chain links
        assert np.array_equal(g1.tx_to_irs[0], g3.tx_to_irs[0])
        assert not np.array_equal(g1.tx_to_irs[1], g3.tx_to_irs[1])
        assert g1.tx_to_rx != g3.tx_to_rx
        assert g1.num_elements == 6
        assert len(grids) == 2
        assert params.transmit_power_w == pytest.approx(1.0)


class TestScalingRunner:
    def test_oracle_slope_near_quartic(self):
        result = run_scaling(cfg(trials=3, n_sweep="6,10,14", methods="cpp"))
        assert result.ok
        assert len(result.records) == 3 * 3
        line = next(l for l in result.summary_lines if "method=cpp" in l)
        slope = float(line.split("slope=")[1].split(",")[0])
        assert 3.0 < slope < 5.0

    def test_boost_grows_with_size(self):
        result = run_scaling(cfg(trials=4, n_sweep="6,12", methods="cpp"))
        by_n = {}
        for r in result.records:
            by_n.setdefault(r.num_elements, []).append(r.metric_value)
        assert np.mean(by_n[12]) > np.mean(by_n[6])

    def test_records_are_deterministic_across_threads(self):
        base = dict(trials=3, n_sweep="4,6,8", methods="csm,cpp", t_rule="fixed:40")
        one = run_scaling(cfg(**base, threads=1))
        many = run_scaling(cfg(**base, threads=3))
        # wall clock differs run to run; the CSV form drops it by default
        a = [r.to_csv_row() for r in sort_records(one.records)]
        b = [r.to_csv_row() for r in sort_records(many.records)]
        assert a == b
        assert one.summary_lines == many.summary_lines

    def test_csm_rows_record_sample_budget(self):
        result = run_scaling(cfg(trials=1, n_sweep="4,6,8", t_rule="linear:5"))
        for r in result.records:
            assert r.samples == (0 if r.method == "cpp" else 5 * r.num_elements)

    def test_reports_when_no_slope_is_fitted(self):
        result = run_scaling(cfg(trials=1, n_sweep="4,8", t_rule="fixed:40"))
        assert result.report_lines == ["method=cpp: no slope, 2 distinct N (need 3)",
                                       "method=csm: no slope, 2 distinct N (need 3)"]
        assert result.summary_lines == []
        fitted = run_scaling(cfg(trials=1, n_sweep="4,6,8", methods="cpp"))
        assert fitted.report_lines == [line.lstrip("# ") for line in fitted.summary_lines]
        assert len(fitted.report_lines) == 1

    def test_rejects_unknown_method(self):
        with pytest.raises(ConfigError, match="unknown scaling methods"):
            run_scaling(cfg(methods="cpp,genie"))

    def test_rejects_bad_trials(self):
        with pytest.raises(ConfigError):
            run_scaling(cfg(trials=0))


class TestCompareRunner:
    def test_methods_share_the_trial_channel(self):
        result = run_compare(cfg(trials=2, elements=6, methods="zero,csm,cpp",
                                 t_rule="fixed:50"))
        assert result.ok
        assert len(result.records) == 2 * 3
        sc = load_scenario(default_scenario_path())
        graph, grids, params = realize_scenario(sc, seed=0, trial=0, num_elements=6)
        res = zero_phase_baseline(graph, grids)
        want = snr_boost(graph, res.assignment, params).value
        got = next(r for r in result.records if r.method == "zero" and r.trial == 0)
        assert got.metric_value == pytest.approx(want, rel=1e-12)
        assert got.metric_kind == "boost_linear"

    def test_oracle_beats_static_phases_on_average(self):
        result = run_compare(cfg(trials=4, elements=8, methods="zero,cpp"))
        means = {}
        for method in ("zero", "cpp"):
            means[method] = np.mean([r.metric_value for r in result.records
                                     if r.method == method])
        assert means["cpp"] > means["zero"]

    def test_deterministic_across_threads(self):
        base = dict(trials=3, elements=6, methods="zero,random,virtual,csm,cpp",
                    t_rule="fixed:30", budget_per_surface=30)
        one = run_compare(cfg(**base, threads=1))
        many = run_compare(cfg(**base, threads=4))
        a = [r.to_csv_row() for r in sort_records(one.records)]
        b = [r.to_csv_row() for r in sort_records(many.records)]
        assert a == b

    def test_rejects_unknown_method(self):
        with pytest.raises(ConfigError, match="unknown compare methods"):
            run_compare(cfg(methods="zero,psychic"))


class TestConditionsRunner:
    def test_eta_extremes(self):
        result = run_conditions_probability(
            cfg(trials=3, elements=8, eta_sweep="0,1"))
        # 2 etas x (3 trials + 1 aggregate) x 3 condition sets
        assert len(result.records) == 2 * 4 * 3
        fractions = {(r.experiment, r.method): r.metric_value
                     for r in result.records if r.trial == -1}
        # chain-only propagation satisfies every set: the relay chain is
        # rank-one and every leakage channel is exactly zero
        assert fractions[("conditions:eta=0", "C")] == 1.0
        assert fractions[("conditions:eta=0", "Cprime")] == 1.0
        assert fractions[("conditions:eta=0", "D")] == 1.0
        # a dense deployment has a live direct path, so the zero-leakage
        # requirements cannot hold
        assert fractions[("conditions:eta=1", "Cprime")] == 0.0
        for value in fractions.values():
            assert 0.0 <= value <= 1.0

    def test_fraction_rows_aggregate_trials(self):
        result = run_conditions_probability(cfg(trials=4, elements=6, eta_sweep="0.5"))
        per_trial = [r.metric_value for r in result.records
                     if r.method == "C" and r.trial >= 0]
        agg = next(r for r in result.records if r.method == "C" and r.trial == -1)
        assert agg.metric_value == pytest.approx(np.mean(per_trial))
        assert agg.metric_kind == "fraction"
        assert agg.samples == 4

    def test_rows_carry_each_sets_surfaces_and_levels(self):
        # C and C' are checked on a two-surface draw at the first level count,
        # D on the configured three surfaces with their own level counts
        result = run_conditions_probability(
            cfg(surfaces=3, elements=4, levels="8,6,4", trials=1, eta_sweep="0.5"))
        assert len(result.records) == 2 * 3
        for r in result.records:
            want = (3, "8|6|4") if r.method == "D" else (2, "8")
            assert (r.num_surfaces, r.levels) == want

    def test_cases_are_realized_staircase_scenarios(self, monkeypatch):
        # case (eta_idx, trial) draws the L-surface deployment with tags
        # (eta_idx, 0), then the two-surface one with tags (eta_idx, 1)
        seen = []
        expand = experiments.expand_links_to_tensor
        monkeypatch.setattr(experiments, "expand_links_to_tensor",
                            lambda graph: seen.append(graph) or expand(graph))
        etas = (0.3, 0.7)
        run_conditions_probability(cfg(seed=5, surfaces=3, elements=4, levels="8", trials=2,
                                       eta_sweep=",".join(map(str, etas))))
        want = []
        for eta_idx, eta in enumerate(etas):
            for trial in range(2):
                for num_surfaces, tag_shift in ((3, 0), (2, 1)):
                    staircase = Scenario(num_surfaces, 4, as_grids(8, num_surfaces), None, eta,
                                         zero_nlos=True)
                    tags = (eta_idx, tag_shift)
                    graph, _, _ = realize_scenario(staircase, 5, trial, tags=tags)
                    assert_same_graph(graph, stage_by_stage(5, trial, tags, num_surfaces, 4,
                                                            None, eta, True))
                    want.append(graph)
        assert len(seen) == len(want)
        for got, graph in zip(seen, want):
            assert_same_graph(got, graph)

    def test_continuity_note_present(self):
        result = run_conditions_probability(cfg(trials=1, elements=4, eta_sweep="0.5"))
        assert any("idealization" in line for line in result.summary_lines)

    def test_needs_two_surfaces(self):
        with pytest.raises(ConfigError, match="two surfaces"):
            run_conditions_probability(cfg(surfaces=1))

    def test_deterministic_across_threads(self):
        base = dict(trials=2, elements=6, eta_sweep="0.3,0.7")
        one = run_conditions_probability(cfg(**base, threads=1))
        many = run_conditions_probability(cfg(**base, threads=3))
        assert sort_records(one.records) == sort_records(many.records)


class TestExamplesRunner:
    def test_documented_decisions_hold(self):
        result = run_examples(cfg(n_sweep="9,19"))
        assert result.ok, result.failures
        assert len(result.records) == 6 * 2
        assert any("decisions: all as documented" in line for line in result.report_lines)

    def test_growth_tolerance_is_enforced(self):
        result = run_examples(cfg(n_sweep="3,5", growth_rel_tol="1e-9"))
        assert not result.ok
        assert any("FAIL" in line or "order-" in line for line in result.failures)

    def test_rejects_even_sizes(self):
        with pytest.raises(ConfigError, match="odd"):
            run_examples(cfg(n_sweep="3,4"))

    def test_needs_two_sizes_for_growth(self):
        with pytest.raises(ConfigError, match="two N values"):
            run_examples(cfg(n_sweep="5"))


class TestLemmaRunner:
    def test_bound_holds_on_generated_instances(self):
        result = run_lemma_check(cfg(trials=5, elements=4))
        assert result.ok, result.failures
        assert len(result.records) == 5
        assert "bound held in 5/5 trials" in result.report_lines[0]
        bound = math.asin(1.0) + math.pi / 4  # worst case gamma + rounding
        for r in result.records:
            assert r.metric_kind == "deviation_rad"
            assert 0.0 <= r.metric_value <= bound

    def test_runner_registry_is_complete(self):
        assert set(RUNNERS) == {"scaling", "compare", "conditions", "examples",
                                "lemma-check"}


class TestCli:
    def test_examples_happy_path(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        jout = tmp_path / "r.json"
        rc = main(["examples", "--n-sweep", "9,19", "--out", str(out),
                   "--json", str(jout)])
        assert rc == 0
        captured = capsys.readouterr()
        assert "decisions: all as documented" in captured.out
        assert out.read_text().startswith(CSV_HEADER)
        assert json.loads(jout.read_text())["failures"] == []

    def test_config_error_exits_two(self, capsys):
        rc = main(["scaling", "--t-rule", "sideways:3", "--n-sweep", "4,6,8"])
        assert rc == 2
        assert "config error" in capsys.readouterr().err

    def test_empty_csm_group_exits_two(self, tmp_path, capsys):
        # four probes over 4 phase bins and 100 elements leave some bin empty
        out = tmp_path / "x.csv"
        rc = main(["compare", "--t-rule", "fixed:4", "--trials", "1",
                   "--methods", "csm", "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: no samples hit element")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--out", "--json"])
    def test_unwritable_output_exits_two(self, tmp_path, flag, capsys):
        # a directory where the file should go, and a file where its parent
        # directory should go
        blocker = tmp_path / "file"
        blocker.write_text("")
        for path in (tmp_path, blocker / "x.csv"):
            assert main(["examples", flag, str(path)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("output error: ") and err.count("\n") == 1
            assert "Traceback" not in err

    @pytest.mark.parametrize("beta", ["0.5", "0.8", "2", "1e-3"])
    def test_examples_check_decisions_only_where_stated(self, tmp_path, beta, capsys):
        # examples 2 and 3 state their decisions and growth order at beta = 1
        # only; at 0.5 and 0.8 example 2's binary-grid variant decides
        # differently, and at 1e-3 its one-hop terms dominate at N = 9..19
        assert main(["examples", "--beta", beta, "--out", str(tmp_path / "r.csv")]) == 0
        report = capsys.readouterr().out.splitlines()
        assert "decisions: all as documented" in report
        assert ("decisions and growth: not checked for example2_bad example2_good "
                "example3_bad example3_good (stated at beta=1 only)") in report
        assert not any("FAIL" in line for line in report)
        assert [line.split(" ")[0] for line in report if "->" in line] == [
            "example1_bad", "example1_good"]

    def test_examples_beta_one_csv_is_unchanged(self, tmp_path, capsys):
        default, one = tmp_path / "default.csv", tmp_path / "one.csv"
        assert main(["examples", "--out", str(default)]) == 0
        assert main(["examples", "--beta", "1", "--out", str(one)]) == 0
        capsys.readouterr()
        assert one.read_bytes() == default.read_bytes()
        assert [line for line in one.read_text().splitlines() if line.startswith("#")] == [
            "# examples,example1_bad,N=9->19:,power,x4.213,(order-2,reference,x4.457),ok",
            "# examples,example1_good,N=9->19:,power,x19.863,(order-4,reference,x19.863),ok",
            "# examples,example2_bad,N=9->19:,power,x4.344,(order-2,reference,x4.457),ok",
            "# examples,example2_good,N=9->19:,power,x19.333,(order-4,reference,x19.863),ok",
            "# examples,example3_bad,N=9->19:,power,x4.457,(order-2,reference,x4.457),ok",
            "# examples,example3_good,N=9->19:,power,x16.243,(order-4,reference,x19.863),ok",
            "# examples,decisions:,all,as,documented",
        ]

    def test_runner_failure_exits_one(self, capsys):
        rc = main(["examples", "--n-sweep", "3,5", "--growth-rel-tol", "1e-9"])
        assert rc == 1
        assert "FAIL:" in capsys.readouterr().err

    def test_config_file_merges_with_flag_overrides(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text("n_sweep = 9,19\ngrowth_rel_tol = 1e-9\n")
        rc = main(["examples", "--config", str(cfg_path),
                   "--growth-rel-tol", "0.2"])
        assert rc == 0
        capsys.readouterr()

    def test_bad_power_in_config_file_exits_two(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text("power_dbm = nan\n")
        assert main(["scaling", "--config", str(cfg_path), "--trials", "1"]) == 2
        assert capsys.readouterr().err == (
            "config error: config key 'power_dbm' must be a finite number, got 'nan'\n")

    @pytest.mark.parametrize("line, message", [
        ("power_dbm = inf", "config key 'power_dbm' must be a finite number, got 'inf'"),
        ("noise_dbm = inf", "config key 'noise_dbm' must be a finite number, got 'inf'"),
        ("noise_dbm = nan", "config key 'noise_dbm' must be a finite number, got 'nan'"),
        ("power_dbm = 1e308",
         "power_dbm 1e+308 or noise_dbm -98 is too large for a power in watts"),
        ("power_dbm = -1e308", "transmit power must be positive"),
    ], ids=["power-inf", "noise-inf", "noise-nan", "power-overflow", "power-underflow"])
    def test_bad_power_values_in_config_file_exit_two(self, tmp_path, line, message, capsys):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(line + "\n")
        assert main(["scaling", "--config", str(cfg_path), "--trials", "1"]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"

    def test_virtual_needs_equal_grids(self, tmp_path, capsys):
        scenario = tmp_path / "s.cfg"
        scenario.write_text("surfaces = 2\nelements = 4\nsurface1 = 10,0\nsurface2 = 20,5\n"
                            "levels = 4,8\n")
        argv = ["compare", "--scenario", str(scenario), "--trials", "1", "--t-rule", "fixed:40"]
        assert main([*argv, "--methods", "zero,virtual"]) == 2
        assert capsys.readouterr().err == (
            "config error: method virtual needs one level count on every surface, got 4|8\n")
        assert main([*argv, "--methods", "zero,random,csm,cpp"]) == 0
        capsys.readouterr()

    def test_lemma_check_quick_run(self, tmp_path, capsys):
        jout = tmp_path / "l.json"
        rc = main(["lemma-check", "--trials", "4", "--elements", "4",
                   "--leakage-margin", "0.25", "--json", str(jout)])
        assert rc == 0
        assert "bound held in 4/4" in capsys.readouterr().out
        assert json.loads(jout.read_text())["config"]["leakage_margin"] == "0.25"

    def test_compare_elements_zero_exits_two(self, tmp_path, capsys):
        out = tmp_path / "c.csv"
        rc = main(["compare", "--elements", "3", "--trials", "1", "--methods", "random",
                   "--budget-per-surface", "4", "--out", str(out)])
        assert rc == 0
        row = out.read_text().splitlines()[1].split(",")
        assert (row[5], row[7]) == ("3", "8")  # N, and T = L * budget
        capsys.readouterr()
        rc = main(["compare", "--elements", "0", "--trials", "1", "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == "config error: elements must be positive, got 0\n"

    def test_zero_budget_is_read_only_by_random_and_virtual(self, tmp_path, capsys):
        out = tmp_path / "c.csv"
        rc = main(["compare", "--elements", "4", "--trials", "1", "--t-rule", "fixed:40",
                   "--budget-per-surface", "0", "--methods", "zero,csm,cpp",
                   "--out", str(out)])
        assert rc == 0
        assert [row.split(",")[3] for row in out.read_text().splitlines()[1:4]] == [
            "cpp", "csm", "zero"]
        capsys.readouterr()

    @pytest.mark.parametrize("argv, message", [
        (["compare", "--noise", "averaged:0"],
         "averaged noise model needs an integer draw count >= 1, got 'averaged:0'"),
        (["conditions", "--eta-sweep", "1.5"], "eta must lie in [0, 1], got 1.5"),
        (["lemma-check", "--levels", "2"], "grids [2, 2] violate the resolution requirements "
         "(last grid >= 3 levels and the leading grids' 1/K budget under 1/2)"),
        (["scaling", "--levels", "2"], "grids [2, 2] violate the resolution requirements "
         "(last grid >= 3 levels and the leading grids' 1/K budget under 1/2)"),
        (["lemma-check", "--leakage-margin", "1.5"], "leakage_margin must lie in (0, 1], got 1.5"),
        (["scaling", "--leakage-margin", "-1"], "leakage_margin must lie in [0, 1], got -1.0"),
        (["scaling", "--t-rule", "theory:1", "--n-sweep", "1,2,3", "--methods", "csm"],
         "t_rule theory:1 gives T=1 samples per surface at N=1, fewer than K=4 phase levels"),
        (["scaling", "--t-rule", "fixed:5", "-K", "4,6", "--n-sweep", "4,6,8"],
         "t_rule fixed:5 gives T=5 samples per surface at N=4, fewer than K=6 phase levels"),
        (["compare", "--t-rule", "fixed:3", "--methods", "zero,csm"],
         "t_rule fixed:3 gives T=3 samples per surface at N=100, fewer than K=4 phase levels"),
        (["scaling", "-L", "0"], "surfaces must be positive, got 0"),
        (["lemma-check", "-L", "0"], "surfaces must be positive, got 0"),
        (["lemma-check", "-N", "0"], "elements must be positive, got 0"),
        (["conditions", "-N", "0"], "elements must be positive, got 0"),
        (["compare", "--budget-per-surface", "0", "--methods", "random"],
         "budget_per_surface must be positive, got 0"),
        (["compare", "--budget-per-surface", "0", "--methods", "zero,virtual"],
         "budget_per_surface must be positive, got 0"),
        (["compare", "--t-rule", "linear:nan"],
         "bad sample-count rule 'linear:nan'; use fixed:<T>, linear:<c>, or theory:<c>"),
        (["scaling", "--t-rule", "theory:inf"],
         "bad sample-count rule 'theory:inf'; use fixed:<T>, linear:<c>, or theory:<c>"),
        (["lemma-check", "--threads", "0"], "threads must be at least 1, got 0"),
        (["lemma-check", "--threads", "-1"], "threads must be at least 1, got -1"),
        (["scaling", "--levels", "4,4,4", "--surfaces", "2"],
         "need 1 or 2 level counts, got 3: [4, 4, 4]"),
        (["lemma-check", "--levels", "1"], "a phase grid needs at least 2 levels, got 1"),
        (["compare", "--t-rule", "linear:1e308"],
         "t_rule linear:1e308 gives T=inf samples per surface at N=100, above the cap of 1e+09"),
        (["scaling", "--t-rule", "linear:1e12", "--n-sweep", "4,8,16"],
         "t_rule linear:1e12 gives T=4e+12 samples per surface at N=4, above the cap of 1e+09"),
        (["compare", "--t-rule", "fixed:100000000000000000000", "--methods", "csm", "-N", "4"],
         "t_rule fixed:100000000000000000000 gives T=1e+20 samples per surface at N=4, "
         "above the cap of 1e+09"),
        (["compare", "--budget-per-surface", "1000000000000", "--methods", "random", "-N", "4"],
         "budget_per_surface 1000000000000 gives 2000000000000 probes on 2 surfaces, "
         "above the cap of 1e+09"),
        (["scaling", "--seed", "-1"], "seed must be non-negative, got -1"),
        (["lemma-check", "--seed", "-2"], "seed must be non-negative, got -2"),
        (["conditions", "--seed", "-1"], "seed must be non-negative, got -1"),
        (["examples", "--beta", "0"], "beta must be positive, got 0.0"),
        (["examples", "--beta", "nan"], "config key 'beta' must be a finite number, got 'nan'"),
        (["examples", "--beta", "inf"], "config key 'beta' must be a finite number, got 'inf'"),
        (["examples", "--n-sweep", "3,5", "--beta", "1e-300"],
         "beta 1e-300 takes the example1_bad power at N=3 out of the float range (got 0)"),
        (["examples", "--n-sweep", "3,5", "--beta", "1e300"],
         "beta 1e+300 takes the example1_bad power at N=3 out of the float range (got inf)"),
        (["examples", "--growth-rel-tol", "-1"], "growth_rel_tol must be positive, got -1.0"),
        (["compare", "--methods", "csm,csm"], "methods lists 'csm' twice"),
        (["scaling", "--n-sweep", "8,8,16,32"], "n_sweep lists 8 twice"),
        (["scaling", "--n-sweep", "0,4,8"], "n_sweep must be positive, got 0"),
        (["conditions", "--eta-sweep", "0.5,0.5"], "eta_sweep lists 0.5 twice"),
        (["conditions", "--eta-sweep", "0.5,0.5000001", "-N", "4"],
         "eta_sweep lists 0.5 and 0.5000001, which both print as eta=0.5"),
        (["examples", "--n-sweep", "9,19,9"], "n_sweep must increase, got 9 after 19"),
        (["examples", "--n-sweep", "9,9"], "n_sweep must increase, got 9 after 9"),
        (["scaling", "-L", "3", "-K", "8", "--n-sweep", "8,16,220"],
         "a dense tensor at L=3, N=220 would hold 10793861 entries, above the 10000000 cap"),
        (["lemma-check", "-L", "3", "-K", "8", "-N", "220"],
         "a dense tensor at L=3, N=220 would hold 10793861 entries, above the 10000000 cap"),
        (["conditions", "-L", "4", "-N", "100"],
         "a dense tensor at L=4, N=100 would hold 104060401 entries, above the 10000000 cap"),
        (["examples", "--n-sweep", "9,3163"],
         "a dense tensor at L=2, N=3163 would hold 10010896 entries, above the 10000000 cap"),
    ], ids=["noise-averaged-0", "eta-1.5", "lemma-levels-2", "scaling-levels-2",
            "lemma-margin-1.5", "scaling-margin-neg", "scaling-t-rule-below-k",
            "scaling-t-rule-below-mixed-k", "compare-t-rule-below-k", "scaling-surfaces-0",
            "lemma-surfaces-0", "lemma-elements-0", "conditions-elements-0",
            "compare-budget-0-random", "compare-budget-0-virtual", "compare-t-rule-nan",
            "scaling-t-rule-inf", "lemma-threads-0", "lemma-threads-neg",
            "scaling-level-count", "lemma-levels-1", "compare-t-rule-overflow",
            "scaling-t-rule-above-cap", "compare-fixed-above-cap", "compare-budget-above-cap",
            "scaling-seed-neg",
            "lemma-seed-neg", "conditions-seed-neg", "examples-beta-0", "examples-beta-nan",
            "examples-beta-inf", "examples-beta-underflow", "examples-beta-overflow",
            "examples-growth-tol-neg", "compare-methods-repeat",
            "scaling-n-sweep-repeat", "scaling-n-sweep-0", "conditions-eta-repeat",
            "conditions-eta-label-repeat",
            "examples-n-sweep-order", "examples-n-sweep-repeat", "scaling-dense-cap",
            "lemma-dense-cap", "conditions-dense-cap", "examples-dense-cap"])
    def test_out_of_range_values_exit_two_without_traceback(self, argv, message, capsys):
        # one trial keeps each run short; examples has no trials to set
        trials = [] if argv[0] == "examples" else ["--trials", "1"]
        assert main([*argv, *trials]) == 2
        err = capsys.readouterr().err
        assert err == f"config error: {message}\n"
        assert "Traceback" not in err

    @pytest.mark.parametrize("line, message", [
        ("angles = fixed_deg:abc", "angles 'fixed_deg:abc' needs a finite number"),
        ("propagation = adjacency:{missing}", "propagation 'adjacency:"),
        ("propagation = adjacency:{ragged}", "propagation 'adjacency:"),
        ("propagation = adjacency:{two}", "adjacency entries must be 0 or 1"),
        ("spacing = -1", "spacing and wavelength must be positive"),
        ("placement = random_staircase\nwavelength = 0",
         "spacing and wavelength must be positive"),
        ("tx = 10,0", "scenario geometry: all pairwise node distances must be positive"),
        ("noise_dbm = nan", "config key 'noise_dbm' must be a finite number, got 'nan'"),
        ("propagation = adjacency:{ten}", "adjacency has 10 nodes, scenario needs 3"),
        ("noise_dbm = inf", "config key 'noise_dbm' must be a finite number, got 'inf'"),
        ("power_dbm = inf", "config key 'power_dbm' must be a finite number, got 'inf'"),
        ("power_dbm = nan", "config key 'power_dbm' must be a finite number, got 'nan'"),
        ("spacing = inf", "config key 'spacing' must be a finite number, got 'inf'"),
        ("wavelength = inf", "config key 'wavelength' must be a finite number, got 'inf'"),
    ], ids=["angle-not-a-number", "adjacency-missing", "adjacency-ragged", "adjacency-entry-2",
            "spacing-negative", "random-placement-wavelength-zero", "surface-on-transmitter",
            "noise-power-nan", "adjacency-node-count", "noise-power-inf", "power-inf",
            "power-nan", "spacing-inf", "wavelength-inf"])
    def test_bad_scenario_file_exits_two_without_traceback(self, tmp_path, line, message,
                                                             capsys):
        ragged = tmp_path / "ragged.txt"
        ragged.write_text("0 1\n1\n")
        two = tmp_path / "two.txt"
        two.write_text("0 0 2\n0 0 0\n2 0 0\n")
        scenario = tmp_path / "s.cfg"
        scenario.write_text("surfaces = 1\nelements = 4\nsurface1 = 10,0\n"
                            + line.format(missing=tmp_path / "missing.txt", ragged=ragged,
                                          two=two, ten=PACKAGED_ADJACENCY)
                            + "\n")
        assert main(["compare", "--scenario", str(scenario), "--methods", "zero",
                     "--trials", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and message in err
        assert err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv, text, key", [
        (["scaling", "--trials", "1", "--config"], "n_seep = 4,8,16\n", "n_seep"),
        (["compare", "--trials", "1", "--methods", "zero", "--config"], "n_sweep = 4,8\n",
         "n_sweep"),
        (["examples", "--config"], "n_sweep = 9,19\nout = x.csv\n", "out"),
        (["compare", "--trials", "1", "--methods", "zero", "--scenario"],
         "surfaces = 1\nelements = 4\nsurface1 = 10,0\npropagaton = all_los\n", "propagaton"),
        (["compare", "--trials", "1", "--methods", "zero", "--scenario"],
         "surfaces = 1\nelements = 4\nsurface1 = 10,0\nsurface2 = 20,0\n", "surface2"),
        (["examples", "--config"], "trials = 1\n", "trials"),
    ], ids=["config-misspelt", "config-other-subcommand", "config-output-flag",
            "scenario-misspelt", "scenario-extra-surface", "config-key-of-other-runners"])
    def test_unknown_file_key_exits_two_without_traceback(self, tmp_path, argv, text, key,
                                                          capsys):
        path = tmp_path / "f.cfg"
        path.write_text(text)
        assert main([*argv, str(path)]) == 2
        assert capsys.readouterr().err == f"config error: {path}: unknown key {key!r}\n"

    @pytest.mark.parametrize("argv, code, prefix, lines", [
        (["examples", "--n-sweep", "9,19"], 0, "", 0),
        (["examples", "--n-sweep", "9,19", "--growth-rel-tol", "1e-9"], 1, "FAIL: ", 4),
        (["scaling", "--t-rule", "linear:nan", "--trials", "1"], 2, "config error: ", 1),
    ], ids=["success", "runner-failure", "config-error"])
    def test_exit_codes_from_a_fresh_interpreter(self, argv, code, prefix, lines):
        # the cases above call cli.main in-process; one run per exit code
        # checks that `python -m blindbeam` exits with main's return value and
        # that stderr holds only main's own lines, never a traceback
        proc = run_module(*argv)
        assert proc.returncode == code, proc.stderr
        err = proc.stderr.splitlines()
        assert len(err) == lines
        assert all(line.startswith(prefix) for line in err)

    def test_t_rule_below_levels_is_fine_without_csm(self, tmp_path):
        out = tmp_path / "z.csv"
        assert main(["compare", "--t-rule", "fixed:3", "--methods", "zero", "-N", "8",
                     "--trials", "1", "--out", str(out)]) == 0
        assert out.read_text().splitlines()[1].startswith("compare,0,0,zero,2,8,4,0,")

    def test_csv_outputs_are_byte_identical_across_threads(self, tmp_path):
        paths = []
        for threads in (1, 4):
            path = tmp_path / f"t{threads}.csv"
            rc = main(["conditions", "--trials", "2", "--elements", "6",
                       "--eta-sweep", "0.5,1", "--threads", str(threads),
                       "--out", str(path)])
            assert rc == 0
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()
