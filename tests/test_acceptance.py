"""Acceptance gate: eleven numbered criteria, one verdict line each.

Every criterion prints "[criterion N] PASS/FAIL (detail)" through the
capture bypass in conftest.pass_line, then asserts.  Criteria 8 and 9 are
implemented exactly as stated; on this code base they fail for measurable
reasons (sampling noise floor at the stated budget, and satisfaction
fractions that fall rather than rise with link density).  The failure
messages carry the numbers.
"""

import math
import time

import numpy as np
import pytest

from blindbeam import (
    ExperimentConfig,
    PhaseGrid,
    as_grids,
    cpp_decide,
    default_scenario_path,
    derive_rng,
    eval_effective_chain,
    eval_effective_dense,
    exact_csm_small,
    expand_links_to_tensor,
    load_scenario,
    realize_scenario,
    run_compare,
    run_conditions_probability,
    run_examples,
    run_lemma_check,
    run_scaling,
    sequential_cpp_oracle,
    sequential_csm,
    write_csv,
)
from blindbeam.channel import CascadedChannelTensor
from blindbeam.experiments import RUNNERS, TAG_SAMPLING

from conftest import pass_line, random_assignment, random_graph


def cfg(**kwargs) -> ExperimentConfig:
    return ExperimentConfig.merge(None, kwargs)


def summary_slope(result, method: str) -> float:
    line = next(l for l in result.summary_lines
                if l.startswith("# slope") and f"method={method}" in l)
    return float(line.split("slope=")[1].split(",")[0])


def test_criterion_01_chain_evaluator_matches_dense_tensor():
    start = time.perf_counter()
    rng = np.random.default_rng(20240811)
    worst = 0.0
    for _ in range(100):
        L = int(rng.integers(2, 4))
        n = int(rng.integers(1, 5))
        graph = random_graph(rng, L, n)
        phases = random_assignment(rng, as_grids(4, L), n)
        chain = eval_effective_chain(graph, phases)
        dense = eval_effective_dense(expand_links_to_tensor(graph), phases)
        rel = abs(chain - dense) / max(1.0, abs(dense))
        worst = max(worst, rel)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 5.0
    pass_line("criterion 1", ok,
              f"100 graphs, worst relative error {worst:.2e}, {elapsed:.2f}s")
    assert worst <= 1e-10
    assert elapsed < 5.0


def test_criterion_02_exact_csm_equals_projection_on_single_surface():
    start = time.perf_counter()
    rng = np.random.default_rng(20240812)
    checked = 0
    ties = 0
    mismatches = []
    for _ in range(50):
        n = int(rng.integers(1, 5))
        k = int(rng.choice([3, 4]))
        entries = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
        tensor = CascadedChannelTensor(entries)
        grid = PhaseGrid(k)
        got = exact_csm_small(tensor, (grid,)).assignment.indices[0]
        for m in range(1, n + 1):
            want = cpp_decide(entries[0], entries[m], grid)
            checked += 1
            if got[m - 1] == want:
                continue
            # both rules rank phases by the same projection; a disagreement
            # is only legitimate at an exact tie of the top two values
            proj = np.real(np.conj(entries[0]) * entries[m]
                           * np.exp(1j * grid.values))
            top = np.sort(proj)[::-1]
            if top[0] - top[1] <= 1e-9 * max(1.0, abs(top[0])):
                ties += 1
            else:
                mismatches.append((m, int(got[m - 1]), want))
    elapsed = time.perf_counter() - start
    ok = not mismatches and elapsed < 10.0
    pass_line("criterion 2", ok,
              f"{checked} element decisions, {ties} ties, "
              f"{len(mismatches)} mismatches, {elapsed:.2f}s")
    assert not mismatches, mismatches
    assert elapsed < 10.0


def test_criterion_03_quartic_boost_slope_two_surfaces():
    start = time.perf_counter()
    result = run_scaling(cfg(trials=10, surfaces=2, levels="4",
                             n_sweep="8,16,32,64,128", methods="cpp"))
    slope = summary_slope(result, "cpp")
    elapsed = time.perf_counter() - start
    ok = abs(slope - 4.0) <= 0.3 and elapsed < 60.0
    pass_line("criterion 3", ok, f"slope {slope:.4f} (want 4.0 +/- 0.3), {elapsed:.1f}s")
    assert abs(slope - 4.0) <= 0.3
    assert elapsed < 60.0


def test_criterion_04_sextic_boost_slope_three_surfaces():
    start = time.perf_counter()
    result = run_scaling(cfg(trials=10, surfaces=3, levels="6",
                             n_sweep="8,16,32", methods="cpp"))
    slope = summary_slope(result, "cpp")
    elapsed = time.perf_counter() - start
    ok = abs(slope - 6.0) <= 0.5 and elapsed < 120.0
    pass_line("criterion 4", ok, f"slope {slope:.4f} (want 6.0 +/- 0.5), {elapsed:.1f}s")
    assert abs(slope - 6.0) <= 0.5
    assert elapsed < 120.0


def test_criterion_05_quadratic_boost_slope_single_surface():
    start = time.perf_counter()
    result = run_scaling(cfg(trials=10, surfaces=1, levels="4",
                             n_sweep="8,16,32,64,128", methods="cpp"))
    slope = summary_slope(result, "cpp")
    elapsed = time.perf_counter() - start
    ok = abs(slope - 2.0) <= 0.2 and elapsed < 30.0
    pass_line("criterion 5", ok, f"slope {slope:.4f} (want 2.0 +/- 0.2), {elapsed:.1f}s")
    assert abs(slope - 2.0) <= 0.2
    assert elapsed < 30.0


def test_criterion_06_example_channels_growth_and_decisions():
    start = time.perf_counter()
    result = run_examples(cfg())
    elapsed = time.perf_counter() - start
    growth_lines = [l for l in result.report_lines if "order-" in l]
    ok = result.ok and elapsed < 30.0
    pass_line("criterion 6", ok,
              f"{len(growth_lines)} growth checks within 20%, decisions as "
              f"documented, {elapsed:.1f}s")
    assert result.ok, result.failures
    assert elapsed < 30.0


def test_criterion_07_deviation_bound_holds_on_all_draws():
    start = time.perf_counter()
    two = run_lemma_check(cfg(trials=100, surfaces=2, elements=6, levels="4"))
    three = run_lemma_check(cfg(trials=100, surfaces=3, elements=5, levels="6"))
    elapsed = time.perf_counter() - start
    ok = two.ok and three.ok and elapsed < 60.0
    pass_line("criterion 7", ok,
              f"two-surface {two.report_lines[0]}; "
              f"three-surface {three.report_lines[0]}; {elapsed:.1f}s")
    assert two.ok, two.failures
    assert three.ok, three.failures
    assert elapsed < 60.0


def test_criterion_08_blind_decisions_match_oracle_at_stated_budget():
    # 100-element double-surface corridor, 4 phase levels, 1000 samples per
    # surface, noiseless; per-element agreement with the perfect-knowledge
    # projection, median over 20 seeds, required to reach 90%
    start = time.perf_counter()
    scenario = load_scenario(default_scenario_path())
    fractions = []
    for seed in range(20):
        graph, grids, params = realize_scenario(scenario, seed=seed, trial=0)
        blind = sequential_csm(graph, grids, 1000, params,
                               rng=derive_rng(seed, 0, TAG_SAMPLING))
        oracle = sequential_cpp_oracle(graph, grids, params)
        agree = [np.mean(blind.assignment.indices[ell]
                         == oracle.assignment.indices[ell])
                 for ell in range(2)]
        fractions.append(float(np.mean(agree)))
    median = float(np.median(fractions))
    elapsed = time.perf_counter() - start
    ok = median >= 0.90 and elapsed < 120.0
    pass_line("criterion 8", ok,
              f"median per-element agreement {median:.3f} over 20 seeds "
              f"(need >= 0.90), {elapsed:.1f}s")
    assert elapsed < 120.0
    assert median >= 0.90, (
        f"median agreement {median:.3f} < 0.90: each of the 4 phase bins "
        f"pools only 1000/4 = 250 samples, and with 100 elements per surface "
        f"the other 99 elements contribute sampling noise whose standard "
        f"error is larger than the per-element conditional-mean gap, so "
        f"per-element agreement saturates near this level; the median "
        f"reaches 0.818 at 5,000 samples per surface, 0.890 at 20,000 and "
        f"0.927 at 50,000, but the criterion pins 1000"
    )


def two_proportion_significant_drop(p_prev: float, p_next: float, trials: int) -> bool:
    if p_next >= p_prev:
        return False
    pooled = 0.5 * (p_prev + p_next)
    se = math.sqrt(max(pooled * (1.0 - pooled), 1e-12) * (2.0 / trials))
    return (p_prev - p_next) / se > 1.96


def test_criterion_09_condition_probability_versus_link_density():
    start = time.perf_counter()
    trials = 200
    etas = [0.2, 0.4, 0.6, 0.8, 1.0]
    result = run_conditions_probability(
        cfg(trials=trials, surfaces=2, elements=32,
            eta_sweep=",".join(str(e) for e in etas)))
    frac = {(r.experiment, r.method): r.metric_value
            for r in result.records if r.trial == -1}
    c_curve = [frac[(f"conditions:eta={e:g}", "C")] for e in etas]
    cp_curve = [frac[(f"conditions:eta={e:g}", "Cprime")] for e in etas]
    dominance_ok = all(c >= cp for c, cp in zip(c_curve, cp_curve))
    drops = []
    for name, curve in (("C", c_curve), ("Cprime", cp_curve)):
        for i in range(len(etas) - 1):
            if two_proportion_significant_drop(curve[i], curve[i + 1], trials):
                drops.append(f"{name}: {curve[i]:.3f}@eta={etas[i]:g} -> "
                             f"{curve[i + 1]:.3f}@eta={etas[i + 1]:g}")
    monotone_ok = not drops
    elapsed = time.perf_counter() - start
    ok = dominance_ok and monotone_ok and elapsed < 180.0
    pass_line("criterion 9", ok,
              f"relaxed-set dominance {'holds' if dominance_ok else 'VIOLATED'} "
              f"at every density; monotone clause "
              f"{'holds' if monotone_ok else f'VIOLATED ({len(drops)} drops)'}; "
              f"{elapsed:.1f}s")
    assert elapsed < 180.0
    assert dominance_ok, (
        f"C fractions {c_curve} fall below the zero-leakage fractions {cp_curve}")
    assert monotone_ok, (
        "satisfaction fractions fall as link density rises instead of being "
        "nondecreasing: every extra line-of-sight pair adds leakage paths "
        "(direct and one-hop channels) that break the zero-leakage clause "
        "outright and tighten the margin inequality, so dense deployments "
        f"satisfy the conditions less often; significant drops: {drops}; "
        f"C curve {c_curve}, zero-leakage curve {cp_curve}"
    )


def test_criterion_10_benchmark_ordering_on_corridor_scenario():
    start = time.perf_counter()
    result = run_compare(cfg(trials=20, methods="zero,virtual,csm"))
    means = {}
    for method in ("zero", "virtual", "csm"):
        means[method] = float(np.mean([r.metric_value for r in result.records
                                       if r.method == method]))
    elapsed = time.perf_counter() - start
    ok = means["csm"] > means["virtual"] > means["zero"] and elapsed < 120.0
    pass_line("criterion 10", ok,
              f"mean boost csm {means['csm']:.2f} > virtual "
              f"{means['virtual']:.2f} > zero {means['zero']:.2f}, {elapsed:.1f}s")
    assert means["csm"] > means["virtual"] > means["zero"], means
    assert elapsed < 120.0


CRITERION_11_CONFIGS = {
    "scaling": dict(trials=2, n_sweep="4,6,8", t_rule="fixed:30"),
    "compare": dict(trials=2, elements=6, t_rule="fixed:30",
                    budget_per_surface=30),
    "conditions": dict(trials=2, elements=6, eta_sweep="0.5,1"),
    "examples": dict(n_sweep="9,19"),
    "lemma-check": dict(trials=8, elements=4),
}


def test_criterion_11_csv_byte_determinism_across_threads(tmp_path):
    diffs = []
    for name, base in CRITERION_11_CONFIGS.items():
        outputs = []
        for run, threads in (("a", 1), ("b", 8), ("c", 8)):
            result = RUNNERS[name](cfg(**base, threads=threads))
            path = tmp_path / f"{name}-{run}.csv"
            write_csv(path, result.records, result.summary_lines)
            outputs.append(path.read_bytes())
        if not (outputs[0] == outputs[1] == outputs[2]):
            diffs.append(name)
    pass_line("criterion 11", not diffs,
              f"{len(CRITERION_11_CONFIGS)} runners byte-identical at 1 and 8 "
              f"threads and across reruns")
    assert not diffs, f"nondeterministic CSV output from: {diffs}"
