"""Acceptance gate: eleven numbered criteria, one verdict line each.

Every criterion prints "[criterion N] PASS/FAIL (detail)" through the
capture bypass in conftest.pass_line, then asserts.  Criteria 8 and 9 assert
what the documented model implies: criterion 8 compares the blind decisions
with the perfect-knowledge projection at the blind run's own earlier
decisions, at a budget where the conditional means resolve the element
gaps; criterion 9 checks the condition fractions against the closed forms
of the random-deployment model, under which both fall with link density.
The failure messages carry the numbers.
"""

import math
import time

import numpy as np
import pytest

from blindbeam import (
    ExperimentConfig,
    PhaseAssignment,
    PhaseGrid,
    as_grids,
    cpp_decide,
    default_scenario_path,
    derive_rng,
    effective_channel,
    expand_links_to_tensor,
    load_scenario,
    realize_scenario,
    run_compare,
    run_conditions_probability,
    run_examples,
    run_lemma_check,
    run_scaling,
    sequential_csm,
    stage_coefficients,
    write_csv,
)
from blindbeam.channel import CascadedChannelTensor
from blindbeam.experiments import RUNNERS, TAG_SAMPLING

from conftest import exact_csm_small, pass_line, random_assignment, random_graph


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
        chain = effective_channel(graph, phases)
        dense = effective_channel(expand_links_to_tensor(graph), phases)
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
        want = cpp_decide(entries[0], entries[1:], grid)
        for m in range(1, n + 1):
            checked += 1
            if got[m - 1] == want[m - 1]:
                continue
            # both rules rank phases by the same projection; a disagreement
            # is only legitimate at an exact tie of the top two values
            proj = np.real(np.conj(entries[0]) * entries[m]
                           * np.exp(1j * grid.values()))
            top = np.sort(proj)[::-1]
            if top[0] - top[1] <= 1e-9 * max(1.0, abs(top[0])):
                ties += 1
            else:
                mismatches.append((m, int(got[m - 1]), int(want[m - 1])))
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
    """Blind decisions agree with the perfect-knowledge projection.

    100-element double-surface corridor, 4 phase levels, noiseless probes;
    per-element agreement, median over 20 seeds, must reach 90%.

    The reference for surface ell is cpp_decide on
    stage_coefficients(graph, state, ell), where state holds the blind
    run's own decisions for the surfaces before ell: the projection is
    defined relative to the decisions already made, so comparing stage 2
    with the oracle's stage 2 (taken under the oracle's stage-1 decisions)
    would count every stage-1 disagreement twice.

    The budget is 50,000 samples per surface.  At 1,000 each of the 4 phase
    bins pools only 250 probes while the 99 other elements add zero-mean
    interference to every bin mean, whose standard error exceeds the
    per-element mean gap; the median agreement there is 0.693, 0.905 at
    20,000 and 0.945 at 50,000.
    """
    start = time.perf_counter()
    budget = 50_000
    scenario = load_scenario(default_scenario_path())
    fractions = []
    for seed in range(20):
        graph, grids, params = realize_scenario(scenario, seed=seed, trial=0)
        blind = sequential_csm(graph, grids, budget, params, 0,
                               derive_rng(seed, 0, TAG_SAMPLING))
        state = PhaseAssignment.zeros(grids, blind.assignment.num_elements)
        agree = []
        for ell in range(2):
            c0, c = stage_coefficients(graph, state, ell)
            want = cpp_decide(c0, c, grids[ell])
            decided = blind.assignment.indices[ell]
            agree.append(np.mean(decided == want))
            state = state.with_stage(ell, decided)
        fractions.append(float(np.mean(agree)))
    median = float(np.median(fractions))
    elapsed = time.perf_counter() - start
    ok = median >= 0.90 and elapsed < 120.0
    pass_line("criterion 8", ok,
              f"median per-element agreement {median:.3f} over 20 seeds at "
              f"{budget} samples per surface, against the projection at the "
              f"blind run's own earlier decisions (need >= 0.90), {elapsed:.1f}s")
    assert elapsed < 120.0
    assert median >= 0.90, (
        f"median agreement {median:.3f} < 0.90 at {budget} samples per "
        f"surface (per-seed fractions {fractions}); on this code base it "
        f"reads 0.945 with every seed >= 0.915, against 0.693 at 1,000 "
        f"samples, where each of the 4 phase bins pools only 250 probes and "
        f"the other 99 elements' interference swamps the per-element gap"
    )


def two_proportion_significant_drop(p_prev: float, p_next: float, trials: int) -> bool:
    if p_next >= p_prev:
        return False
    pooled = 0.5 * (p_prev + p_next)
    se = math.sqrt(max(pooled * (1.0 - pooled), 1e-12) * (2.0 / trials))
    return (p_prev - p_next) / se > 1.96


def binomial_z(observed: float, p: float, trials: int) -> float:
    """z-score of an observed fraction against success probability p; at
    p in {0, 1} the fraction must equal p exactly (z = 0) or z is infinite."""
    se = math.sqrt(p * (1.0 - p) / trials)
    if se == 0.0:
        return 0.0 if observed == p else math.copysign(math.inf, observed - p)
    return (observed - p) / se


def test_criterion_09_condition_probability_versus_link_density():
    """Condition fractions follow the random-deployment model.

    run_conditions_probability forces the relay chain tx -> surface 1 ->
    surface 2 -> rx line-of-sight, makes every other node pair LoS with
    probability eta, and zeroes NLoS links.  C' demands zero direct and
    one-hop channels, so it holds exactly when the tx-rx, surface1-rx and
    tx-surface2 links are all NLoS: P(C') = (1 - eta)^3.  C holds whenever
    the surface1-rx link is NLoS, since then every h[m, 0] is zero and
    gamma_min is 0: P(C) >= 1 - eta.  Both curves therefore fall as eta
    rises; the checks are that C holds at least as often as C' at every
    density (the relaxed set is easier to satisfy), that neither curve rises
    significantly between consecutive densities, that the C' fraction lies
    within a two-sided 3-sigma binomial band of (1 - eta)^3 and is exactly 0
    at eta = 1, and that the C fraction is not more than 3 sigma below
    1 - eta.
    """
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
    rises = []
    for name, curve in (("C", c_curve), ("Cprime", cp_curve)):
        for i in range(len(etas) - 1):
            if two_proportion_significant_drop(curve[i + 1], curve[i], trials):
                rises.append(f"{name}: {curve[i]:.3f}@eta={etas[i]:g} -> "
                             f"{curve[i + 1]:.3f}@eta={etas[i + 1]:g}")
    no_rise_ok = not rises
    cp_z = [binomial_z(f, (1.0 - e) ** 3, trials) for f, e in zip(cp_curve, etas)]
    c_z = [binomial_z(f, 1.0 - e, trials) for f, e in zip(c_curve, etas)]
    cp_band_ok = all(abs(z) <= 3.0 for z in cp_z) and cp_curve[-1] == 0.0
    c_floor_ok = all(z >= -3.0 for z in c_z)
    elapsed = time.perf_counter() - start
    ok = (dominance_ok and no_rise_ok and cp_band_ok and c_floor_ok
          and elapsed < 180.0)
    pass_line("criterion 9", ok,
              f"relaxed-set dominance {'holds' if dominance_ok else 'VIOLATED'} "
              f"at every density; no-rise clause "
              f"{'holds' if no_rise_ok else f'VIOLATED ({len(rises)} rises)'}; "
              f"C' within 3 sigma of (1-eta)^3 "
              f"{'holds' if cp_band_ok else 'VIOLATED'} (worst |z| "
              f"{max(abs(z) for z in cp_z):.2f}); C not 3 sigma below 1-eta "
              f"{'holds' if c_floor_ok else 'VIOLATED'} (lowest z "
              f"{min(c_z):.2f}); {elapsed:.1f}s")
    assert elapsed < 180.0
    assert dominance_ok, (
        f"C fractions {c_curve} fall below the zero-leakage fractions {cp_curve}")
    assert no_rise_ok, (
        "satisfaction fractions rise significantly with link density, but "
        "every extra line-of-sight pair can only add leakage paths; "
        f"significant rises: {rises}; C curve {c_curve}, "
        f"zero-leakage curve {cp_curve}")
    assert cp_band_ok, (
        f"zero-leakage fractions {cp_curve} leave the 3-sigma band of "
        f"(1-eta)^3 = {[round((1.0 - e) ** 3, 3) for e in etas]} "
        f"(z-scores {[round(z, 2) for z in cp_z]}) or are nonzero at eta=1")
    assert c_floor_ok, (
        f"C fractions {c_curve} fall more than 3 sigma below 1-eta = "
        f"{[round(1.0 - e, 3) for e in etas]} "
        f"(z-scores {[round(z, 2) for z in c_z]})")


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
