"""Reproducible experiment runners emitting CSV.

Every runner maps an ExperimentConfig to a list of RunRecords plus a block of
'#'-prefixed summary lines appended after the CSV body.  Determinism contract:
a fixed (config, seed) pair produces byte-identical CSV regardless of thread
count, because each trial owns an RNG stream derived from
(master seed, trial tags...) and trial outputs are merged in key order.

Wall-clock seconds break byte determinism, so the wall_s column is written as
0 unless timing is explicitly enabled.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .beamforming import (
    random_beamforming,
    sequential_cpp_oracle,
    sequential_csm,
    virtual_single_irs,
    zero_phase_baseline,
)
from .channel import (
    RadioParams,
    effective_channel,
    expand_links_to_tensor,
    parse_noise_model,
    received_power,
    snr_boost,
)
from .conditions import check_c_conditions, check_cprime, check_d_conditions, lemma1_verify
from .config import ConfigError, ExperimentConfig, _grids_for, parse_t_rule
from .fixtures import build_example, check_d_grids, d_instance_a_max, make_d_instance
from .phases import as_grids
from .scenario import (
    AngleTable,
    Geometry,
    PropagationMap,
    Scenario,
    _eta,
    _radio_params,
    build_link_graph,
    default_scenario_path,
    load_scenario,
    place_random,
    sample_propagation,
)

CSV_HEADER = "experiment,seed,trial,method,L,N,K,T,metric_kind,metric_value,wall_s"

# stage tags for per-trial RNG stream derivation
TAG_CHANNEL = 0
TAG_SAMPLING = 1
TAG_PLACEMENT = 2
TAG_PROPAGATION = 3


def derive_rng(seed: int, *tags: int) -> np.random.Generator:
    """Independent stream for (master seed, trial tags...)."""
    return np.random.default_rng(np.random.SeedSequence([int(seed), *map(int, tags)]))


@dataclass(frozen=True)
class RunRecord:
    experiment: str
    seed: int
    trial: int
    method: str
    num_surfaces: int
    num_elements: int
    levels: str
    samples: int
    metric_kind: str
    metric_value: float
    wall_s: float = 0.0

    def to_csv_row(self, timing: bool = False) -> str:
        wall = f"{self.wall_s:.3f}" if timing else "0"
        return ",".join([
            self.experiment,
            str(self.seed),
            str(self.trial),
            self.method,
            str(self.num_surfaces),
            str(self.num_elements),
            self.levels,
            str(self.samples),
            self.metric_kind,
            f"{self.metric_value:.12g}",
            wall,
        ])

    def to_json_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "seed": self.seed,
            "trial": self.trial,
            "method": self.method,
            "L": self.num_surfaces,
            "N": self.num_elements,
            "K": self.levels,
            "T": self.samples,
            "metric_kind": self.metric_kind,
            "metric_value": self.metric_value,
            "wall_s": self.wall_s,
        }


@dataclass
class ExperimentResult:
    """Everything a runner produces: CSV rows, '#' summary lines for the CSV
    tail, human-readable report lines for stdout, and assertion failures."""

    records: list
    summary_lines: list = field(default_factory=list)
    report_lines: list = field(default_factory=list)
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def _levels_label(grids) -> str:
    ks = [g.num_levels for g in grids]
    if all(k == ks[0] for k in ks):
        return str(ks[0])
    return "|".join(str(k) for k in ks)


def _record(experiment: str, seed: int, trial: int, method: str, grids, n: int,
            samples: int, kind: str, value: float, wall_s: float = 0.0) -> RunRecord:
    """One CSV row; L and K come from the grids."""
    return RunRecord(experiment, seed, trial, method, len(grids), n, _levels_label(grids),
                     samples, kind, value, wall_s)


def _boost_metric(channel, assignment, params: RadioParams) -> tuple:
    """(metric_kind, metric_value) of an assignment's SNR boost."""
    boost = snr_boost(channel, assignment, params)
    return "boost_linear" if boost.mode == "ratio" else "power_watts", boost.value


def sort_records(records) -> list:
    return sorted(records, key=lambda r: (r.trial, r.method, r.num_elements))


def write_csv(path, records, summary_lines=(), timing: bool = False):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [CSV_HEADER]
    lines += [r.to_csv_row(timing) for r in sort_records(records)]
    lines += list(summary_lines)
    path.write_text("\n".join(lines) + "\n")


def write_json(path, config: ExperimentConfig, result: ExperimentResult):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "config": dict(sorted(config.values.items())),
        "records": [r.to_json_dict() for r in sort_records(result.records)],
        "summary": list(result.summary_lines),
        "report": list(result.report_lines),
        "failures": list(result.failures),
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _map_ordered(fn, keys, threads: int) -> list:
    """Run fn over keys, possibly in parallel, preserving key order."""
    if threads < 1:
        raise ConfigError(f"threads must be at least 1, got {threads}")
    if threads == 1 or len(keys) <= 1:
        return [fn(k) for k in keys]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, keys))


def _d_instance_grids(levels, num_surfaces: int):
    """_grids_for, also held to the resolution requirements of
    make_d_instance."""
    grids = _grids_for(levels, num_surfaces)
    try:
        check_d_grids(grids)
    except ValueError as e:
        raise ConfigError(str(e)) from e
    return grids


def _noise_draws(config: ExperimentConfig) -> int:
    try:
        return parse_noise_model(config.get_str("noise", "noiseless"))
    except ValueError as e:
        raise ConfigError(str(e)) from e


def _samples_per_surface(t_rule, rule_text: str, n: int, grids) -> int:
    """T = t_rule(n), which must reach every surface's K: with fewer probes
    than phase levels some (element, phase index) group stays empty."""
    t = t_rule(n)
    k = max(g.num_levels for g in grids)
    if t < k:
        raise ConfigError(f"t_rule {rule_text} gives T={t} samples per surface at N={n}, "
                          f"fewer than K={k} phase levels")
    return t


def fit_loglog_slope(n_values, boosts):
    """Least-squares slope of log10(boost) against log10(N).

    Returns (slope, intercept, r_squared).  Needs >= 3 distinct N values and
    strictly positive boosts.
    """
    n_values = np.asarray(n_values, dtype=float)
    boosts = np.asarray(boosts, dtype=float)
    if n_values.shape != boosts.shape or n_values.ndim != 1:
        raise ValueError("need matching 1-D arrays of N and boost")
    if np.unique(n_values).size < 3:
        raise ValueError("need at least 3 distinct N values to fit a slope")
    if np.any(boosts <= 0) or np.any(n_values <= 0):
        raise ValueError("slope fit needs positive N and boost values")
    x = np.log10(n_values)
    y = np.log10(boosts)
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * x + intercept
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), float(r2)


def _slope_summary(experiment: str, records) -> tuple[list, list]:
    """'#' slope lines for the CSV and report lines for stdout; a method with
    fewer than 3 distinct N gets a report line saying no slope was fitted."""
    summary, report = [], []
    methods = sorted({r.method for r in records})
    for method in methods:
        rows = [r for r in records if r.method == method and r.metric_value > 0]
        ns = [r.num_elements for r in rows]
        if len(set(ns)) < 3:
            report.append(f"method={method}: no slope, {len(set(ns))} distinct N (need 3)")
            continue
        slope, intercept, r2 = fit_loglog_slope(ns, [r.metric_value for r in rows])
        summary.append(
            f"# slope,experiment={experiment},method={method},"
            f"slope={slope:.6g},intercept={intercept:.6g},r2={r2:.6g}"
        )
        report.append(summary[-1].lstrip("# "))
    return summary, report


# ---------------------------------------------------------------------------
# scaling: synthetic condition-satisfying instances swept over N


def run_scaling(config: ExperimentConfig) -> ExperimentResult:
    """Boost-versus-N sweep on make_d_instance families.

    Within a trial the leakage scale is held at one common value for every N
    (half the tightest per-N maximum), so the sweep varies only the surface
    size and the fitted slope reflects the pure N-scaling.
    """
    seed = config.get_int("seed", 0)
    trials = config.get_count("trials", 10)
    threads = config.get_int("threads", 1)
    L = config.get_count("surfaces", 2)
    n_list = config.get_int_list("n_sweep", "8,16,32,64,128")
    levels = config.get_int_list("levels", "4")
    methods = config.get_str("methods", "csm,cpp").replace(",", " ").split()
    rule_text = config.get_str("t_rule", "linear:20")
    t_rule = parse_t_rule(rule_text)
    noise_draws = _noise_draws(config)
    margin = config.get_float("leakage_margin", 0.5)
    if not (0.0 <= margin <= 1.0):
        raise ConfigError(f"leakage_margin must lie in [0, 1], got {margin}")
    params = _radio_params(config)
    if not n_list or min(n_list) < 1:
        raise ConfigError("n_sweep must be nonempty with positive entries")
    grids = _d_instance_grids(levels, L)
    known = {"csm", "cpp"}
    bad = set(methods) - known
    if bad:
        raise ConfigError(f"unknown scaling methods {sorted(bad)}; pick from {sorted(known)}")
    t_csm = ({n: _samples_per_surface(t_rule, rule_text, n, grids) for n in n_list}
             if "csm" in methods else {})

    def one_trial(trial: int) -> list:
        # per-N feasibility ceilings with the trial's channel streams
        a_common = margin * min(
            d_instance_a_max(L, n, grids, derive_rng(seed, trial, TAG_CHANNEL, n))
            for n in n_list)
        out = []
        for n in n_list:
            inst = make_d_instance(
                L, n, grids, derive_rng(seed, trial, TAG_CHANNEL, n), a_scale=a_common
            )
            for method in methods:
                start = time.perf_counter()
                if method == "cpp":
                    res = sequential_cpp_oracle(inst.tensor, grids)
                    t_used = 0
                else:
                    t_used = t_csm[n]
                    res = sequential_csm(
                        inst.tensor, grids, t_used, params, noise_draws,
                        derive_rng(seed, trial, TAG_SAMPLING, n),
                    )
                out.append(_record("scaling", seed, trial, method, grids, n, t_used,
                                   *_boost_metric(inst.tensor, res.assignment, params),
                                   wall_s=time.perf_counter() - start))
        return out

    per_trial = _map_ordered(one_trial, list(range(trials)), threads)
    records = [r for chunk in per_trial for r in chunk]
    return ExperimentResult(records, *_slope_summary("scaling", records))


# ---------------------------------------------------------------------------
# compare: benchmark methods on a scenario


def realize_scenario(scenario: Scenario, seed: int, trial: int,
                     num_elements: int | None = None, tags=()):
    """Draw one channel realization of a scenario.

    Returns (graph, grids, params).  Placement, propagation, and fading each
    consume their own RNG stream, derive_rng(seed, trial, stage tag, *tags),
    so realizations are trial-independent.
    """
    n = scenario.num_elements if num_elements is None else num_elements
    L = scenario.num_surfaces
    geometry = scenario.geometry
    if geometry is None:
        positions = place_random(L, derive_rng(seed, trial, TAG_PLACEMENT, *tags)).positions
        geometry = Geometry(positions, scenario.spacing_m, scenario.wavelength_m)
    if scenario.fixed_angle_rad is None:
        angles = AngleTable.from_geometry(geometry)
    else:
        angles = AngleTable.fixed(geometry.num_nodes, scenario.fixed_angle_rad)
    prop = scenario.propagation
    if not isinstance(prop, PropagationMap):
        prop = sample_propagation(prop, L, derive_rng(seed, trial, TAG_PROPAGATION, *tags))
    graph = build_link_graph(geometry, angles, prop, n,
                             derive_rng(seed, trial, TAG_CHANNEL, *tags),
                             zero_nlos=scenario.zero_nlos)
    return graph, scenario.grids, scenario.params


COMPARE_METHODS = ("zero", "random", "virtual", "csm", "cpp")


def run_compare(config: ExperimentConfig) -> ExperimentResult:
    """Benchmark the blind scheme against its baselines on shared channels.

    Per trial all methods see the same realization: zero phases, joint random
    search (budget L*1000 by default), the virtual single-surface scheme
    (L*1000 samples total), sequential CSM (T per surface), and the
    perfect-knowledge projection oracle.
    """
    seed = config.get_int("seed", 0)
    trials = config.get_count("trials", 20)
    threads = config.get_int("threads", 1)
    scenario_path = config.get_str("scenario", str(default_scenario_path()))
    scenario = load_scenario(scenario_path)
    n = config.get_count("elements", scenario.num_elements)
    methods = config.get_str("methods", ",".join(COMPARE_METHODS)).replace(",", " ").split()
    bad = set(methods) - set(COMPARE_METHODS)
    if bad:
        raise ConfigError(f"unknown compare methods {sorted(bad)}; pick from {list(COMPARE_METHODS)}")
    rule_text = config.get_str("t_rule", "fixed:1000")
    t_rule = parse_t_rule(rule_text)
    noise_draws = _noise_draws(config)
    if "random" in methods or "virtual" in methods:
        budget = scenario.num_surfaces * config.get_count("budget_per_surface", 1000)
    if "csm" in methods:
        t_csm = _samples_per_surface(t_rule, rule_text, n, scenario.grids)

    def one_trial(trial: int) -> list:
        graph, grids, params = realize_scenario(scenario, seed, trial, n)
        out = []
        for method in methods:
            rng = derive_rng(seed, trial, TAG_SAMPLING, COMPARE_METHODS.index(method))
            start = time.perf_counter()
            if method == "zero":
                res = zero_phase_baseline(graph, grids)
            elif method == "random":
                res = random_beamforming(graph, grids, budget, params, noise_draws, rng)
            elif method == "virtual":
                res = virtual_single_irs(graph, grids, budget, params, noise_draws, rng)
            elif method == "csm":
                res = sequential_csm(graph, grids, t_csm, params, noise_draws, rng)
            else:
                res = sequential_cpp_oracle(graph, grids)
            out.append(_record("compare", seed, trial, method, grids, n, res.evaluations,
                               *_boost_metric(graph, res.assignment, params),
                               wall_s=time.perf_counter() - start))
        return out

    per_trial = _map_ordered(one_trial, list(range(trials)), threads)
    records = [r for chunk in per_trial for r in chunk]
    report = []
    for method in methods:
        vals = [r.metric_value for r in records if r.method == method]
        report.append(f"method={method} mean={np.mean(vals):.6g} median={np.median(vals):.6g}")
    summary = [f"# compare,{line.replace(' ', ',')}" for line in report]
    return ExperimentResult(records, summary, report)


# ---------------------------------------------------------------------------
# conditions: satisfaction probability versus LoS density


CONDITION_SETS = ("C", "Cprime", "D")


def run_conditions_probability(config: ExperimentConfig) -> ExperimentResult:
    """Estimate how often the scaling conditions hold in random deployments.

    Per trial: surfaces are placed on a random staircase, the relay chain is
    forced line-of-sight, every other node pair is LoS with probability eta,
    and NLoS links are exactly zero.  The double-surface sets C and C' are
    evaluated at L=2 and the general set D at the configured L (these
    coincide only in construction when L=2, where one placement serves all
    three).  Under this model P(C') = (1 - eta)^3, since C' holds exactly
    when the tx-rx, surface1-rx and tx-surface2 links are all NLoS, and
    P(C) >= 1 - eta, since an NLoS surface1-rx link zeroes every h[m, 0] and
    gives gamma_min = 0.

    The C' fraction counts its channel requirements (rank-one two-hop block,
    zero direct and one-hop channels); the continuous-phase clause is an
    idealization no finite grid meets, so it is granted here and reported in
    the notes instead of zeroing the whole curve.
    """
    seed = config.get_int("seed", 0)
    trials = config.get_count("trials", 200)
    threads = config.get_int("threads", 1)
    L = config.get_int("surfaces", 2)
    n = config.get_count("elements", 100)
    etas = [_eta(eta) for eta in config.get_float_list("eta_sweep", "0.2,0.4,0.6,0.8,1.0")]
    levels = config.get_int_list("levels", str(2 * L))
    if L < 2:
        raise ConfigError("the conditions study needs at least two surfaces")
    if not etas:
        raise ConfigError("eta_sweep must be nonempty")
    grids = _grids_for(levels, L)
    set_grids = {"C": as_grids(levels[0], 2), "Cprime": as_grids(levels[0], 2), "D": grids}
    staircases = {(ell, eta_idx): Scenario(ell, n, set_grids["D" if ell == L else "C"], None,
                                           eta, zero_nlos=True)
                  for eta_idx, eta in enumerate(etas) for ell in {L, 2}}

    def one_case(key) -> list:
        eta_idx, trial = key
        eta = etas[eta_idx]

        def tensor_for(num_surfaces: int, tag_shift: int):
            graph, _, _ = realize_scenario(staircases[num_surfaces, eta_idx], seed, trial,
                                           tags=(eta_idx, tag_shift))
            return expand_links_to_tensor(graph)

        tensor_l = tensor_for(L, 0)
        tensor_2 = tensor_l if L == 2 else tensor_for(2, 1)
        verdicts = {
            "C": check_c_conditions(tensor_2, set_grids["C"]).passed,
            "Cprime": check_cprime(tensor_2, set_grids["Cprime"], continuous=True).passed,
            "D": check_d_conditions(tensor_l, grids).passed,
        }
        return [_record(f"conditions:eta={eta:g}", seed, trial, name, set_grids[name], n, 0,
                        "satisfied", 1.0 if verdicts[name] else 0.0)
                for name in CONDITION_SETS]

    keys = [(e, t) for e in range(len(etas)) for t in range(trials)]
    per_case = _map_ordered(one_case, keys, threads)
    records = [r for chunk in per_case for r in chunk]
    report = []
    for eta_idx, eta in enumerate(etas):
        exp_name = f"conditions:eta={eta:g}"
        for name in CONDITION_SETS:
            vals = [r.metric_value for r in records
                    if r.experiment == exp_name and r.method == name]
            frac = float(np.mean(vals))
            records.append(_record(exp_name, seed, -1, name, set_grids[name], n, trials,
                                   "fraction", frac))
            report.append(f"eta={eta:g} set={name} fraction={frac:.4f}")
    summary = [f"# conditions,{line.replace(' ', ',')}" for line in report]
    summary.append(
        "# conditions,note=C'2-continuous-phases-granted-as-idealization"
    )
    return ExperimentResult(records, summary, report)


# ---------------------------------------------------------------------------
# examples: constructed channels with known decisions and growth


def run_examples(config: ExperimentConfig) -> ExperimentResult:
    """Check the constructed example channels end to end.

    For every example and variant: the perfect-knowledge sequential optimizer
    must reproduce the documented decisions at every listed N, and the
    received-power growth between consecutive N must match the variant's
    order (quadratic for "bad", quartic for "good") within the tolerance.
    """
    seed = config.get_int("seed", 0)
    n_list = config.get_int_list("n_sweep", "9,19")
    beta = config.get_float("beta", 1.0)
    rel_tol = config.get_float("growth_rel_tol", 0.2)
    params = RadioParams(transmit_power_w=1.0)
    if any(n % 2 == 0 or n < 3 for n in n_list):
        raise ConfigError("example element counts must be odd and at least 3")
    if len(n_list) < 2:
        raise ConfigError("need at least two N values to measure growth")
    records = []
    report = []
    failures = []
    for example_id in (1, 2, 3):
        for variant in ("bad", "good"):
            method = f"example{example_id}_{variant}"
            powers = []
            for n in n_list:
                fx = build_example(example_id, variant, n, beta)
                res = sequential_cpp_oracle(fx.tensor, fx.grids)
                for ell in range(2):
                    got = res.assignment.indices[ell]
                    want = fx.expected_indices[ell]
                    if not np.array_equal(got, want):
                        failures.append(
                            f"{method} N={n}: surface {ell + 1} decisions "
                            f"{got.tolist()} != expected {want.tolist()}"
                        )
                power = received_power(effective_channel(fx.tensor, res.assignment), params)
                powers.append(power)
                records.append(_record("examples", seed, 0, method, fx.grids, n, 0,
                                       "power_watts", power))
            exponent = 2 if variant == "bad" else 4
            for (n1, p1), (n2, p2) in zip(zip(n_list, powers), zip(n_list[1:], powers[1:])):
                expected = (n2 / n1) ** exponent
                observed = p2 / p1
                ok = abs(observed / expected - 1.0) <= rel_tol
                line = (
                    f"{method} N={n1}->{n2}: power x{observed:.3f} "
                    f"(order-{exponent} reference x{expected:.3f}) "
                    f"{'ok' if ok else 'FAIL'}"
                )
                report.append(line)
                if not ok:
                    failures.append(line)
    decisions_line = ("decisions: all as documented" if not any("decisions" in f for f in failures)
                      else "decisions: MISMATCHES found")
    report.append(decisions_line)
    summary = [f"# examples,{line.replace(' ', ',')}" for line in report]
    return ExperimentResult(records, summary, report, failures)


# ---------------------------------------------------------------------------
# lemma-check: decided phases stay near their ideal targets


def run_lemma_check(config: ExperimentConfig) -> ExperimentResult:
    """Draw condition-satisfying instances and verify the deviation bound
    between decided and ideal phases, surface by surface."""
    seed = config.get_int("seed", 0)
    trials = config.get_count("trials", 100)
    threads = config.get_int("threads", 1)
    L = config.get_count("surfaces", 2)
    n = config.get_count("elements", 6)
    levels = config.get_int_list("levels", "4")
    margin = config.get_float("leakage_margin", 0.5)
    if not (0.0 < margin <= 1.0):
        raise ConfigError(f"leakage_margin must lie in (0, 1], got {margin}")
    grids = _d_instance_grids(levels, L)

    def one_trial(trial: int) -> tuple:
        inst = make_d_instance(L, n, grids, derive_rng(seed, trial, TAG_CHANNEL),
                               margin=margin)
        # a single surface has no leakage paths, so no margin angle is needed
        gamma = (check_d_conditions(inst.tensor, grids, factors=inst.factors).gamma_min
                 if L >= 2 else 0.0)
        res = sequential_cpp_oracle(inst.tensor, grids)
        rep = lemma1_verify(inst.tensor, inst.factors, grids, res.assignment, gamma)
        record = _record("lemma-check", seed, trial, "cpp", grids, n, 0, "deviation_rad",
                         rep.max_deviation)
        return record, rep.all_ok, rep.violations

    results = _map_ordered(one_trial, list(range(trials)), threads)
    records = [r for r, _, _ in results]
    holds = sum(1 for _, ok, _ in results if ok)
    failures = []
    for (r, ok, violations) in results:
        if not ok:
            failures.append(f"trial {r.trial}: bound violated at {violations[:3]}")
    report = [f"bound held in {holds}/{trials} trials "
              f"(L={L}, N={n}, K={_levels_label(grids)})"]
    summary = [f"# lemma-check,held={holds},trials={trials}"]
    return ExperimentResult(records, summary, report, failures)


RUNNERS = {
    "scaling": run_scaling,
    "compare": run_compare,
    "conditions": run_conditions_probability,
    "examples": run_examples,
    "lemma-check": run_lemma_check,
}
