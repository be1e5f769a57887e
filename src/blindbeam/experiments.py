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
from dataclasses import astuple, dataclass, field
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
    _check_tensor_size,
    effective_channel,
    expand_links_to_tensor,
    received_power,
    snr_boost,
)
from .conditions import check_c_conditions, check_cprime, check_d_conditions, lemma1_verify
from .config import (
    ConfigError,
    ExperimentConfig,
    Option,
    _grids_for,
    count,
    fraction,
    int_list,
    list_of,
    nonnegative,
    number,
    one_of,
    parse_noise_model,
    parse_t_rule,
    positive_float,
    positive_fraction,
    string,
    thread_count,
)
from .fixtures import build_example, check_d_grids, d_instance_a_max, make_d_instance
from .phases import as_grids
from .scenario import (
    NOISE_DBM,
    POWER_DBM,
    AngleTable,
    Geometry,
    PropagationMap,
    Scenario,
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
    """One CSV row, its fields in CSV_HEADER's column order."""

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
        *fields, value, wall_s = astuple(self)
        wall = f"{wall_s:.3f}" if timing else "0"
        return ",".join([*map(str, fields), f"{value:.12g}", wall])

    def to_json_dict(self) -> dict:
        """The fields under their CSV column names."""
        return dict(zip(CSV_HEADER.split(","), astuple(self)))


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
    if threads == 1 or len(keys) <= 1:
        return [fn(k) for k in keys]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, keys))


# the most samples per surface a rule may ask for, and the most probes of a
# random or virtual run: far above the budgets in use (theory:1 asks for
# 1.9e6 at N=128), and bounded so that every run ends
_MAX_SAMPLES = 10**9


def _samples_per_surface(t_rule, n: int, grids) -> int:
    """T = t_rule(n), at most _MAX_SAMPLES, which must reach every surface's
    K: with fewer probes than phase levels some (element, phase index) group
    stays empty."""
    t = t_rule(n)
    if t > _MAX_SAMPLES:
        raise ConfigError(f"t_rule {t_rule.text} gives T={t:.3g} samples per surface at N={n}, "
                          f"above the cap of {_MAX_SAMPLES:.0e}")
    k = max(g.num_levels for g in grids)
    if t < k:
        raise ConfigError(f"t_rule {t_rule.text} gives T={t} samples per surface at N={n}, "
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


# name -> optimizer(channel, grids, samples, params, noise_draws, rng), in the order that tags
# compare's RNG streams; entries look the optimizer up when called, so module wrappers apply
METHODS = {
    "zero": lambda channel, grids, *_: zero_phase_baseline(channel, grids),
    "random": lambda *args: random_beamforming(*args),
    "virtual": lambda *args: virtual_single_irs(*args),
    "csm": lambda *args: sequential_csm(*args),
    "cpp": lambda channel, grids, *_: sequential_cpp_oracle(channel, grids),
}
COMPARE_METHODS = tuple(METHODS)


# ---------------------------------------------------------------------------
# scaling: synthetic condition-satisfying instances swept over N


def run_scaling(config: ExperimentConfig) -> ExperimentResult:
    """Boost-versus-N sweep on make_d_instance families.

    Within a trial the leakage scale is held at one common value for every N
    (half the tightest per-N maximum), so the sweep varies only the surface
    size and the fitted slope reflects the pure N-scaling.
    """
    o = config.options(OPTIONS["scaling"])
    seed, trials, threads, L = o.seed, o.trials, o.threads, o.surfaces
    n_list, levels, methods = o.n_sweep, o.levels, o.methods
    t_rule, noise_draws, margin = o.t_rule, o.noise, o.leakage_margin
    params = _radio_params(o)
    grids = _grids_for(levels, L, check_d_grids)
    _check_tensor_size(L, max(n_list), ConfigError)
    t_csm = ({n: _samples_per_surface(t_rule, n, grids) for n in n_list}
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
                res = METHODS[method](inst.tensor, grids, t_csm.get(n, 0), params, noise_draws,
                                      derive_rng(seed, trial, TAG_SAMPLING, n))
                out.append(_record("scaling", seed, trial, method, grids, n, res.evaluations // L,
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


def run_compare(config: ExperimentConfig) -> ExperimentResult:
    """Benchmark the blind scheme against its baselines on shared channels.

    Per trial all methods see the same realization: zero phases, joint random
    search (budget L*1000 by default), the virtual single-surface scheme
    (L*1000 samples total), sequential CSM (T per surface), and the
    perfect-knowledge projection oracle.
    """
    o = config.options(OPTIONS["compare"])
    seed, trials, threads = o.seed, o.trials, o.threads
    scenario = load_scenario(o.scenario or default_scenario_path())
    n = o.elements or scenario.num_elements
    methods, t_rule, noise_draws = o.methods, o.t_rule, o.noise
    samples = {}
    if "random" in methods or "virtual" in methods:
        budget = scenario.num_surfaces * o.budget_per_surface
        if budget > _MAX_SAMPLES:
            raise ConfigError(f"budget_per_surface {o.budget_per_surface} gives {budget} probes "
                              f"on {scenario.num_surfaces} surfaces, above the cap of "
                              f"{_MAX_SAMPLES:.0e}")
        samples = dict.fromkeys(("random", "virtual"), budget)
    if "virtual" in methods and len({g.num_levels for g in scenario.grids}) > 1:
        raise ConfigError(f"method virtual needs one level count on every surface, got "
                          f"{_levels_label(scenario.grids)}")
    if "csm" in methods:
        samples["csm"] = _samples_per_surface(t_rule, n, scenario.grids)

    def one_trial(trial: int) -> list:
        graph, grids, params = realize_scenario(scenario, seed, trial, n)
        out = []
        for method in methods:
            rng = derive_rng(seed, trial, TAG_SAMPLING, COMPARE_METHODS.index(method))
            start = time.perf_counter()
            res = METHODS[method](graph, grids, samples.get(method, 0), params, noise_draws, rng)
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
    o = config.options(OPTIONS["conditions"])
    seed, trials, threads, L, n = o.seed, o.trials, o.threads, o.surfaces, o.elements
    etas = o.eta_sweep
    levels = o.levels or [2 * L]
    grids = _grids_for(levels, L)
    _check_tensor_size(L, n, ConfigError)
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
    must reproduce the decisions build_example states at every listed N, and
    the received-power growth between consecutive N must match the order it
    states (quadratic for "bad", quartic for "good") within the tolerance.  A
    report line names the examples it states neither for.
    """
    o = config.options(OPTIONS["examples"])
    seed, n_list, beta, rel_tol = o.seed, o.n_sweep, o.beta, o.growth_rel_tol
    _check_tensor_size(2, max(n_list), ConfigError)
    params = RadioParams(transmit_power_w=1.0)
    records = []
    report = []
    failures = []
    unchecked = []
    for example_id in (1, 2, 3):
        for variant in ("bad", "good"):
            method = f"example{example_id}_{variant}"
            powers = []
            for n in n_list:
                fx = build_example(example_id, variant, n, beta)
                res = sequential_cpp_oracle(fx.tensor, fx.grids)
                for ell, want in enumerate(fx.expected_indices or ()):
                    got = res.assignment.indices[ell]
                    if not np.array_equal(got, want):
                        failures.append(
                            f"{method} N={n}: surface {ell + 1} decisions "
                            f"{got.tolist()} != expected {want.tolist()}"
                        )
                with np.errstate(over="ignore"):  # an overflowed power is refused below
                    power = received_power(effective_channel(fx.tensor, res.assignment), params)
                if not 0.0 < power < np.inf:
                    raise ConfigError(f"beta {beta:g} takes the {method} power at N={n} "
                                      f"out of the float range (got {power:g})")
                powers.append(power)
                records.append(_record("examples", seed, 0, method, fx.grids, n, 0,
                                       "power_watts", power))
            exponent = fx.boost_exponent
            if exponent is None:
                unchecked.append(method)
                continue
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
    if unchecked:
        report.append(f"decisions and growth: not checked for {' '.join(unchecked)} "
                      "(stated at beta=1 only)")
    summary = [f"# examples,{line.replace(' ', ',')}" for line in report]
    return ExperimentResult(records, summary, report, failures)


# ---------------------------------------------------------------------------
# lemma-check: decided phases stay near their ideal targets


def run_lemma_check(config: ExperimentConfig) -> ExperimentResult:
    """Draw condition-satisfying instances and verify the deviation bound
    between decided and ideal phases, surface by surface."""
    o = config.options(OPTIONS["lemma-check"])
    seed, trials, threads, L, n = o.seed, o.trials, o.threads, o.surfaces, o.elements
    margin = o.leakage_margin
    grids = _grids_for(o.levels, L, check_d_grids)
    _check_tensor_size(L, n, ConfigError)

    def one_trial(trial: int) -> tuple:
        inst = make_d_instance(L, n, grids, derive_rng(seed, trial, TAG_CHANNEL),
                               margin=margin)
        # a single surface has no leakage paths, so no margin angle is needed
        gamma = check_d_conditions(inst.tensor, grids).gamma_min if L >= 2 else 0.0
        res = sequential_cpp_oracle(inst.tensor, grids)
        rep = lemma1_verify(inst.tensor, grids, res.assignment, gamma)
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


# ---------------------------------------------------------------------------
# option tables: every setting of every subcommand, each declared once; rows
# that several subcommands read are shared, each subcommand setting its own
# default with `at`

SEED = Option("seed", ("--seed",), nonnegative, "0", "master RNG seed")
TRIALS = Option("trials", ("--trials",), count, None, "independent channel draws")
THREADS = Option("threads", ("--threads",), thread_count, "1",
                 "worker threads for trial evaluation")
SURFACES = Option("surfaces", ("--surfaces", "-L"), count, "2", "reflecting surfaces L")
ELEMENTS = Option("elements", ("--elements", "-N"), count, None, "elements per surface N")
LEVELS = Option("levels", ("--levels", "-K"), int_list, "4",
                "phase levels, one value or one per surface")
N_SWEEP = Option("n_sweep", ("--n-sweep",), list_of(count, distinct=True), None,
                 "element counts to sweep")
T_RULE = Option("t_rule", ("--t-rule",), parse_t_rule, None,
                "samples per surface: fixed:T, linear:c, or theory:c")
NOISE = Option("noise", ("--noise",), parse_noise_model, "noiseless",
               "noiseless, one_draw, or averaged:M")
LEAKAGE_MARGIN = Option("leakage_margin", ("--leakage-margin",), fraction, "0.5",
                        "fraction of the feasible leakage ceiling to use")


def _example_sizes(text: str, key: str) -> list:
    """At least two odd element counts >= 3, increasing: each growth check
    compares one N with the next larger one."""
    odd = number(int, lambda v: v >= 3 and v % 2 == 1, "be odd and at least 3")
    sizes = list_of(odd)(text, key)
    if len(sizes) < 2:
        raise ConfigError(f"{key} needs at least two N values to measure growth, got {text!r}")
    for before, after in zip(sizes, sizes[1:]):
        if after <= before:
            raise ConfigError(f"{key} must increase, got {after} after {before}")
    return sizes


OPTIONS = {
    "scaling": (
        SEED, TRIALS.at("10"), THREADS, SURFACES, N_SWEEP.at("8,16,32,64,128"), LEVELS,
        Option("methods", ("--methods",),
               list_of(one_of(("cpp", "csm"), "scaling methods"), distinct=True), "csm,cpp",
               "comma list of methods"),
        T_RULE.at("linear:20"), NOISE, LEAKAGE_MARGIN,
        # file only; _radio_params reads them, as it does for scenario files
        POWER_DBM, NOISE_DBM),
    "compare": (
        SEED, TRIALS.at("20"), THREADS,
        Option("scenario", ("--scenario",), string, "the packaged two-surface corridor",
               "scenario file", derived=True),
        ELEMENTS.at("the scenario's N", derived=True),
        Option("methods", ("--methods",),
               list_of(one_of(COMPARE_METHODS, "compare methods"), distinct=True),
               ",".join(COMPARE_METHODS), "comma list of methods"),
        T_RULE.at("fixed:1000"),
        Option("budget_per_surface", ("--budget-per-surface",), count, "1000",
               "sample budget per surface for random and virtual"),
        NOISE),
    "conditions": (
        SEED, TRIALS.at("200"), THREADS,
        SURFACES._replace(parse=number(int, lambda v: v >= 2,
                                       "be at least 2, as C and C' need two surfaces")),
        ELEMENTS.at("100"),
        Option("eta_sweep", ("--eta-sweep",),
               list_of(fraction, "eta", distinct=True, label="eta={:g}".format),
               "0.2,0.4,0.6,0.8,1.0", "line-of-sight probabilities"),
        LEVELS.at("2L", derived=True)),
    "examples": (
        SEED, N_SWEEP._replace(parse=_example_sizes, default="9,19"),
        Option("beta", ("--beta",), positive_float, "1", "channel gain scale"),
        Option("growth_rel_tol", ("--growth-rel-tol",), positive_float, "0.2",
               "relative tolerance of each growth check")),
    "lemma-check": (SEED, TRIALS.at("100"), THREADS, SURFACES, ELEMENTS.at("6"), LEVELS,
                    LEAKAGE_MARGIN._replace(parse=positive_fraction)),
}
