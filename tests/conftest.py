"""Shared test helpers: brute-force oracles kept deliberately dumb."""

import math
from dataclasses import dataclass
from itertools import product

import numpy as np
import pytest

from blindbeam import (
    BeamformingResult,
    CascadedChannelTensor,
    LinkChannelGraph,
    PhaseAssignment,
    RadioParams,
    as_grids,
    csm_decide,
    dims,
    effective_channel,
    generate_samples,
    received_power,
)
from blindbeam.beamforming import _CHUNK, _GroupSums, _sequential
from blindbeam.channel import effective_batch
from blindbeam.conditions import _SLACK, _leakage_sums, margin_budget, margin_rhs

# Keep exhaustive enumeration honest but bounded.
MAX_EXACT_CONFIGS = 10**6

UNIT_POWER = RadioParams(transmit_power_w=1.0)


def brute_force_gain(tensor: CascadedChannelTensor, phases: PhaseAssignment) -> complex:
    """Path-sum oracle: explicit loop over every index tuple."""
    t = tensor.entries
    total = 0.0 + 0.0j
    for idx in np.ndindex(*t.shape):
        phase = 0.0
        for ell, n in enumerate(idx):
            if n > 0:
                phase += phases.phase_values(ell)[n - 1]
        total += t[idx] * np.exp(1j * phase)
    return complex(total)


def expand_links_oracle(graph: LinkChannelGraph) -> np.ndarray:
    """Per-entry path products of a link graph, one index tuple at a time."""
    L, n = graph.num_surfaces, graph.num_elements
    shape = (n + 1,) * L
    out = np.empty(shape, dtype=np.complex128)
    for idx in np.ndindex(shape):
        stops = [(ell, k) for ell, k in enumerate(idx) if k > 0]
        if not stops:
            out[idx] = graph.tx_to_rx
            continue
        first_ell, first_k = stops[0]
        amp = graph.tx_to_irs[first_ell][first_k - 1]
        for (i, m), (j, k) in zip(stops, stops[1:]):
            if (i, j) not in graph.irs_to_irs:
                amp = 0.0 + 0.0j
                break
            amp = amp * graph.hop(i, j)[m - 1, k - 1]
        else:
            last_ell, last_k = stops[-1]
            amp = amp * graph.irs_to_rx[last_ell][last_k - 1]
        out[idx] = amp
    return out


@dataclass(frozen=True)
class IndexSetSpec:
    """Families of path index tuples tied to element `element` of surface
    `surface` (both 0-based surface, 1-based element).

    kind "through":    n_surface = element, other surfaces unrestricted.
    kind "all_active": additionally every other surface reflects (index >= 1).
    kind "some_skip":  the difference, i.e. at least one other surface is
                       skipped.  These are the leakage paths of the surface.
    """

    surface: int
    element: int
    kind: str

    def __post_init__(self):
        if self.kind not in ("through", "all_active", "some_skip"):
            raise ValueError(f"unknown index set kind {self.kind!r}")
        if self.surface < 0 or self.element < 1:
            raise ValueError("surface is 0-based, element is 1-based")

    def count(self, num_surfaces: int, num_elements: int) -> int:
        rest = num_surfaces - 1
        if self.kind == "through":
            return (num_elements + 1) ** rest
        if self.kind == "all_active":
            return num_elements**rest
        return (num_elements + 1) ** rest - num_elements**rest

    def tuples(self, num_surfaces: int, num_elements: int):
        """Yield the member tuples."""
        if not (0 <= self.surface < num_surfaces):
            raise ValueError("surface index out of range")
        if self.element > num_elements:
            raise ValueError("element index out of range")
        lo = 1 if self.kind == "all_active" else 0
        others = [range(lo, num_elements + 1)] * (num_surfaces - 1)
        for combo in product(*others):
            tup = list(combo)
            tup.insert(self.surface, self.element)
            tup = tuple(tup)
            if self.kind == "some_skip" and all(
                x >= 1 for i, x in enumerate(tup) if i != self.surface
            ):
                continue
            yield tup


def final_power(channel, result: BeamformingResult) -> float:
    """Noiseless received power of an optimizer's assignment at unit
    transmit power."""
    return received_power(effective_channel(channel, result.assignment), UNIT_POWER)


def exact_csm_small(channel, grids) -> BeamformingResult:
    """Sequential optimizer using exact conditional means.

    Each stage enumerates every joint phase configuration of its surface
    (K^N of them, capped), computes noiseless powers at unit transmit power,
    and applies the same per-element argmax as the sampled scheme.  Decisions
    are invariant to the power scale.
    """
    n = dims(channel)[1]

    def decide(grid, stage):
        c0, c = stage
        k = grid.num_levels
        total = k**n
        if total > MAX_EXACT_CONFIGS:
            raise ValueError(f"exact enumeration needs {total} configurations per "
                             f"surface, above the {MAX_EXACT_CONFIGS} cap")
        # decode 0..K^N-1 into mixed-radix index rows, most significant first
        codes = np.arange(total)
        idx = (codes[:, None] // (k ** np.arange(n - 1, -1, -1))[None, :]) % k
        groups = _GroupSums(n, k)
        groups.add(idx, received_power(c0 + grid.factor_table()[idx] @ c, UNIT_POWER))
        return csm_decide(groups.means())

    return _sequential(channel, grids, decide)


def unblocked_csm_means(width, grid, total, evaluate, params, noise_draws, rng) -> np.ndarray:
    """Conditional means with no compute blocks: every chunk of _CHUNK probes
    is drawn as one (rows, width) int64 array, evaluated, measured and binned
    whole.  The reference for the blocked _csm_means."""
    groups = _GroupSums(width, grid.num_levels)
    for start in range(0, total, _CHUNK):
        idx = generate_samples(width, grid, min(_CHUNK, total - start), rng)
        groups.add(idx, received_power(evaluate(idx), params, noise_draws, rng))
    return groups.means()


def unblocked_random_beamforming(channel, grids, budget, params, noise_draws,
                                 rng) -> BeamformingResult:
    """Joint random search with no compute blocks: every chunk of _CHUNK
    assignments is drawn as L (rows, N) int64 arrays, evaluated and measured
    whole.  The reference for the blocked random_beamforming."""
    L, n = dims(channel)
    grids = as_grids(grids, L)
    best_power = -1.0
    for start in range(0, budget, _CHUNK):
        draws = [generate_samples(n, g, min(_CHUNK, budget - start), rng) for g in grids]
        powers = received_power(effective_batch(channel, grids, draws), params, noise_draws, rng)
        top = int(np.argmax(powers))
        if powers[top] > best_power:
            best_power = float(powers[top])
            best_idx = tuple(d[top].copy() for d in draws)
    return BeamformingResult(PhaseAssignment(grids, best_idx), budget)


def d3_scan_oracle(tensor: CascadedChannelTensor, factors, grids, gamma_points: int):
    """The margin inequality checked element by element at every grid angle:
    one (gamma_points, N) slack array per surface before the last.  The
    reference for the per-surface thresholds of conditions._d3_scan.

    Returns (feasible, gamma_min, gamma_upper, best_slack).
    """
    L = tensor.num_surfaces
    gamma_upper = (math.pi / (L - 1)) * margin_budget(grids)
    mags = np.abs(tensor.entries)
    leak = np.array([_leakage_sums(mags, ell) for ell in range(L - 1)])
    scale = max(1.0, float(mags.max()))
    if gamma_upper <= 0.0:
        return False, None, gamma_upper, -math.inf
    gammas = np.linspace(0.0, gamma_upper, gamma_points, endpoint=False)
    slack = np.full(gammas.size, math.inf)
    for ell in range(L - 1):
        rhs = (margin_rhs(factors, grids, gammas, ell)[:, None]
               * np.abs(factors.vectors[ell])[None, :])
        slack = np.minimum(slack, (rhs - leak[ell][None, :]).min(axis=1))
    ok = slack >= -_SLACK * scale
    if not np.any(ok):
        return False, None, gamma_upper, float(slack.max())
    first = int(np.argmax(ok))
    return True, float(gammas[first]), gamma_upper, float(slack.max())


def exhaustive_search(channel, grids):
    """Global optimum by full enumeration of all K^(L*N) joint assignments.

    Only feasible for tiny systems; used as a reference ceiling.  Returns
    (assignment, noiseless power at unit transmit power).
    """
    L, n = dims(channel)
    grids = as_grids(grids, L)
    total = math.prod(g.num_levels**n for g in grids)
    if total > MAX_EXACT_CONFIGS:
        raise ValueError(f"{total} joint assignments exceed the enumeration cap")
    best = (-1.0, None)
    per_surface = [list(product(range(g.num_levels), repeat=n)) for g in grids]
    for combo in product(*per_surface):
        assignment = PhaseAssignment(grids, tuple(np.asarray(c, dtype=np.int64) for c in combo))
        p = received_power(effective_channel(channel, assignment), UNIT_POWER)
        if p > best[0]:
            best = (p, assignment)
    return best[1], best[0]


def random_tensor(rng, num_surfaces: int, num_elements: int) -> CascadedChannelTensor:
    shape = (num_elements + 1,) * num_surfaces
    entries = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return CascadedChannelTensor(entries)


def random_graph(rng, num_surfaces: int, num_elements: int,
                 edge_prob: float = 0.8) -> LinkChannelGraph:
    """Random link graph; each optional hop present with edge_prob."""

    def vec():
        return rng.standard_normal(num_elements) + 1j * rng.standard_normal(num_elements)

    def mat():
        return (rng.standard_normal((num_elements, num_elements))
                + 1j * rng.standard_normal((num_elements, num_elements)))

    tx_to_irs = tuple(vec() if rng.random() < edge_prob else np.zeros(num_elements, complex)
                      for _ in range(num_surfaces))
    irs_to_rx = tuple(vec() if rng.random() < edge_prob else np.zeros(num_elements, complex)
                      for _ in range(num_surfaces))
    irs_to_irs = {}
    for i in range(num_surfaces - 1):
        for j in range(i + 1, num_surfaces):
            if rng.random() < edge_prob:
                irs_to_irs[(i, j)] = mat()
    direct = complex(rng.standard_normal() + 1j * rng.standard_normal())
    return LinkChannelGraph(tx_to_irs, irs_to_rx, irs_to_irs, direct)


def random_assignment(rng, grids, num_elements: int) -> PhaseAssignment:
    grids = tuple(grids)
    return PhaseAssignment(
        grids,
        tuple(rng.integers(0, g.num_levels, size=num_elements) for g in grids),
    )


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


_VERDICTS: list = []


def pass_line(tag: str, ok: bool, detail: str = ""):
    """One verdict line per acceptance criterion.

    Collected and replayed in the terminal summary, which pytest renders
    outside capture, so the verdicts appear for passing and failing criteria
    alike."""
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    line = f"[{tag}] {status}{suffix}"
    _VERDICTS.append(line)
    print(f"\n{line}")


def pytest_terminal_summary(terminalreporter):
    if _VERDICTS:
        terminalreporter.section("acceptance criteria")
        for line in _VERDICTS:
            terminalreporter.write_line(line)
