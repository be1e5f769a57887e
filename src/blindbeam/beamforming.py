"""Blind beamforming by conditional sample means, plus reference optimizers.

The sequential scheme configures one surface at a time.  While surface ell is
being configured the other surfaces hold their current assignment, so the
effective channel is linear in the reflection factors of surface ell:

    g = c0 + sum_n c_n * exp(j * theta_n).

Random probing draws phase indices uniformly per element, measures received
power, and groups the measurements by (element, phase index).  The group
means separate the contribution of each element, and picking the per-element
argmax approaches the closest-point-projection (CPP) decision that perfect
channel knowledge would make.

All optimizers count every power measurement they take in
``BeamformingResult.evaluations``; the sequential scheme takes exactly
samples_per_surface measurements per surface, L * T total.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .channel import (
    NOISELESS,
    Channel,
    NoiseModel,
    RadioParams,
    dims,
    effective_batch,
    effective_channel,
    received_power,
    stage_coefficients,
)
from .phases import PhaseAssignment, PhaseGrid, as_grids, wrap_angle

# Measurement chunk size for large sample counts.
_CHUNK = 1 << 16


class EmptyGroupError(ValueError):
    """A (element, phase index) group received no samples."""

    def __init__(self, element: int, phase_index: int):
        self.element = element
        self.phase_index = phase_index
        super().__init__(
            f"no samples hit element {element + 1} at phase index {phase_index}; "
            "increase the sample count"
        )


@dataclass(frozen=True)
class CsmTable:
    """Conditional sample means per (element, phase index).

    means[n, k]: average measured power over the samples where element n+1
    used phase index k.  counts[n, k] is the size of that group; every row
    sums to the total sample count.
    """

    means: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.means, dtype=np.float64)
        c = np.asarray(self.counts, dtype=np.int64)
        if m.ndim != 2 or m.shape != c.shape:
            raise ValueError("means and counts must be matching (N, K) arrays")
        _require_every_group(c)
        totals = c.sum(axis=1)
        if np.any(totals != totals[0]):
            raise ValueError("per-element group counts must sum to the same total")
        object.__setattr__(self, "means", m)
        object.__setattr__(self, "counts", c)

    @property
    def num_samples(self) -> int:
        return int(self.counts[0].sum())


def _require_every_group(counts: np.ndarray):
    if np.any(counts < 1):
        bad = np.argwhere(counts < 1)[0]
        raise EmptyGroupError(int(bad[0]), int(bad[1]))


class _GroupSums:
    """Running power sums and sample counts per (element, phase index).

    Each chunk is binned by one bincount over the flat index n * K + k in
    row-major (sample, element) order, so every group accumulates its powers
    in sample order.
    """

    def __init__(self, num_elements: int, num_levels: int):
        self.shape = (num_elements, num_levels)
        self._offsets = np.arange(num_elements, dtype=np.int64) * num_levels
        self.sums = np.zeros(num_elements * num_levels)
        self.counts = np.zeros(num_elements * num_levels, dtype=np.int64)

    def add(self, indices: np.ndarray, powers: np.ndarray):
        """Bin a (T, N) block of phase indices with its T measured powers."""
        flat = (indices + self._offsets).ravel()
        size = self.counts.size
        self.counts += np.bincount(flat, minlength=size)
        self.sums += np.bincount(flat, weights=np.repeat(powers, indices.shape[1]),
                                 minlength=size)

    def table(self) -> CsmTable:
        """Conditional means; an empty group raises before the division."""
        counts = self.counts.reshape(self.shape)
        _require_every_group(counts)
        return CsmTable(self.sums.reshape(self.shape) / counts, counts)


@dataclass(frozen=True)
class BeamformingResult:
    """Outcome of one optimizer run.

    stage_powers[ell] is the noiseless received power after the assignment of
    surfaces 0..ell was fixed (later surfaces still at phase 0); it is a
    diagnostic trace and is not guaranteed to be monotone.  reflect_to_direct
    is, per stage, the mean reflected power share (1/N) * sum |c_n|^2 / |c0|^2
    when the stage had a nonzero skip-path aggregate c0, else None.
    """

    method: str
    assignment: PhaseAssignment
    stage_powers: tuple[float, ...]
    evaluations: int
    reflect_to_direct: Optional[tuple] = None


def generate_samples(num_elements: int, grid: PhaseGrid, num_samples: int, rng) -> np.ndarray:
    """Uniform i.i.d. phase indices, shape (T, N)."""
    if num_samples < 1:
        raise ValueError("need at least one sample")
    return rng.integers(0, grid.num_levels, size=(num_samples, num_elements), dtype=np.int64)


def csm_decide(table: CsmTable, rel_tol: float = 1e-9) -> np.ndarray:
    """Per-element argmax of the conditional means.

    Ties within rel_tol of the row maximum go to the smallest phase index, so
    exactly flat rows decide deterministically.
    """
    means = table.means
    row_max = means.max(axis=1)
    thresh = row_max - rel_tol * np.abs(row_max)
    return np.argmax(means >= thresh[:, None], axis=1).astype(np.int64)


def cpp_decide(c0: complex, c: np.ndarray, grid: PhaseGrid,
               tol: float = 1e-12) -> np.ndarray:
    """Closest grid point to the phase that aligns each reflected path with
    the rest of the signal, shape (N,) int64.

    The ideal continuous phase of element n is angle(c0) - angle(c[n]); its
    decision is the grid index minimizing the wrapped distance to it.  A zero
    c0 takes angle 0, and a zero c[n] returns index 0.  Near-exact ties
    (within tol radians) go to the smallest index.
    """
    target = np.angle(complex(c0)) - np.angle(c)
    dist = np.abs(wrap_angle(grid.values()[None, :] - target[:, None]))
    picks = np.argmax(dist <= dist.min(axis=1, keepdims=True) + tol, axis=1)
    return np.where(c == 0, 0, picks).astype(np.int64)


def _stage_diagnostic(c0: complex, c: np.ndarray) -> Optional[float]:
    if c0 == 0:
        return None
    return float(np.mean(np.abs(c) ** 2) / abs(c0) ** 2)


def _normalize_t(samples_per_surface, num_surfaces: int) -> list[int]:
    if isinstance(samples_per_surface, (int, np.integer)):
        ts = [int(samples_per_surface)] * num_surfaces
    else:
        ts = [int(t) for t in samples_per_surface]
        if len(ts) != num_surfaces:
            raise ValueError(f"need {num_surfaces} sample counts, got {len(ts)}")
    if any(t < 1 for t in ts):
        raise ValueError("sample counts must be positive")
    return ts


def _sequential(method: str, channel: Channel, grids, params: RadioParams,
                decide) -> BeamformingResult:
    """Configure the surfaces one at a time, in increasing index order.

    Stage ell holds the earlier surfaces at their decisions and the later
    ones at phase index 0, computes the stage coefficients (c0, c) of
    surface ell, and applies decide(ell, grid, c0, c) -> (indices,
    measurements), which returns the surface's phase indices and the number
    of power measurements it took.
    """
    L, n = dims(channel)
    grids = as_grids(grids, L)
    phases = PhaseAssignment.zeros(grids, n)
    stage_powers = []
    ratios = []
    evaluations = 0
    for ell in range(L):
        c0, c = stage_coefficients(channel, phases, ell)
        indices, measurements = decide(ell, grids[ell], c0, c)
        phases = phases.with_stage(ell, indices)
        evaluations += measurements
        stage_powers.append(received_power(effective_channel(channel, phases), params))
        ratios.append(_stage_diagnostic(c0, c))
    return BeamformingResult(
        method=method,
        assignment=phases,
        stage_powers=tuple(stage_powers),
        evaluations=evaluations,
        reflect_to_direct=tuple(ratios),
    )


def sequential_csm(channel: Channel, grids, samples_per_surface,
                   params: RadioParams, noise: NoiseModel = NOISELESS,
                   rng=None) -> BeamformingResult:
    """Blind sequential optimizer: one conditional-sample-mean pass per surface.

    Surfaces are processed in increasing index order; earlier decisions stay
    applied while later surfaces rest at phase index 0.  Stage ell draws its
    samples_per_surface probes uniformly, measures received power under the
    configured noise model, and keeps the per-element argmax of the
    conditional means.  Exactly sum(samples_per_surface) power measurements
    are taken, processed in chunks and never materialized whole.
    """
    L, n = dims(channel)
    ts = _normalize_t(samples_per_surface, L)
    if rng is None and noise.kind != "noiseless":
        raise ValueError("noisy measurement needs an rng")
    if rng is None:
        rng = np.random.default_rng(0)

    def decide(ell, grid, c0, c):
        lut = grid.factor_table()
        groups = _GroupSums(n, grid.num_levels)
        for start in range(0, ts[ell], _CHUNK):
            idx = generate_samples(n, grid, min(_CHUNK, ts[ell] - start), rng)
            groups.add(idx, received_power(c0 + lut[idx] @ c, params, noise, rng))
        return csm_decide(groups.table()), ts[ell]

    return _sequential("csm", channel, grids, params, decide)


def sequential_cpp_oracle(channel: Channel, grids,
                          params: Optional[RadioParams] = None) -> BeamformingResult:
    """Perfect-knowledge reference: per stage, project the ideal aligning
    phase of every element onto the grid.

    Takes no power measurements (evaluations = 0).  The ideal phase of
    element n at stage ell is angle(c0) - angle(c_n) with the current earlier
    decisions applied; elements with a zero path coefficient stay at index 0.
    """
    return _sequential("cpp", channel, grids, params or RadioParams(),
                       lambda ell, grid, c0, c: (cpp_decide(c0, c, grid), 0))


def random_beamforming(channel: Channel, grids, budget: int,
                       params: RadioParams, noise: NoiseModel = NOISELESS,
                       rng=None) -> BeamformingResult:
    """Joint random search: draw `budget` full assignments, keep the best
    measured one.  Ties keep the earliest draw."""
    if budget < 1:
        raise ValueError("budget must be positive")
    L, n = dims(channel)
    grids = as_grids(grids, L)
    if rng is None:
        raise ValueError("random beamforming needs an rng")
    best_power = -1.0
    best_idx = None
    done = 0
    while done < budget:
        b = min(budget - done, _CHUNK)
        done += b
        draws = [generate_samples(n, grids[ell], b, rng) for ell in range(L)]
        powers = received_power(effective_batch(channel, grids, draws), params, noise, rng)
        top = int(np.argmax(powers))
        if powers[top] > best_power:
            best_power = float(powers[top])
            best_idx = [d[top].copy() for d in draws]
    assignment = PhaseAssignment(grids, tuple(best_idx))
    final = received_power(effective_channel(channel, assignment), params)
    return BeamformingResult(
        method="random",
        assignment=assignment,
        stage_powers=(final,),
        evaluations=budget,
    )


def zero_phase_baseline(channel: Channel, params: RadioParams,
                        grids=None) -> BeamformingResult:
    """All phase shifts zero; the effective channel is the plain sum of path
    coefficients.  The grid only labels the result (index 0 exists in every
    grid), so it defaults to the smallest one."""
    L, n = dims(channel)
    grids = as_grids(grids if grids is not None else 2, L)
    assignment = PhaseAssignment.zeros(grids, n)
    final = received_power(effective_channel(channel, assignment), params)
    return BeamformingResult(
        method="zero",
        assignment=assignment,
        stage_powers=(final,),
        evaluations=0,
    )


def virtual_single_irs(channel: Channel, grids, total_samples: int,
                       params: RadioParams, noise: NoiseModel = NOISELESS,
                       rng=None) -> BeamformingResult:
    """Single-stage baseline that ignores the cascade structure.

    All L surfaces are treated as one long surface of L * N elements: every
    probe draws all phases jointly, and one conditional-sample-mean table over
    the L * N virtual elements decides everything at once.  Cross-surface
    product terms do not separate under joint uniform sampling, so this
    baseline only aligns what a single reflection can see.  Requires equal
    grids.  For L = 1 it coincides with the sequential scheme.
    """
    L, n = dims(channel)
    grids = as_grids(grids, L)
    if any(g.num_levels != grids[0].num_levels for g in grids):
        raise ValueError("virtual single-surface baseline needs equal grids")
    grid = grids[0]
    if total_samples < 1:
        raise ValueError("need at least one sample")
    if rng is None:
        rng = np.random.default_rng(0)
    wide = L * n
    groups = _GroupSums(wide, grid.num_levels)
    remaining = total_samples
    while remaining > 0:
        t = min(remaining, _CHUNK)
        remaining -= t
        idx = generate_samples(wide, grid, t, rng)
        draws = [idx[:, ell * n:(ell + 1) * n] for ell in range(L)]
        powers = received_power(effective_batch(channel, grids, draws), params, noise, rng)
        groups.add(idx, powers)
    decisions = csm_decide(groups.table())
    assignment = PhaseAssignment(
        grids, tuple(decisions[ell * n:(ell + 1) * n] for ell in range(L)))
    final = received_power(effective_channel(channel, assignment), params)
    return BeamformingResult(
        method="virtual_single",
        assignment=assignment,
        stage_powers=(final,),
        evaluations=total_samples,
    )
