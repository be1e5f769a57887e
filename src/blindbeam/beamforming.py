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

Every optimizer returns its assignment and the number of power measurements
it took (``BeamformingResult.evaluations``); the sequential scheme takes
exactly samples_per_surface measurements per surface, L * T total.  The
blind optimizers measure with noise_draws noisy draws per measurement (0 for
noiseless, see ``received_power``) from the rng they are given.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import (
    Channel,
    RadioParams,
    dims,
    effective_batch,
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

    def means(self) -> np.ndarray:
        """(N, K) conditional means: means[n, k] averages the measured power
        over the samples where element n+1 used phase index k.  An empty
        group raises EmptyGroupError before the division."""
        counts = self.counts.reshape(self.shape)
        if np.any(counts < 1):
            bad = np.argwhere(counts < 1)[0]
            raise EmptyGroupError(int(bad[0]), int(bad[1]))
        return self.sums.reshape(self.shape) / counts


@dataclass(frozen=True)
class BeamformingResult:
    """Outcome of one optimizer run: the decided assignment and the number of
    power measurements taken to reach it."""

    assignment: PhaseAssignment
    evaluations: int


def generate_samples(num_elements: int, grid: PhaseGrid, num_samples: int, rng) -> np.ndarray:
    """Uniform i.i.d. phase indices, shape (T, N)."""
    if num_samples < 1:
        raise ValueError("need at least one sample")
    return rng.integers(0, grid.num_levels, size=(num_samples, num_elements), dtype=np.int64)


def csm_decide(means: np.ndarray, rel_tol: float = 1e-9) -> np.ndarray:
    """Per-element argmax of (N, K) conditional means.

    Ties within rel_tol of the row maximum go to the smallest phase index, so
    exactly flat rows decide deterministically.
    """
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


def _sequential(channel: Channel, grids, decide) -> BeamformingResult:
    """Configure the surfaces one at a time, in increasing index order.

    Stage ell holds the earlier surfaces at their decisions and the later
    ones at phase index 0, computes the stage coefficients (c0, c) of
    surface ell, and applies decide(grid, c0, c) -> (indices, measurements),
    which returns the surface's phase indices and the number of power
    measurements it took.
    """
    L, n = dims(channel)
    grids = as_grids(grids, L)
    phases = PhaseAssignment.zeros(grids, n)
    evaluations = 0
    for ell in range(L):
        c0, c = stage_coefficients(channel, phases, ell)
        indices, measurements = decide(grids[ell], c0, c)
        phases = phases.with_stage(ell, indices)
        evaluations += measurements
    return BeamformingResult(phases, evaluations)


def sequential_csm(channel: Channel, grids, samples_per_surface: int,
                   params: RadioParams, noise_draws: int, rng) -> BeamformingResult:
    """Blind sequential optimizer: one conditional-sample-mean pass per surface.

    Surfaces are processed in increasing index order; earlier decisions stay
    applied while later surfaces rest at phase index 0.  Stage ell draws its
    samples_per_surface probes uniformly, measures received power with
    noise_draws noisy draws each, and keeps the per-element argmax of the
    conditional means.  Exactly L * samples_per_surface power measurements
    are taken, processed in chunks and never materialized whole.
    """
    n = dims(channel)[1]
    t = samples_per_surface

    def decide(grid, c0, c):
        lut = grid.factor_table()
        groups = _GroupSums(n, grid.num_levels)
        for start in range(0, t, _CHUNK):
            idx = generate_samples(n, grid, min(_CHUNK, t - start), rng)
            groups.add(idx, received_power(c0 + lut[idx] @ c, params, noise_draws, rng))
        return csm_decide(groups.means()), t

    return _sequential(channel, grids, decide)


def sequential_cpp_oracle(channel: Channel, grids) -> BeamformingResult:
    """Perfect-knowledge reference: per stage, project the ideal aligning
    phase of every element onto the grid.

    Takes no power measurements (evaluations = 0).  The ideal phase of
    element n at stage ell is angle(c0) - angle(c_n) with the current earlier
    decisions applied; elements with a zero path coefficient stay at index 0.
    """
    return _sequential(channel, grids, lambda grid, c0, c: (cpp_decide(c0, c, grid), 0))


def random_beamforming(channel: Channel, grids, budget: int, params: RadioParams,
                       noise_draws: int, rng) -> BeamformingResult:
    """Joint random search: draw `budget` full assignments, keep the best
    measured one.  Ties keep the earliest draw."""
    if budget < 1:
        raise ValueError("budget must be positive")
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


def zero_phase_baseline(channel: Channel, grids) -> BeamformingResult:
    """All phase shifts zero; the effective channel is the plain sum of path
    coefficients.  Takes no measurements."""
    L, n = dims(channel)
    return BeamformingResult(PhaseAssignment.zeros(as_grids(grids, L), n), 0)


def virtual_single_irs(channel: Channel, grids, total_samples: int, params: RadioParams,
                       noise_draws: int, rng) -> BeamformingResult:
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
    groups = _GroupSums(L * n, grids[0].num_levels)
    for start in range(0, total_samples, _CHUNK):
        idx = generate_samples(L * n, grids[0], min(_CHUNK, total_samples - start), rng)
        draws = np.split(idx, L, axis=1)
        groups.add(idx, received_power(effective_batch(channel, grids, draws), params,
                                       noise_draws, rng))
    decisions = np.split(csm_decide(groups.means()), L)
    return BeamformingResult(PhaseAssignment(grids, tuple(decisions)), total_samples)
