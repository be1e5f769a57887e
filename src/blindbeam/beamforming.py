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

A blind optimizer sees the channel only through one _Probe, the power meter
at the user terminal: it draws phase indices and measures received powers
with noise_draws noisy draws each (0 for noiseless, see ``received_power``)
from the given rng, and counts them.  ``BeamformingResult.evaluations`` is
that count, L * T for the sequential scheme and 0 for the references.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import (
    _BLOCK,
    Channel,
    RadioParams,
    dims,
    effective_batch,
    received_power,
    stage_coefficients,
)
from .phases import PhaseAssignment, PhaseGrid, as_grids, wrap_angle

# Probes per measurement chunk: each chunk draws its noise in one call, after
# all its phase indices, so this is the noise boundary of every RNG stream.
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

    Each block is binned by one bincount over the flat index n * K + k in
    row-major (sample, element) order, so every group accumulates its powers
    in sample order.  Callers add blocks of at most _BLOCK entries, which
    bounds the flat index and the repeated powers that add() builds.
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


class _Probe:
    """The power meter at the user terminal, a blind decision's one view of
    the channel.  `evaluate(index_blocks) -> (rows,) complex` is the
    simulated channel, set where the probe is built (per stage in
    _sequential).  measure() evaluates one (rows, width) index block per grid
    in row blocks of at most _BLOCK entries and measures every row in one
    received_power call, which draws the noise (noise_draws draws a row)
    after all the indices.  `count` adds up the powers measured."""

    def __init__(self, params: RadioParams, noise_draws: int, rng, evaluate=None):
        self.evaluate, self.count = evaluate, 0
        self._params, self._noise_draws, self._rng = params, noise_draws, rng

    def measure(self, index_blocks) -> np.ndarray:
        step = max(1, _BLOCK // sum(d.shape[1] for d in index_blocks))
        gains = np.concatenate([self.evaluate([d[b:b + step] for d in index_blocks])
                                for b in range(0, len(index_blocks[0]), step)])
        self.count += len(gains)
        return received_power(gains, self._params, self._noise_draws, self._rng)

    def measured_blocks(self, grids, width: int, total: int):
        """Yield (index blocks, powers) for `total` uniform probes, in row
        blocks of at most _BLOCK index entries.

        Probes are drawn and measured a chunk at a time: each grid's (rows,
        width) indices in turn, then one measure() call, which draws the
        chunk's noise.  A chunk holds _CHUNK probes when noise or another
        grid's draw follows its indices, and one block otherwise.  A chunk of
        one block yields the drawn int64 arrays themselves; only a chunk that
        spans several blocks is compacted, drawn in row blocks into one buffer
        per grid (uint8 when K <= 256).  A row-split draw returns the same
        indices as one draw, so the RNG stream is that of drawing each chunk
        whole.
        """
        step = max(1, _BLOCK // (len(grids) * width))
        chunk = _CHUNK if self._noise_draws or len(grids) > 1 else step
        for start in range(0, total, chunk):
            rows = min(chunk, total - start)
            if rows <= step:
                draws = [generate_samples(width, g, rows, self._rng) for g in grids]
            else:
                draws = [np.empty((rows, width), np.uint8 if g.num_levels <= 256 else np.int64)
                         for g in grids]
                for d, g in zip(draws, grids):
                    for b in range(0, rows, step):
                        d[b:b + step] = generate_samples(width, g, len(d[b:b + step]), self._rng)
            powers = self.measure(draws)
            for b in range(0, rows, step):
                yield [d[b:b + step] for d in draws], powers[b:b + step]


def _sequential(channel: Channel, grids, decide, probe: _Probe | None = None) -> BeamformingResult:
    """Configure the surfaces one at a time, in increasing index order.

    Stage ell holds the earlier surfaces at their decisions and the later
    ones at phase index 0, and decide(grid, view) -> indices configures
    surface ell.  Without a probe the view is the stage coefficients
    (c0, c); with one it is the probe, set to measure the stage channel, so
    the decider sees powers only.
    """
    L, n = dims(channel)
    grids = as_grids(grids, L)
    phases = PhaseAssignment.zeros(grids, n)
    for ell in range(L):
        c0, c = stage_coefficients(channel, phases, ell)
        if probe is not None:
            lut = grids[ell].factor_table()
            probe.evaluate = lambda d: c0 + lut[d[0]] @ c
        phases = phases.with_stage(ell, decide(grids[ell], (c0, c) if probe is None else probe))
    return BeamformingResult(phases, 0 if probe is None else probe.count)


def _csm_means(width: int, grid: PhaseGrid, total: int, probe: _Probe) -> np.ndarray:
    """(width, K) conditional means of `total` uniform probes of `width`
    elements on one grid, binned block by block as probe.measured_blocks
    yields them; they equal the means of whole _CHUNK chunks."""
    groups = _GroupSums(width, grid.num_levels)
    for (idx,), powers in probe.measured_blocks((grid,), width, total):
        groups.add(idx, powers)
    return groups.means()


def sequential_csm(channel: Channel, grids, samples_per_surface: int,
                   params: RadioParams, noise_draws: int, rng) -> BeamformingResult:
    """Blind sequential optimizer: one conditional-sample-mean pass per surface.

    Surfaces are processed in increasing index order; earlier decisions stay
    applied while later surfaces rest at phase index 0.  Stage ell draws its
    samples_per_surface probes uniformly, measures received power with
    noise_draws noisy draws each, and keeps the per-element argmax of the
    conditional means.  Exactly L * samples_per_surface power measurements
    are taken and never materialized whole: the working set is one chunk of
    indices (_CHUNK probes in a compact buffer when noisy, one drawn block
    when noiseless) plus temporaries of at most _BLOCK entries (see _Probe).
    """
    n = dims(channel)[1]
    return _sequential(channel, grids, lambda grid, probe: csm_decide(
        _csm_means(n, grid, samples_per_surface, probe)), _Probe(params, noise_draws, rng))


def sequential_cpp_oracle(channel: Channel, grids) -> BeamformingResult:
    """Perfect-knowledge reference: per stage, project the ideal aligning
    phase of every element onto the grid.

    Takes no power measurements (evaluations = 0).  The ideal phase of
    element n at stage ell is angle(c0) - angle(c_n) with the current earlier
    decisions applied; elements with a zero path coefficient stay at index 0.
    """
    return _sequential(channel, grids, lambda grid, stage: cpp_decide(*stage, grid))


def random_beamforming(channel: Channel, grids, budget: int, params: RadioParams,
                       noise_draws: int, rng) -> BeamformingResult:
    """Joint random search: draw `budget` full assignments, keep the best
    measured one.  Ties keep the earliest draw.  The working set is one
    chunk's L compact index buffers plus temporaries of at most _BLOCK
    entries (see _Probe.measured_blocks)."""
    if budget < 1:
        raise ValueError("budget must be positive")
    L, n = dims(channel)
    grids = as_grids(grids, L)
    probe = _Probe(params, noise_draws, rng, lambda d: effective_batch(channel, grids, d))
    best_power = -1.0
    for draws, powers in probe.measured_blocks(grids, n, budget):
        top = int(np.argmax(powers))
        if powers[top] > best_power:
            best_power = float(powers[top])
            best_idx = tuple(d[top].copy() for d in draws)
    return BeamformingResult(PhaseAssignment(grids, best_idx), probe.count)


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
    probe = _Probe(params, noise_draws, rng,
                   lambda d: effective_batch(channel, grids, np.split(d[0], L, axis=1)))
    decisions = np.split(csm_decide(_csm_means(L * n, grids[0], total_samples, probe)), L)
    return BeamformingResult(PhaseAssignment(grids, tuple(decisions)), probe.count)
