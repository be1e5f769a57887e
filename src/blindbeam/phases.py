"""Discrete phase grids and per-surface phase assignments.

Each reflecting surface quantizes its phase shifts to a uniform grid of K
points on the unit circle.  Phases are stored as integer grid indices; the
radian value of index k is k * (2*pi/K).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class PhaseGrid:
    """Uniform K-point phase grid {0, omega, ..., (K-1)*omega}, omega = 2*pi/K."""

    num_levels: int

    def __post_init__(self):
        if not isinstance(self.num_levels, (int, np.integer)):
            raise TypeError(f"num_levels must be an integer, got {self.num_levels!r}")
        if self.num_levels < 2:
            raise ValueError(f"a phase grid needs at least 2 levels, got {self.num_levels}")
        object.__setattr__(self, "num_levels", int(self.num_levels))

    @property
    def omega(self) -> float:
        return TWO_PI / self.num_levels

    def values(self) -> np.ndarray:
        """All grid phases in radians, shape (K,)."""
        return np.arange(self.num_levels) * self.omega

    def phase(self, index):
        """Radian value of a grid index (scalar or array)."""
        return np.asarray(index) * self.omega

    def factor_table(self) -> np.ndarray:
        """Reflection factors exp(j * omega * k) for k = 0..K-1, shape (K,).

        table[idx] equals np.exp(1j * omega * idx) bit for bit, and a gather
        from K entries is far cheaper than a complex exp per element, so
        every evaluator takes its factors from here.
        """
        return np.exp(1j * self.omega * np.arange(self.num_levels))

    def check_indices(self, indices: np.ndarray, what: str):
        """Raise ValueError unless `indices` is an integer array with every
        value in [0, K)."""
        if not np.issubdtype(indices.dtype, np.integer):
            raise ValueError(f"{what}: phase indices must be integers, got {indices.dtype}")
        if indices.min(initial=0) < 0 or indices.max(initial=0) >= self.num_levels:
            raise ValueError(f"{what}: indices must lie in [0, {self.num_levels})")


def as_grids(grids, num_surfaces: int) -> tuple[PhaseGrid, ...]:
    """Normalize a PhaseGrid, an int, or a per-surface sequence to a tuple of length num_surfaces."""
    if isinstance(grids, PhaseGrid):
        return (grids,) * num_surfaces
    if isinstance(grids, (int, np.integer)):
        return (PhaseGrid(int(grids)),) * num_surfaces
    out = tuple(g if isinstance(g, PhaseGrid) else PhaseGrid(int(g)) for g in grids)
    if len(out) != num_surfaces:
        raise ValueError(f"expected {num_surfaces} grids, got {len(out)}")
    return out


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class PhaseAssignment:
    """Phase indices for every element of every surface.

    indices[ell] is an integer vector of length N with values in
    [0, grids[ell].num_levels).  Surfaces are numbered 0..L-1 here; textual
    output uses 1-based surface labels.
    """

    grids: tuple[PhaseGrid, ...]
    indices: tuple[np.ndarray, ...]

    def __post_init__(self):
        grids = tuple(self.grids)
        if not grids:
            raise ValueError("need at least one surface")
        if len(self.indices) != len(grids):
            raise ValueError(
                f"{len(grids)} grids but {len(self.indices)} index vectors"
            )
        frozen = []
        n = None
        for ell, (g, idx) in enumerate(zip(grids, self.indices)):
            a = np.asarray(idx, dtype=np.int64)
            if a.ndim != 1:
                raise ValueError(f"surface {ell + 1}: index vector must be 1-D")
            if n is None:
                n = a.size
            elif a.size != n:
                raise ValueError("all surfaces must have the same number of elements")
            if a.size == 0:
                raise ValueError("surfaces must have at least one element")
            g.check_indices(a, f"surface {ell + 1}")
            frozen.append(_freeze(a))
        object.__setattr__(self, "grids", grids)
        object.__setattr__(self, "indices", tuple(frozen))

    @property
    def num_surfaces(self) -> int:
        return len(self.grids)

    @property
    def num_elements(self) -> int:
        return self.indices[0].size

    @classmethod
    def zeros(cls, grids: Sequence[PhaseGrid], num_elements: int) -> "PhaseAssignment":
        grids = tuple(grids)
        return cls(grids, tuple(np.zeros(num_elements, dtype=np.int64) for _ in grids))

    def phase_values(self, ell: int) -> np.ndarray:
        """Radian phases of surface ell, shape (N,)."""
        return self.indices[ell] * self.grids[ell].omega

    def factors(self, ell: int) -> np.ndarray:
        """Unit-modulus reflection factors e^{j*theta} of surface ell, shape (N,)."""
        return self.grids[ell].factor_table()[self.indices[ell]]

    def factors_with_skip(self, ell: int) -> np.ndarray:
        """[1, e^{j*theta_1}, ..., e^{j*theta_N}]: entry 0 is the skip state."""
        return np.concatenate(([1.0 + 0.0j], self.factors(ell)))

    def with_stage(self, ell: int, indices: Iterable[int]) -> "PhaseAssignment":
        """Copy with surface ell replaced by the given index vector."""
        new = list(self.indices)
        new[ell] = np.asarray(list(indices) if not isinstance(indices, np.ndarray) else indices,
                              dtype=np.int64)
        return PhaseAssignment(self.grids, tuple(new))


def wrap_angle(x):
    """Wrap radians to (-pi, pi]."""
    x = np.asarray(x, dtype=float)
    out = np.mod(x + math.pi, TWO_PI) - math.pi
    # np.mod maps exact odd multiples of pi to -pi; fold them to +pi
    out = np.where(out == -math.pi, math.pi, out)
    if out.ndim == 0:
        return float(out)
    return out
