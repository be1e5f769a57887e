"""Hand-constructed channels with known optima, and random instances that
satisfy the multi-surface scaling conditions by construction.

The example channels come in numbered pairs: each "bad" variant breaks one of
the double-surface conditions and caps the received power at quadratic growth
in N, while the "good" sibling satisfies them and reaches quartic growth.
All of them use parity-patterned coefficients so the optimal decisions have
closed forms; element counts must be odd (and at least 3) so the alternating
sums take their intended values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .channel import _BLOCK, CascadedChannelTensor, _check_tensor_size
from .conditions import RankOneFactors, _d2_holds, margin_budget, margin_rhs
from .phases import PhaseGrid, as_grids

EXAMPLE_IDS = (1, 2, 3)
EXAMPLE_VARIANTS = ("bad", "good")


@dataclass(frozen=True)
class ExampleFixture:
    """A constructed double-surface channel with its known optimum.

    expected_indices holds the per-surface phase decisions (grid indices)
    that a perfect-knowledge sequential optimizer makes, None where
    build_example does not state them.  boost_exponent is the growth order of
    the received power in N where stated: 2 for "bad", 4 for "good", else None.
    """

    example_id: int
    variant: str
    tensor: CascadedChannelTensor
    grids: tuple[PhaseGrid, ...]
    expected_indices: Optional[tuple[np.ndarray, np.ndarray]]
    boost_exponent: Optional[int]
    note: str = ""


def _parity_masks(n: int):
    elems = np.arange(1, n + 1)
    odd = elems % 2 == 1
    return odd, ~odd


def build_example(example_id: int, variant: str, num_elements: int,
                  beta: float = 1.0) -> ExampleFixture:
    """Construct one of the numbered double-surface example channels.

    num_elements must be odd and >= 3; beta > 0 scales the coefficients.
    The decisions and growth order are stated for any beta in example 1 and
    for beta = 1 only in examples 2 and 3, whose rounding boundaries and
    one-hop share of the power move with beta (expected_indices and
    boost_exponent are None there).
    """
    if example_id not in EXAMPLE_IDS:
        raise ValueError(f"example_id must be one of {EXAMPLE_IDS}")
    if variant not in EXAMPLE_VARIANTS:
        raise ValueError(f"variant must be one of {EXAMPLE_VARIANTS}")
    n = int(num_elements)
    if n % 2 == 0 or n < 3:
        raise ValueError("num_elements must be odd and at least 3")
    if not (beta > 0):
        raise ValueError("beta must be positive")
    _check_tensor_size(2, n)
    odd, even = _parity_masks(n)
    sign = np.where(odd, -1.0, 1.0)  # (-1)^n for n = 1..N
    entries = np.zeros((n + 1, n + 1), dtype=np.complex128)
    grids = (PhaseGrid(4), PhaseGrid(4))
    idx = {"zero": np.zeros(n, dtype=np.int64)}

    if example_id == 1:
        two_hop = beta * np.outer(sign, sign)
        if variant == "bad":
            entries[1:, 1:] = two_hop + 2.0 * beta * np.eye(n)
            expected = (idx["zero"], idx["zero"])
            note = "diagonal specular ridge breaks the outer-product structure"
        else:
            entries[1:, 1:] = two_hop
            pick = np.where(odd, 0, 2).astype(np.int64)
            expected = (pick, pick.copy())
            note = "pure parity outer product; both surfaces flip even elements"
    elif example_id == 2:
        u1 = math.sqrt(beta) * 1j * sign      # e^{j(n + 1/2) pi}
        u2 = math.sqrt(beta) * sign
        entries[1:, 1:] = np.outer(u1, u2)
        one_hop = np.where(
            odd,
            beta / 3.0 * np.exp(1j * math.pi / 4),
            math.sqrt(beta) / 3.0 * np.exp(-1j * math.pi / 4),
        )
        entries[1:, 0] = one_hop
        if variant == "bad":
            grids = (PhaseGrid(2), PhaseGrid(2))
            expected = (idx["zero"], np.where(odd, 0, 1).astype(np.int64))
            note = "binary grids lack the quarter turns the first surface needs"
        else:
            expected = (
                np.where(odd, 3, 1).astype(np.int64),
                np.where(odd, 0, 2).astype(np.int64),
            )
            note = ("quarter-turn grid recovers quartic growth despite the "
                    "parity-mixed one-hop magnitudes (beta/3 vs sqrt(beta)/3)")
    else:  # example 3: strong one-hop leakage through the first surface
        entries[1:, 0] = 2.0 * beta * 1j
        if variant == "bad":
            entries[1:, 1:] = beta * np.outer(sign, sign)
            expected = (
                np.full(n, 3, dtype=np.int64),
                np.where(odd, 1, 3).astype(np.int64),
            )
            note = "one-hop paths dominate the alternating two-hop rows"
        else:
            entries[1:, 1:] = beta
            expected = (idx["zero"], np.full(n, 1, dtype=np.int64))
            note = "constant two-hop rows outweigh the same one-hop leakage"
    exponent = 2 if variant == "bad" else 4
    if example_id != 1 and beta != 1:
        expected = exponent = None
    entries.flags.writeable = False
    return ExampleFixture(example_id, variant, CascadedChannelTensor(entries),
                          grids, expected, exponent, note)


@dataclass(frozen=True)
class DInstance:
    """Random multi-surface channel built to satisfy the scaling conditions.

    The all-active block is an outer product of unit-modulus factor vectors;
    every other entry is a_scale times a unit-modulus random phase, so the
    total leakage through any element is exactly a_scale times the count of
    its skip paths.  a_max is the largest leakage scale for which the margin
    inequality still admits some angle.
    """

    tensor: CascadedChannelTensor
    factors: RankOneFactors
    grids: tuple[PhaseGrid, ...]
    a_scale: float
    a_max: float


# a single surface has no skip-path constraints; cap the leakage scale at the
# unit path magnitude instead
_SINGLE_SURFACE_CAP = 1.0


def _unit_phases(rng, shape) -> np.ndarray:
    """np.exp(2j * pi * rng.random(shape)), bit for bit and RNG stream alike,
    built in place from _BLOCK uniforms at a time: no full-size temporary."""
    z = np.empty(shape, dtype=np.complex128)
    flat = z.reshape(-1)
    for b in range(0, flat.size, _BLOCK):
        np.multiply(2j * math.pi, rng.random(len(flat[b:b + _BLOCK])), out=flat[b:b + _BLOCK])
    return np.exp(z, out=z)


def _draw_factors(num_surfaces: int, num_elements: int, rng) -> RankOneFactors:
    """Unit-modulus factor vectors with i.i.d. uniform phases: the first draw
    of every instance."""
    return RankOneFactors.from_raw([_unit_phases(rng, num_elements)
                                    for _ in range(num_surfaces)])


def max_leakage_scale(num_surfaces: int, num_elements: int, grids,
                      factors: RankOneFactors,
                      gamma_points: int = 10**4) -> float:
    """Largest a_scale the margin inequality tolerates for unit-modulus
    leakage entries, scanning the valid margin angle range.

    The per-element leakage sum is a_scale * ((N+1)^(L-1) - N^(L-1)); the
    generator enforces the inequality for every surface index (the condition
    set only constrains surfaces before the last, but holding it everywhere
    keeps the ideal-phase targets well separated on all surfaces).
    """
    L, n = num_surfaces, num_elements
    if L == 1:
        return _SINGLE_SURFACE_CAP
    gamma_upper = (math.pi / (L - 1)) * margin_budget(grids)
    if gamma_upper <= 0.0:
        return 0.0
    skip_count = float((n + 1) ** (L - 1) - n ** (L - 1))
    gammas = np.linspace(0.0, gamma_upper, gamma_points, endpoint=False)[1:]
    bound = np.full(gammas.size, math.inf)
    for ell in range(L):
        rhs = margin_rhs(factors, grids, gammas, ell) * float(np.abs(factors.vectors[ell]).min())
        bound = np.minimum(bound, rhs / skip_count)
    return float(bound.max())


def check_d_grids(grids):
    """Raise ValueError unless the grids meet D2, the resolution requirements
    of make_d_instance: the last grid has at least 3 levels and the leading
    grids leave a positive margin budget."""
    if not _d2_holds(grids):
        raise ValueError(
            f"grids {[g.num_levels for g in grids]} violate the resolution requirements "
            "(last grid >= 3 levels and the leading grids' 1/K budget under 1/2)"
        )


def d_instance_a_max(num_surfaces: int, num_elements: int, grids, rng) -> float:
    """The a_max of the instance make_d_instance would draw from this rng,
    without building its tensor: the cap depends only on the factors."""
    return max_leakage_scale(num_surfaces, num_elements, as_grids(grids, num_surfaces),
                             _draw_factors(num_surfaces, num_elements, rng))


def make_d_instance(num_surfaces: int, num_elements: int, grids, rng,
                    a_scale: Optional[float] = None,
                    margin: float = 0.5) -> DInstance:
    """Draw a random channel that satisfies the multi-surface conditions.

    Factor vectors get i.i.d. uniform phases and unit modulus (so every
    per-surface mean element gain is exactly 1); all skip-path entries share
    the magnitude a_scale with i.i.d. uniform phases.  When a_scale is not
    given it defaults to margin * a_max.  An explicit a_scale above a_max is
    rejected so the returned instance always satisfies the conditions.
    """
    L, n = int(num_surfaces), int(num_elements)
    if L < 1 or n < 1:
        raise ValueError("need at least one surface and one element")
    _check_tensor_size(L, n)
    grids = as_grids(grids, L)
    check_d_grids(grids)
    if not (0.0 < margin <= 1.0):
        raise ValueError("margin must lie in (0, 1]")
    factors = _draw_factors(L, n, rng)
    entries = _unit_phases(rng, (n + 1,) * L)
    a_max = max_leakage_scale(L, n, grids, factors)
    if a_scale is None:
        a = margin * a_max
    else:
        a = float(a_scale)
        if a < 0:
            raise ValueError("a_scale must be nonnegative")
        if a > a_max * (1 + 1e-12):
            raise ValueError(
                f"a_scale {a:g} exceeds the largest feasible leakage scale "
                f"{a_max:g} for this draw"
            )
    # in place: skip paths by first skipped surface i, then outer_product()
    for i in range(L):
        entries[(slice(1, None),) * i + (0,)] *= a
    active = entries[(slice(1, None),) * L]
    active[...] = factors.vectors[0].reshape((n,) + (1,) * (L - 1))
    for i in range(1, L):
        active *= factors.vectors[i].reshape((n,) + (1,) * (L - 1 - i))
    entries.flags.writeable = False
    return DInstance(tensor=CascadedChannelTensor(entries), factors=factors, grids=grids,
                     a_scale=a, a_max=a_max)
