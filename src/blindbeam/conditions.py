"""Channel conditions under which the blind scheme provably scales.

For a double-surface system the strong conditions are:

  C1  the two-hop coefficient block h[n1, n2] (n1, n2 >= 1) is an outer
      product u1[n1] * u2[n2] with every factor entry nonzero;
  C2  both phase grids have at least 3 levels;
  C3  the one-hop coefficients through surface 1 are weak relative to the
      two-hop row sums: gamma_min = max_m arcsin(|h[m,0]| / |sum_n h[m,n]|)
      stays below pi/2 - pi/K1.

The zero-leakage variant (C'1..C'3) asks instead for continuous phases and
for the direct and one-hop coefficients to vanish outright.

For L surfaces the generalization (D1..D3) factors the full-path block
h[n1..nL] = prod u_ell[n_ell], bounds the grid resolutions, and requires a
margin angle gamma such that every "leakage" sum (paths using element m of
surface ell but skipping some later or earlier surface) is dominated by the
aligned path mass through that element.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .channel import CascadedChannelTensor, Channel, contract, dims
from .phases import PhaseAssignment, as_grids, wrap_angle

DEFAULT_TOL = 1e-8
DEFAULT_GAMMA_POINTS = 10**4
# float slack when comparing the leakage inequality at a grid point
_SLACK = 1e-12


@dataclass(frozen=True)
class RankOneFactors:
    """Per-surface factor vectors of the full-path coefficient block.

    Gauge convention: vectors[0..L-2] each start with a real nonnegative
    entry; vectors[L-1] absorbs the accumulated phase.  Only phases are
    gauged, so factor magnitudes are whatever the caller supplied.
    """

    vectors: tuple[np.ndarray, ...]

    def __post_init__(self):
        vs = []
        n = None
        for v in self.vectors:
            a = np.array(v, dtype=np.complex128, copy=True)
            if a.ndim != 1 or a.size < 1:
                raise ValueError("factor vectors must be nonempty 1-D arrays")
            if n is None:
                n = a.size
            elif a.size != n:
                raise ValueError("factor vectors must share a common length")
            a.flags.writeable = False
            vs.append(a)
        if not vs:
            raise ValueError("need at least one factor vector")
        for v in vs[:-1]:
            lead = v[0]
            if abs(lead.imag) > 1e-9 * max(1.0, abs(lead)) or lead.real < -1e-12:
                raise ValueError(
                    "gauge violation: leading factors must start with a real "
                    "nonnegative entry (use RankOneFactors.from_raw)"
                )
        object.__setattr__(self, "vectors", tuple(vs))

    @property
    def num_surfaces(self) -> int:
        return len(self.vectors)

    @property
    def num_elements(self) -> int:
        return self.vectors[0].size

    @classmethod
    def from_raw(cls, vectors) -> "RankOneFactors":
        """Gauge-fix arbitrary factor vectors without changing their outer
        product: rotate each leading vector so its first entry is real
        nonnegative, pushing the accumulated phase into the last vector."""
        vs = [np.asarray(v, dtype=np.complex128).copy() for v in vectors]
        carry = 1.0 + 0.0j
        for i in range(len(vs) - 1):
            lead = vs[i][0]
            if lead != 0:
                rot = lead / abs(lead)
                vs[i] /= rot
                carry *= rot
        vs[-1] = vs[-1] * carry
        return cls(tuple(vs))

    def outer_product(self) -> np.ndarray:
        """Reconstructed block, shape (N,) * L."""
        out = self.vectors[0]
        for v in self.vectors[1:]:
            out = np.multiply.outer(out, v)
        return out

    def mean_gains(self) -> tuple[float, ...]:
        """Per-surface mean element gain (1/N) * sum |u[n]|."""
        return tuple(float(np.mean(np.abs(v))) for v in self.vectors)

    def coherent_sums(self) -> np.ndarray:
        return np.array([np.abs(v.sum()) for v in self.vectors])

    def absolute_sums(self) -> np.ndarray:
        return np.array([np.abs(v).sum() for v in self.vectors])


@dataclass(frozen=True)
class RankOneCheck:
    passed: bool
    factors: Optional[RankOneFactors]
    singular_ratio: float
    residual_rel: float
    reason: Optional[str] = None


def check_rank_one(matrix, tol: float = DEFAULT_TOL) -> RankOneCheck:
    """Test whether an (N, N) coefficient block is an outer product with all
    entries nonzero; on success return the gauge-fixed factors.

    Rank is judged by the singular value ratio s2/s1 <= tol; entries of a
    recovered factor count as zero below tol times the vector's peak.
    """
    m = np.asarray(matrix, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("expected a square matrix")
    factors, residual, ratio = recover_full_path_factors(m)
    if factors is None:
        return RankOneCheck(False, None, math.inf, math.inf, "zero matrix")
    if ratio > tol:
        return RankOneCheck(False, factors, ratio, residual,
                            f"singular value ratio {ratio:.3e} above {tol:.1e}")
    zero = _zero_entry(factors, tol)
    return RankOneCheck(zero is None, factors, ratio, residual, zero)


def _zero_entry(factors: RankOneFactors, tol: float) -> Optional[str]:
    """'factor i entry n is zero' for the first factor entry at or below tol
    times its vector's peak magnitude, or None when there is none."""
    for which, v in enumerate(factors.vectors):
        mags = np.abs(v)
        if mags.min() <= tol * mags.max():
            return f"factor {which + 1} entry {int(np.argmin(mags)) + 1} is zero"
    return None


def recover_full_path_factors(block: np.ndarray):
    """Peel per-surface factors off an all-active coefficient block.

    Returns (factors, residual_rel, worst_singular_ratio); factors is None
    when some unfolding is rank-deficient to working precision.
    """
    w = np.asarray(block, dtype=np.complex128)
    scale = float(np.abs(w).max())
    if scale == 0.0:
        return None, math.inf, math.inf
    vectors = []
    rest = w
    worst_ratio = 0.0
    while rest.ndim > 1:
        m = rest.reshape(rest.shape[0], -1)
        u_mat, s, _ = np.linalg.svd(m, full_matrices=False)
        if s[0] == 0.0:
            return None, math.inf, math.inf
        if s.size > 1:
            worst_ratio = max(worst_ratio, float(s[1] / s[0]))
        u = u_mat[:, 0]
        vectors.append(u)
        rest = np.tensordot(np.conj(u), rest, axes=(0, 0))
    vectors.append(rest)
    factors = RankOneFactors.from_raw(vectors)
    residual = float(np.abs(w - factors.outer_product()).max() / scale)
    return factors, residual, worst_ratio


def _leakage_sums(magnitudes: np.ndarray, surface: int) -> np.ndarray:
    """sum |h| over the leakage paths of every element of `surface` (paths
    through element m that skip at least one other surface), given
    magnitudes = |h|: the through-slice totals minus the all-active ones, one
    axis-sum each.  Entry m-1 belongs to element m."""
    others = tuple(i for i in range(magnitudes.ndim) if i != surface)
    through = magnitudes.sum(axis=others)[1:]
    active = magnitudes[(slice(1, None),) * magnitudes.ndim].sum(axis=others)
    return through - active


def leakage_abs_sum(tensor: CascadedChannelTensor, surface: int, element: int) -> float:
    """sum |h| over the leakage paths of (surface, element): the paths
    through that element which skip at least one other surface."""
    if not (0 <= surface < tensor.num_surfaces and 1 <= element <= tensor.num_elements):
        raise ValueError("surface or element index out of range")
    return float(_leakage_sums(np.abs(tensor.entries), surface)[element - 1])


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of a condition-set check.

    subconditions maps short labels to booleans; the overall verdict is their
    conjunction.  gamma_min is the smallest workable margin angle in radians
    (None when infeasible), gamma_upper the exclusive upper end of the valid
    range.  delta holds per-surface mean element gains when factors are
    known.  margins carry signed slack diagnostics (positive = satisfied).
    """

    condition_set: str
    subconditions: dict
    gamma_min: Optional[float] = None
    gamma_upper: Optional[float] = None
    delta: Optional[tuple] = None
    margins: dict = field(default_factory=dict)
    notes: tuple = ()

    @property
    def passed(self) -> bool:
        return all(self.subconditions.values())


def _require_tensor(channel) -> CascadedChannelTensor:
    if not isinstance(channel, CascadedChannelTensor):
        raise TypeError("condition checks need the dense tensor form")
    return channel


def gamma_min_double(tensor: CascadedChannelTensor):
    """Smallest workable margin angle of a double-surface system.

    Per element m of the first surface the leakage ratio is
    |h[m, 0]| / |sum_n h[m, n]|; gamma_min = arcsin of the largest ratio.
    Returns (gamma_min, ratios); gamma_min is None when some ratio exceeds 1
    or a nonzero one-hop coefficient sits on a zero two-hop row sum.
    """
    t = _require_tensor(tensor)
    if t.num_surfaces != 2:
        raise ValueError("gamma_min_double needs exactly two surfaces")
    one_hop = np.abs(t.entries[1:, 0])
    row_sums = np.abs(t.entries[1:, 1:].sum(axis=1))
    # a nonzero one-hop coefficient on a zero row sum also exceeds it
    infeasible = one_hop > row_sums
    ratios = np.divide(one_hop, row_sums, out=np.zeros_like(one_hop),
                       where=(one_hop != 0.0) & ~infeasible)
    ratios[infeasible] = math.inf
    if infeasible.any():
        return None, ratios
    return float(np.arcsin(ratios.max())), ratios


def check_c_conditions(tensor: CascadedChannelTensor, grids,
                       tol: float = DEFAULT_TOL) -> ConditionReport:
    """C1..C3 for a double-surface system."""
    t = _require_tensor(tensor)
    if t.num_surfaces != 2:
        raise ValueError("C conditions apply to exactly two surfaces")
    grids = as_grids(grids, 2)
    k1, k2 = grids[0].num_levels, grids[1].num_levels
    rank = check_rank_one(t.entries[1:, 1:], tol)
    c2 = k1 >= 3 and k2 >= 3
    gamma_upper = math.pi / 2 - math.pi / k1
    gamma_min, _ratios = gamma_min_double(t)
    c3 = gamma_min is not None and gamma_min < gamma_upper
    margins = {
        "c1_singular_ratio": rank.singular_ratio,
        "c2_levels": float(min(k1, k2) - 3),
        "c3_slack": (-math.inf if gamma_min is None else gamma_upper - gamma_min),
    }
    notes = () if rank.reason is None else (f"c1: {rank.reason}",)
    return ConditionReport(
        condition_set="C",
        subconditions={"c1": rank.passed, "c2": c2, "c3": c3},
        gamma_min=gamma_min,
        gamma_upper=gamma_upper,
        delta=None if rank.factors is None else rank.factors.mean_gains(),
        margins=margins,
        notes=notes,
    )


def check_cprime(tensor: CascadedChannelTensor, grids, zero_tol: float = 0.0,
                 continuous: bool = False) -> ConditionReport:
    """Zero-leakage variant for a double-surface system.

    C'1: two-hop block is rank one with nonzero entries.
    C'2: phases are continuous; discrete grids cannot satisfy this, so it
         passes only when the caller asserts the continuous idealization.
    C'3: the direct and every one-hop coefficient vanish (within zero_tol).
    """
    t = _require_tensor(tensor)
    if t.num_surfaces != 2:
        raise ValueError("the zero-leakage conditions apply to exactly two surfaces")
    grids = as_grids(grids, 2)
    rank = check_rank_one(t.entries[1:, 1:])
    worst_leak = max(
        abs(t.direct),
        float(np.abs(t.entries[1:, 0]).max()),
        float(np.abs(t.entries[0, 1:]).max()),
    )
    cp3 = worst_leak <= zero_tol
    notes = [
        "c'2 is a modeling assumption: it holds only in the continuous-phase "
        "idealization, never for a finite grid",
    ]
    if rank.reason is not None:
        notes.append(f"c'1: {rank.reason}")
    return ConditionReport(
        condition_set="Cprime",
        subconditions={"c'1": rank.passed, "c'2": bool(continuous), "c'3": cp3},
        gamma_min=0.0 if cp3 else None,
        gamma_upper=None,
        delta=None if rank.factors is None else rank.factors.mean_gains(),
        margins={
            "c'1_singular_ratio": rank.singular_ratio,
            "c'3_slack": zero_tol - worst_leak,
        },
        notes=tuple(notes),
    )


def margin_budget(grids) -> float:
    """D2's resolution budget 1/2 - sum_{ell < L} 1/K_ell over the grids of
    all L surfaces; the margin angle ranges over [0, pi/(L-1) * budget)."""
    return 0.5 - sum(1.0 / g.num_levels for g in grids[:-1])


def margin_rhs(factors: RankOneFactors, grids, gammas: np.ndarray, ell: int) -> np.ndarray:
    """Right-hand side of the margin inequality for surface ell (0-based) at
    each margin angle gamma, divided by the element gain |u_ell[m]|.

    The inequality at margin gamma, for element m of surface ell, is

        leakage(ell, m) <= |u_ell[m]| * sin(gamma)
                           * prod_{i > ell} |sum_n u_i[n]|
                           * prod_{i < ell} (sum_n |u_i[n]|) * cos(gamma + pi/K_i).

    The later-surface factors enter coherently (their phases will be aligned
    when surface ell is decided) while earlier surfaces contribute their
    rounded mass, hence the per-factor grid penalty pi/K_i.
    """
    later = float(np.prod(factors.coherent_sums()[ell + 1:]))
    absolute = factors.absolute_sums()
    earlier = np.ones_like(gammas)
    for i in range(ell):
        earlier = earlier * absolute[i] * np.cos(gammas + math.pi / grids[i].num_levels)
    return np.sin(gammas) * later * earlier


def _d3_scan(tensor: CascadedChannelTensor, factors: RankOneFactors, grids,
             gamma_points: int):
    """Scan the margin angle range for the margin inequality (margin_rhs) on
    every surface before the last.

    Returns (feasible, gamma_min, gamma_upper, best_slack).
    """
    L = tensor.num_surfaces
    gamma_upper = (math.pi / (L - 1)) * margin_budget(grids)
    mags = np.abs(tensor.entries)
    leak = np.array([_leakage_sums(mags, ell) for ell in range(L - 1)])
    scale = max(1.0, float(mags.max()))
    del mags  # free |h| before the (gamma, N) scan temporaries
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


def check_d_conditions(tensor: CascadedChannelTensor, grids,
                       factors: Optional[RankOneFactors] = None,
                       tol: float = DEFAULT_TOL,
                       gamma_points: int = DEFAULT_GAMMA_POINTS) -> ConditionReport:
    """D1..D3 for a system of L >= 2 surfaces.

    D1: the all-active coefficient block factors into per-surface vectors
        with every entry nonzero (factors are recovered when not supplied).
    D2: the last grid has >= 3 levels and sum_{ell<L} 1/K_ell < 1/2.
    D3: some margin angle gamma in [0, gamma_upper) satisfies the leakage
        inequality for every (surface < L, element).
    """
    t = _require_tensor(tensor)
    L, n = dims(t)
    if L < 2:
        raise ValueError("the multi-surface conditions need at least two surfaces")
    grids = as_grids(grids, L)
    block = t.entries[(slice(1, None),) * L]
    notes = []
    if factors is None:
        factors, residual, ratio = recover_full_path_factors(block)
        if factors is None:
            notes.append("d1: all-active block is numerically zero")
    else:
        if factors.num_surfaces != L or factors.num_elements != n:
            raise ValueError("factor dimensions do not match the tensor")
        scale = float(np.abs(block).max())
        residual = (math.inf if scale == 0.0 else
                    float(np.abs(block - factors.outer_product()).max() / scale))
        ratio = 0.0
    zero = None if factors is None else _zero_entry(factors, tol)
    if zero is not None:
        notes.append(f"d1: {zero}")
    d1 = factors is not None and residual <= tol and zero is None
    budget = margin_budget(grids)
    d2 = grids[-1].num_levels >= 3 and budget > 0.0
    if factors is not None:
        d3, gamma_min, gamma_upper, best_slack = _d3_scan(t, factors, grids, gamma_points)
    else:
        d3, gamma_min, gamma_upper, best_slack = False, None, None, -math.inf
    return ConditionReport(
        condition_set="D",
        subconditions={"d1": d1, "d2": d2, "d3": d3},
        gamma_min=gamma_min,
        gamma_upper=gamma_upper,
        delta=None if factors is None else factors.mean_gains(),
        margins={
            "d1_residual": residual,
            "d1_singular_ratio": ratio,
            "d2_budget": budget,
            "d2_last_levels": float(grids[-1].num_levels - 3),
            "d3_best_slack": best_slack,
        },
        notes=tuple(notes),
    )


def theta_hat_star_all(channel: Channel, factors: RankOneFactors,
                       decided: PhaseAssignment, ell: int) -> np.ndarray:
    """Ideal aligning phases of every element of surface ell, given the
    decisions already made for surfaces before it (later surfaces at phase 0).

    For element n the target is

        angle(S0) - angle(u_ell[n]) - angle(E_n / u_ell[n])

    where S0 aggregates every path skipping surface ell and E_n aggregates
    the all-active paths through element n.  Zero aggregates take angle 0,
    matching the deciders' convention.
    """
    t = _require_tensor(channel)
    L, n = dims(t)
    if not (0 <= ell < L):
        raise ValueError(f"surface index {ell} out of range")
    if factors.num_surfaces != L or factors.num_elements != n:
        raise ValueError("factor dimensions do not match the channel")
    # earlier surfaces at their decisions, later ones at phase 0
    rows = [(decided.factors_with_skip(i) if i < ell
             else np.ones(n + 1, dtype=np.complex128))[None, :] for i in range(L)]
    # paths that skip surface ell
    s0 = complex(contract(t.entries, rows, keep=ell)[0, 0])
    # all-active paths, split by the element of surface ell
    e_by_element = contract(t.entries[(slice(1, None),) * L], [r[:, 1:] for r in rows],
                            keep=ell)[0]
    if np.any(e_by_element == 0):
        bad = int(np.argmax(e_by_element == 0))
        raise ValueError(
            f"all-active aggregate of surface {ell + 1}, element {bad + 1} is "
            "zero; the ideal phase is undefined there"
        )
    u = factors.vectors[ell]
    target = (np.angle(s0) - np.angle(u) - np.angle(e_by_element / u))
    return wrap_angle(target)


@dataclass(frozen=True)
class Lemma1Report:
    """Per-element comparison of decided phases against the ideal targets.

    For every surface the decided phase must land within gamma + pi/K of the
    ideal one; violations lists (surface, element, deviation, bound)."""

    all_ok: bool
    max_deviation: float
    gamma: float
    per_surface: tuple
    violations: tuple


def lemma1_verify(channel: Channel, factors: RankOneFactors, grids,
                  assignment: PhaseAssignment, gamma: float,
                  slack: float = 1e-9) -> Lemma1Report:
    """Check that every decided phase lies within gamma + pi/K_ell of its
    ideal target, replaying the sequential decision state surface by surface."""
    t = _require_tensor(channel)
    L, n = dims(t)
    grids = as_grids(grids, L)
    if not (0.0 <= gamma):
        raise ValueError("gamma must be nonnegative")
    per_surface = []
    violations = []
    worst = 0.0
    for ell in range(L):
        targets = theta_hat_star_all(t, factors, assignment, ell)
        decided = assignment.phase_values(ell)
        dev = np.abs(wrap_angle(decided - targets))
        bound = gamma + math.pi / grids[ell].num_levels
        worst = max(worst, float(dev.max()))
        per_surface.append({
            "surface": ell + 1,
            "bound": bound,
            "max_deviation": float(dev.max()),
        })
        for m in np.nonzero(dev > bound + slack)[0]:
            violations.append((ell + 1, int(m) + 1, float(dev[m]), bound))
    return Lemma1Report(
        all_ok=not violations,
        max_deviation=worst,
        gamma=float(gamma),
        per_surface=tuple(per_surface),
        violations=tuple(violations),
    )
