"""Property tests for the array kernels against per-entry reference oracles:
tensor expansion, the dense contraction, CSM grouping, the phase lookup table
and the leakage sums."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blindbeam import (
    CascadedChannelTensor,
    EmptyGroupError,
    LinkChannelGraph,
    PhaseAssignment,
    PhaseGrid,
    as_grids,
    expand_links_to_tensor,
    stage_coefficients,
)
from blindbeam.channel import effective_batch
from blindbeam.beamforming import _GroupSums
from blindbeam.conditions import _leakage_sums, leakage_abs_sum
from conftest import IndexSetSpec, brute_force_gain, expand_links_oracle

kernel_settings = settings(deadline=None, max_examples=60)
seeds = st.integers(0, 2**32 - 1)


def _complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@st.composite
def link_graphs(draw):
    """Link graphs with L in {1, 2, 3}; every hop and every tx/rx vector may
    be absent, and some link entries are exactly zero."""
    L = draw(st.integers(1, 3))
    n = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(seeds))

    def link(shape):
        if draw(st.integers(0, 3)) == 0:
            return np.zeros(shape, dtype=complex)
        return _complex(rng, shape) * (rng.random(shape) < 0.8)

    pairs = [(i, j) for i in range(L) for j in range(i + 1, L)]
    present = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return LinkChannelGraph(
        tuple(link(n) for _ in range(L)),
        tuple(link(n) for _ in range(L)),
        {pair: link((n, n)) for pair, keep in zip(pairs, present) if keep},
        complex(*rng.standard_normal(2)),
    )


@kernel_settings
@given(link_graphs())
def test_expansion_matches_per_entry_oracle(graph):
    got = expand_links_to_tensor(graph).entries
    want = expand_links_oracle(graph)
    assert got.shape == want.shape
    assert np.allclose(got, want, rtol=1e-12, atol=0.0)


def _stage_oracle(entries, phases, ell):
    """[c0, c_1, ..., c_N] by summing every index tuple into the slot of its
    surface-ell index, with the other surfaces' phases applied."""
    out = np.zeros(entries.shape[ell], dtype=complex)
    for tup in np.ndindex(entries.shape):
        phase = sum(phases.phase_values(i)[k - 1]
                    for i, k in enumerate(tup) if k > 0 and i != ell)
        out[tup[ell]] += entries[tup] * np.exp(1j * phase)
    return out


@kernel_settings
@given(st.lists(st.integers(2, 6), min_size=1, max_size=4), st.integers(1, 3), seeds)
def test_dense_contraction_matches_path_sums(levels, n, seed):
    """Dense stage coefficients and effective_batch, with a different grid
    per surface, against explicit sums over every index tuple."""
    rng = np.random.default_rng(seed)
    L = len(levels)
    grids = as_grids(levels, L)
    tensor = CascadedChannelTensor(_complex(rng, (n + 1,) * L))
    atol = 1e-12 * np.abs(tensor.entries).sum()
    batch = [rng.integers(0, k, size=(3, n)) for k in levels]
    gains = effective_batch(tensor, grids, batch)
    assert gains.shape == (3,)
    for row, gain in enumerate(gains):
        phases = PhaseAssignment(grids, tuple(idx[row] for idx in batch))
        assert np.isclose(gain, brute_force_gain(tensor, phases), rtol=1e-12, atol=atol)
        for ell in range(L):
            c0, c = stage_coefficients(tensor, phases, ell)
            assert c.shape == (n,)
            assert np.allclose(np.concatenate(([c0], c)),
                               _stage_oracle(tensor.entries, phases, ell),
                               rtol=1e-12, atol=atol)


def _naive_grouping(chunks, num_elements, num_levels):
    """Per-column, per-bin Python sums; each chunk's partial sums are added
    to the running totals, as the chunked accumulator does."""
    sums = np.zeros((num_elements, num_levels))
    counts = np.zeros((num_elements, num_levels), dtype=np.int64)
    for idx, powers in chunks:
        for col in range(num_elements):
            for k in range(num_levels):
                partial = 0.0
                for t in range(idx.shape[0]):
                    if idx[t, col] == k:
                        partial += powers[t]
                        counts[col, k] += 1
                sums[col, k] += partial
    return sums, counts


@kernel_settings
@given(st.integers(1, 6), st.integers(2, 5), st.lists(st.integers(1, 40), min_size=1,
                                                     max_size=3), seeds)
def test_flat_bincount_matches_naive_grouping(n, k, chunk_sizes, seed):
    rng = np.random.default_rng(seed)
    chunks = [(rng.integers(0, k, size=(t, n)), rng.random(t) * 10.0 ** rng.integers(-3, 4))
              for t in chunk_sizes]
    groups = _GroupSums(n, k)
    for idx, powers in chunks:
        groups.add(idx, powers)
    sums, counts = _naive_grouping(chunks, n, k)
    assert np.array_equal(groups.counts.reshape(n, k), counts)
    assert np.array_equal(groups.sums.reshape(n, k), sums)


@kernel_settings
@given(st.integers(1, 6), st.integers(2, 5), st.integers(1, 60), seeds)
def test_conditional_sample_mean_matches_naive_means(n, k, t, seed):
    rng = np.random.default_rng(seed)
    idx, powers = rng.integers(0, k, size=(t, n)), rng.random(t)
    sums, counts = _naive_grouping([(idx, powers)], n, k)
    groups = _GroupSums(n, k)
    groups.add(idx, powers)
    if np.any(counts == 0):
        with pytest.raises(EmptyGroupError):
            groups.means()
        return
    assert np.array_equal(groups.means(), sums / counts)


@kernel_settings
@given(st.integers(2, 64), st.integers(1, 50), st.integers(1, 8), seeds)
def test_phase_table_is_bit_identical_to_exp(k, t, n, seed):
    grid = PhaseGrid(k)
    idx = np.random.default_rng(seed).integers(0, k, size=(t, n))
    got = grid.factor_table()[idx]
    want = np.exp(1j * grid.omega * idx)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    # the scalar evaluators' factors, which took exp of the radian phases
    a = PhaseAssignment((grid,), (idx[0],))
    want = np.exp(1j * a.phase_values(0))
    assert np.array_equal(a.factors(0).view(np.uint64), want.view(np.uint64))


@kernel_settings
@given(st.integers(1, 3), st.integers(1, 4), seeds)
def test_leakage_sums_match_index_set_oracle(L, n, seed):
    rng = np.random.default_rng(seed)
    shape = (n + 1,) * L
    t = CascadedChannelTensor(_complex(rng, shape) * (rng.random(shape) < 0.7))
    mags = np.abs(t.entries)
    atol = 1e-12 * mags.sum()
    for surface in range(L):
        got = _leakage_sums(mags, surface)
        want = [sum(mags[tup] for tup in
                    IndexSetSpec(surface, m, "some_skip").tuples(L, n))
                for m in range(1, n + 1)]
        assert np.allclose(got, want, rtol=1e-12, atol=atol)
        assert [leakage_abs_sum(t, surface, m) for m in range(1, n + 1)] == got.tolist()


def test_leakage_abs_sum_rejects_out_of_range_indices():
    t = CascadedChannelTensor(np.ones((3, 3)))
    for surface, element in ((2, 1), (-1, 1), (0, 0), (0, 3)):
        with pytest.raises(ValueError):
            leakage_abs_sum(t, surface, element)
