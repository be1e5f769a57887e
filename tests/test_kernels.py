"""Property tests for the array kernels against per-entry reference oracles:
tensor expansion, the link-graph stage coefficients, the dense contraction,
CSM grouping, the CSM decision on exact means, the phase lookup table, the
leakage sums, the D3 margin thresholds, the blocked probe loops, the
in-place phase fill and the D-instance build."""

import tracemalloc
from functools import reduce

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
    RadioParams,
    as_grids,
    cpp_decide,
    csm_decide,
    expand_links_to_tensor,
    generate_samples,
    make_d_instance,
    random_beamforming,
    sequential_csm,
    stage_coefficients,
    virtual_single_irs,
)
from blindbeam import beamforming
from blindbeam.channel import _BLOCK, contract, effective_batch
from blindbeam.beamforming import _GroupSums
from blindbeam.conditions import RankOneFactors, _d3_scan, _leakage_sums, leakage_abs_sum
from blindbeam.experiments import default_scenario_path, realize_scenario
from blindbeam.fixtures import _unit_phases, max_leakage_scale
from blindbeam.scenario import load_scenario
from conftest import (UNIT_POWER, IndexSetSpec, brute_force_gain, d3_scan_oracle,
                      expand_links_oracle, random_graph, random_tensor, unblocked_csm_means,
                      unblocked_random_beamforming)

kernel_settings = settings(deadline=None, max_examples=60)
seeds = st.integers(0, 2**32 - 1)


def _complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@st.composite
def link_graphs(draw):
    """Link graphs with L in {1, 2, 3, 4} (N <= 3 at L = 4); every hop and
    every tx/rx vector may be absent, each present hop is a matrix or a
    (u, v) pair, and some link entries are exactly zero."""
    L = draw(st.integers(1, 4))
    n = draw(st.integers(1, 4 if L < 4 else 3))
    rng = np.random.default_rng(draw(seeds))

    def link(shape):
        if draw(st.integers(0, 3)) == 0:
            return np.zeros(shape, dtype=complex)
        return _complex(rng, shape) * (rng.random(shape) < 0.8)

    def hop():
        return (link(n), link(n)) if draw(st.booleans()) else link((n, n))

    pairs = [(i, j) for i in range(L) for j in range(i + 1, L)]
    present = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return LinkChannelGraph(
        tuple(link(n) for _ in range(L)),
        tuple(link(n) for _ in range(L)),
        {pair: hop() for pair, keep in zip(pairs, present) if keep},
        complex(*rng.standard_normal(2)),
    )


@kernel_settings
@given(link_graphs())
def test_expansion_matches_per_entry_oracle(graph):
    got = expand_links_to_tensor(graph).entries
    want = expand_links_oracle(graph)
    assert got.shape == want.shape
    assert np.allclose(got, want, rtol=1e-12, atol=0.0)


@kernel_settings
@given(link_graphs(), st.integers(2, 6), seeds)
def test_graph_stage_coefficients_match_the_expanded_tensor(graph, k, seed):
    """The link-graph stage coefficients, whose backward field is the
    forward pass over the reversed graph, against the dense contraction of
    the expanded tensor, at every surface, within 1e-12 of the total path
    magnitude."""
    L, n = graph.num_surfaces, graph.num_elements
    tensor = expand_links_to_tensor(graph)
    atol = 1e-12 * np.abs(tensor.entries).sum()
    rng = np.random.default_rng(seed)
    grids = as_grids(k, L)
    phases = PhaseAssignment(grids, tuple(rng.integers(0, k, n) for _ in range(L)))
    for ell in range(L):
        c0, c = stage_coefficients(graph, phases, ell)
        w0, w = stage_coefficients(tensor, phases, ell)
        assert c.shape == (n,)
        assert np.allclose(np.concatenate(([c0], c)), np.concatenate(([w0], w)),
                           rtol=1e-12, atol=atol)


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


@pytest.mark.parametrize("batch", [1, 3])
@pytest.mark.parametrize("L, keep", [(L, keep) for L in range(1, 5)
                                     for keep in [None, *range(L)]])
def test_contract_matches_einsum(L, keep, batch):
    """contract against np.einsum on axes of unequal lengths, within 1e-12
    of the same contraction on magnitudes, which bounds its rounding."""
    rng = np.random.default_rng(10 * L + batch)
    shape = tuple(range(2, 2 + L))
    entries = _complex(rng, shape)
    rows = [_complex(rng, (batch, d)) for d in shape]
    axes = "abcd"[:L]
    used = [i for i in range(L) if i != keep]
    out = "z" + ("" if keep is None else axes[keep]) if used else axes
    spec = ",".join([axes] + ["z" + axes[i] for i in used]) + "->" + out
    want = np.einsum(spec, entries, *[rows[i] for i in used])
    bound = np.einsum(spec, np.abs(entries), *[np.abs(rows[i]) for i in used])
    got = contract(entries, rows, keep)
    if not used:
        want, bound = want[None], bound[None]
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 1e-12 * bound)


def test_contract_keeping_the_last_axis_copies_no_tensor():
    # moving the kept axis last before each reshape once copied the whole
    # tensor at L >= 3: a 1.005-tensor traced peak at L=3, N=200, keep=2
    entries = np.zeros((201,) * 3, dtype=complex)
    rows = [np.ones((1, 201), dtype=complex)] * 3
    for keep in (None, 0, 1, 2):
        _, peak = _traced_peak(lambda: contract(entries, rows, keep))
        assert peak < 0.1 * entries.nbytes, f"keep={keep}: {peak / entries.nbytes:.3f} tensors"


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
@given(st.integers(2, 16), st.integers(1, 8), seeds)
def test_csm_decide_on_exact_means_is_the_projection(k, n, seed):
    """With the other elements uniform, E[P | theta_n = k] is |c0 + c_n w^k|^2
    + sum_{m != n} |c_m|^2; its argmax is the grid point closest to
    angle(c0) - angle(c_n), cpp_decide's pick.  Elements whose best and second
    best means lie within 1e-6 of the row maximum are near-ties and skipped."""
    rng = np.random.default_rng(seed)
    grid = PhaseGrid(k)
    c0 = complex(*rng.standard_normal(2))
    c = _complex(rng, n) * 10.0 ** rng.uniform(-2, 2, n)
    power = np.abs(c) ** 2
    means = (np.abs(c0 + c[:, None] * grid.factor_table()[None, :]) ** 2
             + (power.sum() - power)[:, None])
    top_two = np.sort(means, axis=1)[:, -2:]
    clear = top_two[:, 1] - top_two[:, 0] > 1e-6 * top_two[:, 1]
    got, want = csm_decide(means), cpp_decide(c0, c, grid)
    assert np.array_equal(got[clear], want[clear])


@st.composite
def d3_cases(draw):
    """(tensor, factors, grids, gamma_points) for L in {2, 3, 4} and small N.
    Leakage and factor entries are exactly zero at random, sometimes all of
    the leakage; a leading grid of 2 levels leaves a budget <= 0."""
    L = draw(st.integers(2, 4))
    n = draw(st.integers(1, 5 if L < 4 else 3))
    rng = np.random.default_rng(draw(seeds))
    levels = draw(st.lists(st.integers(2, 32), min_size=L, max_size=L))
    shape = (n + 1,) * L
    leak_scale = draw(st.sampled_from([0.0, 1e-4, 1e-3, 0.01, 0.03, 0.1, 0.3, 1.0, 10.0]))
    entries = leak_scale * _complex(rng, shape) * (rng.random(shape) < 0.7)
    vectors = [_complex(rng, n) * (rng.random(n) < 0.8) * 10.0 ** rng.uniform(-1, 1)
               for _ in range(L)]
    factors = RankOneFactors.from_raw(vectors)
    entries[(slice(1, None),) * L] = factors.outer_product()
    return (CascadedChannelTensor(entries), factors, as_grids(levels, L),
            draw(st.integers(1, 400)))


@kernel_settings
@given(d3_cases())
def test_d3_thresholds_match_the_element_scan(case):
    got = _d3_scan(*case)
    want = d3_scan_oracle(*case)
    assert got[:3] == want[:3]
    assert got[3] == pytest.approx(want[3], rel=1e-12, abs=0.0)


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


@pytest.mark.parametrize("k", [3, 4, 8, 300])
def test_row_split_draw_matches_one_draw(k):
    grid = PhaseGrid(k)
    whole_rng, split_rng = np.random.default_rng(k), np.random.default_rng(k)
    whole = generate_samples(5, grid, 1000, whole_rng)
    parts = [generate_samples(5, grid, rows, split_rng) for rows in (1, 7, 333, 2, 657)]
    assert np.array_equal(np.concatenate(parts), whole)
    assert split_rng.bit_generator.state == whole_rng.bit_generator.state


NOISY = RadioParams(transmit_power_w=1.0, noise_power_w=0.5)
# more than one chunk, with a last chunk that is not a whole number of blocks
PROBES = beamforming._CHUNK + 4321


@pytest.mark.parametrize("block", [None, 1000], ids=["block-default", "block-1000"])
@pytest.mark.parametrize("noise_draws", [0, 2])
@pytest.mark.parametrize("k", [4, 300])
@pytest.mark.parametrize("kind", ["stage", "virtual"])
def test_blocked_csm_means_match_unblocked_oracle(kind, k, noise_draws, block, monkeypatch):
    if block is not None:
        monkeypatch.setattr(beamforming, "_BLOCK", block)
    rng = np.random.default_rng(7)
    grid, width = PhaseGrid(k), 6
    if kind == "stage":
        c0, c, lut = complex(*rng.standard_normal(2)), _complex(rng, width), grid.factor_table()
        evaluate = lambda idx: c0 + lut[idx] @ c
    else:
        graph, grids = random_graph(rng, 2, width // 2), as_grids(grid, 2)
        evaluate = lambda idx: effective_batch(graph, grids, np.split(idx, 2, axis=1))
    rows = beamforming._BLOCK // width
    # the last block of each chunk is partial, and a noiseless run (one
    # block per chunk) spans several blocks
    assert beamforming._CHUNK % rows and PROBES % rows and PROBES > rows
    got_rng, want_rng = np.random.default_rng(11), np.random.default_rng(11)
    probe = beamforming._Probe(NOISY, noise_draws, got_rng, lambda d: evaluate(d[0]))
    got = beamforming._csm_means(width, grid, PROBES, probe)
    want = unblocked_csm_means(width, grid, PROBES, evaluate, NOISY, noise_draws, want_rng)
    assert probe.count == PROBES
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
    assert np.array_equal(csm_decide(got), csm_decide(want))
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


@pytest.mark.parametrize("noise_draws", [0, 1])
@pytest.mark.parametrize("make_channel", [random_tensor, random_graph])
@pytest.mark.parametrize("optimizer", [sequential_csm, virtual_single_irs])
def test_blocked_optimizers_decide_as_unblocked_oracle(optimizer, make_channel, noise_draws,
                                                       monkeypatch):
    channel = make_channel(np.random.default_rng(3), 2, 8)
    got_rng, want_rng = np.random.default_rng(5), np.random.default_rng(5)
    got = optimizer(channel, 4, PROBES, NOISY, noise_draws, got_rng)

    def unblocked(width, grid, total, probe):
        # the oracle draws and measures by itself, through the probe's evaluator
        # only, so it adds its probes to the probe's count
        probe.count += total
        return unblocked_csm_means(width, grid, total, lambda idx: probe.evaluate([idx]), NOISY,
                                   noise_draws, want_rng)

    monkeypatch.setattr(beamforming, "_csm_means", unblocked)
    want = optimizer(channel, 4, PROBES, NOISY, noise_draws, want_rng)
    assert got.evaluations == want.evaluations
    for a, b in zip(got.assignment.indices, want.assignment.indices, strict=True):
        assert np.array_equal(a, b)
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


def _record_draws(monkeypatch):
    drawn, draw = [], beamforming.generate_samples

    def recording(*args):
        drawn.append(draw(*args))
        return drawn[-1]
    monkeypatch.setattr(beamforming, "generate_samples", recording)
    return drawn


def _flat_power(blocks):
    return np.ones(len(blocks[0]), dtype=complex)


def test_noiseless_single_grid_blocks_are_the_drawn_arrays(monkeypatch):
    # a one-block chunk is measured and binned as drawn: int64, no compact copy
    drawn = _record_draws(monkeypatch)
    probe = beamforming._Probe(NOISY, 0, np.random.default_rng(0), _flat_power)
    blocks = [idx for (idx,), _ in probe.measured_blocks((PhaseGrid(4),), 6, PROBES)]
    assert len(blocks) == len(drawn) > 1
    for idx, d in zip(blocks, drawn, strict=True):
        assert idx.dtype == np.int64 and idx.shape == d.shape and np.shares_memory(idx, d)


@pytest.mark.parametrize("noise_draws, levels", [(2, [4]), (0, [4, 4])],
                         ids=["noisy", "multi-grid"])
def test_chunks_of_several_blocks_are_views_of_one_compact_buffer(noise_draws, levels,
                                                                  monkeypatch):
    drawn = _record_draws(monkeypatch)
    grids, width = as_grids(levels, len(levels)), 6
    step = beamforming._BLOCK // (len(grids) * width)
    probe = beamforming._Probe(NOISY, noise_draws, np.random.default_rng(0), _flat_power)
    blocks = [draws for draws, _ in probe.measured_blocks(grids, width, PROBES)]
    first = -(-beamforming._CHUNK // step)  # blocks of the first, whole chunk
    assert len(blocks) == first + 1  # the last PROBES - _CHUNK probes fit one block
    for j in range(len(grids)):
        buffer = blocks[0][j].base
        assert buffer.dtype == np.uint8 and buffer.shape == (beamforming._CHUNK, width)
        assert all(b[j].base is buffer for b in blocks[:first])
        assert not any(np.shares_memory(buffer, d) for d in drawn)
        # a one-block chunk yields its drawn array
        assert blocks[-1][j].dtype == np.int64
        assert any(np.shares_memory(blocks[-1][j], d) for d in drawn)


def _traced_peak(fn):
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sequential_csm_traced_peak_is_bounded():
    # one whole-chunk stage at N=1024, T=20,480 built four (T, N) temporaries,
    # a 480 MiB traced peak; compute blocks bound them by _BLOCK entries
    channel = random_tensor(np.random.default_rng(0), 2, 1024)
    _, peak = _traced_peak(lambda: sequential_csm(channel, 4, 20_480, UNIT_POWER, 0,
                                                  np.random.default_rng(1)))
    assert peak < 64 * 2**20, f"traced peak {peak / 2**20:.1f} MiB"


@pytest.mark.parametrize("block", [None, 1000], ids=["block-default", "block-1000"])
@pytest.mark.parametrize("noise_draws", [0, 2])
@pytest.mark.parametrize("levels", [4, 300, [4, 300]], ids=["k4", "k300", "k-mixed"])
@pytest.mark.parametrize("make_channel", [random_tensor, random_graph])
def test_blocked_random_search_matches_unblocked_oracle(make_channel, levels, noise_draws,
                                                        block, monkeypatch):
    if block is not None:
        monkeypatch.setattr(beamforming, "_BLOCK", block)
    channel, grids = make_channel(np.random.default_rng(3), 2, 3), as_grids(levels, 2)
    rows = beamforming._BLOCK // (2 * 3)
    assert beamforming._CHUNK % rows and PROBES % rows
    got_rng, want_rng = np.random.default_rng(5), np.random.default_rng(5)
    got = random_beamforming(channel, grids, PROBES, NOISY, noise_draws, got_rng)
    want = unblocked_random_beamforming(channel, grids, PROBES, NOISY, noise_draws, want_rng)
    assert got.evaluations == want.evaluations == PROBES
    for a, b in zip(got.assignment.indices, want.assignment.indices, strict=True):
        assert np.array_equal(a, b)
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


@pytest.mark.parametrize("noise_draws", [0, 2])
@pytest.mark.parametrize("make_channel", [random_tensor, random_graph])
def test_single_surface_random_search_matches_unblocked_oracle(make_channel, noise_draws):
    # a noiseless single-grid sweep is drawn in one-block chunks, which give
    # the stream of whole _CHUNK chunks; with 64 assignments and PROBES draws
    # most powers tie, and ties must keep the earliest draw across chunks
    channel = make_channel(np.random.default_rng(3), 1, 3)
    got_rng, want_rng = np.random.default_rng(5), np.random.default_rng(5)
    got = random_beamforming(channel, 4, PROBES, NOISY, noise_draws, got_rng)
    want = unblocked_random_beamforming(channel, 4, PROBES, NOISY, noise_draws, want_rng)
    assert got.evaluations == want.evaluations == PROBES
    assert np.array_equal(got.assignment.indices[0], want.assignment.indices[0])
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


def test_random_search_traced_peak_is_bounded():
    # whole-chunk draws on the corridor at N=4096, budget 2,000, built L
    # (rows, N) int64 index arrays and their complex factors, a 375 MiB
    # traced peak; block evaluation leaves the compact index buffers
    scenario = load_scenario(default_scenario_path())
    graph, grids, params = realize_scenario(scenario, seed=0, trial=0, num_elements=4096)
    _, peak = _traced_peak(lambda: random_beamforming(graph, grids, 2000, params, 0,
                                                      np.random.default_rng(1)))
    assert peak < 64 * 2**20, f"traced peak {peak / 2**20:.1f} MiB"


def test_dense_builders_traced_peak_is_one_tensor_and_a_block():
    # a full-size uniform draw with its complex temporaries, the outer
    # product, and the tensor constructor's copy of the fresh array once
    # peaked at 2.19 (make_d_instance) and 2.13 (expansion) tensors; the
    # constructor's one-pass finite check added 2 bytes per entry
    graph = random_graph(np.random.default_rng(0), 2, 1000)
    frozen = np.ones((101,) * 3, dtype=complex)
    frozen.flags.writeable = False
    for build in (lambda: make_d_instance(2, 1000, 4, np.random.default_rng(0)).tensor,
                  lambda: make_d_instance(3, 100, 8, np.random.default_rng(0)).tensor,
                  lambda: expand_links_to_tensor(graph)):
        tensor, peak = _traced_peak(build)
        assert peak < 1.5 * tensor.entries.nbytes, (
            f"traced peak {peak / tensor.entries.nbytes:.2f} tensors")
    # the constructor shares a frozen array, so it adds only the check's block
    tensor, peak = _traced_peak(lambda: CascadedChannelTensor(frozen))
    assert tensor.entries is frozen
    assert peak < 0.05 * frozen.nbytes, f"traced peak {peak / frozen.nbytes:.2f} tensors"


@pytest.mark.parametrize("bad", [complex(np.nan, 0), complex(0, np.nan), complex(np.inf, 0),
                                 complex(0, -np.inf)], ids=["nan-re", "nan-im", "inf-re", "inf-im"])
def test_blocked_finite_check_sees_either_part_past_a_block_boundary(bad):
    shape = (65,) * 3  # 274,625 entries: more than four blocks
    assert np.prod(shape) > 4 * _BLOCK
    for flat_index in (_BLOCK, 3 * _BLOCK + 7, np.prod(shape) - 1):
        a = np.ones(shape, dtype=complex)
        a.reshape(-1)[flat_index] = bad
        with pytest.raises(ValueError, match="finite"):
            CascadedChannelTensor(a)


@pytest.mark.parametrize("shape", [5, (9,), (7, 7), (4, 5, 6), (65,) * 3],
                         ids=["int", "1-d", "odd", "3-axes", "L3-two-blocks"])
def test_unit_phases_match_one_draw(shape):
    # 65**3 entries pass four _BLOCK boundaries
    got_rng, want_rng = np.random.default_rng(2), np.random.default_rng(2)
    got = _unit_phases(got_rng, shape)
    want = np.exp(2j * np.pi * want_rng.random(shape))
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


@pytest.mark.parametrize("L, n, k", [(1, 7, 4), (2, 9, 4), (3, 5, 8), (2, 300, 4), (3, 40, 8)],
                         ids=["L1", "L2", "L3", "L2-two-blocks", "L3-two-blocks"])
def test_d_instance_matches_full_exponential_oracle(L, n, k):
    # reference build: exponentiate every drawn angle, scale the skip entries,
    # then overwrite the all-active block with the factors' outer product
    got_rng, want_rng = np.random.default_rng(L * n), np.random.default_rng(L * n)
    got = make_d_instance(L, n, k, got_rng)
    grids = as_grids(k, L)
    factors = RankOneFactors.from_raw([np.exp(2j * np.pi * want_rng.random(n))
                                       for _ in range(L)])
    want = np.exp(2j * np.pi * want_rng.random((n + 1,) * L))
    a = 0.5 * max_leakage_scale(L, n, grids, factors)
    for i in range(L):
        want[(slice(1, None),) * i + (0,)] *= a
    want[(slice(1, None),) * L] = reduce(np.multiply.outer, factors.vectors)
    assert got.a_scale == a
    for v, w in zip(got.factors.vectors, factors.vectors, strict=True):
        assert v.tobytes() == w.tobytes()
    assert got.tensor.entries.tobytes() == want.tobytes()
    assert got_rng.bit_generator.state == want_rng.bit_generator.state
