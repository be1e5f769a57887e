import itertools

import numpy as np
import pytest

from blindbeam import (
    CascadedChannelTensor,
    LinkChannelGraph,
    PhaseAssignment,
    RadioParams,
    as_grids,
    build_example,
    direct_gain,
    effective_channel,
    expand_links_to_tensor,
    parse_noise_model,
    received_power,
    snr_boost,
    stage_coefficients,
)
from blindbeam.channel import effective_batch
from conftest import brute_force_gain, random_assignment, random_graph, random_tensor


def assign(grids_spec, L, idx):
    grids = as_grids(grids_spec, L)
    return PhaseAssignment(grids, tuple(np.asarray(v) for v in idx))


class TestDenseEvaluator:
    def test_skip_only_tensor_ignores_phases(self):
        t = np.zeros((3, 3), dtype=complex)
        t[0, 0] = 1.0
        tensor = CascadedChannelTensor(t)
        a = assign(4, 2, [[1, 3], [2, 0]])
        assert effective_channel(tensor, a) == pytest.approx(1.0)

    def test_single_path_cancellation(self):
        # all-ones tensor, L=2, N=1: phases (pi, 0) pair the four paths
        # into two cancelling couples
        tensor = CascadedChannelTensor(np.ones((2, 2), dtype=complex))
        a = assign(2, 2, [[1], [0]])
        assert abs(effective_channel(tensor, a)) == pytest.approx(0.0, abs=1e-12)

    def test_matches_brute_force(self, rng):
        for L, n in [(1, 3), (2, 3), (3, 2)]:
            for _ in range(10):
                tensor = random_tensor(rng, L, n)
                a = random_assignment(rng, as_grids(4, L), n)
                got = effective_channel(tensor, a)
                want = brute_force_gain(tensor, a)
                assert got == pytest.approx(want, rel=1e-12)

    def test_triangle_inequality(self, rng):
        for _ in range(20):
            tensor = random_tensor(rng, 2, 3)
            a = random_assignment(rng, as_grids(5, 2), 3)
            g = effective_channel(tensor, a)
            assert abs(g) <= np.abs(tensor.entries).sum() + 1e-9

    def test_example_alignment_value(self):
        fx = build_example(1, "good", 3)
        a = PhaseAssignment(fx.grids, tuple(fx.expected_indices))
        g = effective_channel(fx.tensor, a)
        assert g == pytest.approx(9.0)          # beta * N^2
        p = received_power(g, RadioParams(transmit_power_w=1.0))
        assert p == pytest.approx(81.0)

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ValueError):
            CascadedChannelTensor(np.ones((3, 4), dtype=complex))
        with pytest.raises(ValueError):
            CascadedChannelTensor(np.ones((1, 1), dtype=complex))
        with pytest.raises(ValueError):
            CascadedChannelTensor(np.array([[1.0, np.inf], [0, 0]], dtype=complex))


class TestChainEvaluator:
    def test_all_ones_single_element(self):
        g = LinkChannelGraph(
            (np.ones(1, complex), np.ones(1, complex)),
            (np.ones(1, complex), np.ones(1, complex)),
            {(0, 1): np.ones((1, 1), complex)},
            1.0,
        )
        a = PhaseAssignment.zeros(as_grids(4, 2), 1)
        # direct + 2 one-hop + 1 two-hop = 4
        assert effective_channel(g, a) == pytest.approx(4.0)

    def test_matches_dense_expansion(self, rng):
        for L in (2, 3):
            for _ in range(50):
                graph = random_graph(rng, L, 3)
                tensor = expand_links_to_tensor(graph)
                a = random_assignment(rng, as_grids(4, L), 3)
                got = effective_channel(graph, a)
                want = effective_channel(tensor, a)
                assert got == pytest.approx(want, rel=1e-10, abs=1e-12)

    def test_effective_channel_dispatch(self, rng):
        # both forms, against the batch evaluator row by row
        for L in (1, 2, 3):
            graph = random_graph(rng, L, 2)
            grids = as_grids(4, L)
            rows = [random_assignment(rng, grids, 2) for _ in range(5)]
            batch = [np.array([a.indices[ell] for a in rows]) for ell in range(L)]
            for channel in (graph, expand_links_to_tensor(graph)):
                got = effective_batch(channel, grids, batch)
                want = [effective_channel(channel, a) for a in rows]
                assert np.allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_expansion_entry_count(self, rng):
        graph = random_graph(rng, 2, 2, edge_prob=1.0)
        tensor = expand_links_to_tensor(graph)
        assert tensor.entries.shape == (3, 3)
        # spot-check one two-hop product and one one-hop entry
        want = (graph.tx_to_irs[0][1] * graph.hop(0, 1)[1, 0] * graph.irs_to_rx[1][0])
        assert tensor.entries[2, 1] == pytest.approx(want)
        assert tensor.entries[0, 2] == pytest.approx(
            graph.tx_to_irs[1][1] * graph.irs_to_rx[1][1])
        assert tensor.entries[0, 0] == pytest.approx(graph.tx_to_rx)

    def test_absent_hop_is_zero(self):
        g = LinkChannelGraph(
            (np.ones(2, complex), np.zeros(2, complex)),
            (np.zeros(2, complex), np.ones(2, complex)),
            {},
            0.0,
        )
        assert np.all(g.hop(0, 1) == 0)
        a = PhaseAssignment.zeros(as_grids(4, 2), 2)
        # no complete path exists, so the field vanishes
        assert effective_channel(g, a) == pytest.approx(0.0)


def _factored_pair(rng, kinds, n):
    """The same random link graph twice: hop (i, j) with kinds[(i, j)] ==
    "rank_one" is a (u, v) pair in the first graph and np.outer(u, v) in the
    second; "dense" hops are matrices in both and "absent" ones are left out."""

    def vec():
        return rng.standard_normal(n) + 1j * rng.standard_normal(n)

    L = max(j for _, j in kinds) + 1
    tx = tuple(vec() for _ in range(L))
    rx = tuple(vec() for _ in range(L))
    factored, materialized = {}, {}
    for pair, kind in kinds.items():
        if kind == "rank_one":
            u, v = vec(), vec()
            factored[pair], materialized[pair] = (u, v), np.outer(u, v)
        elif kind == "dense":
            factored[pair] = materialized[pair] = np.stack([vec() for _ in range(n)])
    direct = complex(*rng.standard_normal(2))
    return (LinkChannelGraph(tx, rx, factored, direct),
            LinkChannelGraph(tx, rx, materialized, direct))


def _hop_layouts():
    """Every assignment of rank_one / dense / absent to the surface pairs of
    L = 2 and L = 3, with at least one rank-one hop."""
    for L in (2, 3):
        pairs = [(i, j) for i in range(L) for j in range(i + 1, L)]
        for combo in itertools.product(("rank_one", "dense", "absent"), repeat=len(pairs)):
            if "rank_one" in combo:
                yield dict(zip(pairs, combo))


class TestFactoredHops:
    N = 4

    @pytest.fixture(params=list(_hop_layouts()), ids=lambda k: "-".join(
        f"{i}{j}{kind[0]}" for (i, j), kind in k.items()))
    def graphs(self, request, rng):
        return _factored_pair(rng, request.param, self.N)

    def test_graph_keeps_pair_and_matrix(self, graphs):
        factored, materialized = graphs
        assert factored.rank_one and not materialized.rank_one
        for pair, (u, v) in factored.rank_one.items():
            assert np.array_equal(factored.hop(*pair), np.outer(u, v))
            assert np.array_equal(factored.hop(*pair), materialized.hop(*pair))
        assert factored.irs_to_irs.keys() == materialized.irs_to_irs.keys()

    def test_effective_batch(self, graphs, rng):
        factored, materialized = graphs
        L = factored.num_surfaces
        grids = as_grids(4, L)
        batch = [rng.integers(0, 4, size=(9, self.N)) for _ in range(L)]
        got = effective_batch(factored, grids, batch)
        assert np.allclose(got, effective_batch(materialized, grids, batch),
                           rtol=1e-12, atol=0)
        # the tensor path shares no code with the link-graph forward pass
        tensor = expand_links_to_tensor(materialized)
        assert np.allclose(got, effective_batch(tensor, grids, batch), rtol=1e-12, atol=0)

    def test_effective_channel_and_stage_coefficients(self, graphs, rng):
        factored, materialized = graphs
        L = factored.num_surfaces
        for _ in range(3):
            a = random_assignment(rng, as_grids(4, L), self.N)
            assert effective_channel(factored, a) == pytest.approx(
                effective_channel(materialized, a), rel=1e-12, abs=0)
            for ell in range(L):
                c0, c = stage_coefficients(factored, a, ell)
                w0, w = stage_coefficients(materialized, a, ell)
                assert c0 == pytest.approx(w0, rel=1e-12, abs=0)
                assert np.allclose(c, w, rtol=1e-12, atol=0)

    def test_expansion(self, graphs):
        factored, materialized = graphs
        assert np.allclose(expand_links_to_tensor(factored).entries,
                           expand_links_to_tensor(materialized).entries, rtol=1e-12, atol=0)

    def test_rejects_bad_pairs(self):
        ones = np.ones(2, complex)
        for bad in ((ones,), (ones, ones, ones), (ones, np.ones(3, complex)),
                    (ones, np.array([np.inf, 1.0]))):
            with pytest.raises(ValueError):
                LinkChannelGraph((ones, ones), (ones, ones), {(0, 1): bad}, 0.0)


class TestEffectiveBatchIndices:
    @pytest.mark.parametrize("bad", [-1, 4])
    def test_out_of_range_index_raises(self, rng, bad):
        graph = random_graph(rng, 2, 3)
        grids = as_grids(4, 2)
        batch = [rng.integers(0, 4, size=(5, 3)) for _ in range(2)]
        batch[1][2, 1] = bad
        for channel in (graph, expand_links_to_tensor(graph)):
            with pytest.raises(ValueError, match=r"index batch 1: indices must lie in \[0, 4\)"):
                effective_batch(channel, grids, batch)

    def test_non_integer_index_raises(self, rng):
        graph = random_graph(rng, 1, 3)
        with pytest.raises(ValueError, match="must be integers"):
            effective_batch(graph, as_grids(4, 1), [np.zeros((2, 3))])


class TestStageCoefficients:
    @pytest.mark.parametrize("L", [1, 2, 3])
    def test_linear_form_identity_dense(self, rng, L):
        n = 3
        tensor = random_tensor(rng, L, n)
        grids = as_grids(4, L)
        for ell in range(L):
            a = random_assignment(rng, grids, n)
            c0, c = stage_coefficients(tensor, a, ell)
            recon = c0 + np.sum(c * a.factors(ell))
            assert recon == pytest.approx(effective_channel(tensor, a), rel=1e-11)

    def test_linear_form_identity_chain(self, rng):
        for L in (2, 3):
            graph = random_graph(rng, L, 3)
            grids = as_grids(4, L)
            for ell in range(L):
                a = random_assignment(rng, grids, 3)
                c0, c = stage_coefficients(graph, a, ell)
                recon = c0 + np.sum(c * a.factors(ell))
                assert recon == pytest.approx(effective_channel(graph, a), rel=1e-10)

    def test_chain_matches_dense_coefficients(self, rng):
        graph = random_graph(rng, 2, 3)
        tensor = expand_links_to_tensor(graph)
        a = random_assignment(rng, as_grids(4, 2), 3)
        for ell in range(2):
            c0_g, c_g = stage_coefficients(graph, a, ell)
            c0_t, c_t = stage_coefficients(tensor, a, ell)
            assert c0_g == pytest.approx(c0_t, rel=1e-10, abs=1e-12)
            assert np.allclose(c_g, c_t, rtol=1e-10, atol=1e-12)


class TestReceivedPower:
    def test_noiseless_square_law(self):
        p = received_power(2.0, RadioParams(transmit_power_w=1.0))
        assert p == pytest.approx(4.0)
        p = received_power(2.0, RadioParams(transmit_power_w=2.0))
        assert p == pytest.approx(8.0)

    def test_noiseless_ignores_rng(self):
        p = received_power(1j, RadioParams(transmit_power_w=1.0), 0, None)
        assert p == pytest.approx(1.0)

    def test_one_draw_varies(self, rng):
        params = RadioParams(transmit_power_w=1.0, noise_power_w=0.1)
        a = received_power(2.0, params, 1, rng)
        b = received_power(2.0, params, 1, rng)
        assert a != b

    def test_noisy_needs_rng_and_draws_are_nonnegative(self):
        params = RadioParams(transmit_power_w=1.0, noise_power_w=0.1)
        with pytest.raises(ValueError, match="needs an rng"):
            received_power(2.0, params, 1)
        with pytest.raises(ValueError, match="nonnegative"):
            received_power(2.0, params, -1, np.random.default_rng(0))

    def test_draw_count_is_the_mean_of_that_many_measurements(self):
        # M draws from one stream average the M one-draw measurements the
        # same stream gives, drawn as one (M, B) block of real then imaginary
        # parts
        params = RadioParams(transmit_power_w=2.0, noise_power_w=0.3)
        g = np.array([1.0, 2.0 - 1j, 0.5j])
        got = received_power(g, params, 3, np.random.default_rng(5))
        rng = np.random.default_rng(5)
        re, im = rng.normal(0.0, np.sqrt(0.15), (2, 3, 3))
        want = np.mean(np.abs(np.sqrt(2.0) * g + re + 1j * im) ** 2, axis=0)
        assert np.allclose(got, want, rtol=1e-14)

    def test_averaged_converges(self, rng):
        params = RadioParams(transmit_power_w=1.0, noise_power_w=0.04)
        p = received_power(2.0, params, 100_000, rng)
        # E = |g|^2 P + sigma^2, SE about 1.8e-3; allow 5 SE
        assert p == pytest.approx(4.04, abs=0.01)

    def test_batch_shape(self, rng):
        params = RadioParams(transmit_power_w=1.0)
        p = received_power(np.array([1.0, 2.0, 1j]), params)
        assert np.allclose(p, [1.0, 4.0, 1.0])

    def test_parse_noise_model(self):
        assert parse_noise_model("noiseless") == 0
        assert parse_noise_model("one_draw") == parse_noise_model("averaged:1") == 1
        assert parse_noise_model("averaged:32") == 32
        for text in ("sometimes", "averaged", "averaged:0", "averaged:x"):
            with pytest.raises(ValueError):
                parse_noise_model(text)


class TestSnrBoost:
    def test_ratio_mode(self, rng):
        tensor = random_tensor(rng, 2, 2)
        assert tensor.direct != 0
        a = PhaseAssignment.zeros(as_grids(4, 2), 2)
        b = snr_boost(tensor, a, RadioParams())
        assert b.mode == "ratio"
        want = abs(effective_channel(tensor, a)) ** 2 / abs(tensor.direct) ** 2
        assert b.value == pytest.approx(want)

    def test_absolute_mode_when_direct_missing(self, rng):
        t = random_tensor(rng, 2, 2).entries.copy()
        t[0, 0] = 0.0
        tensor = CascadedChannelTensor(t)
        a = PhaseAssignment.zeros(as_grids(4, 2), 2)
        params = RadioParams(transmit_power_w=2.0)
        b = snr_boost(tensor, a, params)
        assert b.mode == "absolute_power"
        want = 2.0 * abs(effective_channel(tensor, a)) ** 2
        assert b.value == pytest.approx(want)

    def test_direct_gain_of_graph(self, rng):
        graph = random_graph(rng, 2, 2)
        assert direct_gain(graph) == graph.tx_to_rx
