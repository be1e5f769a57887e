import numpy as np
import pytest

from blindbeam import (
    CascadedChannelTensor,
    EmptyGroupError,
    LinkChannelGraph,
    PhaseGrid,
    RadioParams,
    as_grids,
    build_example,
    cpp_decide,
    csm_decide,
    expand_links_to_tensor,
    generate_samples,
    make_d_instance,
    random_beamforming,
    received_power,
    sequential_cpp_oracle,
    sequential_csm,
    virtual_single_irs,
    wrap_angle,
    zero_phase_baseline,
)
from blindbeam.beamforming import _GroupSums
from conftest import (exact_csm_small, exhaustive_search, final_power, random_graph,
                      random_tensor)

P1 = RadioParams(transmit_power_w=1.0)


def single_surface_tensor(coeffs) -> CascadedChannelTensor:
    """[direct, h_1, ..., h_N] as a 1-surface cascaded tensor."""
    return CascadedChannelTensor(np.asarray(coeffs, dtype=complex))


class TestCsmTable:
    def test_exact_two_element_case(self):
        # direct 1, reflected (1, j), K=2: powers are 5,5,1,1 over the four
        # configurations; element 1 sees means [5, 1], element 2 a flat [3, 3]
        tensor = single_surface_tensor([1.0, 1.0, 1.0j])
        res = exact_csm_small(tensor, 2)
        assert res.assignment.indices[0].tolist() == [0, 0]
        grid = PhaseGrid(2)
        idx = np.array([[0, 0], [0, 1], [1, 0], [1, 1]])
        g = 1.0 + np.exp(1j * grid.omega * idx) @ np.array([1.0, 1.0j])
        groups = _GroupSums(2, grid.num_levels)
        groups.add(idx, np.abs(g) ** 2)
        assert np.allclose(groups.means(), [[5.0, 1.0], [3.0, 3.0]])
        assert np.all(groups.counts == 2)

    def test_decide_prefers_smallest_on_ties(self):
        assert csm_decide(np.array([[5.0, 1.0], [3.0, 3.0]])).tolist() == [0, 0]
        assert csm_decide(np.array([[1.0, 3.0, 2.0, 3.0]])).tolist() == [1]

    def test_decide_scale_invariant(self):
        means = np.array([[1.0, 3.0, 2.0, 0.5]])
        assert np.array_equal(csm_decide(means), csm_decide(means * 1e6))

    def test_empty_group_is_named(self):
        groups = _GroupSums(1, 2)
        groups.add(np.array([[0], [0]]), np.array([1.0, 2.0]))
        with pytest.raises(EmptyGroupError) as exc:
            groups.means()
        assert exc.value.element == 0 and exc.value.phase_index == 1
        assert "element 1" in str(exc.value)

    def test_generate_samples_uniform(self):
        rng = np.random.default_rng(0)
        idx = generate_samples(3, PhaseGrid(2), 100_000, rng)
        assert idx.shape == (100_000, 3)
        freq = idx.mean(axis=0)
        # each index is Bernoulli(1/2); 5 sigma is about 0.008
        assert np.all(np.abs(freq - 0.5) < 0.008)


class TestCppDecide:
    def test_projects_to_nearest_grid_point(self):
        grid = PhaseGrid(4)
        c = np.array([np.exp(-1j * np.pi / 3), -1.0, 1.0])
        assert cpp_decide(1.0, c, grid).tolist() == [1, 2, 0]

    def test_exact_tie_takes_smallest(self):
        # target -pi/4 sits exactly between indices 0 and 3
        assert cpp_decide(1.0, np.array([np.exp(1j * np.pi / 4)]), PhaseGrid(4)).tolist() == [0]

    def test_zero_reflected_stays_at_zero(self):
        # c0 = j would pull a zero path (angle 0) to index 1
        assert cpp_decide(1j, np.array([0.0, -1.0, 0.0]), PhaseGrid(4)).tolist() == [0, 3, 0]

    def test_zero_direct_uses_angle_zero(self):
        # angle(0) = 0 reference: align the reflected path itself to zero
        grid = PhaseGrid(4)
        assert cpp_decide(0.0, np.array([np.exp(-1j * np.pi / 2)]), grid).tolist() == [1]

    @pytest.mark.parametrize("k", [3, 4, 8])
    def test_mixed_vector_in_one_call(self, k):
        # c0 * e^{-j theta} has target theta: zero paths (which angle(c0) = 2
        # would pull off index 0), exact ties half a step either side of
        # index 0 and between 1 and 2, plain projections
        grid = PhaseGrid(k)
        w = grid.omega
        c0 = 2.0 * np.exp(2j)
        c = c0 * np.array([0.0, np.exp(-0.5j * w), np.exp(-2j * w), 0.0,
                           np.exp(0.5j * w), 3.0 * np.exp(-1.5j * w), 0.5 * np.exp(-1j * w)])
        got = cpp_decide(c0, c, grid)
        assert got.dtype == np.int64
        assert got.tolist() == [0, 0, 2, 0, 0, 1, 1]
        # deciding one element at a time gives the same vector
        assert [int(cpp_decide(c0, c[n:n + 1], grid)[0]) for n in range(c.size)] == got.tolist()

    def test_rounding_error_bound(self, rng):
        for k in (2, 3, 4, 8):
            grid = PhaseGrid(k)
            direct = rng.standard_normal() + 1j * rng.standard_normal()
            refl = rng.standard_normal(50) + 1j * rng.standard_normal(50)
            picks = cpp_decide(direct, refl, grid)
            target = np.angle(direct) - np.angle(refl)
            err = np.abs(wrap_angle(grid.phase(picks) - target))
            assert np.all(err <= np.pi / k + 1e-12)


class TestSequentialCsm:
    def test_flat_channel_decides_zero(self):
        t = np.zeros((3, 3), dtype=complex)
        t[0, 0] = 1.0
        res = sequential_csm(CascadedChannelTensor(t), 4, 64, P1, 0, np.random.default_rng(0))
        for ell in range(2):
            assert res.assignment.indices[ell].tolist() == [0, 0]

    def test_evaluation_count(self, rng):
        tensor = random_tensor(rng, 2, 3)
        res = sequential_csm(tensor, 4, 50, P1, 0, rng)
        assert res.evaluations == 100
        res = sequential_csm(random_tensor(rng, 3, 3), 4, (1 << 16) + 5, P1, 1, rng)
        assert res.evaluations == 3 * ((1 << 16) + 5)

    def test_converges_to_exact_with_many_samples(self, rng):
        matched = 0
        total = 0
        for seed in range(10):
            r = np.random.default_rng(seed)
            tensor = random_tensor(r, 1, 3)
            exact = exact_csm_small(tensor, 4)
            sampled = sequential_csm(tensor, 4, 100_000, P1, 0,
                                     np.random.default_rng(seed + 1000))
            matched += int(np.array_equal(exact.assignment.indices[0],
                                          sampled.assignment.indices[0]))
            total += 1
        assert matched >= 9

    def test_noisy_mode_needs_rng(self, rng):
        tensor = random_tensor(rng, 1, 2)
        with pytest.raises(TypeError):
            sequential_csm(tensor, 4, 16, P1, 4)
        with pytest.raises(ValueError, match="needs an rng"):
            received_power(np.ones(16), P1, 4)


class TestExactCsm:
    def test_example_two_bad_variant_collapses(self):
        fx = build_example(2, "bad", 3)
        res = exact_csm_small(fx.tensor, fx.grids)
        assert res.assignment.indices[0].tolist() == [0, 0, 0]
        assert np.array_equal(res.assignment.indices[1], fx.expected_indices[1])

    def test_matches_oracle_on_random_doubles(self):
        # per-stage argmax of the exact conditional mean aligns with the
        # projection rule; ties may differ, so require distance equality then
        agree = 0
        checked = 0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            tensor = random_tensor(rng, 2, 3)
            grids = as_grids(4, 2)
            a = exact_csm_small(tensor, grids).assignment
            b = sequential_cpp_oracle(tensor, grids).assignment
            for ell in range(2):
                checked += tensor.num_elements
                agree += int(np.sum(a.indices[ell] == b.indices[ell]))
        assert agree / checked > 0.97

    def test_enumeration_cap(self, rng):
        tensor = random_tensor(rng, 1, 12)
        with pytest.raises(ValueError):
            exact_csm_small(tensor, 8)


class TestCppOracle:
    def test_takes_no_measurements(self, rng):
        tensor = random_tensor(rng, 2, 3)
        res = sequential_cpp_oracle(tensor, 4)
        assert res.evaluations == 0

    def test_single_surface_matches_scalar_rule(self, rng):
        # each element takes the grid phase that maximizes its projection
        # Re(conj(c0) c_n e^{j theta}) onto the direct path
        grid = PhaseGrid(4)
        for _ in range(20):
            coeffs = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            res = sequential_cpp_oracle(single_surface_tensor(coeffs), grid)
            proj = np.real(np.conj(coeffs[0]) * coeffs[1:, None] * grid.factor_table())
            assert res.assignment.indices[0].tolist() == np.argmax(proj, axis=1).tolist()

    def test_improves_over_zero_phases(self, rng):
        for _ in range(10):
            tensor = random_tensor(rng, 2, 4)
            res = sequential_cpp_oracle(tensor, 4)
            base = zero_phase_baseline(tensor, 4)
            assert final_power(tensor, res) >= final_power(tensor, base) - 1e-12


class TestBaselines:
    def test_zero_phase_power(self, rng):
        tensor = random_tensor(rng, 2, 3)
        res = zero_phase_baseline(tensor, [2, 4])
        want = abs(tensor.entries.sum()) ** 2
        assert final_power(tensor, res) == pytest.approx(want)
        assert res.evaluations == 0
        assert [g.num_levels for g in res.assignment.grids] == [2, 4]

    def test_random_budget_monotone(self, rng):
        tensor = random_tensor(rng, 2, 3)
        small = random_beamforming(tensor, 4, 20, P1, 0, np.random.default_rng(9))
        large = random_beamforming(tensor, 4, 500, P1, 0, np.random.default_rng(9))
        assert final_power(tensor, large) >= final_power(tensor, small)
        assert (small.evaluations, large.evaluations) == (20, 500)

    def test_random_needs_rng(self, rng):
        tensor = random_tensor(rng, 2, 3)
        with pytest.raises(TypeError):
            random_beamforming(tensor, 4, 10, P1, 0)
        with pytest.raises(TypeError):
            virtual_single_irs(tensor, 4, 10, P1, 0)

    def test_virtual_requires_equal_grids(self, rng):
        tensor = random_tensor(rng, 2, 3)
        with pytest.raises(ValueError):
            virtual_single_irs(tensor, [2, 4], 100, P1, 0, rng)

    def test_virtual_single_surface_equals_sequential(self, rng):
        tensor = random_tensor(rng, 1, 3)
        a = virtual_single_irs(tensor, 4, 2000, P1, 1, np.random.default_rng(4))
        b = sequential_csm(tensor, 4, 2000, P1, 1, np.random.default_rng(4))
        assert np.array_equal(a.assignment.indices[0], b.assignment.indices[0])
        assert a.evaluations == b.evaluations == 2000

    def test_virtual_blind_to_pure_product_channel(self):
        # with every path through both surfaces, the marginal means carry no
        # signal, so the joint table cannot do better than chance while the
        # sequential oracle aligns fully
        rng = np.random.default_rng(2)
        t = np.zeros((9, 9), dtype=complex)
        u = np.exp(1j * rng.uniform(0, 2 * np.pi, 8))
        v = np.exp(1j * rng.uniform(0, 2 * np.pi, 8))
        t[1:, 1:] = np.outer(u, v)
        tensor = CascadedChannelTensor(t)
        oracle = sequential_cpp_oracle(tensor, 4)
        virt = virtual_single_irs(tensor, 4, 4000, P1, 0, rng)
        assert final_power(tensor, oracle) > 2.0 * final_power(tensor, virt)

    def test_exhaustive_is_a_ceiling(self, rng):
        for _ in range(5):
            tensor = random_tensor(rng, 2, 2)
            _, best = exhaustive_search(tensor, 2)
            exact = exact_csm_small(tensor, 2)
            assert best >= final_power(tensor, exact) - 1e-12

    def test_exhaustive_cap(self, rng):
        tensor = random_tensor(rng, 2, 4)
        with pytest.raises(ValueError):
            exhaustive_search(tensor, 32)


class TestExamplesEndToEnd:
    @pytest.mark.parametrize("example_id,variant", [
        (1, "bad"), (1, "good"), (2, "bad"), (2, "good"), (3, "bad"), (3, "good"),
    ])
    def test_oracle_reproduces_documented_decisions(self, example_id, variant):
        for n in (3, 5, 9):
            fx = build_example(example_id, variant, n)
            res = sequential_cpp_oracle(fx.tensor, fx.grids)
            for ell in range(2):
                assert np.array_equal(res.assignment.indices[ell],
                                      fx.expected_indices[ell]), (
                    f"surface {ell + 1} at N={n}")

    def test_exact_csm_agrees_where_reference_exists(self):
        # conditional means carry signal only against a nonzero static
        # aggregate; these variants either have one at each stage or expect
        # the flat-table fallback (all indices zero) anyway
        for example_id, variant in [(1, "bad"), (2, "bad"), (3, "good")]:
            fx = build_example(example_id, variant, 3)
            res = exact_csm_small(fx.tensor, fx.grids)
            for ell in range(2):
                assert np.array_equal(res.assignment.indices[ell],
                                      fx.expected_indices[ell]), (example_id, variant, ell)

    def test_exact_csm_blind_without_reference(self):
        # the good variant of the first example has no skip paths at all, so
        # the sampled scheme sees flat conditional means and stays at zero
        # while the projection oracle (which may align against phase 0)
        # reaches the documented pattern
        fx = build_example(1, "good", 3)
        res = exact_csm_small(fx.tensor, fx.grids)
        assert res.assignment.indices[0].tolist() == [0, 0, 0]
        oracle = sequential_cpp_oracle(fx.tensor, fx.grids)
        assert oracle.assignment.indices[0].tolist() == [0, 2, 0]

    def test_closed_form_powers(self):
        for n in (3, 5):
            for example_id, variant, want in ((1, "good", n ** 4), (1, "bad", (2 * n + 1) ** 2),
                                              (3, "bad", (3 * n) ** 2),
                                              (3, "good", (n * n + 2 * n) ** 2)):
                fx = build_example(example_id, variant, n)
                res = sequential_cpp_oracle(fx.tensor, fx.grids)
                assert final_power(fx.tensor, res) == pytest.approx(float(want))


class TestGraphPath:
    def test_sequential_runs_on_link_graphs(self, rng):
        graph = random_graph(rng, 2, 3)
        res = sequential_csm(graph, 4, 200, P1, 0, rng)
        assert res.assignment.num_surfaces == 2
        assert res.evaluations == 400
        # the graph and its expanded tensor give the assignment the same power
        tensor = expand_links_to_tensor(graph)
        assert final_power(graph, res) == pytest.approx(final_power(tensor, res))

    def test_oracle_graph_equals_oracle_tensor(self, rng):
        graph = random_graph(rng, 2, 3)
        tensor = expand_links_to_tensor(graph)
        a = sequential_cpp_oracle(graph, 4).assignment
        b = sequential_cpp_oracle(tensor, 4).assignment
        for ell in range(2):
            assert np.array_equal(a.indices[ell], b.indices[ell])


def _rotated(channel, phase: complex):
    """The channel with every path coefficient multiplied by one unit phase:
    every tensor entry, or every link that leaves the transmitter."""
    if isinstance(channel, CascadedChannelTensor):
        return CascadedChannelTensor(channel.entries * phase)
    return LinkChannelGraph(tuple(v * phase for v in channel.tx_to_irs), channel.irs_to_rx,
                            channel.irs_to_irs, channel.tx_to_rx * phase)


BLIND_CHANNELS = {
    "d-instance-L2": lambda rng: (make_d_instance(2, 16, as_grids(4, 2), rng).tensor, 4),
    "d-instance-L3": lambda rng: (make_d_instance(3, 6, as_grids(6, 3), rng).tensor, 6),
    "graph": lambda rng: (random_graph(rng, 2, 8), 4),
}


@pytest.mark.parametrize("optimizer", [sequential_csm, random_beamforming, virtual_single_irs])
@pytest.mark.parametrize("kind", sorted(BLIND_CHANNELS))
def test_blind_decisions_ignore_a_common_phase(kind, optimizer):
    # a blind optimizer sees received powers only, and a unit phase common to
    # every path leaves every noiseless power unchanged, so it cannot move a
    # decision; a noise draw would, so the test stays noiseless
    for seed in range(20):
        rng = np.random.default_rng(seed)
        channel, levels = BLIND_CHANNELS[kind](rng)
        turned = _rotated(channel, np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)))
        a = optimizer(channel, levels, 2000, P1, 0, np.random.default_rng(seed + 100))
        b = optimizer(turned, levels, 2000, P1, 0, np.random.default_rng(seed + 100))
        assert a.evaluations == b.evaluations > 0
        for ell, (x, y) in enumerate(zip(a.assignment.indices, b.assignment.indices,
                                         strict=True)):
            assert np.array_equal(x, y), (seed, ell)
