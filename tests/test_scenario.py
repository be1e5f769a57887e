import math
from pathlib import Path

import numpy as np
import pytest

import blindbeam
from blindbeam import (
    AngleTable,
    Geometry,
    PropagationMap,
    build_link_graph,
    dbm_to_watts,
    default_scenario_path,
    expand_links_to_tensor,
    load_adjacency,
    load_scenario,
    los_link_channels,
    nlos_link_channels,
    pathloss_amplitude,
    place_random,
    realize_scenario,
    sample_propagation,
    steering_vector,
)


PACKAGED_ADJACENCY = Path(blindbeam.__file__).parent / "data" / "adjacency_10node.txt"


def chain_map(num_surfaces):
    """The relay chain tx -> surface 1 -> ... -> rx alone, built by hand."""
    nn = num_surfaces + 2
    a = np.zeros((nn, nn), dtype=bool)
    for i in range(nn - 1):
        a[i, i + 1] = a[i + 1, i] = True
    return PropagationMap(a)


def square_geometry():
    # tx at origin, two surfaces, rx; distinct distances and bearings
    return Geometry(np.array([[0.0, 0.0], [10.0, 0.0], [10.0, 10.0], [20.0, 10.0]]))


class TestPathloss:
    def test_reference_values(self):
        # amplitude = 10^(-(30 + 22 log10 d)/20) for LoS,
        #             10^(-(32.6 + 36.7 log10 d)/20) otherwise
        assert pathloss_amplitude(1.0, True) == pytest.approx(10 ** -1.5, rel=1e-12)
        assert pathloss_amplitude(1.0, False) == pytest.approx(10 ** -1.63, rel=1e-12)
        assert pathloss_amplitude(10.0, True) == pytest.approx(10 ** -2.6, rel=1e-12)
        assert pathloss_amplitude(100.0, False) == pytest.approx(
            10 ** (-(32.6 + 36.7 * 2) / 20), rel=1e-12)

    def test_monotone_decreasing(self):
        ds = np.linspace(1.0, 200.0, 50)
        for los in (True, False):
            amps = [pathloss_amplitude(d, los) for d in ds]
            assert all(a > b for a, b in zip(amps, amps[1:]))

    def test_nlos_weaker_beyond_a_meter(self):
        for d in (2.0, 10.0, 50.0):
            assert pathloss_amplitude(d, False) < pathloss_amplitude(d, True)

    def test_dbm(self):
        assert dbm_to_watts(30.0) == pytest.approx(1.0)
        assert dbm_to_watts(-98.0) == pytest.approx(10 ** -12.8)
        assert dbm_to_watts(0.0) == pytest.approx(1e-3)


class TestSteering:
    def test_first_element_reference(self):
        v = steering_vector(4, 0.7, 0.03, 0.06)
        assert v[0] == pytest.approx(1.0)
        assert np.allclose(np.abs(v), 1.0)

    def test_half_wavelength_endfire(self):
        # spacing = lambda/2 and cos(angle)=1: each element adds -pi
        v = steering_vector(3, 0.0, 0.03, 0.06)
        assert v[1] == pytest.approx(np.exp(-1j * np.pi))
        assert v[2] == pytest.approx(np.exp(-2j * np.pi))

    def test_broadside_flat(self):
        v = steering_vector(5, np.pi / 2, 0.03, 0.06)
        assert np.allclose(v, 1.0)


class TestGeometry:
    def test_distance_and_bearing(self):
        g = square_geometry()
        assert g.distance(0, 1) == pytest.approx(10.0)
        assert g.distance(1, 2) == pytest.approx(10.0)
        assert g.bearing(0, 1) == pytest.approx(0.0)
        assert g.bearing(1, 2) == pytest.approx(np.pi / 2)
        assert g.bearing(1, 0) == pytest.approx(np.pi)
        assert g.num_surfaces == 2 and g.num_nodes == 4

    def test_angle_table_from_geometry(self):
        g = square_geometry()
        t = AngleTable.from_geometry(g)
        assert t.rad[1, 2] == pytest.approx(np.pi / 2)
        assert t.rad[2, 1] == pytest.approx(3 * np.pi / 2)  # arrival bearing back
        assert t.rad[0, 0] == 0.0

    def test_angle_table_fixed(self):
        t = AngleTable.fixed(4, 0.3)
        assert t.rad.shape == (4, 4) and np.all(t.rad == 0.3)

    def test_angle_table_validation(self):
        with pytest.raises(ValueError, match="square"):
            AngleTable(np.zeros((3, 4)))
        with pytest.raises(ValueError, match="finite"):
            AngleTable(np.full((3, 3), np.nan))


class TestLinkChannels:
    def test_los_modulus_is_pathloss(self):
        g = square_geometry()
        t = AngleTable.from_geometry(g)
        v = los_link_channels(g, t, 0, 1, 4)
        assert np.allclose(np.abs(v), pathloss_amplitude(10.0, True))
        m = los_link_channels(g, t, 1, 2, 4)
        assert m.shape == (4, 4)
        assert np.allclose(np.abs(m), pathloss_amplitude(10.0, True))

    def test_los_outer_structure(self):
        g = square_geometry()
        t = AngleTable.from_geometry(g)
        m = los_link_channels(g, t, 1, 2, 3)
        # rank one by construction
        s = np.linalg.svd(m, compute_uv=False)
        assert s[1] < 1e-12 * s[0]

    def test_los_ramps_read_the_angle_at_each_surface(self):
        # an asymmetric table, so reading rad[j, i] for rad[i, j] shows
        g = square_geometry()
        t = AngleTable(np.random.default_rng(1).uniform(0.0, 2 * np.pi, (4, 4)))

        def ramp(i, j):
            return steering_vector(3, t.rad[i, j], g.spacing_m, g.wavelength_m)

        def phasor(i, j):
            d = g.distance(i, j)
            return pathloss_amplitude(d, True) * np.exp(-2j * np.pi * d / g.wavelength_m)

        # tx -> surface 1: arrival at 1 from tx; surface 2 -> rx: departure
        # from 2 toward rx; surface 1 -> surface 2: departure at 1, arrival at 2
        assert np.allclose(los_link_channels(g, t, 0, 1, 3), phasor(0, 1) * ramp(1, 0),
                           rtol=1e-13, atol=0)
        assert np.allclose(los_link_channels(g, t, 2, 3, 3), phasor(2, 3) * ramp(2, 3),
                           rtol=1e-13, atol=0)
        assert np.allclose(los_link_channels(g, t, 1, 2, 3),
                           phasor(1, 2) * np.outer(ramp(1, 2), ramp(2, 1)), rtol=1e-13, atol=0)

    def test_los_rejects_direct_pair(self):
        g = square_geometry()
        t = AngleTable.from_geometry(g)
        with pytest.raises(ValueError):
            los_link_channels(g, t, 0, 3, 4)

    def test_nlos_statistics(self):
        g = square_geometry()
        rng = np.random.default_rng(7)
        m = nlos_link_channels(g, 1, 2, 120, rng)
        amp = pathloss_amplitude(10.0, False)
        scaled = m / amp
        # unit second moment, split evenly between re and im
        assert np.mean(np.abs(scaled) ** 2) == pytest.approx(1.0, abs=0.05)
        assert np.var(scaled.real) == pytest.approx(0.5, abs=0.03)
        assert np.var(scaled.imag) == pytest.approx(0.5, abs=0.03)

    def test_nlos_seed_reproducible(self):
        g = square_geometry()
        a = nlos_link_channels(g, 0, 1, 8, np.random.default_rng(3))
        b = nlos_link_channels(g, 0, 1, 8, np.random.default_rng(3))
        assert np.array_equal(a, b)

    def test_nlos_direct_scalar(self):
        g = square_geometry()
        z = nlos_link_channels(g, 0, 3, 8, np.random.default_rng(3))
        assert isinstance(z, complex)


class TestPropagation:
    def test_eta_extremes(self):
        rng = np.random.default_rng(0)
        all_on = sample_propagation(1.0, 2, rng)
        assert all(all_on.is_los(i, j) for i in range(4) for j in range(4) if i != j)
        for L in (1, 2, 3):
            only_chain = sample_propagation(0.0, L, rng)
            assert np.array_equal(only_chain.los, chain_map(L).los)

    def test_one_draw_per_pair_chain_included(self):
        # the stream convention: pair (i, j), i < j, in row order takes one
        # uniform draw each, the chain's pairs too, and is LoS below eta
        eta = 0.4
        rng = np.random.default_rng(11)
        prop = sample_propagation(eta, 3, rng)
        ref = np.random.default_rng(11)
        want = chain_map(3).los.copy()
        for i in range(5):
            for j in range(i + 1, 5):
                want[i, j] = want[j, i] = (ref.random() < eta) or want[i, j]
        assert np.array_equal(prop.los, want)
        assert rng.random() == ref.random()

    def test_rejects_eta_outside_unit_interval(self):
        with pytest.raises(ValueError, match="eta must lie in"):
            sample_propagation(1.5, 2, np.random.default_rng(0))

    def test_map_validation(self):
        with pytest.raises(ValueError):
            PropagationMap(np.array([[True, True], [False, False]]))
        with pytest.raises(ValueError):
            PropagationMap(np.array([[True, True], [True, False]]))

    def test_packaged_adjacency(self):
        pm = load_adjacency(PACKAGED_ADJACENCY)
        a = pm.los
        assert a.shape == (10, 10)
        assert np.array_equal(a, a.T)
        assert not a.diagonal().any()
        assert pm.is_los(0, 2) and not pm.is_los(0, 1)


class TestBuildGraph:
    def test_zero_nlos_chain_only(self):
        g = square_geometry()
        t = AngleTable.from_geometry(g)
        graph = build_link_graph(g, t, chain_map(2), 3, np.random.default_rng(0),
                                 zero_nlos=True)
        assert graph.tx_to_rx == 0
        assert np.all(graph.irs_to_rx[0] == 0)     # surface 1 -> rx not in chain
        assert np.all(graph.tx_to_irs[1] == 0)     # tx -> surface 2 not in chain
        assert np.all(np.abs(graph.tx_to_irs[0]) > 0)
        assert np.all(np.abs(graph.hop(0, 1)) > 0)

    def test_direct_los_value(self):
        g = square_geometry()
        t = AngleTable.from_geometry(g)
        a = np.ones((4, 4), dtype=bool)
        np.fill_diagonal(a, False)
        graph = build_link_graph(g, t, PropagationMap(a), 2, np.random.default_rng(0))
        d = g.distance(0, 3)
        want = pathloss_amplitude(d, True) * np.exp(-2j * np.pi * d / g.wavelength_m)
        assert graph.tx_to_rx == pytest.approx(want)

    def test_seeded_reproducibility(self):
        g = square_geometry()
        t = AngleTable.from_geometry(g)
        g1 = build_link_graph(g, t, chain_map(2), 3, np.random.default_rng(5))
        g2 = build_link_graph(g, t, chain_map(2), 3, np.random.default_rng(5))
        t1 = expand_links_to_tensor(g1).entries
        t2 = expand_links_to_tensor(g2).entries
        assert np.array_equal(t1, t2)


    def test_packaged_corridor_keeps_los_hop_factored(self):
        # double_irs.cfg: the surface 1 -> surface 2 hop is on the forced
        # line-of-sight chain, so the graph must hold it as (u, v) factors
        scenario = load_scenario(default_scenario_path())
        graph, _, _ = realize_scenario(scenario, seed=0, trial=0)
        assert set(graph.irs_to_irs) == {(0, 1)}
        u, v = graph.irs_to_irs[(0, 1)]
        assert np.array_equal(graph.hop(0, 1), np.outer(u, v))
        want = los_link_channels(scenario.geometry, AngleTable.from_geometry(scenario.geometry),
                                 1, 2, scenario.num_elements)
        assert np.array_equal(graph.hop(0, 1), want)
        # at N=4096 an (N, N) hop would take 256 MiB; the graph holds none
        big, _, _ = realize_scenario(scenario, seed=0, trial=0, num_elements=4096)
        links = big.tx_to_irs + big.irs_to_rx + big.irs_to_irs[(0, 1)]
        assert [a.shape for a in links] == [(4096,)] * 6

    def test_nlos_surface_pair_is_a_full_matrix(self):
        g = square_geometry()
        graph = build_link_graph(g, AngleTable.from_geometry(g),
                                 PropagationMap(np.zeros((4, 4), dtype=bool)), 3,
                                 np.random.default_rng(0))
        assert set(graph.irs_to_irs) == {(0, 1)}
        assert isinstance(graph.irs_to_irs[(0, 1)], np.ndarray)
        assert graph.irs_to_irs[(0, 1)].shape == (3, 3)


class TestPlacement:
    def test_single_surface_box(self):
        geo = place_random(1, np.random.default_rng(0))
        x, y = geo.positions[1]
        assert 5.0 <= x <= 95.0 and 5.0 <= y <= 95.0
        assert tuple(geo.positions[0]) == (5.0, 5.0)
        assert tuple(geo.positions[-1]) == (95.0, 95.0)

    def test_staircase_boxes(self):
        for seed in range(10):
            geo = place_random(3, np.random.default_rng(seed))
            x, y = geo.positions[2]  # middle surface of three
            assert 35.0 <= x <= 65.0 and 35.0 <= y <= 65.0
            x1, y1 = geo.positions[1]
            assert 5.0 <= x1 <= 35.0 and 5.0 <= y1 <= 35.0
