"""Optimality-condition checkers, index-set bookkeeping, and the
alignment-error bound, verified against explicit path enumerations."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blindbeam import (
    ExperimentConfig,
    PhaseAssignment,
    PhaseGrid,
    RankOneFactors,
    as_grids,
    build_example,
    check_c_conditions,
    check_cprime,
    check_d_conditions,
    check_rank_one,
    gamma_min_double,
    leakage_abs_sum,
    lemma1_verify,
    make_d_instance,
    recover_full_path_factors,
    run_conditions_probability,
    sequential_cpp_oracle,
    theta_hat_star_all,
    wrap_angle,
)
from blindbeam import conditions
from blindbeam.channel import CascadedChannelTensor
from blindbeam.conditions import DEFAULT_GAMMA_POINTS, margin_budget, margin_rhs
from blindbeam.fixtures import check_d_grids, d_instance_a_max
from conftest import IndexSetSpec, d3_scan_oracle


def unit_phases(rng, shape):
    return np.exp(2j * np.pi * rng.random(shape))


def d_report(inst):
    """The D-condition check of a generated instance."""
    return check_d_conditions(inst.tensor, inst.grids)


class TestRankOne:
    def test_exact_outer_product_passes(self, rng):
        u = unit_phases(rng, 5) * (0.5 + rng.random(5))
        v = unit_phases(rng, 5) * (0.5 + rng.random(5))
        check = check_rank_one(np.outer(u, v))
        assert check.passed
        assert check.singular_ratio <= 1e-12
        recon = check.factors.outer_product()
        assert np.abs(recon - np.outer(u, v)).max() <= 1e-10

    def test_gauge_leading_entry_real_nonnegative(self, rng):
        u = unit_phases(rng, 4)
        v = unit_phases(rng, 4)
        check = check_rank_one(np.outer(u, v))
        lead = check.factors.vectors[0][0]
        assert abs(lead.imag) <= 1e-12 and lead.real >= 0

    def test_diagonal_ridge_fails(self):
        fx = build_example(1, "bad", 5)
        check = check_rank_one(fx.tensor.entries[1:, 1:])
        assert not check.passed
        assert "singular value ratio" in check.reason

    def test_zero_factor_entry_fails(self, rng):
        u = unit_phases(rng, 4)
        u[2] = 0.0
        v = unit_phases(rng, 4)
        check = check_rank_one(np.outer(u, v))
        assert not check.passed
        assert "zero" in check.reason

    def test_zero_matrix_fails(self):
        check = check_rank_one(np.zeros((3, 3), dtype=complex))
        assert not check.passed and check.factors is None

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            check_rank_one(np.ones((2, 3)))

    def test_recover_multiway_factors(self, rng):
        vs = [unit_phases(rng, 3) * (0.5 + rng.random(3)) for _ in range(3)]
        block = RankOneFactors.from_raw(vs).outer_product()
        factors, residual, ratio = recover_full_path_factors(block)
        assert residual <= 1e-10 and ratio <= 1e-10
        assert np.abs(factors.outer_product() - block).max() <= 1e-10

    def test_from_raw_preserves_outer_product(self, rng):
        vs = [unit_phases(rng, 4), unit_phases(rng, 4)]
        fixed = RankOneFactors.from_raw(vs)
        assert np.abs(fixed.outer_product() - np.outer(*vs)).max() <= 1e-12


class TestGammaMinDouble:
    def test_zero_one_hop_gives_zero_margin(self):
        fx = build_example(1, "good", 5)
        gamma, ratios = gamma_min_double(fx.tensor)
        assert gamma == 0.0
        assert np.all(ratios == 0.0)

    def test_dominant_one_hop_infeasible(self):
        # alternating rows sum to magnitude 1 against a one-hop of 2
        fx = build_example(3, "bad", 5)
        gamma, ratios = gamma_min_double(fx.tensor)
        assert gamma is None
        assert np.all(np.isinf(ratios))

    def test_constant_rows_feasible(self):
        n = 9
        fx = build_example(3, "good", n)
        gamma, ratios = gamma_min_double(fx.tensor)
        assert gamma == pytest.approx(math.asin(2.0 / n), abs=1e-12)
        assert np.allclose(ratios, 2.0 / n)

    def test_mixed_rows_decide_per_element(self):
        # rows: zero one-hop on a zero row sum, zero one-hop, ratio 1/2, and
        # a one-hop equal to its row sum
        e = np.zeros((5, 5), dtype=complex)
        e[2, 1:3] = e[3, 1:3] = 1.0
        e[3, 0] = 1.0
        e[4, 0], e[4, 1:3] = 2j, 1j
        gamma, ratios = gamma_min_double(CascadedChannelTensor(e))
        assert ratios.tolist() == [0.0, 0.0, 0.5, 1.0]
        assert gamma == math.pi / 2
        # a nonzero one-hop on the zero row sum, then one above its row sum
        e[1, 0] = 1.0
        gamma, ratios = gamma_min_double(CascadedChannelTensor(e))
        assert gamma is None
        assert ratios.tolist() == [math.inf, 0.0, 0.5, 1.0]
        e[1, 0], e[3, 0] = 0.0, 3.0
        gamma, ratios = gamma_min_double(CascadedChannelTensor(e))
        assert gamma is None
        assert ratios.tolist() == [0.0, 0.0, math.inf, 1.0]

    def test_requires_two_surfaces(self, rng):
        t = CascadedChannelTensor(unit_phases(rng, (3, 3, 3)))
        with pytest.raises(ValueError):
            gamma_min_double(t)


class TestCConditions:
    def test_pass_on_constant_row_channel(self):
        report = check_c_conditions(build_example(3, "good", 9).tensor, 4)
        assert report.passed
        assert report.subconditions == {"c1": True, "c2": True, "c3": True}
        assert report.gamma_upper == pytest.approx(math.pi / 4)
        assert report.gamma_min == pytest.approx(math.asin(2.0 / 9))
        assert report.margins["c3_slack"] > 0

    def test_fail_when_leakage_dominates(self):
        report = check_c_conditions(build_example(3, "bad", 9).tensor, 4)
        assert not report.passed
        assert report.subconditions["c1"] and report.subconditions["c2"]
        assert not report.subconditions["c3"]
        assert report.gamma_min is None
        assert report.margins["c3_slack"] == -math.inf

    def test_fail_on_nonseparable_block(self):
        report = check_c_conditions(build_example(1, "bad", 5).tensor, 4)
        assert not report.subconditions["c1"]

    def test_binary_grid_fails_resolution(self):
        report = check_c_conditions(build_example(1, "good", 5).tensor, 2)
        assert not report.subconditions["c2"]
        assert report.margins["c2_levels"] < 0

    def test_requires_two_surfaces(self, rng):
        t = CascadedChannelTensor(unit_phases(rng, (3, 3, 3)))
        with pytest.raises(ValueError):
            check_c_conditions(t, 4)

    def test_report_json_round_trip(self):
        report = check_c_conditions(build_example(3, "good", 9).tensor, 4)
        assert report.passed is True
        assert report.condition_set == "C"
        assert set(report.subconditions) == {"c1", "c2", "c3"}


class TestCprimeConditions:
    def test_pure_product_channel_passes_as_idealization(self):
        fx = build_example(1, "good", 5)
        report = check_cprime(fx.tensor, fx.grids, continuous=True)
        assert report.passed
        assert report.gamma_min == 0.0

    def test_discrete_grid_never_satisfies_continuity(self):
        fx = build_example(1, "good", 5)
        report = check_cprime(fx.tensor, fx.grids, continuous=False)
        assert not report.subconditions["c'2"]
        assert not report.passed
        # the discrete check set has no such requirement
        assert check_c_conditions(fx.tensor, fx.grids).passed
        assert any("idealization" in note for note in report.notes)

    def test_one_hop_leakage_fails_zero_requirement(self):
        fx = build_example(2, "good", 5)
        report = check_cprime(fx.tensor, fx.grids, continuous=True)
        assert not report.subconditions["c'3"]
        assert report.gamma_min is None
        assert report.margins["c'3_slack"] < 0

    def test_direct_path_counts_as_leakage(self):
        fx = build_example(1, "good", 5)
        entries = fx.tensor.entries.copy()
        entries[0, 0] = 0.1
        report = check_cprime(CascadedChannelTensor(entries), fx.grids,
                              continuous=True)
        assert not report.subconditions["c'3"]
        report = check_cprime(CascadedChannelTensor(entries), fx.grids,
                              zero_tol=0.2, continuous=True)
        assert report.subconditions["c'3"]


class TestIndexSets:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            IndexSetSpec(surface=0, element=1, kind="sideways")

    def test_rejects_bad_indices(self):
        with pytest.raises(ValueError):
            IndexSetSpec(surface=-1, element=1, kind="through")
        with pytest.raises(ValueError):
            IndexSetSpec(surface=0, element=0, kind="through")

    @pytest.mark.parametrize("num_surfaces,num_elements", [(2, 2), (2, 3), (3, 2), (3, 3)])
    def test_counts_match_enumeration(self, num_surfaces, num_elements):
        for surface in range(num_surfaces):
            for kind in ("through", "all_active", "some_skip"):
                spec = IndexSetSpec(surface=surface, element=1, kind=kind)
                members = list(spec.tuples(num_surfaces, num_elements))
                assert len(members) == spec.count(num_surfaces, num_elements)
                assert len(set(members)) == len(members)
                for tup in members:
                    assert tup[surface] == 1

    def test_through_partitions_into_active_and_skip(self):
        L, n, surface, element = 3, 3, 1, 2
        through = set(IndexSetSpec(surface, element, "through").tuples(L, n))
        active = set(IndexSetSpec(surface, element, "all_active").tuples(L, n))
        skip = set(IndexSetSpec(surface, element, "some_skip").tuples(L, n))
        assert active | skip == through
        assert not (active & skip)
        assert all(all(x >= 1 for x in tup) for tup in active)
        assert all(any(x == 0 for i, x in enumerate(tup) if i != surface)
                   for tup in skip)

    def test_tuples_validate_ranges(self):
        spec = IndexSetSpec(surface=2, element=1, kind="through")
        with pytest.raises(ValueError):
            list(spec.tuples(2, 3))
        spec = IndexSetSpec(surface=0, element=4, kind="through")
        with pytest.raises(ValueError):
            list(spec.tuples(2, 3))

    def test_leakage_sum_matches_tuple_enumeration(self, rng):
        t = CascadedChannelTensor(unit_phases(rng, (4, 4, 4)) * rng.random((4, 4, 4)))
        for surface in range(3):
            for element in range(1, 4):
                spec = IndexSetSpec(surface, element, "some_skip")
                expected = sum(abs(t.entries[tup]) for tup in spec.tuples(3, 3))
                assert leakage_abs_sum(t, surface, element) == pytest.approx(expected, rel=1e-12)

    def test_leakage_sum_double_surface(self, rng):
        t = CascadedChannelTensor(unit_phases(rng, (5, 5)))
        # only skip path through element m of the first surface is (m, 0)
        for m in range(1, 5):
            assert leakage_abs_sum(t, 0, m) == pytest.approx(abs(t.entries[m, 0]))
            assert leakage_abs_sum(t, 1, m) == pytest.approx(abs(t.entries[0, m]))


class TestDConditions:
    def test_generated_instance_passes(self, rng):
        report = d_report(make_d_instance(2, 4, 4, rng))
        assert report.passed
        assert report.condition_set == "D"
        assert 0.0 <= report.gamma_min < report.gamma_upper

    def test_three_surfaces_pass_with_fine_leading_grids(self, rng):
        assert d_report(make_d_instance(3, 3, (8, 8, 4), rng)).passed

    def test_margin_inequality_closed_form(self):
        # coherent sums 2, sqrt(2), 4 and absolute sums 2, 2, 4: later
        # surfaces enter coherently, earlier ones by absolute mass times
        # cos(gamma + pi/K)
        factors = RankOneFactors.from_raw(
            [np.array([1.0, 1.0]), np.array([1.0, -1j]), np.array([2.0, 2.0])])
        grids = as_grids((8, 6, 4), 3)
        g = np.array([0.1, 0.2])
        assert margin_budget(grids) == pytest.approx(0.5 - 1 / 8 - 1 / 6)
        want = [
            np.sin(g) * math.sqrt(2) * 4,
            np.sin(g) * 4 * 2 * np.cos(g + math.pi / 8),
            np.sin(g) * 2 * np.cos(g + math.pi / 8) * 2 * np.cos(g + math.pi / 6),
        ]
        for ell in range(3):
            assert np.allclose(margin_rhs(factors, grids, g, ell), want[ell], rtol=1e-12)

    @pytest.mark.parametrize("num_surfaces", [2, 3, 4])
    def test_two_l_levels_satisfy_budget(self, num_surfaces, rng):
        # K = 2L leaves a positive 1/K budget for every surface count
        report = d_report(make_d_instance(num_surfaces, 3, 2 * num_surfaces, rng))
        assert report.subconditions["d2"]
        assert report.passed

    def test_flat_grids_fail_budget_at_three_surfaces(self, rng):
        inst = make_d_instance(3, 3, (8, 8, 4), rng)
        report = check_d_conditions(inst.tensor, (4, 4, 4))
        assert not report.subconditions["d2"]
        assert report.margins["d2_budget"] == pytest.approx(0.0)
        assert not report.subconditions["d3"]

    @pytest.mark.parametrize("num_surfaces", [2, 3])
    def test_grid_check_raises_exactly_when_d2_fails(self, num_surfaces, rng):
        # make_d_instance's grid check and the D report share one predicate
        inst = make_d_instance(num_surfaces, 3, 2 * num_surfaces, rng)
        for levels in itertools.product((2, 3, 4, 6, 8), repeat=num_surfaces):
            d2 = check_d_conditions(inst.tensor, levels).subconditions["d2"]
            if d2:
                check_d_grids(as_grids(levels, num_surfaces))
            else:
                with pytest.raises(ValueError, match="violate the resolution requirements"):
                    check_d_grids(as_grids(levels, num_surfaces))

    def test_zero_leakage_scale_is_trivially_feasible(self, rng):
        report = d_report(make_d_instance(2, 4, 4, rng, a_scale=0.0))
        assert report.passed
        assert report.gamma_min == 0.0

    def test_agrees_with_double_surface_checks(self, rng):
        for _ in range(10):
            inst = make_d_instance(2, 4, 4, rng)
            assert check_c_conditions(inst.tensor, inst.grids).passed
        bad = build_example(3, "bad", 9)
        assert not check_c_conditions(bad.tensor, bad.grids).passed
        assert not check_d_conditions(bad.tensor, bad.grids).subconditions["d3"]
        good = build_example(3, "good", 9)
        assert check_c_conditions(good.tensor, good.grids).passed
        assert check_d_conditions(good.tensor, good.grids).passed

    @pytest.mark.parametrize("eps", [1e-12, 1e-11, 1e-10, 1e-9, 3e-9, 5e-9, 1e-8, 2e-8,
                                     1e-7, 1e-6, 1e-5, 1e-4])
    def test_c1_and_d1_share_one_rank_one_rule(self, eps):
        # a max-residual rule and a singular value ratio rule part on 14 of
        # these 24 blocks at eps = 3e-9 to 1e-8; C1 and D1 read one verdict
        for seed in range(8):
            rng = np.random.default_rng(seed)
            n = (4, 20)[seed % 2]
            u, v = unit_phases(rng, n), unit_phases(rng, n)
            noise = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            e = np.zeros((n + 1, n + 1), dtype=complex)
            e[1:, 1:] = np.outer(u, v) + eps * noise
            t = CascadedChannelTensor(e)
            rank, d = check_rank_one(e[1:, 1:]), check_d_conditions(t, 4)
            assert d.subconditions["d1"] == check_c_conditions(t, 4).subconditions["c1"]
            assert d.subconditions["d1"] == rank.passed
            assert d.margins["d1_singular_ratio"] == rank.singular_ratio

    def test_full_rank_blocks_fail_d1_by_singular_value_ratio(self, rng):
        ridge = build_example(1, "bad", 5)
        full = CascadedChannelTensor(unit_phases(rng, (5, 5, 5)))
        for tensor, levels in [(ridge.tensor, 4), (full, (8, 8, 4))]:
            report = check_d_conditions(tensor, levels)
            assert not report.subconditions["d1"]
            assert len(report.notes) == 1
            assert report.notes[0].startswith("d1: singular value ratio")

    @pytest.mark.parametrize("margin", [0.5, 1.0])
    @pytest.mark.parametrize("num_surfaces, n", [(2, 6), (3, 4), (4, 3)])
    def test_recovered_factors_give_the_generators_d3(self, num_surfaces, n, margin):
        # the tensor fixes the factors up to a per-surface scale at a fixed
        # product, and the margin inequality does not see that scale
        for seed in range(5):
            inst = make_d_instance(num_surfaces, n, 2 * num_surfaces,
                                   np.random.default_rng(seed), margin=margin)
            report = check_d_conditions(inst.tensor, inst.grids)
            want = d3_scan_oracle(inst.tensor, inst.factors, inst.grids, DEFAULT_GAMMA_POINTS)
            assert report.subconditions["d3"] == want[0]
            assert report.gamma_min == want[1]

    def test_zero_factor_entry_named_alike_in_c1_and_d1(self, rng):
        # C1 and D1 share one zero-entry rule and its wording
        u, v = unit_phases(rng, 4), unit_phases(rng, 4)
        v[2] = 0.0
        e = np.zeros((5, 5), dtype=complex)
        e[1:, 1:] = np.outer(u, v)
        t = CascadedChannelTensor(e)
        c = check_c_conditions(t, 4)
        d = check_d_conditions(t, 4)
        assert not c.subconditions["c1"] and not d.subconditions["d1"]
        assert "c1: factor 2 entry 3 is zero" in c.notes
        assert "d1: factor 2 entry 3 is zero" in d.notes

    def test_needs_at_least_two_surfaces(self, rng):
        t = CascadedChannelTensor(unit_phases(rng, (4,)))
        with pytest.raises(ValueError):
            check_d_conditions(t, (4,))


def count_rank_one_calls(monkeypatch) -> list:
    """Record the block shape of every check_rank_one call from here on."""
    calls = []
    original = conditions.check_rank_one

    def counted(block):
        calls.append(block.shape)
        return original(block)

    monkeypatch.setattr(conditions, "check_rank_one", counted)
    return calls


def two_surface_entries(kind, rng, n=4):
    """Entries of a double-surface tensor whose all-active block is rank one,
    full rank or zero, with leakage on the direct and one-hop paths."""
    e = 0.3 * unit_phases(rng, (n + 1, n + 1))
    e[1:, 1:] = {"rank-one": np.outer(unit_phases(rng, n), unit_phases(rng, n)),
                 "full-rank": unit_phases(rng, (n, n)),
                 "zero": 0.0}[kind]
    return e


class TestSharedRankOneCheck:
    """C1, C'1 and D1 read one check_rank_one result per tensor."""

    def test_three_checks_call_check_rank_one_once(self, monkeypatch, rng):
        t2 = CascadedChannelTensor(two_surface_entries("rank-one", rng))
        t3 = make_d_instance(3, 3, 6, rng).tensor
        calls = count_rank_one_calls(monkeypatch)
        check_c_conditions(t2, 4)
        check_cprime(t2, 4, continuous=True)
        check_d_conditions(t2, 4)
        check_c_conditions(t2, 8)
        assert calls == [(4, 4)]
        check_d_conditions(t3, 6)
        check_d_conditions(t3, 8)
        assert calls == [(4, 4), (3, 3, 3)]

    @pytest.mark.parametrize("kind", ["rank-one", "full-rank", "zero"])
    def test_checked_tensor_reports_equal_fresh_ones(self, kind, rng):
        e = two_surface_entries(kind, rng)
        checks = [lambda t: check_c_conditions(t, 4),
                  lambda t: check_cprime(t, 4, zero_tol=0.5, continuous=True),
                  lambda t: check_d_conditions(t, 4)]
        for first in range(3):
            checked = CascadedChannelTensor(e)
            checks[first](checked)
            for check in checks:
                # verdicts, margins (inf included) and notes, field by field
                assert check(checked) == check(CascadedChannelTensor(e.copy()))
        assert check_d_conditions(checked, 4).subconditions["d1"] == (kind == "rank-one")

    @pytest.mark.parametrize("surfaces, per_case", [(2, [(4, 4)]), (3, [(4, 4), (4, 4, 4)])])
    def test_conditions_runner_checks_each_tensor_once(self, monkeypatch, surfaces, per_case):
        calls = count_rank_one_calls(monkeypatch)
        run_conditions_probability(ExperimentConfig.merge(None, dict(
            surfaces=surfaces, elements=4, levels="8", trials=2, eta_sweep="0,0.5")))
        assert calls == per_case * 4


@settings(deadline=None, max_examples=200)
@given(n=st.integers(2, 6), levels=st.tuples(st.integers(3, 8), st.integers(3, 8)),
       log_scale=st.floats(-3.0, 1.0), rank_one=st.booleans(),
       los=st.tuples(st.booleans(), st.booleans(), st.booleans()),
       seed=st.integers(0, 2**32 - 1))
def test_c_and_d_verdicts_agree_at_two_surfaces(n, levels, log_scale, rank_one, los, seed):
    # At L = 2, D2 is C2 and D3 on surface 1 is C3's arcsin rule read on a
    # grid of DEFAULT_GAMMA_POINTS angles; they may part only when gamma_min
    # lies within one grid step of the bound.  Random LoS masks zero the
    # direct, surface 1 -> rx and tx -> surface 2 links.
    rng = np.random.default_rng(seed)
    e = np.zeros((n + 1, n + 1), dtype=complex)
    u, v = (unit_phases(rng, n) * (0.1 + rng.random(n)) for _ in range(2))
    e[1:, 1:] = np.outer(u, v) if rank_one else unit_phases(rng, (n, n))
    scale = 10.0 ** log_scale
    e[0, 0] = scale * unit_phases(rng, ()) * los[0]
    e[1:, 0] = scale * rng.random(n) * unit_phases(rng, n) * los[1]
    e[0, 1:] = scale * rng.random(n) * unit_phases(rng, n) * los[2]
    t = CascadedChannelTensor(e)
    c, d = check_c_conditions(t, levels), check_d_conditions(t, levels)
    assert (c.subconditions["c1"], c.subconditions["c2"]) == (d.subconditions["d1"],
                                                              d.subconditions["d2"])
    assert c.gamma_upper == pytest.approx(d.gamma_upper, rel=1e-15)
    step = c.gamma_upper / DEFAULT_GAMMA_POINTS
    near_bound = c.gamma_min is not None and c.gamma_upper - c.gamma_min <= step
    assert c.passed == d.passed or near_bound
    if c.subconditions["c1"] and c.subconditions["c3"] and d.subconditions["d3"]:
        assert -1e-9 <= d.gamma_min - c.gamma_min < step + 1e-9


def brute_force_theta_targets(tensor, decided, ell):
    """Reference ideal phases: explicit sums over the skip paths and the
    per-element all-active paths, earlier surfaces at their decided phases."""
    ent = tensor.entries
    num_surfaces = ent.ndim
    n = ent.shape[0] - 1

    def earlier_weight(tup):
        w = 1.0 + 0.0j
        for i in range(ell):
            if tup[i] >= 1:
                w *= np.exp(1j * decided.phase_values(i)[tup[i] - 1])
        return w

    s0 = 0.0 + 0.0j
    for tup in np.ndindex(*ent.shape):
        if tup[ell] == 0:
            s0 += ent[tup] * earlier_weight(tup)
    ang_s0 = 0.0 if s0 == 0 else float(np.angle(s0))
    targets = np.zeros(n)
    for m in range(1, n + 1):
        agg = 0.0 + 0.0j
        for tup in np.ndindex(*ent.shape):
            if tup[ell] != m:
                continue
            if any(tup[i] == 0 for i in range(num_surfaces) if i != ell):
                continue
            agg += ent[tup] * earlier_weight(tup)
        ang = 0.0 if agg == 0 else float(np.angle(agg))
        targets[m - 1] = wrap_angle(ang_s0 - ang)
    return targets


class TestIdealPhaseTargets:
    @pytest.mark.parametrize("num_surfaces", [2, 3, 4])
    def test_matches_brute_force(self, num_surfaces, rng):
        n = 3
        shape = (n + 1,) * num_surfaces
        t = CascadedChannelTensor(unit_phases(rng, shape) * (0.2 + rng.random(shape)))
        grids = as_grids(4, num_surfaces)
        decided = PhaseAssignment(
            grids, tuple(rng.integers(0, 4, size=n) for _ in range(num_surfaces)))
        for ell in range(num_surfaces):
            got = theta_hat_star_all(t, decided, ell)
            want = brute_force_theta_targets(t, decided, ell)
            assert np.abs(wrap_angle(got - want)).max() <= 1e-10

    def test_constant_row_channel_targets(self):
        # no skip paths touch the first surface's decision, so its targets sit
        # at zero; the second stage then has to cancel the one-hop quadrature
        n = 9
        fx = build_example(3, "good", n)
        zeros = PhaseAssignment(fx.grids, (np.zeros(n, dtype=np.int64),) * 2)
        first = theta_hat_star_all(fx.tensor, zeros, 0)
        assert np.abs(first).max() <= 1e-12
        second = theta_hat_star_all(fx.tensor, zeros, 1)
        assert np.allclose(second, math.pi / 2)

    def test_zero_aggregate_raises(self, rng):
        entries = unit_phases(rng, (4, 4))
        entries[1, 1:] = 0.0
        t = CascadedChannelTensor(entries)
        decided = PhaseAssignment(as_grids(4, 2), (np.zeros(3, dtype=np.int64),) * 2)
        with pytest.raises(ValueError, match="element 1"):
            theta_hat_star_all(t, decided, 0)

    def test_surface_index_validated(self, rng):
        t = CascadedChannelTensor(unit_phases(rng, (3, 3)))
        decided = PhaseAssignment(as_grids(4, 2), (np.zeros(2, dtype=np.int64),) * 2)
        with pytest.raises(ValueError):
            theta_hat_star_all(t, decided, 2)


class TestAlignmentBound:
    def test_oracle_decisions_stay_within_bound(self, rng):
        for _ in range(8):
            inst = make_d_instance(2, 5, 4, rng)
            result = sequential_cpp_oracle(inst.tensor, inst.grids)
            report = lemma1_verify(inst.tensor, inst.grids,
                                   result.assignment, d_report(inst).gamma_min)
            assert report.all_ok, report.violations

    def test_three_surface_instances(self, rng):
        for _ in range(3):
            inst = make_d_instance(3, 3, (8, 8, 4), rng)
            result = sequential_cpp_oracle(inst.tensor, inst.grids)
            report = lemma1_verify(inst.tensor, inst.grids,
                                   result.assignment, d_report(inst).gamma_min)
            assert report.all_ok, report.violations

    def test_zero_leakage_meets_rounding_bound(self, rng):
        inst = make_d_instance(2, 5, 4, rng, a_scale=0.0)
        result = sequential_cpp_oracle(inst.tensor, inst.grids)
        report = lemma1_verify(inst.tensor, inst.grids,
                               result.assignment, gamma=0.0)
        assert report.all_ok
        assert report.max_deviation <= math.pi / 4 + 1e-9

    def test_detects_misaligned_phases(self):
        n = 9
        fx = build_example(3, "good", n)
        zeros = PhaseAssignment(fx.grids, (np.zeros(n, dtype=np.int64),) * 2)
        gamma = math.asin(2.0 / n)
        report = lemma1_verify(fx.tensor, fx.grids, zeros, gamma)
        assert not report.all_ok
        # second surface should have aligned to the quadrature one-hop mass
        surfaces = {v[0] for v in report.violations}
        assert surfaces == {2}
        _, element, deviation, bound = report.violations[0]
        assert deviation == pytest.approx(math.pi / 2)
        assert bound == pytest.approx(gamma + math.pi / 4)

    def test_rejects_negative_gamma(self, rng):
        inst = make_d_instance(2, 4, 4, rng)
        result = sequential_cpp_oracle(inst.tensor, inst.grids)
        with pytest.raises(ValueError):
            lemma1_verify(inst.tensor, inst.grids,
                          result.assignment, gamma=-0.1)

    def test_report_json_shape(self, rng):
        inst = make_d_instance(2, 4, 4, rng)
        result = sequential_cpp_oracle(inst.tensor, inst.grids)
        report = lemma1_verify(inst.tensor, inst.grids,
                               result.assignment, d_report(inst).gamma_min)
        assert report.all_ok is True
        assert len(report.per_surface) == 2
        assert report.per_surface[0]["surface"] == 1


class TestInstanceGenerator:
    def test_magnitude_structure(self, rng):
        inst = make_d_instance(2, 4, 4, rng)
        mags = np.abs(inst.tensor.entries)
        active = mags[1:, 1:]
        assert np.allclose(active, 1.0)
        skip = np.concatenate([mags[0, :], mags[1:, 0]])
        assert np.allclose(skip, inst.a_scale)

    @pytest.mark.parametrize("num_surfaces, levels", [(1, 4), (2, 4), (3, (8, 8, 4))])
    def test_a_max_without_the_tensor(self, num_surfaces, levels):
        for seed in range(3):
            inst = make_d_instance(num_surfaces, 5, levels, np.random.default_rng(seed))
            assert d_instance_a_max(num_surfaces, 5, levels,
                                    np.random.default_rng(seed)) == inst.a_max

    def test_default_scale_honors_margin(self, rng):
        inst = make_d_instance(2, 4, 4, rng, margin=0.25)
        assert inst.a_scale == pytest.approx(0.25 * inst.a_max)

    def test_rejects_scale_above_cap(self, rng):
        probe = make_d_instance(2, 4, 4, rng)
        rng2 = np.random.default_rng(7)
        with pytest.raises(ValueError, match="exceeds"):
            make_d_instance(2, 4, 4, rng2, a_scale=probe.a_max * 10)

    def test_rejects_negative_scale_and_bad_margin(self, rng):
        with pytest.raises(ValueError):
            make_d_instance(2, 4, 4, rng, a_scale=-0.1)
        with pytest.raises(ValueError):
            make_d_instance(2, 4, 4, rng, margin=0.0)
        with pytest.raises(ValueError):
            make_d_instance(2, 4, 4, rng, margin=1.5)

    def test_rejects_insufficient_grids(self, rng):
        with pytest.raises(ValueError, match="resolution"):
            make_d_instance(3, 3, 4, rng)
        with pytest.raises(ValueError, match="resolution"):
            make_d_instance(2, 3, (4, 2), rng)

    def test_single_surface_has_no_report(self, rng):
        # one surface has no leakage paths: the D check refuses it, and
        # lemma-check takes gamma = 0 there
        inst = make_d_instance(1, 4, 4, rng)
        with pytest.raises(ValueError, match="at least two surfaces"):
            d_report(inst)
        assert inst.a_max == 1.0

    def test_reproducible_from_seed(self):
        a = make_d_instance(2, 4, 4, np.random.default_rng(11))
        b = make_d_instance(2, 4, 4, np.random.default_rng(11))
        assert np.array_equal(a.tensor.entries, b.tensor.entries)

    def test_example_builder_validation(self):
        with pytest.raises(ValueError):
            build_example(1, "good", 4)
        with pytest.raises(ValueError):
            build_example(1, "good", 1)
        with pytest.raises(ValueError):
            build_example(4, "good", 5)
        with pytest.raises(ValueError):
            build_example(1, "ugly", 5)
        with pytest.raises(ValueError):
            build_example(1, "good", 5, beta=0.0)
