import numpy as np
import pytest

from blindbeam import PhaseAssignment, PhaseGrid, as_grids, wrap_angle


def test_grid_basics():
    g = PhaseGrid(4)
    assert g.omega == pytest.approx(np.pi / 2)
    assert np.allclose(g.values(), [0, np.pi / 2, np.pi, 3 * np.pi / 2])
    assert g.phase(3) == pytest.approx(3 * np.pi / 2)


def test_grid_rejects_degenerate():
    with pytest.raises(ValueError):
        PhaseGrid(1)
    with pytest.raises(ValueError):
        PhaseGrid(0)


def test_as_grids_forms():
    a = as_grids(4, 3)
    assert [g.num_levels for g in a] == [4, 4, 4]
    b = as_grids([2, 4], 2)
    assert [g.num_levels for g in b] == [2, 4]
    c = as_grids(PhaseGrid(8), 2)
    assert [g.num_levels for g in c] == [8, 8]
    with pytest.raises(ValueError):
        as_grids([2, 4, 8], 2)


def test_assignment_validation():
    grids = as_grids(4, 2)
    with pytest.raises(ValueError):
        PhaseAssignment(grids, (np.array([0, 4]), np.array([0, 0])))
    with pytest.raises(ValueError):
        PhaseAssignment(grids, (np.array([0, -1]), np.array([0, 0])))
    with pytest.raises(ValueError):
        PhaseAssignment(grids, (np.array([0, 1]), np.array([0, 0, 0])))


def test_assignment_factors():
    grids = as_grids(4, 1)
    a = PhaseAssignment(grids, (np.array([0, 1, 2]),))
    assert np.allclose(a.factors(0), [1, 1j, -1])
    ws = a.factors_with_skip(0)
    assert ws[0] == 1 and np.allclose(ws[1:], a.factors(0))
    assert a.num_surfaces == 1 and a.num_elements == 3


def test_assignment_immutable():
    a = PhaseAssignment.zeros(as_grids(4, 2), 3)
    with pytest.raises(ValueError):
        a.indices[0][0] = 1


def test_with_stage_replaces_one_surface():
    a = PhaseAssignment.zeros(as_grids(4, 2), 3)
    b = a.with_stage(1, [1, 2, 3])
    assert b.indices[1].tolist() == [1, 2, 3]
    assert b.indices[0].tolist() == [0, 0, 0]
    assert a.indices[1].tolist() == [0, 0, 0]


def test_wrap_angle_convention():
    assert wrap_angle(np.pi) == pytest.approx(np.pi)
    assert wrap_angle(-np.pi) == pytest.approx(np.pi)
    assert wrap_angle(3 * np.pi) == pytest.approx(np.pi)
    assert wrap_angle(0.1 + 4 * np.pi) == pytest.approx(0.1)
    assert wrap_angle(-0.1) == pytest.approx(-0.1)
    arr = wrap_angle(np.array([0.0, 2 * np.pi, -2 * np.pi]))
    assert np.allclose(arr, 0.0)
