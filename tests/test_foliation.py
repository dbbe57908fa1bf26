import numpy as np
import pytest

from contactfive.acs import sin_beta_field, standard_field
from contactfive.charts import PlaneChart
from contactfive.foliation import (LOOKUP_TOL, MIN_Z, build_leaf,
                                   build_parallel_leaf, build_polar_leaf,
                                   intersect, leaf_min_distance,
                                   leaf_through_parallel, leaf_through_polar)
from contactfive.solver import SolverConfig, solve_disk

CFG = SolverConfig(n=21)


def test_polar_lookup_standard_field():
    # for the flat field the polar leaf of w is exactly {zeta = w z},
    # so the recovered parameter is zeta_q / z_q
    q = np.array([0.4, 0.06, -0.02, 0.3, 0.1])
    res = leaf_through_polar(q, standard_field(), CFG)
    z = complex(q[0], q[3])
    zeta = complex(q[1], q[2])
    assert res.residual <= 1e-6
    assert abs(res.parameter - zeta / z) < 1e-6
    assert res.header()["tolerance"] == LOOKUP_TOL


def test_polar_lookup_curved_field():
    q = np.array([0.35, 0.05, 0.02, 0.3, -0.05])
    res = leaf_through_polar(q, sin_beta_field(0.02), CFG)
    assert res.residual <= 1e-6
    assert res.iterations <= 20


def test_polar_lookup_domain_guards():
    with pytest.raises(ValueError):
        leaf_through_polar(np.array([0.5 * MIN_Z, 0, 0, 0, 0]),
                           standard_field(), CFG)
    with pytest.raises(ValueError):
        leaf_through_polar(np.array([0.1, 0.5, 0.0, 0.0, 0.0]),
                           standard_field(), CFG)


def test_parallel_lookup():
    q = np.array([0.3, 0.12, -0.06, 0.25, 0.05])
    X = PlaneChart(0.0)
    res = leaf_through_parallel(q, X, sin_beta_field(0.02), CFG)
    assert res.residual <= 1e-6
    # flat case: the leaf through zeta_P covers exactly zeta = zeta_P
    res0 = leaf_through_parallel(q, X, standard_field(), CFG)
    assert abs(res0.parameter - complex(q[1], q[2])) < 1e-6


def test_build_leaf_and_point():
    acs = standard_field()
    leaf = build_polar_leaf(acs, PlaneChart(0.2), t_max=0.3, t_count=5,
                            cfg=CFG)
    assert len(leaf.disks) == 5
    header = leaf.header()
    assert header["kind"] == "polar"
    assert header["max_jinv_residual"] <= 10.0 * leaf.disks[0].h ** 2
    # sampled points satisfy zeta = w z for the flat field
    pts = leaf.sample_points(stride=4)
    z = pts[:, 0] + 1j * pts[:, 3]
    zeta = pts[:, 1] + 1j * pts[:, 2]
    assert np.max(np.abs(zeta - 0.2 * z)) < 1e-8
    p = leaf.point(0.3, -0.2, 0.11)
    assert np.isfinite(p).all()
    with pytest.raises(ValueError):
        leaf.point(0.0, 0.0, 0.9)


def test_build_leaf_kind_validation():
    with pytest.raises(ValueError):
        build_leaf("spiral", standard_field(), PlaneChart(0.0), cfg=CFG)


def test_build_leaf_needs_two_disks():
    # a one-node leaf has no t-step and cannot interpolate between disks
    for t_count in (0, 1):
        with pytest.raises(ValueError):
            build_leaf("polar", standard_field(), PlaneChart(0.0),
                       t_count=t_count, cfg=CFG)


def test_leaf_save(tmp_path):
    leaf = build_polar_leaf(standard_field(), PlaneChart(0.0), t_max=0.2,
                            t_count=3, cfg=CFG)
    leaf.save(tmp_path, name="l")
    assert (tmp_path / "l.json").exists()
    assert (tmp_path / "l_disk0.csv").exists()


def test_parallel_leaves_disjoint():
    acs = sin_beta_field(0.02)
    X = PlaneChart(0.1)
    l1 = build_parallel_leaf(acs, X, 0.0, t_max=0.2, t_count=3, cfg=CFG)
    l2 = build_parallel_leaf(acs, X, 0.05, t_max=0.2, t_count=3, cfg=CFG)
    assert leaf_min_distance(l1, l2, stride=4) > 1e-3


def test_polar_leaves_disjoint_away_from_axis():
    acs = standard_field()
    l1 = build_polar_leaf(acs, PlaneChart(0.0), t_max=0.2, t_count=3,
                          cfg=CFG)
    l2 = build_polar_leaf(acs, PlaneChart(0.1), t_max=0.2, t_count=3,
                          cfg=CFG)
    assert leaf_min_distance(l1, l2, stride=4, min_z=0.3) > 1e-3
    with pytest.raises(ValueError):
        leaf_min_distance(l1, l2, min_z=10.0)


def test_intersection_positive_sign():
    acs = standard_field()
    leaf = build_polar_leaf(acs, PlaneChart(0.0), t_max=0.3, t_count=5,
                            cfg=CFG)
    sol = solve_disk(np.array([0.3, 0.0, 0.0, 0.2, 0.0]),
                     np.array([1.0, 0.3, 0.1, 0.0]), acs, CFG)
    rec = intersect(leaf, sol.ambient_patch())
    assert rec is not None
    assert rec.sign == 1
    assert rec.residual <= 1e-9
    assert rec.sigma_min > 1e-3 * rec.sigma_max
    assert len(rec.header()["point"]) == 5


def test_intersection_none_when_far():
    acs = standard_field()
    leaf = build_polar_leaf(acs, PlaneChart(0.0), t_max=0.1, t_count=3,
                            cfg=CFG)
    sol = solve_disk(np.array([2.0, 0.0, 0.0, 0.0, 0.0]),
                     np.array([1.0, 0.0, 0.0, 0.0]), acs, CFG)
    assert intersect(leaf, sol.ambient_patch()) is None
