import math

import numpy as np
import pytest

from contactfive.charts import chart_of_plane
from contactfive.contact import ContactParams
from contactfive.lift import (D1, D1_CENTRAL4, D2, D2_CENTRAL4, GridFunction,
                              LIFT_TOL_FACTOR, STENCIL_PLANS, _bilinear,
                              _derivative, _derivative2, _stencil_plan,
                              closedness_residual, exact_patch,
                              lagrangian_graph, legendrian_lift,
                              legendrian_residual, lift_path_independence,
                              patch_from_potential, stencil, tangent_plane)


def quad_potential(n=65):
    # f = (x^2 + y^2)/2 lifts to the closed form t = (x1^2 - y2^2)/2
    return GridFunction.from_callable(lambda x, y: 0.5 * (x * x + y * y),
                                      n=n)


def test_grid_function_validation():
    with pytest.raises(ValueError):
        GridFunction(np.zeros((8, 8)))
    with pytest.raises(ValueError):
        GridFunction(np.zeros((21, 22)))
    g = GridFunction(np.zeros((21, 21)))
    assert g.h == pytest.approx(2.0 / 20)
    assert g.center == (10, 10)
    bad = np.zeros((21, 21))
    bad[10, 10] = np.nan
    with pytest.raises(ValueError):
        GridFunction(bad)


def test_grid_derivatives_exact_on_quadratics():
    f = quad_potential(33)
    inner = f.mask & (sum(c ** 2 for c in f.meshgrid()) < 0.8 ** 2)
    X, Y = f.meshgrid()
    assert np.max(np.abs((f.f1() - X)[inner])) < 1e-10
    assert np.max(np.abs((f.f2() - Y)[inner])) < 1e-10
    assert np.max(np.abs((f.f11() - 1.0)[inner])) < 1e-9
    assert np.max(np.abs((f.f22() - 1.0)[inner])) < 1e-9
    assert np.max(np.abs(f.f12()[inner])) < 1e-9


def test_memoized_derivatives_are_fresh_and_read_only():
    f = GridFunction.from_callable(lambda x, y: np.sin(2 * x + y) * x, n=33)
    v, m, h = f.values, f.mask, f.h
    fresh = {"f1": _derivative(v, m, h, 0), "f2": _derivative(v, m, h, 1),
             "f11": _derivative2(v, m, h, 0), "f22": _derivative2(v, m, h, 1),
             "f12": _derivative(_derivative(v, m, h, 0), m, h, 1)}
    for name, expected in fresh.items():
        got = getattr(f, name)()
        assert getattr(f, name)() is got
        assert np.array_equal(got, expected)
        with pytest.raises(ValueError):
            got[0, 0] = 1.0


TABLES = {"D1": D1, "D2": D2, "D1_CENTRAL4": D1_CENTRAL4,
          "D2_CENTRAL4": D2_CENTRAL4}


@pytest.mark.parametrize("name", sorted(TABLES))
def test_stencil_rule_moments(name):
    # a rule on m offsets reproduces the derivative of its order on
    # polynomials of degree < m: sum_k c_k k^j = den * order! [j == order]
    order, rules = TABLES[name]
    for offsets, coefficients, denominator in rules:
        assert len(offsets) == len(coefficients) == len(set(offsets))
        for j in range(len(offsets)):
            moment = sum(c * k ** j for k, c in zip(offsets, coefficients))
            assert moment == (denominator * math.factorial(order)
                              if j == order else 0), (offsets, j)


def _loop_stencil(values, mask, h, axis, table):
    """Node-by-node first matching rule, the reference for stencil."""
    order, rules = table
    n = values.shape[0]
    out = np.zeros((n, n))
    applied = np.zeros((n, n), dtype=bool)
    for i in range(n):
        for j in range(n):
            if not mask[i, j]:
                continue
            for offsets, coefficients, denominator in rules:
                nodes = [(i + k, j) if axis == 0 else (i, j + k)
                         for k in offsets]
                if all(0 <= a < n and 0 <= b < n and mask[a, b]
                       for a, b in nodes):
                    out[i, j] = sum(c * values[a, b] for c, (a, b)
                                    in zip(coefficients, nodes)) / (
                        denominator * h ** order)
                    applied[i, j] = True
                    break
    return out, applied


@pytest.mark.parametrize("name", sorted(TABLES))
def test_stencil_matches_loop_reference(name, rng):
    f = GridFunction(rng.normal(size=(17, 17)), radius=0.8)
    for axis in (0, 1):
        got, applied = stencil(f.values, f.mask, f.h, axis, TABLES[name])
        ref, ref_applied = _loop_stencil(f.values, f.mask, f.h, axis,
                                         TABLES[name])
        assert np.array_equal(applied, ref_applied)
        assert np.allclose(got, ref, rtol=1e-12, atol=1e-9)


def _pad_stencil(values, mask, h, axis, table):
    """Pad-and-shift kernel that chooses the rules on every call, the
    bitwise reference for the planned stencil."""
    order, rules = table
    n = values.shape[axis]
    reach = max(abs(k) for offsets, _, _ in rules for k in offsets)
    pad = [(reach, reach) if a == axis else (0, 0) for a in range(values.ndim)]
    v = np.pad(np.where(mask, values, 0.0), pad)
    m = np.pad(mask, pad)

    def shifted(a, k):
        return a[(slice(None),) * axis + (slice(reach + k, reach + k + n),)]

    out = np.zeros(values.shape)
    todo = mask.copy()
    for offsets, coefficients, denominator in rules:
        for _ in range(order):
            denominator = denominator * h
        use = todo.copy()
        for k in offsets:
            use &= shifted(m, k)
        if not use.any():
            continue
        acc = coefficients[0] * shifted(v, offsets[0])[use]
        for k, c in zip(offsets[1:], coefficients[1:]):
            acc = acc + c * shifted(v, k)[use]
        out[use] = acc / denominator
        todo &= ~use
    return out, mask & ~todo


@pytest.mark.parametrize("n", [17, 25, 33, 65, 129])
def test_stencil_plan_matches_pad_reference(n, rng):
    for radius in (1.0, 0.8, 0.7):
        f = GridFunction(rng.normal(size=(n, n)), radius=radius)
        for name, table in TABLES.items():
            for axis in (0, 1):
                got = stencil(f.values, f.mask, f.h, axis, table)
                ref = _pad_stencil(f.values, f.mask, f.h, axis, table)
                assert np.array_equal(got[0], ref[0]), (name, axis, radius)
                assert np.array_equal(got[1], ref[1]), (name, axis, radius)
        # chained f12 on the applied mask of the first derivative
        g1, v1 = stencil(f.values, f.mask, f.h, 0, D1_CENTRAL4)
        got = stencil(g1, v1, f.h, 1, D1_CENTRAL4)
        ref = _pad_stencil(*_pad_stencil(f.values, f.mask, f.h, 0,
                                         D1_CENTRAL4), f.h, 1, D1_CENTRAL4)
        assert np.array_equal(got[0], ref[0])
        assert np.array_equal(got[1], ref[1])


def test_stencil_plan_cache_is_bounded():
    assert _stencil_plan.cache_info().maxsize == STENCIL_PLANS
    base = np.ones((17, 17), dtype=bool)
    for k in range(STENCIL_PLANS + 5):
        mask = base.copy()
        mask.flat[k] = False             # a distinct mask each time
        stencil(np.ones((17, 17)), mask, 0.1, 0, D1)
        assert _stencil_plan.cache_info().currsize <= STENCIL_PLANS


def test_stencil_returns_fresh_arrays(rng):
    f = GridFunction(rng.normal(size=(25, 25)))
    first, applied = stencil(f.values, f.mask, f.h, 1, D2)
    expected = (first.copy(), applied.copy())
    first[:] = 7.0
    applied[:] = False
    again = stencil(f.values, f.mask, f.h, 1, D2)
    assert np.array_equal(again[0], expected[0])
    assert np.array_equal(again[1], expected[1])


def test_interp_point_matches_component_loop(rng):
    f = quad_potential(33)
    patch = exact_patch(f, np.zeros(5))
    for x, y in ((0.13, -0.41), (rng.uniform(-0.7, 0.7, size=(3, 4)),
                                 rng.uniform(-0.7, 0.7, size=(3, 4)))):
        loop = np.stack([_bilinear(np.where(patch.mask, patch.points[..., k],
                                            0.0), patch.radius, x, y)
                         for k in range(5)], axis=-1)
        got = patch.interp_point(x, y)
        assert got.shape == loop.shape
        assert np.array_equal(got, loop)


def test_lagrangian_graph_layout():
    f = quad_potential(33)
    L = lagrangian_graph(f)
    c = f.center
    X, Y = f.meshgrid()
    # graph is (x1, f1, -f2, y2)
    assert np.allclose(L["points"][c], [0.0, 0.0, 0.0, 0.0], atol=1e-12)
    k = (c[0] + 5, c[1])
    assert L["points"][k] == pytest.approx(
        [X[k], X[k], -Y[k], Y[k]], abs=1e-9)


def test_lift_matches_closed_form():
    f = quad_potential(65)
    L = lagrangian_graph(f)
    start = np.append(L["points"][f.center], 0.0)
    t = legendrian_lift(L, start)
    X, Y = f.meshgrid()
    exact = 0.5 * (X ** 2 - Y ** 2)
    tol = LIFT_TOL_FACTOR * f.h ** 2
    assert np.max(np.abs((t.values - exact)[f.mask])) <= tol


def test_lift_start_offset_and_order():
    f = quad_potential(33)
    L = lagrangian_graph(f)
    start = np.append(L["points"][f.center], 2.5)
    t_row = legendrian_lift(L, start, order="row")
    t_col = legendrian_lift(L, start, order="column")
    assert t_row.values[f.center] == pytest.approx(2.5)
    tol = LIFT_TOL_FACTOR * f.h ** 2
    assert np.max(np.abs((t_row.values - t_col.values)[f.mask])) <= tol
    assert lift_path_independence(L) <= tol
    with pytest.raises(ValueError):
        legendrian_lift(L, start, order="diagonal")


def test_lift_rejects_bad_start():
    f = quad_potential(33)
    L = lagrangian_graph(f)
    with pytest.raises(ValueError):
        legendrian_lift(L, np.array([0.5, 0.0, 0.0, 0.0, 0.0]))


def test_lift_rejects_non_lagrangian_input():
    f = quad_potential(33)
    L = lagrangian_graph(f)
    X, Y = f.meshgrid()
    # y1 = 50 y2 over the x1 axis is nowhere a Lagrangian graph
    pts = L["points"].copy()
    pts[..., 1] = 50.0 * Y
    pts[..., 2] = 0.0
    bad = dict(L, points=pts)
    assert closedness_residual(bad) > LIFT_TOL_FACTOR * f.h ** 2
    start = np.append(pts[f.center], 0.0)
    with pytest.raises(ValueError):
        legendrian_lift(bad, start)


def test_exact_patch_is_legendrian():
    f = quad_potential(33)
    start = np.zeros(5)
    patch = exact_patch(f, start)
    assert legendrian_residual(patch) < 1e-12
    # finite-difference tangents agree within the discretization budget
    fd = patch_from_potential(f, start)
    tol = LIFT_TOL_FACTOR * f.h ** 2
    assert legendrian_residual(fd) <= tol
    assert np.allclose(fd.points, patch.points)


def test_patch_respects_dilation():
    params = ContactParams(0.5)
    f = quad_potential(33)
    patch = exact_patch(f, np.zeros(5), params)
    assert legendrian_residual(patch) < 1e-12
    # the t-grid scales linearly with r
    p1 = exact_patch(f, np.zeros(5), ContactParams(1.0))
    k = (f.center[0] + 6, f.center[1] + 3)
    assert patch.points[k][4] == pytest.approx(0.5 * p1.points[k][4],
                                               abs=1e-12)


def test_tangent_plane_matches_oracle():
    f = quad_potential(33)
    patch = exact_patch(f, np.zeros(5))
    k = (f.center[0] + 4, f.center[1] - 2)
    X = tangent_plane(patch, k)
    oracle = chart_of_plane(patch.t1[k][:4], patch.t2[k][:4])
    assert abs(X.w - oracle.w) < 1e-12
    with pytest.raises(ValueError):
        tangent_plane(patch, (0, 0))


def test_patch_interp_and_save(tmp_path):
    f = quad_potential(33)
    patch = exact_patch(f, np.zeros(5))
    xs = f.xs
    k = (f.center[0] + 3, f.center[1] + 1)
    assert np.allclose(patch.interp_point(xs[k[0]], xs[k[1]]),
                       patch.points[k], atol=1e-12)
    patch.save(tmp_path, name="p")
    assert (tmp_path / "p.csv").exists()
    assert (tmp_path / "p.json").exists()
