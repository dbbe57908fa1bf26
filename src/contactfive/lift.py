"""Lagrangian graphs over the (x1, y2) disk and their Legendrian lifts.

A potential f on the unit disk defines the Lagrangian graph
L = (x1, f_1, -f_2, y2); integrating the pullback of r (y1 dx1 + y2 dx2)
along staircase paths from the center produces the unique Legendrian
lift through a chosen starting point.
"""
from __future__ import annotations

import csv
import functools
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .charts import PlaneChart, chart_of_plane
from .contact import ContactParams, lift_vector

DEFAULT_N = 65
LIFT_TOL_FACTOR = 10.0  # discretization tolerances are 10 h^2
NEWTON_TOL = 1e-12      # patch Newton: sup of the coordinate residual
NEWTON_MAX_ITER = 40
STENCIL_PLANS = 32       # stencil plans kept, one per (mask, axis, table)


# Difference stencil tables.  A table is (order, rules); a rule
# (offsets, coefficients, denominator) gives the derivative of that order
# along one axis as sum_k c_k v[i + k] / (denominator h^order).  At each
# node the first rule whose whole support lies in the mask applies.
D1 = (1, (((1, -1), (1, -1), 2),                 # central
          ((0, 1, 2), (-3, 4, -1), 2),           # one-sided, second order
          ((0, -1, -2), (3, -4, 1), 2),
          ((1, 0), (1, -1), 1),                  # one-sided, first order
          ((0, -1), (1, -1), 1)))
D2 = (2, (((1, 0, -1), (1, -2, 1), 1),
          ((0, 1, 2, 3), (2, -5, 4, -1), 1),
          ((0, -1, -2, -3), (2, -5, 4, -1), 1),
          ((0, 1, 2), (1, -2, 1), 1),
          ((0, -1, -2), (1, -2, 1), 1)))
# fourth-order central stencils only: nodes without the full 5-point
# support are left out of the returned validity mask
D1_CENTRAL4 = (1, (((-2, -1, 1, 2), (1, -8, 8, -1), 12),))
D2_CENTRAL4 = (2, (((-2, -1, 0, 1, 2), (-1, 16, -30, 16, -1), 12),))


def stencil(values: np.ndarray, mask: np.ndarray, h: float, axis: int,
            table) -> tuple[np.ndarray, np.ndarray]:
    """Derivative along one axis on a masked grid by a stencil table;
    returns the grid (zero where no rule applies) and the nodes where a
    rule applied.

    Which rule applies at which node depends only on (mask, axis, table),
    so that choice is made once into a plan (`_stencil_plan`, an LRU of
    STENCIL_PLANS entries keyed by the mask's shape and bytes); a call
    only gathers the values each rule reads.  A masked node where no
    rule's support fits in the mask reads 0 and is left out of the
    applied mask: under D1/D2 these are the four tips of a disk mask on
    the axis tangent to the circle there.  Both returned arrays are
    fresh.
    """
    mask = np.asarray(mask, dtype=bool)
    order, steps, applied = _stencil_plan(mask.shape, mask.tobytes(), axis,
                                          table)
    v = np.asarray(values, dtype=float).ravel()
    out = np.zeros(mask.shape)
    flat = out.reshape(-1)
    for idx, shifts, coefficients, denominator in steps:
        for _ in range(order):
            denominator = denominator * h
        idx = idx.astype(np.intp)          # one index cast per rule
        acc = coefficients[0] * v[idx + shifts[0]]
        for s, c in zip(shifts[1:], coefficients[1:]):
            acc = acc + c * v[idx + s]
        flat[idx] = acc / denominator
    return out, applied.copy()


@functools.lru_cache(maxsize=STENCIL_PLANS)
def _stencil_plan(shape: tuple, mask_bytes: bytes, axis: int, table):
    """(order, steps, applied mask) of a stencil table on a mask; a step
    is (flat node indices, offsets times the axis stride, coefficients,
    denominator) of one rule that applies somewhere."""
    mask = np.frombuffer(mask_bytes, dtype=bool).reshape(shape)
    order, rules = table
    n = shape[axis]
    stride = int(np.prod(shape[axis + 1:], dtype=int))
    reach = max(abs(k) for offsets, _, _ in rules for k in offsets)
    pad = [(reach, reach) if a == axis else (0, 0) for a in range(len(shape))]
    m = np.pad(mask, pad)                          # False off the grid
    todo = mask.copy()
    steps = []
    for offsets, coefficients, denominator in rules:
        use = todo.copy()
        for k in offsets:
            use &= m[(slice(None),) * axis
                     + (slice(reach + k, reach + k + n),)]
        if not use.any():
            continue
        shifts = tuple(k * stride for k in offsets)
        # int32 halves what the cached plans of large grids hold
        idx = np.flatnonzero(use).astype(np.int32)
        steps.append((idx, shifts, coefficients, denominator))
        todo &= ~use
    applied = mask & ~todo
    applied.flags.writeable = False
    return order, tuple(steps), applied


def _derivative(values: np.ndarray, mask: np.ndarray, h: float,
                axis: int) -> np.ndarray:
    """First derivative on a masked grid: central where possible,
    one-sided second order near the mask boundary."""
    return stencil(values, mask, h, axis, D1)[0]


def _derivative2(values: np.ndarray, mask: np.ndarray, h: float,
                 axis: int) -> np.ndarray:
    """Pure second derivative along one axis on a masked grid."""
    return stencil(values, mask, h, axis, D2)[0]


@dataclass
class GridFunction:
    """Scalar values on the nodes of a square grid over
    [-radius, radius]^2 masked to the closed disk of that radius.

    Axis 0 is x1, axis 1 is y2; n must be odd so the center node exists.
    """

    values: np.ndarray
    radius: float = 1.0
    mask: np.ndarray = field(default=None)
    # derivative grids, computed once per instance and read-only
    _derivs: dict = field(default_factory=dict, init=False, repr=False,
                          compare=False)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        n = self.values.shape[0]
        if self.values.shape != (n, n):
            raise ValueError("grid must be square")
        if n < 17 or n % 2 == 0:
            raise ValueError("grid resolution must be odd and >= 17")
        if self.mask is None:
            X, Y = self.meshgrid()
            self.mask = X ** 2 + Y ** 2 <= self.radius ** 2 * (1 + 1e-12)
        if not np.all(np.isfinite(self.values[self.mask])):
            raise ValueError("non-finite grid values")

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def h(self) -> float:
        return 2 * self.radius / (self.n - 1)

    @property
    def xs(self) -> np.ndarray:
        return np.linspace(-self.radius, self.radius, self.n)

    def meshgrid(self):
        xs = self.xs
        return np.meshgrid(xs, xs, indexing="ij")

    @property
    def center(self) -> tuple[int, int]:
        return (self.n // 2, self.n // 2)

    @staticmethod
    def from_callable(fn, n: int = DEFAULT_N, radius: float = 1.0
                      ) -> "GridFunction":
        xs = np.linspace(-radius, radius, n)
        X, Y = np.meshgrid(xs, xs, indexing="ij")
        return GridFunction(np.zeros((n, n)), radius).like(fn(X, Y))

    def like(self, values: np.ndarray) -> "GridFunction":
        return GridFunction(np.where(self.mask, values, 0.0), self.radius,
                            self.mask.copy())

    def _memo(self, name: str, kernel, axis: int, source=None):
        if name not in self._derivs:
            out = kernel(self.values if source is None else source,
                         self.mask, self.h, axis)
            out.flags.writeable = False
            self._derivs[name] = out
        return self._derivs[name]

    def f1(self) -> np.ndarray:
        return self._memo("f1", _derivative, 0)

    def f2(self) -> np.ndarray:
        return self._memo("f2", _derivative, 1)

    def f11(self) -> np.ndarray:
        return self._memo("f11", _derivative2, 0)

    def f22(self) -> np.ndarray:
        return self._memo("f22", _derivative2, 1)

    def f12(self) -> np.ndarray:
        return self._memo("f12", _derivative, 1, self.f1())

    def sup(self) -> float:
        return float(np.max(np.abs(self.values[self.mask])))

    def interp(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Bilinear interpolation at points inside the grid square."""
        return _bilinear(self.values, self.radius, x, y)

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["i", "j", "x1", "y2", "value", "in_disk"])
            xs = self.xs
            for i in range(self.n):
                for j in range(self.n):
                    w.writerow([i, j, repr(xs[i]), repr(xs[j]),
                                repr(self.values[i, j]),
                                int(self.mask[i, j])])

    def header(self) -> dict:
        return {"n": self.n, "h": self.h, "radius": self.radius,
                "tolerance": LIFT_TOL_FACTOR * self.h ** 2}


def _bilinear(values: np.ndarray, radius: float, x, y):
    n = values.shape[0]
    h = 2 * radius / (n - 1)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    fx = np.clip((x + radius) / h, 0, n - 1 - 1e-12)
    fy = np.clip((y + radius) / h, 0, n - 1 - 1e-12)
    i0 = fx.astype(int)
    j0 = fy.astype(int)
    # trailing axes of values (components) broadcast against the points
    extra = (1,) * (values.ndim - 2)
    tx = (fx - i0).reshape(fx.shape + extra)
    ty = (fy - j0).reshape(fy.shape + extra)
    v00 = values[i0, j0]
    v10 = values[i0 + 1, j0]
    v01 = values[i0, j0 + 1]
    v11 = values[i0 + 1, j0 + 1]
    return ((1 - tx) * (1 - ty) * v00 + tx * (1 - ty) * v10
            + (1 - tx) * ty * v01 + tx * ty * v11)


def lagrangian_graph(f: GridFunction) -> dict:
    """Nodewise graph L = (x1, f1, -f2, y2) with its two tangent fields."""
    X, Y = f.meshgrid()
    f1, f2 = f.f1(), f.f2()
    f11, f12, f22 = f.f11(), f.f12(), f.f22()
    points = np.stack([X, f1, -f2, Y], axis=-1)
    ones = np.ones_like(X)
    zeros = np.zeros_like(X)
    t1 = np.stack([ones, f11, -f12, zeros], axis=-1)
    t2 = np.stack([zeros, f12, -f22, ones], axis=-1)
    return {"points": points, "t1": t1, "t2": t2, "mask": f.mask,
            "h": f.h, "radius": f.radius}


def _segment_sums(L: dict, params: ContactParams):
    """Trapezoid increments of r (y1 dx1 + y2 dx2) along grid edges."""
    pts = L["points"]
    r = params.r
    P = r * pts[..., 1]           # coefficient of dx1
    Q = r * pts[..., 3]           # coefficient of dx2
    X1 = pts[..., 0]
    X2 = pts[..., 2]
    seg_i = (0.5 * (P[1:, :] + P[:-1, :]) * (X1[1:, :] - X1[:-1, :])
             + 0.5 * (Q[1:, :] + Q[:-1, :]) * (X2[1:, :] - X2[:-1, :]))
    seg_j = (0.5 * (P[:, 1:] + P[:, :-1]) * (X1[:, 1:] - X1[:, :-1])
             + 0.5 * (Q[:, 1:] + Q[:, :-1]) * (X2[:, 1:] - X2[:, :-1]))
    return seg_i, seg_j


def closedness_residual(L: dict, params: ContactParams = ContactParams()
                        ) -> float:
    """Max circulation of the pulled-back 1-form around grid cells whose
    four corners lie in the disk; zero for exact Lagrangian graphs."""
    return _max_circulation(*_segment_sums(L, params), L["mask"])


def _max_circulation(seg_i, seg_j, m) -> float:
    cell = m[:-1, :-1] & m[1:, :-1] & m[:-1, 1:] & m[1:, 1:]
    circ = (seg_i[:, :-1] + seg_j[1:, :] - seg_i[:, 1:] - seg_j[:-1, :])
    if not np.any(cell):
        return 0.0
    return float(np.max(np.abs(circ[cell])))


def _sweep(seg_i, seg_j, mask, center, order: str) -> np.ndarray:
    """Accumulate edge increments along staircase paths from the center:
    first along the center row (order 'row') or column, then along the
    perpendicular lines."""
    n = mask.shape[0]
    ic, jc = center
    t = np.zeros((n, n))
    if order == "row":
        for i in range(ic + 1, n):
            t[i, jc] = t[i - 1, jc] + seg_i[i - 1, jc]
        for i in range(ic - 1, -1, -1):
            t[i, jc] = t[i + 1, jc] - seg_i[i, jc]
        for j in range(jc + 1, n):
            t[:, j] = t[:, j - 1] + seg_j[:, j - 1]
        for j in range(jc - 1, -1, -1):
            t[:, j] = t[:, j + 1] - seg_j[:, j]
    elif order == "column":
        for j in range(jc + 1, n):
            t[ic, j] = t[ic, j - 1] + seg_j[ic, j - 1]
        for j in range(jc - 1, -1, -1):
            t[ic, j] = t[ic, j + 1] - seg_j[ic, j]
        for i in range(ic + 1, n):
            t[i, :] = t[i - 1, :] + seg_i[i - 1, :]
        for i in range(ic - 1, -1, -1):
            t[i, :] = t[i + 1, :] - seg_i[i, :]
    else:
        raise ValueError("order must be 'row' or 'column'")
    return np.where(mask, t, 0.0)


def legendrian_lift(L: dict, start: np.ndarray,
                    params: ContactParams = ContactParams(),
                    order: str = "row") -> GridFunction:
    """t-grid of the lift of the Lagrangian graph with t(center) = start_t.

    Checks that the pulled-back form is closed (the graph is Lagrangian)
    and that the starting point sits over the center node.
    """
    start = np.asarray(start, dtype=float)
    mask = L["mask"]
    h = L["h"]
    n = mask.shape[0]
    center = (n // 2, n // 2)
    tol = LIFT_TOL_FACTOR * h ** 2
    seg_i, seg_j = _segment_sums(L, params)
    res = _max_circulation(seg_i, seg_j, mask)
    if res > tol:
        raise ValueError(f"input graph is not Lagrangian: closedness "
                         f"residual {res:g} > {tol:g}")
    if np.max(np.abs(L["points"][center] - start[:4])) > 1e-9:
        raise ValueError("starting point is not over the center node")
    t = _sweep(seg_i, seg_j, mask, center, order) + start[4]
    return GridFunction(np.where(mask, t, 0.0), L["radius"], mask.copy())


def lift_path_independence(L: dict, params: ContactParams = ContactParams()
                           ) -> float:
    """Sup difference between the row-major and column-major sweeps."""
    seg_i, seg_j = _segment_sums(L, params)
    mask = L["mask"]
    n = mask.shape[0]
    center = (n // 2, n // 2)
    t1 = _sweep(seg_i, seg_j, mask, center, "row")
    t2 = _sweep(seg_i, seg_j, mask, center, "column")
    return float(np.max(np.abs((t1 - t2)[mask])))


@dataclass
class LegendrianPatch:
    """Embedded disk in R^5 with its two tangent fields on grid nodes."""

    points: np.ndarray        # (n, n, 5)
    t1: np.ndarray            # (n, n, 5) tangents along x1
    t2: np.ndarray            # (n, n, 5) tangents along y2
    mask: np.ndarray
    radius: float
    start: np.ndarray
    params: ContactParams = ContactParams()

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def h(self) -> float:
        return 2 * self.radius / (self.n - 1)

    @property
    def center(self) -> tuple[int, int]:
        return (self.n // 2, self.n // 2)

    def grid(self, component: int) -> GridFunction:
        return GridFunction(np.where(self.mask, self.points[..., component],
                                     0.0), self.radius, self.mask.copy())

    def interp_point(self, x, y) -> np.ndarray:
        return _bilinear(np.where(self.mask[..., None], self.points, 0.0),
                         self.radius, x, y)

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["i", "j", "x1", "y1", "x2", "y2", "t", "in_disk"])
            for i in range(self.n):
                for j in range(self.n):
                    w.writerow([i, j] + [repr(c) for c in self.points[i, j]]
                               + [int(self.mask[i, j])])

    def header(self) -> dict:
        return {"n": self.n, "h": self.h, "radius": self.radius,
                "r": self.params.r,
                "start": [float(c) for c in self.start],
                "tolerance": LIFT_TOL_FACTOR * self.h ** 2}

    def save(self, directory, name="patch"):
        d = Path(directory)
        d.mkdir(parents=True, exist_ok=True)
        self.to_csv(d / f"{name}.csv")
        with open(d / f"{name}.json", "w") as fh:
            json.dump(self.header(), fh, indent=2, sort_keys=True)


def graph_and_lift(f: GridFunction, start: np.ndarray | None = None,
                   params: ContactParams = ContactParams()):
    """Lagrangian graph of f, the start point and the 5-point grid of
    the Legendrian lift through it; start defaults to t = 0 over the
    center node."""
    L = lagrangian_graph(f)
    if start is None:
        start = np.append(L["points"][f.center], 0.0)
    start = np.asarray(start, dtype=float)
    tgrid = legendrian_lift(L, start, params)
    pts = np.concatenate([L["points"], tgrid.values[..., None]], axis=-1)
    return L, start, pts


def patch_from_potential(f: GridFunction, start: np.ndarray,
                         params: ContactParams = ContactParams()
                         ) -> LegendrianPatch:
    """Lift the Lagrangian graph of f to a Legendrian patch.

    Tangents are finite differences of the embedded coordinate grids, so
    the residual of alpha on them measures the lift quality honestly.
    """
    _, start, pts = graph_and_lift(f, start, params)
    mask = f.mask
    h = f.h
    t1 = np.stack([_derivative(pts[..., k], mask, h, 0) for k in range(5)],
                  axis=-1)
    t2 = np.stack([_derivative(pts[..., k], mask, h, 1) for k in range(5)],
                  axis=-1)
    return LegendrianPatch(points=pts, t1=t1, t2=t2, mask=mask.copy(),
                           radius=f.radius, start=start, params=params)


def exact_patch(f: GridFunction, start: np.ndarray | None = None,
                params: ContactParams = ContactParams()) -> LegendrianPatch:
    """Patch whose tangents are the analytic graph tangents lifted to
    horizontal vectors (alpha vanishes on them exactly); start defaults
    to t = 0 over the center node."""
    L, start, pts = graph_and_lift(f, start, params)
    t1 = lift_vector(L["points"], pts[..., 4], L["t1"], params)
    t2 = lift_vector(L["points"], pts[..., 4], L["t2"], params)
    return LegendrianPatch(points=pts, t1=t1, t2=t2, mask=f.mask.copy(),
                           radius=f.radius, start=start, params=params)


def patch_newton(points: np.ndarray, mask: np.ndarray, radius: float,
                 target=(0.0, 0.0)) -> tuple[np.ndarray, float]:
    """Parameter z = (x1, y2) at which the bilinearly interpolated
    (x1, y2) coordinates of a 5-point patch grid equal target: Newton
    from the center, kept inside 0.95 radius.  Returns (z, residual)."""
    grids = [GridFunction(np.where(mask, points[..., k], 0.0), radius,
                          mask.copy()) for k in (0, 3)]
    grads = [d for g in grids for d in (g.f1(), g.f2())]
    target = np.asarray(target, dtype=float)
    z = np.zeros(2)
    res = np.inf
    for _ in range(NEWTON_MAX_ITER):
        F = np.array([float(g.interp(z[0], z[1])) for g in grids]) - target
        res = float(np.max(np.abs(F)))
        if res <= NEWTON_TOL:
            break
        Jac = np.array([float(_bilinear(d, radius, z[0], z[1]))
                        for d in grads]).reshape(2, 2)
        z = z - np.linalg.solve(Jac, F)
        nz = np.linalg.norm(z)
        if nz > 0.95 * radius:
            z *= 0.95 * radius / nz
    return z, res


def legendrian_residual(patch: LegendrianPatch,
                        params: ContactParams | None = None) -> float:
    """Max |alpha(tangent)| over nodes and both tangent fields."""
    params = params or patch.params
    p = patch.points
    res = 0.0
    for tg in (patch.t1, patch.t2):
        val = (tg[..., 4] / params.r - p[..., 1] * tg[..., 0]
               - p[..., 3] * tg[..., 2])
        res = max(res, float(np.max(np.abs(val[patch.mask]))))
    return res


def tangent_plane(patch: LegendrianPatch, node: tuple[int, int]
                  ) -> PlaneChart:
    """Chart value of the projected tangent plane at a grid node."""
    i, j = node
    if not patch.mask[i, j]:
        raise ValueError("node outside the disk")
    return chart_of_plane(patch.t1[i, j, :4], patch.t2[i, j, :4])
