"""Polar and parallel families of 3-surfaces built from J-invariant
Legendrian disks, with leaf lookup and signed intersections.

A leaf is a stack of disks along the vertical direction: for each t in
a node grid, the disk through the exact base point (P, t) tangent to
span{V, J_(P,t) V}, found by inverting the disk-to-spine map Psi.  The
polar family fixes P = 0 and varies the direction plane X; the parallel
family fixes X and varies the base point P in the {z = 0, t = 0} plane
(parametrized by zeta = y1 + i x2).

Leaf lookup inverts the near-identity maps sending the leaf parameter
to the slice coordinates of the leaf point on {z = z_q, t = t_q}.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field
from pathlib import Path

import numpy as np

from .acs import ACSField, j_matrices
from .charts import PlaneChart, adapted_direction, chart_of_plane_j
from .lift import LegendrianPatch, patch_newton
from .solver import ContractionError, InverseResult, SolverConfig, psi_invert

LOOKUP_TOL = 1e-8
LOOKUP_MAX_ITER = 25
T_SOLVE_TOL = 1e-10
MIN_Z = 1e-2            # the polar chart degenerates on the z = 0 axis
TRANSVERSALITY_MIN = 1e-3


def _zeta(q: np.ndarray) -> complex:
    return complex(q[1], q[2])


def _z(q: np.ndarray) -> complex:
    return complex(q[0], q[3])


def _leaf_disk(acs: ACSField, cfg: SolverConfig, zeta_P: complex,
               t: float, V: np.ndarray) -> InverseResult:
    """Disk through the exact point (0, y1, x2, 0, t) tangent to
    span{V, J V} there."""
    Q = np.array([0.0, zeta_P.real, zeta_P.imag, 0.0, t])
    Jm = j_matrices(acs, Q)
    Y = chart_of_plane_j(V, Jm @ V, Jm)
    return psi_invert(Q, Y, acs, cfg)


def _stack_point(acs: ACSField, cfg: SolverConfig, zeta_P: complex,
                 V: np.ndarray, z_q: complex, t_q: float):
    """Point of the leaf stack through zeta_P on the slice
    {z = z_q, t = t_q}: solves for the disk parameter t whose disk
    meets the slice, by a derivative-one fixed point."""
    t = t_q
    point = None
    inv = None
    for _ in range(12):
        inv = _leaf_disk(acs, cfg, zeta_P, t, V)
        patch = inv.value.solution.ambient_patch()
        z, _ = patch_newton(patch.points, patch.mask, patch.radius,
                            (z_q.real, z_q.imag))
        point = patch.interp_point(z[0], z[1])
        g = point[4] - t_q
        if abs(g) <= T_SOLVE_TOL:
            break
        t = t - g
    return point, t, inv


@dataclass
class LookupResult:
    """Leaf parameter whose leaf passes through the query point."""

    q: np.ndarray
    parameter: complex              # chart w (polar) or zeta_P (parallel)
    t_disk: float
    residual: float                 # |leaf point - q| on the slice
    iterations: int
    inversion: InverseResult = dc_field(repr=False, default=None)

    def header(self) -> dict:
        return {"q": [float(c) for c in self.q],
                "parameter": [self.parameter.real, self.parameter.imag],
                "t_disk": self.t_disk, "residual": self.residual,
                "iterations": self.iterations, "tolerance": LOOKUP_TOL}


def leaf_through_polar(q: np.ndarray, acs: ACSField,
                       cfg: SolverConfig = SolverConfig()) -> LookupResult:
    """Direction chart X with q on the polar leaf of X; valid for
    |zeta_q| <= |z_q| <= 1 and |z_q| bounded away from 0."""
    q = np.asarray(q, dtype=float)
    z_q, zeta_q, t_q = _z(q), _zeta(q), float(q[4])
    if abs(z_q) < MIN_Z:
        raise ValueError(f"|z| = {abs(z_q):g} too small for the polar chart")
    if abs(zeta_q) > abs(z_q) * (1 + 1e-9):
        raise ValueError("point outside the polar region |zeta| <= |z|")
    target = zeta_q / z_q
    w = target
    last = (None, 0.0, None)
    err = np.inf
    for k in range(LOOKUP_MAX_ITER):
        V = adapted_direction(PlaneChart(w))
        point, t_disk, inv = _stack_point(acs, cfg, 0.0, V, z_q, t_q)
        chi = _zeta(point) / z_q
        err = abs(chi - target)
        last = (point, t_disk, inv)
        if err <= LOOKUP_TOL:
            break
        w = w - (chi - target)
    else:
        raise ContractionError(f"polar lookup stalled at error {err:g}")
    point, t_disk, inv = last
    residual = float(np.max(np.abs(point - q)))
    return LookupResult(q=q, parameter=w, t_disk=t_disk, residual=residual,
                        iterations=k + 1, inversion=inv)


def leaf_through_parallel(q: np.ndarray, X: PlaneChart, acs: ACSField,
                          cfg: SolverConfig = SolverConfig()) -> LookupResult:
    """Base point zeta_P with q on the parallel leaf through zeta_P in
    direction X."""
    q = np.asarray(q, dtype=float)
    z_q, zeta_q, t_q = _z(q), _zeta(q), float(q[4])
    V = adapted_direction(X)
    zeta_P = zeta_q
    last = (None, 0.0, None)
    err = np.inf
    for k in range(LOOKUP_MAX_ITER):
        point, t_disk, inv = _stack_point(acs, cfg, zeta_P, V, z_q, t_q)
        gamma = _zeta(point)
        err = abs(gamma - zeta_q)
        last = (point, t_disk, inv)
        if err <= LOOKUP_TOL:
            break
        zeta_P = zeta_P - (gamma - zeta_q)
    else:
        raise ContractionError(f"parallel lookup stalled at error {err:g}")
    point, t_disk, inv = last
    residual = float(np.max(np.abs(point - q)))
    return LookupResult(q=q, parameter=zeta_P, t_disk=t_disk,
                        residual=residual, iterations=k + 1, inversion=inv)


@dataclass
class Leaf:
    """Stack of J-invariant Legendrian disks along the t-node grid."""

    kind: str                       # "polar" or "parallel"
    X: PlaneChart                   # direction parameter
    zeta_P: complex                 # base point parameter (0 for polar)
    t_nodes: np.ndarray
    disks: list                     # DiskSolution per node
    patches: list                   # ambient LegendrianPatch per node
    acs: ACSField = dc_field(repr=False, default=None)
    cfg: SolverConfig = dc_field(repr=False, default=None)

    @property
    def t_step(self) -> float:
        return float(self.t_nodes[1] - self.t_nodes[0])

    def _bracket(self, t: float) -> tuple[int, float]:
        ts = self.t_nodes
        if not (ts[0] - 1e-12 <= t <= ts[-1] + 1e-12):
            raise ValueError("t outside the leaf range")
        k = int(np.clip(np.searchsorted(ts, t) - 1, 0, len(ts) - 2))
        lam = (t - ts[k]) / (ts[k + 1] - ts[k])
        return k, float(np.clip(lam, 0.0, 1.0))

    def point(self, a: float, b: float, t: float) -> np.ndarray:
        k, lam = self._bracket(t)
        p0 = self.patches[k].interp_point(a, b)
        p1 = self.patches[k + 1].interp_point(a, b)
        return (1 - lam) * p0 + lam * p1

    def sample_points(self, stride: int = 4) -> np.ndarray:
        pts = []
        for patch in self.patches:
            sel = patch.mask[::stride, ::stride]
            pts.append(patch.points[::stride, ::stride][sel])
        return np.concatenate(pts, axis=0)

    def header(self) -> dict:
        return {"kind": self.kind,
                "X": [self.X.w.real, self.X.w.imag],
                "zeta_P": [self.zeta_P.real, self.zeta_P.imag],
                "t_nodes": [float(t) for t in self.t_nodes],
                "n": self.disks[0].f.n, "h": self.disks[0].h,
                "r": self.cfg.params.r if self.cfg else None,
                "max_jinv_residual": max(d.jinv_residual for d in self.disks),
                "max_eq_residual": max(d.eq_residual for d in self.disks)}

    def save(self, directory, name="leaf"):
        d = Path(directory)
        d.mkdir(parents=True, exist_ok=True)
        with open(d / f"{name}.json", "w") as fh:
            json.dump(self.header(), fh, indent=2, sort_keys=True)
        for k, patch in enumerate(self.patches):
            patch.to_csv(d / f"{name}_disk{k}.csv")


def build_leaf(kind: str, acs: ACSField, X: PlaneChart,
               zeta_P: complex = 0.0, t_max: float = 0.5,
               t_count: int = 9,
               cfg: SolverConfig = SolverConfig()) -> Leaf:
    """Polar leaf (base 0, direction X) or parallel leaf (base zeta_P,
    direction X) over |t| <= t_max."""
    if kind not in ("polar", "parallel"):
        raise ValueError("kind must be 'polar' or 'parallel'")
    if kind == "polar" and zeta_P != 0.0:
        raise ValueError("polar leaves are based at 0")
    if t_count < 2:
        raise ValueError("a leaf needs t_count >= 2 disks")
    V = adapted_direction(X)
    t_nodes = np.linspace(-t_max, t_max, t_count)
    disks, patches = [], []
    for t in t_nodes:
        inv = _leaf_disk(acs, cfg, complex(zeta_P), float(t), V)
        disks.append(inv.value.solution)
        patches.append(inv.value.solution.ambient_patch())
    return Leaf(kind=kind, X=X, zeta_P=complex(zeta_P), t_nodes=t_nodes,
                disks=disks, patches=patches, acs=acs, cfg=cfg)


def build_polar_leaf(acs: ACSField, X: PlaneChart, **kw) -> Leaf:
    return build_leaf("polar", acs, X, 0.0, **kw)


def build_parallel_leaf(acs: ACSField, X: PlaneChart, zeta_P: complex,
                        **kw) -> Leaf:
    return build_leaf("parallel", acs, X, zeta_P, **kw)


def leaf_min_distance(leaf1: Leaf, leaf2: Leaf, stride: int = 4,
                      min_z: float = 0.0) -> float:
    """Min distance between the sampled point clouds of two leaves,
    restricted to |z| >= min_z (the polar family shares the z = 0
    axis in the limit)."""
    c1 = leaf1.sample_points(stride)
    c2 = leaf2.sample_points(stride)
    if min_z > 0.0:
        c1 = c1[np.hypot(c1[:, 0], c1[:, 3]) >= min_z]
        c2 = c2[np.hypot(c2[:, 0], c2[:, 3]) >= min_z]
    if len(c1) == 0 or len(c2) == 0:
        raise ValueError("no sample points in the restricted region")
    d2 = np.sum((c1[:, None, :] - c2[None, :, :]) ** 2, axis=-1)
    return float(np.sqrt(np.min(d2)))


# ---------------------------------------------------------------------------
# signed transversal intersections


@dataclass
class IntersectionRecord:
    point: np.ndarray
    leaf_params: tuple              # (a, b, t)
    patch_params: tuple             # (c, d)
    sign: int
    det: float
    sigma_min: float
    sigma_max: float
    residual: float

    def header(self) -> dict:
        return {"point": [float(c) for c in self.point],
                "leaf_params": [float(c) for c in self.leaf_params],
                "patch_params": [float(c) for c in self.patch_params],
                "sign": self.sign, "det": self.det,
                "sigma_min": self.sigma_min, "sigma_max": self.sigma_max,
                "residual": self.residual}


def _leaf_frame(leaf: Leaf, a, b, t, h=1e-5):
    p0 = leaf.point(a, b, t)
    ta = (leaf.point(a + h, b, t) - leaf.point(a - h, b, t)) / (2 * h)
    tb = (leaf.point(a, b + h, t) - leaf.point(a, b - h, t)) / (2 * h)
    tl = min(leaf.t_nodes[-1] - t, t - leaf.t_nodes[0], h)
    tl = max(tl, 1e-8)
    tt = (leaf.point(a, b, min(t + tl, leaf.t_nodes[-1]))
          - leaf.point(a, b, max(t - tl, leaf.t_nodes[0])))
    tt /= (min(t + tl, leaf.t_nodes[-1]) - max(t - tl, leaf.t_nodes[0]))
    return p0, ta, tb, tt


def _patch_frame(patch: LegendrianPatch, c, d, h=1e-5):
    p0 = patch.interp_point(c, d)
    tc = (patch.interp_point(c + h, d) - patch.interp_point(c - h, d)) / (2 * h)
    td = (patch.interp_point(c, d + h) - patch.interp_point(c, d - h)) / (2 * h)
    return p0, tc, td


def intersect(leaf: Leaf, patch: LegendrianPatch,
              coarse_stride: int = 4, newton_tol: float = 1e-9,
              max_iter: int = 40,
              max_param_radius: float = 0.9) -> IntersectionRecord | None:
    """Transversal intersection of a leaf with a Legendrian patch.

    Coarse closest-pair scan followed by Newton on the 5 matching
    equations; the sign is the orientation det of the five tangents
    (leaf first) in ambient coordinates, positive multiples of the
    contact volume ordering (x1, y1, x2, y2, t)."""
    # coarse scan: disk nodes of the leaf against a patch parameter grid
    lp, lpar = [], []
    for k, t in enumerate(leaf.t_nodes):
        pk = leaf.patches[k]
        A, B = pk.grid(0).meshgrid()
        sel = (pk.mask & (A ** 2 + B ** 2
                          <= (max_param_radius * pk.radius) ** 2))
        sel = sel & (np.indices(sel.shape)[0] % coarse_stride == 0) \
                  & (np.indices(sel.shape)[1] % coarse_stride == 0)
        lp.append(pk.points[sel])
        lpar.append(np.stack([A[sel], B[sel], np.full(sel.sum(), t)],
                             axis=-1))
    lp = np.concatenate(lp, axis=0)
    lpar = np.concatenate(lpar, axis=0)
    xs_p = np.linspace(-max_param_radius * patch.radius,
                       max_param_radius * patch.radius, 9)
    C, D = np.meshgrid(xs_p, xs_p, indexing="ij")
    keep = C ** 2 + D ** 2 <= (max_param_radius * patch.radius) ** 2
    C, D = C[keep], D[keep]
    pp = patch.interp_point(C, D)
    dist = np.max(np.abs(lp[:, None, :] - pp[None, :, :]), axis=-1)
    i, j = np.unravel_index(np.argmin(dist), dist.shape)
    if dist[i, j] > 0.5:
        return None
    u = np.array([lpar[i, 0], lpar[i, 1], lpar[i, 2], C[j], D[j]])
    t_lo, t_hi = leaf.t_nodes[0], leaf.t_nodes[-1]
    res = np.inf
    for _ in range(max_iter):
        pl, ta, tb, tt = _leaf_frame(leaf, u[0], u[1], u[2])
        pp, tc, td = _patch_frame(patch, u[3], u[4])
        F = pl - pp
        res = float(np.max(np.abs(F)))
        if res <= newton_tol:
            break
        J = np.stack([ta, tb, tt, -tc, -td], axis=1)
        try:
            step = np.linalg.solve(J, F)
        except np.linalg.LinAlgError:
            return None
        u = u - step
        for i, rad in ((0, leaf.patches[0].radius), (3, patch.radius)):
            nr = np.hypot(u[i], u[i + 1])
            if nr > max_param_radius * rad:
                u[i] *= max_param_radius * rad / nr
                u[i + 1] *= max_param_radius * rad / nr
        u[2] = float(np.clip(u[2], t_lo, t_hi))
    if res > newton_tol:
        return None
    pl, ta, tb, tt = _leaf_frame(leaf, u[0], u[1], u[2])
    pp, tc, td = _patch_frame(patch, u[3], u[4])
    M = np.stack([ta, tb, tt, tc, td], axis=1)
    sv = np.linalg.svd(M, compute_uv=False)
    sigma_min, sigma_max = float(sv[-1]), float(sv[0])
    if sigma_min < TRANSVERSALITY_MIN * sigma_max:
        return None
    det = float(np.linalg.det(M))
    return IntersectionRecord(point=0.5 * (pl + pp),
                              leaf_params=(u[0], u[1], u[2]),
                              patch_params=(u[3], u[4]),
                              sign=int(np.sign(det)), det=det,
                              sigma_min=sigma_min, sigma_max=sigma_max,
                              residual=res)
