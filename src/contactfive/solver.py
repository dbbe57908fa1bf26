"""Contraction solver for J-invariant Legendrian disks.

In a chart adapted to a point p and a J-invariant plane X, the disk is
sought as the Legendrian lift of the graph of a potential f over the
unit (x1, y2) disk.  J-invariance of the lifted tangent planes reduces
to the scalar equation

    e f11 + 2 sigma f12 + gamma f22 + delta (f11 f22 - f12^2) + beta = 0

with coefficients evaluated along the lift.  Freezing (e, sigma, gamma)
at the chart origin gives a constant-coefficient elliptic operator

    L u = e0 u11 + 2 sigma0 u12 + gamma0 u22

and the Picard iteration

    L f_new = delta (f12^2 - f11 f22) - beta - (A11 f11 + 2 A12 f12 + A22 f22)

where A11 = e - e0, A12 = sigma - sigma0, A22 = gamma - gamma0 are the
coefficient deviations.  Under the smallness condition
||beta||_C2 + ||A||_C2 <= 1 / (24 max(1, |delta0|) N^2), with N the
norm of L^-1, the iteration contracts in the ball of radius
1 / (48 max(1, |delta0|) N).
"""
from __future__ import annotations

import json
from collections import OrderedDict
from dataclasses import dataclass, field as dc_field

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.linalg import splu

from .acs import (ACSField, c2_differences, chart_j_matrices, dilate_field,
                  j_matrices, j_matrix_from_coeffs)
from .charts import (Chart5, PlaneChart, chart_of_plane_j,
                     plane_vector_from_chart)
from .contact import ContactParams, lift_vector, standard_I_matrix
from .lift import (D1_CENTRAL4, D2_CENTRAL4, GridFunction, LegendrianPatch,
                   LIFT_TOL_FACTOR, _bilinear, exact_patch, graph_and_lift,
                   patch_newton, stencil)

GAMMA0_MIN = 1e-3
# residuals are measured on this subdisk: outside it the cut-cell
# boundary stencils break the smooth h^2 error expansion
EQ_MEASURE_RADIUS = 0.85


class ContractionError(RuntimeError):
    """Raised when the Picard iteration fails to contract."""


@dataclass(frozen=True)
class SolverConfig:
    n: int = 65                    # grid resolution (odd)
    tol: float = 1e-10             # sup-norm fixed point tolerance
    max_iter: int = 200
    params: ContactParams = ContactParams()
    psi_tol: float = 1e-8          # fixed-point inversion of Psi
    psi_max_iter: int = 50
    smallness_samples: int = 32
    smallness_fd_h: float = 1e-3
    seed: int = 0


@dataclass(frozen=True)
class AdaptedChart:
    """Chart adapted to (p, X): origin at p, plane X pulled back to the
    graph of zero, beta vanishing at the origin."""

    chart: Chart5
    acs: ACSField                  # ambient field
    sigma0: float
    gamma0: float
    delta0: float
    e0: float

    def coeff_arrays(self, P: np.ndarray):
        """(sigma, beta, gamma, delta, e) of the pulled-back field at a
        batch of chart points, via one conjugation."""
        M = chart_j_matrices(self.acs, self.chart, P)
        return (M[..., 0, 0], M[..., 2, 0], M[..., 3, 0], M[..., 0, 2],
                M[..., 2, 1])

    @property
    def M(self) -> np.ndarray:
        return np.array([[self.e0, self.sigma0], [self.sigma0, self.gamma0]])


def adapt_chart(p: np.ndarray, direction: np.ndarray, acs: ACSField,
                params: ContactParams = ContactParams()) -> AdaptedChart:
    """Chart adapted to the J-invariant plane span{v, Jv} at p.

    The first frame vector V is the normalized projection of dx1 onto
    the plane, e4 is the component of JV orthogonal to V, and e3 = -I e4
    completes a frame whose rotation commutes with I; the pulled-back
    coefficients then satisfy beta(0) = 0 and gamma(0) = |JV - (JV.V) V|.
    """
    p = np.asarray(p, dtype=float)
    v = np.asarray(direction, dtype=float)[:4]
    Jm = j_matrices(acs, p)
    q, r = np.linalg.qr(np.stack([v, Jm @ v], axis=1))
    if min(abs(r[0, 0]), abs(r[1, 1])) < 1e-10 * max(1.0, abs(r[0, 0])):
        raise ValueError("degenerate direction")
    # distinguished in-plane direction: projection of dx1, falling back
    # to the other axes when the plane is orthogonal to dx1 (planes in
    # the unit chart never need the fallback)
    V = None
    for axis in range(4):
        e = np.zeros(4)
        e[axis] = 1.0
        cand = (e @ q[:, 0]) * q[:, 0] + (e @ q[:, 1]) * q[:, 1]
        if np.linalg.norm(cand) >= 1e-6:
            V = cand / np.linalg.norm(cand)
            break
    if V is None:
        raise ValueError("degenerate direction")
    u = Jm @ V
    sigma0 = float(u @ V)
    w_perp = u - sigma0 * V
    gamma0 = float(np.linalg.norm(w_perp))
    if gamma0 < GAMMA0_MIN:
        raise ValueError(f"adapted gamma0 = {gamma0:g} below {GAMMA0_MIN:g}; "
                         "rotate the field first (gamma_fallback)")
    Istd = standard_I_matrix()
    e4 = w_perp / gamma0
    e3 = -(Istd @ e4)
    R = np.stack([V, Istd @ V, e3, e4], axis=1)
    chart = Chart5(p, R, params)
    ac = AdaptedChart(chart=chart, acs=acs, sigma0=sigma0, gamma0=gamma0,
                      delta0=0.0, e0=0.0)
    s0, b0, g0, d0, e0 = ac.coeff_arrays(np.zeros(5))
    if abs(b0) > 1e-9 or abs(s0 - sigma0) > 1e-9 or abs(g0 - gamma0) > 1e-9:
        raise AssertionError("adapted chart lost its normal form")
    return AdaptedChart(chart=chart, acs=acs, sigma0=float(s0),
                        gamma0=float(g0), delta0=float(d0), e0=float(e0))


# ---------------------------------------------------------------------------
# constant-coefficient elliptic operator on the unit disk


class EllipticOperator:
    """Dirichlet problem e0 u11 + 2 sigma0 u12 + gamma0 u22 = rhs on the
    unit disk, zero boundary values, with boundary-cut (Shortley-Weller)
    arms along the axes and zero extension for the cross stencil."""

    def __init__(self, n: int, e0: float, sigma0: float, gamma0: float):
        if e0 <= 0 or gamma0 <= 0 or e0 * gamma0 - sigma0 ** 2 <= 0:
            raise ValueError("operator is not elliptic")
        self.n = n
        self.e0, self.sigma0, self.gamma0 = e0, sigma0, gamma0
        xs = np.linspace(-1.0, 1.0, n)
        h = 2.0 / (n - 1)
        interior = xs[:, None] ** 2 + xs[None, :] ** 2 < 1.0 - 1e-12
        m = int(np.count_nonzero(interior))
        index = np.full((n, n), -1, dtype=int)
        index[interior] = np.arange(m)
        padded = np.pad(index, 1, constant_values=-1)   # -1 off the grid
        I, J = np.nonzero(interior)
        x, y = xs[I], xs[J]

        def neighbor(di, dj):
            return padded[I + 1 + di, J + 1 + dj]

        def arm(di, dj):
            # length and unknown index of the stencil arms; cut arms end
            # on the circle where u = 0
            k = neighbor(di, dj)
            if di != 0:
                cut = np.sqrt(np.maximum(1.0 - y * y, 0.0)) - di * x
            else:
                cut = np.sqrt(np.maximum(1.0 - x * x, 0.0)) - dj * y
            return np.where(k >= 0, h, np.clip(cut, 1e-6 * h, h)), k

        cols, vals = [], []            # one (m,) array per stencil slot
        diag = 0.0
        for (di, dj, c) in ((1, 0, e0), (0, 1, gamma0)):
            hp, kp = arm(di, dj)
            hm, km = arm(-di, -dj)
            cols += [kp, km]
            vals += [c * 2.0 / (hp * (hp + hm)), c * 2.0 / (hm * (hp + hm))]
            diag -= c * 2.0 / (hp * hm)
        cols.append(np.arange(m))
        vals.append(diag)
        if sigma0 != 0.0:
            for (di, dj, s) in ((1, 1, 1.0), (-1, -1, 1.0),
                                (1, -1, -1.0), (-1, 1, -1.0)):
                cols.append(neighbor(di, dj))
                vals.append(np.full(m, 2.0 * sigma0 * s / (4.0 * h * h)))
        cols, vals = np.stack(cols, axis=1), np.stack(vals, axis=1)
        keep = np.nonzero(cols >= 0)   # arms cut by the circle drop out
        A = csr_matrix((vals[keep], (keep[0], cols[keep])), shape=(m, m))
        self.interior = interior
        self.index = index
        self.h = h
        self._matrix = A
        # the matrix is structurally symmetric: minimum degree on A^T + A
        # gives about half the fill of the default COLAMD ordering
        self._lu = splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A",
                        options={"SymmetricMode": True})
        rng = np.random.default_rng(0)
        cand = [np.ones(m)] + [rng.choice([-1.0, 1.0], size=m)
                               for _ in range(3)]
        self.N = float(max(np.max(np.abs(self._lu.solve(b))) for b in cand))

    def solve(self, rhs: np.ndarray) -> tuple[np.ndarray, float]:
        """Solution grid (zero outside the open disk) and the linear
        residual ||A u - b||_inf of the direct solve."""
        b = np.asarray(rhs, dtype=float)[self.interior]
        u = self._lu.solve(b)
        res = float(np.max(np.abs(self._matrix @ u - b))) if b.size else 0.0
        out = np.zeros((self.n, self.n))
        out[self.interior] = u
        return out, res


OP_CACHE_SIZE = 8                  # operators kept, least recently used out
OP_CACHE_NODES = 257 ** 2          # budget on the total n^2 of those operators
_OP_CACHE: OrderedDict = OrderedDict()


def get_operator(n: int, e0: float, sigma0: float, gamma0: float
                 ) -> EllipticOperator:
    key = (n, round(float(e0), 12), round(float(sigma0), 12),
           round(float(gamma0), 12))
    if key in _OP_CACHE:
        _OP_CACHE.move_to_end(key)
    else:
        # make room before factoring, so that no evicted factor is still
        # alive while the new one peaks
        while _OP_CACHE and (
                len(_OP_CACHE) >= OP_CACHE_SIZE
                or n * n + sum(k[0] ** 2 for k in _OP_CACHE) > OP_CACHE_NODES):
            _OP_CACHE.popitem(last=False)
        _OP_CACHE[key] = EllipticOperator(n, float(e0), float(sigma0),
                                          float(gamma0))
    return _OP_CACHE[key]


# ---------------------------------------------------------------------------
# Picard iteration


def _rhs_grid(ac: AdaptedChart, f: GridFunction,
              params: ContactParams) -> np.ndarray:
    _, _, pts5 = graph_and_lift(f, None, params)
    s, b, g, d, e = ac.coeff_arrays(pts5)
    f11, f12, f22 = f.f11(), f.f12(), f.f22()
    rhs = (d * (f12 ** 2 - f11 * f22) - b
           - ((e - ac.e0) * f11 + 2.0 * (s - ac.sigma0) * f12
              + (g - ac.gamma0) * f22))
    return np.where(f.mask, rhs, 0.0)


@dataclass
class DiskSolution:
    """Fixed point of the Picard iteration with its diagnostics.

    The potential f and the patch live in the adapted chart; use
    ambient_patch() for ambient coordinates."""

    f: GridFunction
    adapted: AdaptedChart
    config: SolverConfig
    iterations: int
    converged: bool
    diffs: list
    ratios: list
    linear_residual: float
    eq_residual: float             # 4th-order interior measurement
    eq_residual_nodes: int
    jinv_residual: float
    smallness: dict
    N: float
    patch: LegendrianPatch = dc_field(repr=False, default=None)

    @property
    def h(self) -> float:
        return self.f.h

    @property
    def jinv_tolerance(self) -> float:
        return LIFT_TOL_FACTOR * self.h ** 2

    def ambient_patch(self) -> LegendrianPatch:
        ch = self.adapted.chart
        pts = ch.to_ambient(self.patch.points)
        R = ch.rot

        def push(tg):
            return lift_vector(pts[..., :4], pts[..., 4],
                               np.einsum("ij,...j->...i", R, tg[..., :4]),
                               ch.params)

        return LegendrianPatch(points=pts, t1=push(self.patch.t1),
                               t2=push(self.patch.t2),
                               mask=self.patch.mask.copy(),
                               radius=self.patch.radius,
                               start=ch.to_ambient(self.patch.start),
                               params=ch.params)

    def header(self) -> dict:
        return {
            "n": self.f.n, "h": self.h, "r": self.config.params.r,
            "iterations": self.iterations, "converged": self.converged,
            "tol": self.config.tol,
            "diffs": [float(d) for d in self.diffs],
            "ratios": [float(r) for r in self.ratios],
            "sup_f": self.f.sup(),
            "linear_residual": self.linear_residual,
            "eq_residual": self.eq_residual,
            "eq_residual_nodes": self.eq_residual_nodes,
            "jinv_residual": self.jinv_residual,
            "jinv_tolerance": self.jinv_tolerance,
            "N": self.N,
            "sigma0": self.adapted.sigma0, "gamma0": self.adapted.gamma0,
            "delta0": self.adapted.delta0, "e0": self.adapted.e0,
            "smallness": self.smallness,
        }

    def to_json(self) -> str:
        return json.dumps(self.header(), indent=2, sort_keys=True)


def _coeff_stack(ac: AdaptedChart, P: np.ndarray) -> np.ndarray:
    s, b, g, d, e = ac.coeff_arrays(P)
    return np.stack([s, b, g, d, e], axis=-1)


def smallness_report(ac: AdaptedChart, N: float, cfg: SolverConfig) -> dict:
    """Measured contraction hypotheses: C2 surrogates (value + first +
    second finite differences over sampled chart points) of beta and of
    the coefficient deviation matrix A, against 1/(24 max(1,|d0|) N^2)."""
    rng = np.random.default_rng(cfg.seed)
    m = cfg.smallness_samples
    v = rng.normal(size=(m, 5))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    P = 1.05 * rng.uniform(size=(m, 1)) ** 0.2 * v
    P = np.concatenate([P, np.zeros((1, 5))], axis=0)
    base, d1, d2, cross = c2_differences(lambda Q: _coeff_stack(ac, Q), P,
                                         cfg.smallness_fd_h)
    val = np.max(np.abs(base - _coeff_stack(ac, np.zeros(5))), axis=0)
    d2 = np.maximum(np.max(np.abs(d2), axis=(0, 1)),
                    np.max(np.abs(cross), axis=(0, 1)))
    c2 = val + np.max(np.abs(d1), axis=(0, 1)) + d2   # per (s, b, g, d, e)
    beta_c2 = float(c2[1])
    A_c2 = float(max(c2[0], c2[2], c2[4]))  # entries of A deviate by these
    scale = max(1.0, abs(ac.delta0))
    threshold = 1.0 / (24.0 * scale * N ** 2)
    delta_sup = float(np.max(np.abs(base[:, 3])))
    return {
        "beta_c2": beta_c2,
        "A_c2": A_c2,
        "total": beta_c2 + A_c2,
        "threshold": threshold,
        "satisfied": bool(beta_c2 + A_c2 <= threshold),
        "ball_radius": 1.0 / (48.0 * scale * N),
        "delta0": ac.delta0,
        "delta_bound_ok": bool(delta_sup <= 2.0 * abs(ac.delta0) + 1e-12),
        "N": N,
    }


def picard_solve(ac: AdaptedChart, cfg: SolverConfig = SolverConfig()
                 ) -> DiskSolution:
    """Iterate the frozen-coefficient solve from f = 0 until the sup
    difference falls below cfg.tol; aborts after two consecutive
    non-contracting steps, or when the rhs of an iterate other than
    f = 0 cannot be evaluated (it left the field's domain or its graph
    is not Lagrangian)."""
    n = cfg.n
    params = cfg.params
    op = get_operator(n, ac.e0, ac.sigma0, ac.gamma0)
    f = GridFunction(np.zeros((n, n)))
    diffs, ratios = [], []
    lin_res = 0.0
    converged = False
    rising = 0
    iterations = 0
    for _ in range(cfg.max_iter):
        try:
            rhs = _rhs_grid(ac, f, params)
        except ValueError as exc:
            if not iterations:
                raise           # f = 0: the input itself is bad
            raise ContractionError(
                f"iteration diverged: no rhs for iterate {iterations} "
                f"({exc}); diffs {diffs[-3:]}") from exc
        new_vals, lin_res = op.solve(rhs)
        diff = float(np.max(np.abs(new_vals - f.values)[f.mask]))
        f = f.like(new_vals)
        iterations += 1
        diffs.append(diff)
        if len(diffs) > 1:
            ratio = diff / max(diffs[-2], 1e-300)
            ratios.append(ratio)
            if ratio >= 1.0 and diff > cfg.tol:
                rising += 1
                if rising >= 2:
                    raise ContractionError(
                        f"iteration stopped contracting: diffs {diffs[-3:]}")
            else:
                rising = 0
        if diff <= cfg.tol:
            converged = True
            break
    small = smallness_report(ac, op.N, cfg)
    return _with_diagnostics(ac, f, cfg, iterations, converged, diffs,
                             ratios, lin_res, small, op.N)


def _with_diagnostics(ac, f, cfg, iterations, converged, diffs, ratios,
                      lin_res, small, N) -> DiskSolution:
    patch = exact_patch(f, None, cfg.params)
    s, b, g, d, e = ac.coeff_arrays(patch.points)

    # independent 4th-order stencils on the measurement subdisk
    h = f.h
    X, Y = f.meshgrid()
    f11_4, v11 = stencil(f.values, f.mask, h, 0, D2_CENTRAL4)
    f22_4, v22 = stencil(f.values, f.mask, h, 1, D2_CENTRAL4)
    g1, v1 = stencil(f.values, f.mask, h, 0, D1_CENTRAL4)
    f12_4, v12 = stencil(g1, v1, h, 1, D1_CENTRAL4)
    valid = v11 & v22 & v12 & (X ** 2 + Y ** 2 <= EQ_MEASURE_RADIUS ** 2)
    eq = (e * f11_4 + 2.0 * s * f12_4 + g * f22_4
          + d * (f11_4 * f22_4 - f12_4 ** 2) + b)
    eq_res = float(np.max(np.abs(eq[valid]))) if np.any(valid) else 0.0

    lam4 = g - 1.0 + d * f11_4
    mu4 = s - d * f12_4
    M = j_matrix_from_coeffs(s, b, g, d, e)
    ones = np.ones_like(f11_4)
    zeros = np.zeros_like(f11_4)
    T1 = np.stack([ones, f11_4, -f12_4, zeros], axis=-1)
    T2 = np.stack([zeros, f12_4, -f22_4, ones], axis=-1)
    res_vec = (np.einsum("...ij,...j->...i", M, T1)
               - mu4[..., None] * T1 - (1.0 + lam4)[..., None] * T2)
    jinv = (float(np.max(np.abs(res_vec[valid])))
            if np.any(valid) else 0.0)
    return DiskSolution(f=f, adapted=ac, config=cfg, iterations=iterations,
                        converged=converged, diffs=diffs, ratios=ratios,
                        linear_residual=lin_res, eq_residual=eq_res,
                        eq_residual_nodes=int(np.count_nonzero(valid)),
                        jinv_residual=jinv, smallness=small, N=N, patch=patch)


def solve_disk(p: np.ndarray, direction: np.ndarray, acs: ACSField,
               cfg: SolverConfig = SolverConfig()) -> DiskSolution:
    """J-invariant Legendrian disk through (near) p tangent to
    span{direction, J direction}."""
    ac = adapt_chart(p, direction, acs, cfg.params)
    return picard_solve(ac, cfg)


# ---------------------------------------------------------------------------
# the disk-to-spine map Psi and its inversion


@dataclass
class PsiValue:
    Q: np.ndarray                  # ambient intersection with the spine
    Y: PlaneChart                  # tangent plane chart at Q
    solution: DiskSolution
    newton_residual: float


def psi(P: np.ndarray, X: PlaneChart, acs: ACSField,
        cfg: SolverConfig = SolverConfig()) -> PsiValue:
    """Solve the disk through (P, X) and intersect it with the spine
    {x1 = 0, y2 = 0}; P must lie on the spine and X is a plane chart in
    the identification induced by J at P."""
    P = np.asarray(P, dtype=float)
    if max(abs(P[0]), abs(P[3])) > 1e-9:
        raise ValueError("base point is not on the spine {x1 = 0, y2 = 0}")
    JmP = j_matrices(acs, P)
    v = plane_vector_from_chart(X, JmP)
    sol = solve_disk(P, v, acs, cfg)
    ch = sol.adapted.chart
    pts = ch.to_ambient(sol.patch.points)           # (n, n, 5) ambient

    mask = sol.f.mask
    radius = sol.f.radius
    z, res = patch_newton(pts, mask, radius)
    Q = _bilinear(np.where(mask[..., None], pts, 0.0), radius, z[0], z[1])

    f11 = _bilinear(sol.f.f11(), radius, z[0], z[1])
    f12 = _bilinear(sol.f.f12(), radius, z[0], z[1])
    f22 = _bilinear(sol.f.f22(), radius, z[0], z[1])
    T1 = ch.rot @ np.array([1.0, f11, -f12, 0.0])
    T2 = ch.rot @ np.array([0.0, f12, -f22, 1.0])
    JmQ = j_matrices(acs, Q)
    Y = chart_of_plane_j(T1, T2, JmQ)
    return PsiValue(Q=Q, Y=Y, solution=sol, newton_residual=res)


@dataclass
class InverseResult:
    P: np.ndarray
    X: PlaneChart
    iterations: int
    error: float
    value: PsiValue


def psi_invert(Q: np.ndarray, Y: PlaneChart, acs: ACSField,
               cfg: SolverConfig = SolverConfig()) -> InverseResult:
    """Fixed-point inversion of Psi: find (P, X) on the spine with
    Psi(P, X) = (Q, Y), iterating (P, X) <- (P, X) - (Psi(P, X) - (Q, Y))."""
    Q = np.asarray(Q, dtype=float)
    if max(abs(Q[0]), abs(Q[3])) > 1e-9:
        raise ValueError("target point is not on the spine")
    if cfg.psi_max_iter < 1:
        raise ValueError("psi_max_iter must be at least 1")
    P = Q.copy()
    P[0] = 0.0
    P[3] = 0.0
    w = Y.w
    last = None
    for k in range(cfg.psi_max_iter):
        last = psi(P, PlaneChart(w), acs, cfg)
        dP = last.Q - Q
        dw = last.Y.w - Y.w
        err = max(float(np.max(np.abs(dP))), abs(dw))
        if err <= cfg.psi_tol:
            return InverseResult(P=P, X=PlaneChart(w), iterations=k + 1,
                                 error=err, value=last)
        P = P - dP
        P[0] = 0.0
        P[3] = 0.0
        w = w - dw
    raise ContractionError(
        f"Psi inversion did not reach {cfg.psi_tol:g} in "
        f"{cfg.psi_max_iter} iterations (last error {err:g})")


def choose_dilation(acs: ACSField, cfg: SolverConfig = SolverConfig(),
                    max_halvings: int = 20) -> tuple[float, dict]:
    """Smallest number of halvings of the dilation factor r until the
    measured contraction hypotheses hold for the dilated field."""
    r = 1.0
    for _ in range(max_halvings + 1):
        field_r = dilate_field(acs, r)
        Jm0 = j_matrices(field_r, np.zeros(5))
        v = plane_vector_from_chart(PlaneChart(0.0), Jm0)
        ac = adapt_chart(np.zeros(5), v, field_r, cfg.params)
        op = get_operator(cfg.n, ac.e0, ac.sigma0, ac.gamma0)
        rep = smallness_report(ac, op.N, cfg)
        rep["r"] = r
        if rep["satisfied"]:
            return r, rep
        r *= 0.5
    raise ContractionError("contraction hypotheses still fail after "
                           f"{max_halvings} halvings")
