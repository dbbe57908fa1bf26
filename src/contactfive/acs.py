"""Almost complex structure fields in the sigma/beta/gamma/delta model.

A field assigns to each point of a ball in R^5 the 4x4 matrix

    J dx1 = sigma dx1 + beta dx2 + gamma dy2
    J dy1 = sigma dy1 + e dx2 + delta dy2,     e = (1 + sigma^2 + beta*delta) / gamma
    J dx2 = delta dx1 - gamma dy1 - sigma dx2
    J dy2 = -e dx1 + beta dy1 - sigma dy2

acting on horizontal projections.  This is the general anti-compatible
form: J^2 = -Id and both Lagrangian identities hold for any choice of
the four scalar coefficients with gamma != 0.
"""
from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import expr as expr_mod
from .charts import GAMMA_SWAP, Chart5
from .contact import DALPHA_MATRIX
from .forms import CheckReport, JMatrix

FD_H = 1e-5
GAMMA_MIN = 1e-3
IDENTITY_TOL = 1e-10


def _split(p: np.ndarray):
    p = np.asarray(p, dtype=float)
    return tuple(np.moveaxis(p, -1, 0))


@dataclass(frozen=True)
class ScalarField5:
    """Scalar function of (x1, y1, x2, y2, t) with derivative queries.

    func and the optional derivative callables take the five coordinate
    arrays; missing derivatives fall back to central differences.
    """

    func: Callable
    grads: tuple | None = None
    hess_funcs: dict | None = None
    h: float = FD_H

    def __call__(self, p: np.ndarray) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        out = np.asarray(self.func(*_split(p)), dtype=float)
        batch = p.shape[:-1]
        if out.shape != batch:
            out = np.broadcast_to(out, batch).copy()
        return out if batch else float(out)

    def grad(self, p: np.ndarray) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        if self.grads is not None:
            comps = _split(p)
            out = [np.broadcast_to(np.asarray(g(*comps), dtype=float),
                                   p.shape[:-1]) for g in self.grads]
            return np.stack(out, axis=-1)
        return np.moveaxis(c2_differences(self, p, self.h)[1], 0, -1)

    def hess(self, p: np.ndarray) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        batch = p.shape[:-1]
        H = np.zeros(batch + (5, 5))
        if self.hess_funcs is not None:
            comps = _split(p)
            for (i, j), fn in self.hess_funcs.items():
                val = np.broadcast_to(np.asarray(fn(*comps), dtype=float), batch)
                H[..., i, j] = val
                H[..., j, i] = val
            return H
        _, _, d2, cross = c2_differences(self, p, self.h)
        pairs = [(i, j) for i in range(5) for j in range(i + 1, 5)]
        for i in range(5):
            H[..., i, i] = d2[i]
        for (i, j), val in zip(pairs, cross):
            H[..., i, j] = H[..., j, i] = val
        return H

    @staticmethod
    def constant(c: float) -> "ScalarField5":
        c = float(c)
        zero = lambda *a: np.zeros(np.broadcast(*a).shape)
        return ScalarField5(func=lambda *a: np.full(np.broadcast(*a).shape, c),
                            grads=tuple(zero for _ in range(5)),
                            hess_funcs={(i, j): zero for i in range(5)
                                        for j in range(i, 5)})

    @staticmethod
    def from_expression(text: str) -> "ScalarField5":
        e = expr_mod.parse(text)
        f, grads, hessians = expr_mod.lambdify_with_derivatives(e)
        return ScalarField5(func=f, grads=tuple(grads),
                            hess_funcs={(i, j): fn for i, j, fn in hessians})

    @staticmethod
    def from_callable(func: Callable) -> "ScalarField5":
        return ScalarField5(func=func)

    def rescaled(self, r: float) -> "ScalarField5":
        """Field value at r*p: composition with the inverse dilation."""
        r = float(r)
        f = self.func
        new_grads = None
        new_hess = None
        if self.grads is not None:
            new_grads = tuple(
                (lambda g: lambda *a: r * np.asarray(
                    g(*[r * x for x in a]), dtype=float))(g)
                for g in self.grads)
        if self.hess_funcs is not None:
            new_hess = {
                ij: (lambda fn: lambda *a: r ** 2 * np.asarray(
                    fn(*[r * x for x in a]), dtype=float))(fn)
                for ij, fn in self.hess_funcs.items()}
        return ScalarField5(func=lambda *a: f(*[r * x for x in a]),
                            grads=new_grads, hess_funcs=new_hess, h=self.h)


@dataclass(frozen=True)
class ACSField:
    """Coefficient fields of the model.  eta is the (1+sigma^2+
    beta*delta)/gamma entry; it is derived from the other four when
    omitted, and must be supplied explicitly for fields where gamma
    vanishes (it stays a free coefficient there, constrained by
    gamma*eta = 1 + sigma^2 + beta*delta)."""

    sigma: ScalarField5
    beta: ScalarField5
    gamma: ScalarField5
    delta: ScalarField5
    eta: ScalarField5 | None = None
    rho: float = 4.0
    gamma_min: float = GAMMA_MIN

    def coeffs(self, p: np.ndarray):
        return self.sigma(p), self.beta(p), self.gamma(p), self.delta(p)

    def in_domain(self, p: np.ndarray) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        return np.linalg.norm(p, axis=-1) <= self.rho * (1 + 1e-9)


def j_matrix_from_coeffs(sigma, beta, gamma, delta, eta=None) -> np.ndarray:
    """Batched 4x4 matrices of the model; trailing axes are (row, col)."""
    s, b, g, d = np.broadcast_arrays(np.asarray(sigma, dtype=float),
                                     np.asarray(beta, dtype=float),
                                     np.asarray(gamma, dtype=float),
                                     np.asarray(delta, dtype=float))
    if eta is None:
        e = (1.0 + s ** 2 + b * d) / g
    else:
        e = np.broadcast_to(np.asarray(eta, dtype=float), s.shape)
        dev = np.max(np.abs(g * e - (1.0 + s ** 2 + b * d)))
        if dev > 1e-9:
            raise ValueError(
                f"eta violates gamma*eta = 1 + sigma^2 + beta*delta by {dev:g}")
    z = np.zeros_like(s)
    col0 = np.stack([s, z, b, g], axis=-1)
    col1 = np.stack([z, s, e, d], axis=-1)
    col2 = np.stack([d, -g, -s, z], axis=-1)
    col3 = np.stack([-e, b, z, -s], axis=-1)
    return np.stack([col0, col1, col2, col3], axis=-1)


def read_coeffs_from_matrix(m: np.ndarray, tol: float = IDENTITY_TOL):
    """Inverse of j_matrix_from_coeffs; raises when the matrix leaves
    the model pattern."""
    m = np.asarray(m, dtype=float)
    sigma, beta, gamma, delta = m[..., 0, 0], m[..., 2, 0], m[..., 3, 0], m[..., 0, 2]
    rebuilt = j_matrix_from_coeffs(sigma, beta, gamma, delta)
    dev = np.max(np.abs(rebuilt - m))
    if dev > tol:
        raise ValueError(f"matrix leaves the coefficient model by {dev:g}")
    return sigma, beta, gamma, delta


def j_matrices(acs: ACSField, p: np.ndarray) -> np.ndarray:
    """Batched model matrices at p; checks domain and the gamma bound."""
    p = np.asarray(p, dtype=float)
    if not np.all(acs.in_domain(p)):
        raise ValueError("point outside the field domain")
    s, b, g, d = acs.coeffs(p)
    if acs.eta is not None:
        return j_matrix_from_coeffs(s, b, g, d, acs.eta(p))
    if np.min(np.abs(g)) < acs.gamma_min:
        raise ValueError(
            f"|gamma| fell below {acs.gamma_min:g}; apply gamma_fallback")
    return j_matrix_from_coeffs(s, b, g, d)


def j_matrix(acs: ACSField, p: np.ndarray) -> JMatrix:
    return JMatrix(j_matrices(acs, p))


def _sample_ball(rng: np.random.Generator, n: int, dim: int,
                 radius: float) -> np.ndarray:
    v = rng.normal(size=(n, dim))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    u = rng.uniform(size=(n, 1)) ** (1.0 / dim)
    return radius * u * v


def check_identities(field, n_samples: int = 1000,
                     rng: np.random.Generator | None = None,
                     radius: float = 1.0,
                     tol: float = IDENTITY_TOL) -> CheckReport:
    """Sampled check of J^2 = -Id and the two Lagrangian identities
    d alpha(Jv, v) = 0 and d alpha(v, w) = -d alpha(Jv, Jw).

    field is an ACSField or any callable mapping a batch of points of
    shape (n, 5) to matrices of shape (n, 4, 4).
    """
    rng = rng or np.random.default_rng(0)
    P = _sample_ball(rng, n_samples, 5, radius)
    if isinstance(field, ACSField):
        M = j_matrices(field, P)
    else:
        M = np.asarray(field(P), dtype=float)
    V = rng.normal(size=(n_samples, 4))
    W = rng.normal(size=(n_samples, 4))
    S = DALPHA_MATRIX
    JV = np.einsum("nij,nj->ni", M, V)
    JW = np.einsum("nij,nj->ni", M, W)
    sq = np.max(np.abs(np.einsum("nij,njk->nik", M, M) + np.eye(4)))
    lagr = np.max(np.abs(np.einsum("ni,ij,nj->n", JV, S, V)))
    anti = np.max(np.abs(np.einsum("ni,ij,nj->n", V, S, W)
                         + np.einsum("ni,ij,nj->n", JV, S, JW)))
    rep = CheckReport()
    rep.add("J^2 = -Id", sq, tol)
    rep.add("dalpha(Jv, v) = 0", lagr, tol)
    rep.add("dalpha(v, w) + dalpha(Jv, Jw) = 0", anti, tol)
    return rep


def chart_j_matrices(acs: ACSField, chart: Chart5,
                     P: np.ndarray) -> np.ndarray:
    """J in chart coordinates, R^-1 J(E(P)) R, at a batch of chart
    points P."""
    R = chart.rot
    return np.linalg.inv(R) @ j_matrices(acs, chart.to_ambient(P)) @ R


def pullback_acs(acs: ACSField, chart: Chart5,
                 rho: float | None = None) -> ACSField:
    """Field in chart coordinates: J'(q) = R^-1 J(E(q)) R.

    Valid whenever the chart rotation preserves dalpha; the conjugated
    matrix then stays in the coefficient model (spot-check with
    pullback_consistency).
    """
    def coeff_func(row: int, col: int):
        def f(*comps):
            P = np.stack(np.broadcast_arrays(*comps), axis=-1)
            return chart_j_matrices(acs, chart, P)[..., row, col]
        return f

    if rho is None:
        rho = acs.rho - float(np.linalg.norm(chart.base))
        if rho <= 0:
            raise ValueError("chart base outside the field domain")
    return ACSField(sigma=ScalarField5.from_callable(coeff_func(0, 0)),
                    beta=ScalarField5.from_callable(coeff_func(2, 0)),
                    gamma=ScalarField5.from_callable(coeff_func(3, 0)),
                    delta=ScalarField5.from_callable(coeff_func(0, 2)),
                    eta=ScalarField5.from_callable(coeff_func(2, 1)),
                    rho=rho, gamma_min=acs.gamma_min)


def pullback_consistency(acs: ACSField, chart: Chart5, n_samples: int = 64,
                         radius: float = 0.5,
                         rng: np.random.Generator | None = None) -> float:
    """Max deviation of the conjugated matrices from the model pattern."""
    rng = rng or np.random.default_rng(0)
    P = _sample_ball(rng, n_samples, 5, radius)
    M = chart_j_matrices(acs, chart, P)
    s, b, g, d = M[:, 0, 0], M[:, 2, 0], M[:, 3, 0], M[:, 0, 2]
    return float(np.max(np.abs(j_matrix_from_coeffs(s, b, g, d) - M)))


def gamma_fallback(acs: ACSField, n_samples: int = 256,
                   rng: np.random.Generator | None = None,
                   radius: float | None = None) -> tuple[ACSField, Chart5]:
    """Rotate the (x2, y2) coordinates so gamma is bounded away from 0.

    Returns the field unchanged (identity chart) when gamma already
    clears the bound; otherwise applies the dx2 -> dy2 quarter turn.
    The swapped coefficients are exact algebraic images of the old ones:
    sigma' = sigma, beta' = -gamma, gamma' = beta, delta' = eta and
    eta' = -delta, so the swap stays valid where gamma vanishes.
    """
    rng = rng or np.random.default_rng(0)
    radius = radius if radius is not None else min(1.0, acs.rho)
    P = _sample_ball(rng, n_samples, 5, radius)
    g = np.abs(np.asarray(acs.gamma(P)))
    identity = Chart5(np.zeros(5), np.eye(4))
    if np.min(g) >= acs.gamma_min:
        return acs, identity
    b = np.abs(np.asarray(acs.beta(P)))
    if np.min(np.maximum(g, b)) < acs.gamma_min:
        raise ValueError("beta and gamma both vanish at a sampled point; "
                         "no anti-compatible structure exists there")
    if np.min(b) < acs.gamma_min:
        raise ValueError("beta is not bounded away from 0; cannot rotate "
                         "gamma clear of the threshold")
    chart = Chart5(np.zeros(5), GAMMA_SWAP)
    eta = acs.eta
    if eta is None:
        if np.min(g) <= 0:
            raise ValueError("gamma vanishes exactly; supply the eta "
                             "coefficient to make the field well defined")
        s5, b5, g5, d5 = acs.sigma, acs.beta, acs.gamma, acs.delta
        eta = ScalarField5.from_callable(
            lambda *a: (1.0 + np.asarray(s5.func(*a), dtype=float) ** 2
                        + np.asarray(b5.func(*a), dtype=float)
                        * np.asarray(d5.func(*a), dtype=float))
            / np.asarray(g5.func(*a), dtype=float))

    def composed(f: ScalarField5, scale: float) -> ScalarField5:
        def fn(*comps):
            P = np.stack(np.broadcast_arrays(*[np.asarray(c, dtype=float)
                                               for c in comps]), axis=-1)
            return scale * np.asarray(f(chart.to_ambient(P)), dtype=float)
        return ScalarField5.from_callable(fn)

    swapped = ACSField(sigma=composed(acs.sigma, 1.0),
                       beta=composed(acs.gamma, -1.0),
                       gamma=composed(acs.beta, 1.0),
                       delta=composed(eta, 1.0),
                       eta=composed(acs.delta, -1.0),
                       rho=acs.rho, gamma_min=acs.gamma_min)
    return swapped, chart


def c2_differences(fn: Callable, P: np.ndarray, h: float):
    """Central differences of a batched function of points in R^5 at the
    samples P, from one evaluation on every shifted sample set.

    Returns (base, d1, d2, cross): the values at P, the first and the
    pure second differences along each coordinate (leading axis 5) and
    the mixed second differences of each pair i < j (leading axis 10).
    """
    P = np.asarray(P, dtype=float)
    E = h * np.eye(5)
    # P, then P +- e_i for each i, then the four corners P +- e_i +- e_j
    shifts = [np.zeros(5)] + [s * E[i] for i in range(5) for s in (1, -1)]
    shifts += [si * E[i] + sj * E[j] for i in range(5)
               for j in range(i + 1, 5) for si in (1, -1) for sj in (1, -1)]
    stack = fn(P + np.reshape(shifts, (-1,) + (1,) * (P.ndim - 1) + (5,)))
    base, fp, fm, corners = stack[0], stack[1:11:2], stack[2:11:2], stack[11:]
    cross = (corners[0::4] - corners[1::4] - corners[2::4]
             + corners[3::4]) / (4 * h ** 2)
    return base, (fp - fm) / (2 * h), (fp + fm - 2 * base) / h ** 2, cross


def epsilon_estimate(acs: ACSField, r: float, n_samples: int = 128,
                     rng: np.random.Generator | None = None) -> float:
    """Discrete flatness surrogate r * sup_{B_r} (||J - J0|| + ||DJ|| +
    ||D^2 J||) with J0 the matrix at the origin."""
    if not (0.0 < r <= 1.0):
        raise ValueError("r must be in (0, 1]")
    rng = rng or np.random.default_rng(0)
    P = _sample_ball(rng, n_samples, 5, r)
    P = np.concatenate([P, np.zeros((1, 5))], axis=0)
    base, d1, d2, cross = c2_differences(lambda Q: j_matrices(acs, Q), P,
                                         FD_H)

    def frobenius(M):
        return np.linalg.norm(M.reshape(M.shape[:-2] + (16,)), axis=-1)

    c2 = (frobenius(base - j_matrices(acs, np.zeros(5)))
          + np.max(frobenius(d1), axis=0)
          + np.maximum(np.max(frobenius(d2), axis=0),
                       np.max(frobenius(cross), axis=0)))
    return float(r * np.max(c2))


def dilate_field(acs: ACSField, r: float) -> ACSField:
    """Flattened field: coefficients of the dilated structure, i.e. the
    original coefficients evaluated at r * p."""
    if not (0.0 < r <= 1.0):
        raise ValueError("r must be in (0, 1]")
    return ACSField(sigma=acs.sigma.rescaled(r), beta=acs.beta.rescaled(r),
                    gamma=acs.gamma.rescaled(r), delta=acs.delta.rescaled(r),
                    eta=None if acs.eta is None else acs.eta.rescaled(r),
                    rho=acs.rho / r, gamma_min=acs.gamma_min)


def corrupted_matrix_field(acs: ACSField, amount: float = 0.1):
    """Matrix field with J(dx1) += amount * dy1; breaks the Lagrangian
    identity by exactly amount (fixture for check_identities)."""
    def field(P):
        M = j_matrices(acs, P).copy()
        M[..., 1, 0] += amount
        return M
    return field


def standard_field() -> ACSField:
    return ACSField(sigma=ScalarField5.constant(0.0),
                    beta=ScalarField5.constant(0.0),
                    gamma=ScalarField5.constant(1.0),
                    delta=ScalarField5.constant(0.0))


def constant_field(sigma0=0.0, beta0=0.0, gamma0=1.0, delta0=0.0) -> ACSField:
    return ACSField(sigma=ScalarField5.constant(sigma0),
                    beta=ScalarField5.constant(beta0),
                    gamma=ScalarField5.constant(gamma0),
                    delta=ScalarField5.constant(delta0))


def linear_sigma_field(eps=0.01) -> ACSField:
    return ACSField(sigma=ScalarField5.from_expression(f"{eps} * x1"),
                    beta=ScalarField5.constant(0.0),
                    gamma=ScalarField5.constant(1.0),
                    delta=ScalarField5.constant(0.0))


def bilinear_beta_field(eps=0.01) -> ACSField:
    return ACSField(sigma=ScalarField5.constant(0.0),
                    beta=ScalarField5.from_expression(f"{eps} * x1 * y2"),
                    gamma=ScalarField5.constant(1.0),
                    delta=ScalarField5.constant(0.0))


def sin_beta_field(eps=0.01, delta0=0.2) -> ACSField:
    """Default solver fixture: the fixed-point potential is a genuine
    transcendental function, so discretization residuals show their
    h^2 scaling (polynomial coefficients are superconvergent)."""
    return ACSField(sigma=ScalarField5.constant(0.0),
                    beta=ScalarField5.from_expression(
                        f"{eps} * sin(x1) * sin(y2)"),
                    gamma=ScalarField5.constant(1.0),
                    delta=ScalarField5.constant(delta0))


BUILTIN_FIELDS = {
    "standard": standard_field,
    "constant": constant_field,
    "linear-sigma": linear_sigma_field,
    "bilinear-beta": bilinear_beta_field,
    "sin-beta": sin_beta_field,
}


def field_from_spec(spec: dict) -> ACSField:
    """Build a field from {"builtin": name, "params": {...}} or
    {"coeffs": {"sigma": expr, "beta": expr, "gamma": expr, "delta": expr}}."""
    if not isinstance(spec, dict):
        raise ValueError("field spec must be a JSON object")
    if "builtin" in spec:
        name = spec["builtin"]
        if name not in BUILTIN_FIELDS:
            raise ValueError(f"unknown builtin field: {name}")
        params = spec.get("params", {})
        if not isinstance(params, dict) or not all(
                isinstance(v, (int, float)) and not isinstance(v, bool)
                for v in params.values()):
            raise ValueError("field params must be an object of numbers")
        try:
            inspect.signature(BUILTIN_FIELDS[name]).bind(**params)
        except TypeError as exc:
            raise ValueError(f"field {name}: {exc}") from None
        return BUILTIN_FIELDS[name](**params)
    if "coeffs" in spec:
        c = spec["coeffs"]
        missing = {"sigma", "beta", "gamma", "delta"} - set(c)
        if missing:
            raise ValueError(f"missing coefficients: {sorted(missing)}")
        fields = {k: ScalarField5.from_expression(str(c[k]))
                  for k in ("sigma", "beta", "gamma", "delta")}
        kwargs = {}
        if "rho" in spec:
            kwargs["rho"] = float(spec["rho"])
        return ACSField(**fields, **kwargs)
    raise ValueError("field spec needs either 'builtin' or 'coeffs'")
