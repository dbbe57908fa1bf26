"""Horizontal 2-form algebra at a point.

All forms live in a fixed orthonormal horizontal frame {e1, e2=I e1,
e3, e4=I e3} in which d alpha = e12 + e34.  A form is stored by its six
coefficients in the eigenbasis of the star operator:

    self-dual:      p (e12+e34),  a (e13+e42),  b (e14+e23)
    anti-self-dual: A (e12-e34),  B (e13-e42),  C (e14-e23)
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .contact import DALPHA_MATRIX, standard_I_matrix

ALG_TOL = 1e-12      # algebraic identities, exact up to rounding
HYP_TOL = 1e-8       # semi-calibration hypothesis checks


@dataclass(frozen=True)
class Form2H:
    p: float = 0.0
    a: float = 0.0
    b: float = 0.0
    A: float = 0.0
    B: float = 0.0
    C: float = 0.0

    @staticmethod
    def from_matrix(W: np.ndarray) -> "Form2H":
        """Coefficients from the skew 4x4 matrix W_ij = w(e_i, e_j)."""
        W = np.asarray(W, dtype=float)
        if np.max(np.abs(W + W.T)) > 1e-9 * max(1.0, np.max(np.abs(W))):
            raise ValueError("matrix is not skew-symmetric")
        return Form2H(p=(W[0, 1] + W[2, 3]) / 2,
                      a=(W[0, 2] - W[1, 3]) / 2,
                      b=(W[0, 3] + W[1, 2]) / 2,
                      A=(W[0, 1] - W[2, 3]) / 2,
                      B=(W[0, 2] + W[1, 3]) / 2,
                      C=(W[0, 3] - W[1, 2]) / 2)

    def matrix(self) -> np.ndarray:
        """Skew 4x4 matrix of the form; round-trips with from_matrix exactly."""
        W = np.zeros((4, 4))
        W[0, 1] = self.p + self.A
        W[2, 3] = self.p - self.A
        W[0, 2] = self.a + self.B
        W[1, 3] = -self.a + self.B
        W[0, 3] = self.b + self.C
        W[1, 2] = self.b - self.C
        return W - W.T

    def __call__(self, u, v) -> float:
        W = self.matrix()
        return float(np.asarray(u) @ W @ np.asarray(v))

    def coeffs(self) -> np.ndarray:
        return np.array([self.p, self.a, self.b, self.A, self.B, self.C])

    def __add__(self, other: "Form2H") -> "Form2H":
        return Form2H(*(self.coeffs() + other.coeffs()))

    def __sub__(self, other: "Form2H") -> "Form2H":
        return Form2H(*(self.coeffs() - other.coeffs()))

    def __rmul__(self, s: float) -> "Form2H":
        return Form2H(*(s * self.coeffs()))

    def norm(self) -> float:
        """Frame norm ||w|| (so that ||e12|| = 1, ||e12+e34|| = sqrt(2))."""
        c = self.coeffs()
        return float(np.sqrt(2.0 * np.sum(c * c)))


DALPHA_FORM = Form2H(p=1.0)


def star(w: Form2H) -> Form2H:
    """Star operator: fixes the self-dual part, negates the anti-self-dual."""
    return Form2H(w.p, w.a, w.b, -w.A, -w.B, -w.C)


def sd_split(w: Form2H) -> tuple[Form2H, Form2H]:
    """Split w = w_plus + w_minus into the +/-1 eigenspaces of star."""
    return Form2H(w.p, w.a, w.b, 0, 0, 0), Form2H(0, 0, 0, w.A, w.B, w.C)


def inner(u: Form2H, v: Form2H) -> float:
    """Frame inner product, normalized so the six basis forms are orthogonal
    with squared norm 2."""
    return float(2.0 * np.dot(u.coeffs(), v.coeffs()))


def wedge_coeff(u: Form2H, v: Form2H) -> float:
    """Coefficient c with u ^ v = c * e1234; (d alpha)^2 maps to 2."""
    cu, cv = u.coeffs(), v.coeffs()
    sd = cu[:3] @ cv[:3]
    asd = cu[3:] @ cv[3:]
    return float(2.0 * (sd - asd))


def comass(w: Form2H) -> float:
    """Comass: sup of w over unit simple 2-vectors.

    Closed form (|w_plus| + |w_minus|) / sqrt(2); cross-check against
    comass_bruteforce for an independent oracle.
    """
    wp, wm = sd_split(w)
    return float((wp.norm() + wm.norm()) / np.sqrt(2.0))


def comass_bruteforce(w: Form2H, n_samples: int = 512, n_refine: int = 60,
                      rng: np.random.Generator | None = None) -> float:
    """Brute-force comass: maximize w(u, v) over sampled orthonormal pairs,
    then refine the best pair by alternating maximization."""
    rng = rng or np.random.default_rng(0)
    W = w.matrix()
    U = rng.normal(size=(n_samples, 4))
    U /= np.linalg.norm(U, axis=1, keepdims=True)
    V = rng.normal(size=(n_samples, 4))
    V -= np.sum(V * U, axis=1, keepdims=True) * U
    nv = np.linalg.norm(V, axis=1, keepdims=True)
    nv[nv == 0] = 1.0
    V /= nv
    vals = np.einsum("ni,ij,nj->n", U, W, V)
    k = int(np.argmax(np.abs(vals)))
    u, v = U[k], np.sign(vals[k]) * V[k] if vals[k] != 0 else V[k]
    best = abs(vals[k])
    for _ in range(n_refine):
        # optimal v for fixed u is the normalized projection of -(W u)
        # onto u-perp; by skewness W u is already orthogonal to u
        gv = -(W @ u)
        if np.linalg.norm(gv) == 0:
            break
        v = gv / np.linalg.norm(gv)
        gu = W @ v
        gu -= (gu @ v) * v
        if np.linalg.norm(gu) == 0:
            break
        u = gu / np.linalg.norm(gu)
        best = max(best, float(u @ W @ v))
    return float(best)


@dataclass(frozen=True)
class JMatrix:
    """Almost complex structure on the horizontal frame, J^2 = -Id."""

    m: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.m, dtype=float)
        object.__setattr__(self, "m", m)
        if m.shape != (4, 4):
            raise ValueError("JMatrix must be 4x4")
        if np.max(np.abs(m @ m + np.eye(4))) > 1e-10:
            raise ValueError("J^2 != -Id")

    def __call__(self, v):
        return self.m @ np.asarray(v)


def rotation_j(theta: float) -> JMatrix:
    """J with J e1 = cos(theta) e3 + sin(theta) e4 (and its companions)."""
    c, s = np.cos(theta), np.sin(theta)
    m = np.array([[0.0, 0.0, -c, -s],
                  [0.0, 0.0, -s, c],
                  [c, s, 0.0, 0.0],
                  [s, -c, 0.0, 0.0]])
    return JMatrix(m)


def j_from_form(w: Form2H) -> tuple[float, JMatrix]:
    """Almost complex structure associated with a form orthogonal to
    d alpha and with positive square wedge.

    Requires p = 0 (w ^ dalpha = 0) and a^2 + b^2 > A^2 + B^2 + C^2.
    """
    if abs(w.p) > HYP_TOL:
        raise ValueError(f"form not orthogonal to dalpha: p = {w.p:g}")
    sd2 = w.a ** 2 + w.b ** 2
    asd2 = w.A ** 2 + w.B ** 2 + w.C ** 2
    if sd2 <= asd2 + ALG_TOL:
        raise ValueError(
            f"positivity fails: a^2+b^2 = {sd2:g} <= A^2+B^2+C^2 = {asd2:g}")
    theta = float(np.arctan2(w.b, w.a))
    return theta, rotation_j(theta)


def omega_from_J(J: JMatrix) -> Form2H:
    """Compatible 2-form Omega(X, Y) = dalpha(X, (J I - I J) Y / 2).

    Requires the Lagrangian identity dalpha(J v, v) = 0; then Omega is
    antisymmetric, J-invariant and Omega(X, JX) > 0.
    """
    m = J.m
    # dalpha(J v, v) = 0 for all v <=> J'S antisymmetric
    M = m.T @ DALPHA_MATRIX
    if np.max(np.abs(M + M.T)) > 1e-10:
        raise ValueError("J is not anti-compatible with dalpha")
    Istd = standard_I_matrix()
    K = 0.5 * (m @ Istd - Istd @ m)
    W = DALPHA_MATRIX @ K
    if np.max(np.abs(W + W.T)) > 1e-10:
        raise ValueError("constructed form is not skew; J fails its invariants")
    return Form2H.from_matrix(0.5 * (W - W.T))


@dataclass
class CheckReport:
    """Pass/fail report for a list of named hypothesis checks."""

    checks: list = field(default_factory=list)
    theta: float | None = None
    J: JMatrix | None = None

    def add(self, hypothesis: str, value: float, tolerance: float):
        self.checks.append({"hypothesis": hypothesis, "value": float(value),
                            "tolerance": float(tolerance),
                            "pass": bool(abs(value) <= tolerance)})

    @property
    def passed(self) -> bool:
        return all(c["pass"] for c in self.checks)

    def failed_hypotheses(self) -> list[str]:
        return [c["hypothesis"] for c in self.checks if not c["pass"]]

    def to_json(self) -> str:
        out = {"checks": self.checks, "pass": self.passed}
        if self.theta is not None:
            out["theta"] = self.theta
        return json.dumps(out, indent=2, sort_keys=True)


def verify_semicalibration(w: Form2H) -> CheckReport:
    """Check the semi-calibration hypotheses:

        ||w||_* = 1,   w ^ dalpha = 0,   w ^ w = (dalpha)^2,

    and, when they hold, that w is self-dual (A = B = C = 0); returns the
    angle theta and the J whose invariant planes are the calibrated ones.
    """
    rep = CheckReport()
    rep.add("comass(w) = 1", comass(w) - 1.0, HYP_TOL)
    rep.add("w ^ dalpha = 0", wedge_coeff(w, DALPHA_FORM), HYP_TOL)
    rep.add("w ^ w = (dalpha)^2", wedge_coeff(w, w) - 2.0, HYP_TOL)
    if not rep.passed:
        return rep
    rep.add("self-duality: |(A,B,C)| = 0",
            float(np.hypot(np.hypot(w.A, w.B), w.C)), HYP_TOL)
    if rep.passed:
        rep.theta, rep.J = j_from_form(Form2H(0.0, w.a, w.b, 0, 0, 0))
    return rep
