import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.linalg import splu, spsolve

from contactfive.acs import (FD_H, _sample_ball, constant_field,
                             dilate_field, epsilon_estimate, j_matrices,
                             sin_beta_field, standard_field)
from contactfive.charts import PlaneChart, plane_vector_from_chart
from contactfive.contact import ContactParams
from contactfive import solver
from contactfive.solver import (ContractionError, EllipticOperator,
                                OP_CACHE_SIZE, SolverConfig, _OP_CACHE,
                                adapt_chart, choose_dilation, get_operator,
                                picard_solve, psi, psi_invert,
                                smallness_report, solve_disk)


def test_elliptic_operator_validates():
    with pytest.raises(ValueError):
        EllipticOperator(33, 1.0, 2.0, 1.0)     # not elliptic
    with pytest.raises(ValueError):
        EllipticOperator(33, -1.0, 0.0, 1.0)


def test_laplacian_manufactured_solution():
    # u = (1 - x^2 - y^2) x solves Laplace u = -8x with zero boundary
    errs = {}
    for n in (33, 65):
        op = EllipticOperator(n, 1.0, 0.0, 1.0)
        xs = np.linspace(-1, 1, n)
        X, Y = np.meshgrid(xs, xs, indexing="ij")
        u, lin_res = op.solve(-8.0 * X)
        exact = (1 - X ** 2 - Y ** 2) * X
        errs[n] = np.max(np.abs((u - exact)[op.interior]))
        assert lin_res < 1e-10
    assert errs[65] < 5e-5
    assert errs[33] / errs[65] > 3.0           # second-order convergence


def test_laplacian_inverse_norm():
    # sup of the solution of Laplace u = 1 on the unit disk is 1/4
    op = get_operator(65, 1.0, 0.0, 1.0)
    assert op.N == pytest.approx(0.25, abs=0.01)
    assert get_operator(65, 1.0, 0.0, 1.0) is op     # cached


def test_operator_cache_is_bounded_lru():
    keys = [(17, 1.0 + 0.01 * k, 0.0, 1.0) for k in range(OP_CACHE_SIZE + 2)]
    ops = [get_operator(*key) for key in keys[:OP_CACHE_SIZE]]
    assert get_operator(*keys[0]) is ops[0]     # hit: now most recent
    for key in keys[OP_CACHE_SIZE:]:
        get_operator(*key)
    assert len(_OP_CACHE) == OP_CACHE_SIZE
    assert get_operator(*keys[0]) is ops[0]     # recently used: kept
    assert get_operator(*keys[1]) is not ops[1]  # least recently used: out
    # a key reused at distance 2 is still cached
    op = get_operator(*keys[-2])
    get_operator(*keys[-1])
    assert get_operator(*keys[-2]) is op
    assert len(_OP_CACHE) == OP_CACHE_SIZE


def test_operator_cache_node_budget(monkeypatch):
    budget = 2 * 17 ** 2
    monkeypatch.setattr(solver, "OP_CACHE_NODES", budget)
    built = []

    class Recording(EllipticOperator):
        def __init__(self, n, *coeffs):
            built.append((n * n, sum(k[0] ** 2 for k in _OP_CACHE)))
            super().__init__(n, *coeffs)

    monkeypatch.setattr(solver, "EllipticOperator", Recording)
    _OP_CACHE.clear()
    for n in (17, 17, 21, 17, 17, 17, 23, 17):
        get_operator(n, 1.0 + 0.001 * len(built), 0.0, 1.0)
    # room is made before each build, never after
    assert len(built) == 8
    assert all(cached <= budget - new for new, cached in built)
    assert sum(k[0] ** 2 for k in _OP_CACHE) <= budget
    # a key that fills the budget alone (24^2 = 576) evicts everything older
    get_operator(17, 1.0, 0.0, 1.0)
    big = (24, 1.0, 0.0, 1.0)
    op = get_operator(*big)
    assert list(_OP_CACHE) == [big] and built[-1] == (big[0] ** 2, 0)
    assert get_operator(*big) is op                 # hit: nothing evicted
    _OP_CACHE.clear()


# coefficient sets where the ordering matters: near-degenerate, strongly
# anisotropic and a large cross term
HARD_COEFFS = [(1.0, 0.99, 1.0), (0.05, 0.0, 3.0), (2.0, -1.9, 1.9)]


@pytest.mark.parametrize("e0, s0, g0", HARD_COEFFS)
def test_operator_factor_matches_reference(e0, s0, g0):
    n = 65
    op = EllipticOperator(n, e0, s0, g0)
    xs = np.linspace(-1, 1, n)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    rhs = np.sin(3 * X) * np.cos(2 * Y) + np.random.default_rng(1).normal(
        size=(n, n))
    u, lin_res = op.solve(rhs)
    ref = spsolve(op._matrix.tocsc(), rhs[op.interior])
    assert (np.max(np.abs(u[op.interior] - ref))
            <= 1e-12 * np.max(np.abs(ref)))
    assert lin_res < 1e-12
    # N with the default COLAMD factor on the same probe vectors
    m = ref.size
    rng = np.random.default_rng(0)
    cand = [np.ones(m)] + [rng.choice([-1.0, 1.0], size=m) for _ in range(3)]
    lu = splu(op._matrix.tocsc(), permc_spec="COLAMD")
    N_ref = max(np.max(np.abs(lu.solve(b))) for b in cand)
    assert op.N == pytest.approx(N_ref, rel=1e-12)


def test_operator_factor_fill():
    # the symmetric minimum-degree ordering keeps the n = 65 factor
    # below 200 k nonzeros (COLAMD: 255,780)
    op = EllipticOperator(65, 1.02, 0.31, 0.93)
    assert op._lu.L.nnz + op._lu.U.nnz <= 200_000


def _loop_assembly(n, e0, sigma0, gamma0):
    """Node-by-node Shortley-Weller assembly, the reference for the
    vectorized one."""
    xs = np.linspace(-1.0, 1.0, n)
    h = 2.0 / (n - 1)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    interior = X ** 2 + Y ** 2 < 1.0 - 1e-12
    index = np.full((n, n), -1, dtype=int)
    index[interior] = np.arange(int(np.count_nonzero(interior)))
    rows, cols, data = [], [], []

    def inside(ii, jj):
        return 0 <= ii < n and 0 <= jj < n and interior[ii, jj]

    def arm(i, j, di, dj):
        if inside(i + di, j + dj):
            return h, index[i + di, j + dj]
        x, y = xs[i], xs[j]
        if di != 0:
            cut = np.sqrt(max(1.0 - y * y, 0.0)) - di * x
        else:
            cut = np.sqrt(max(1.0 - x * x, 0.0)) - dj * y
        return float(np.clip(cut, 1e-6 * h, h)), -1

    for i, j in zip(*np.nonzero(interior)):
        k = index[i, j]
        diag = 0.0
        for (di, dj, c) in ((1, 0, e0), (0, 1, gamma0)):
            hp, kp = arm(i, j, di, dj)
            hm, km = arm(i, j, -di, -dj)
            for kk, v in ((kp, c * 2.0 / (hp * (hp + hm))),
                          (km, c * 2.0 / (hm * (hp + hm)))):
                if kk >= 0:
                    rows.append(k)
                    cols.append(kk)
                    data.append(v)
            diag -= c * 2.0 / (hp * hm)
        rows.append(k)
        cols.append(k)
        data.append(diag)
        if sigma0 != 0.0:
            for (di, dj, s) in ((1, 1, 1.0), (-1, -1, 1.0),
                                (1, -1, -1.0), (-1, 1, -1.0)):
                if inside(i + di, j + dj):
                    rows.append(k)
                    cols.append(index[i + di, j + dj])
                    data.append(2.0 * sigma0 * s / (4.0 * h * h))
    m = len(np.unique(rows))
    return csr_matrix((data, (rows, cols)), shape=(m, m))


@pytest.mark.parametrize("n, e0, s0, g0", [(25, 1.0, 0.0, 1.0),
                                           (65, 1.1, 0.3, 0.9),
                                           (129, 0.97, -0.2, 1.2)])
def test_operator_matches_loop_assembly(n, e0, s0, g0):
    A = EllipticOperator(n, e0, s0, g0)._matrix
    B = _loop_assembly(n, e0, s0, g0)
    assert A.shape == B.shape
    assert np.array_equal(A.indptr, B.indptr)
    assert np.array_equal(A.indices, B.indices)
    assert np.array_equal(A.data, B.data)        # bitwise


def test_operator_exact_on_quadratic():
    # Shortley-Weller arms are exact on quadratics vanishing on the
    # circle: L(1 - x^2 - y^2) = -2 (e0 + gamma0) at every interior node
    for n, e0, g0 in ((25, 1.0, 1.0), (65, 1.1, 0.9), (129, 0.97, 1.2)):
        op = EllipticOperator(n, e0, 0.0, g0)
        xs = np.linspace(-1, 1, n)
        X, Y = np.meshgrid(xs, xs, indexing="ij")
        u = (1 - X ** 2 - Y ** 2)[op.interior]
        Lu = op._matrix @ u
        assert np.max(np.abs(Lu + 2.0 * (e0 + g0))) < 1e-10


def test_cross_term_operator():
    # u = (1 - x^2 - y^2) xy, full operator with sigma0 != 0.  The cross
    # stencil extends by zero over the cut boundary, which costs one
    # order there; the error must stay bounded and shrink with the grid.
    e0, s0, g0 = 1.2, 0.3, 0.9
    errs = {}
    for n in (65, 129):
        op = EllipticOperator(n, e0, s0, g0)
        xs = np.linspace(-1, 1, n)
        X, Y = np.meshgrid(xs, xs, indexing="ij")
        exact = (1 - X ** 2 - Y ** 2) * X * Y
        u11 = -6 * X * Y
        u22 = -6 * X * Y
        u12 = 1 - 3 * X ** 2 - 3 * Y ** 2
        rhs = e0 * u11 + 2 * s0 * u12 + g0 * u22
        u, _ = op.solve(rhs)
        errs[n] = np.max(np.abs((u - exact)[op.interior]))
    assert errs[65] < 5e-3
    assert errs[65] / errs[129] > 1.5


def test_adapt_chart_normal_form():
    acs = sin_beta_field(0.05)
    p = np.array([0.1, -0.2, 0.05, 0.1, 0.3])
    for w in (0.0, 0.3 - 0.1j, 0.5j):
        v = plane_vector_from_chart(PlaneChart(w), j_matrices(acs, p))
        ac = adapt_chart(p, v, acs)
        s0, b0, g0, d0, e0 = ac.coeff_arrays(np.zeros(5))
        assert abs(b0) < 1e-9
        assert s0 == pytest.approx(ac.sigma0, abs=1e-9)
        assert g0 == pytest.approx(ac.gamma0, abs=1e-9)
        assert e0 == pytest.approx((1 + s0 ** 2) / g0, abs=1e-9)
        assert np.allclose(ac.chart.to_ambient(np.zeros(5)), p)


def test_adapt_chart_fallback_direction():
    # span{dy1, J dy1} has no dx1 component for the standard field;
    # the distinguished direction falls back to another axis
    ac = adapt_chart(np.zeros(5), np.array([0.0, 1.0, 0.0, 0.0]),
                     standard_field())
    assert ac.gamma0 > 0.5


def test_flat_solver_exact(rng):
    # constant fields converge to f = 0 immediately
    for _ in range(5):
        s0, d0 = rng.uniform(-0.5, 0.5, size=2)
        b0 = rng.uniform(-0.3, 0.3)
        g0 = rng.uniform(0.7, 1.3)
        acs = constant_field(sigma0=s0, beta0=b0, gamma0=g0, delta0=d0)
        sol = solve_disk(np.zeros(5), np.array([1.0, 0, 0, 0]), acs,
                         SolverConfig(n=33))
        assert sol.converged
        assert sol.iterations <= 2
        assert sol.f.sup() <= 1e-12
        assert sol.eq_residual <= 1e-10
        assert sol.jinv_residual <= 1e-10


def test_sin_beta_solution_regression():
    cfg = SolverConfig(n=65)
    sol = solve_disk(np.zeros(5), np.array([1.0, 0, 0, 0]),
                     sin_beta_field(0.01), cfg)
    assert sol.converged
    assert sol.iterations <= 5
    # frozen residual window: small but not trivially zero
    assert 1e-8 < sol.eq_residual <= 1e-6
    assert sol.jinv_residual <= sol.jinv_tolerance
    assert sol.smallness["satisfied"]
    assert all(r < 1.0 for r in sol.ratios)
    header = sol.header()
    assert header["n"] == 65
    assert sol.to_json().startswith("{")


def test_ambient_patch_is_legendrian():
    from contactfive.lift import legendrian_residual
    sol = solve_disk(np.array([0.0, 0.1, -0.05, 0.0, 0.2]),
                     np.array([1.0, 0.2, 0.0, 0.1]),
                     sin_beta_field(0.02), SolverConfig(n=33))
    patch = sol.ambient_patch()
    assert legendrian_residual(patch) < 1e-10


def test_smallness_report_fields():
    ac = adapt_chart(np.zeros(5), np.array([1.0, 0, 0, 0]),
                     sin_beta_field(0.01))
    op = get_operator(33, ac.e0, ac.sigma0, ac.gamma0)
    rep = smallness_report(ac, op.N, SolverConfig(n=33))
    for key in ("beta_c2", "A_c2", "total", "threshold", "satisfied",
                "ball_radius", "delta_bound_ok"):
        assert key in rep
    assert rep["satisfied"]
    assert rep["ball_radius"] > 0


def _loop_smallness_c2(ac, cfg):
    """(value, first, second) difference maxima of the coefficients, one
    evaluation per shifted sample set: the reference for the batched
    evaluation in smallness_report."""
    rng = np.random.default_rng(cfg.seed)
    v = rng.normal(size=(cfg.smallness_samples, 5))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    P = 1.05 * rng.uniform(size=(cfg.smallness_samples, 1)) ** 0.2 * v
    P = np.concatenate([P, np.zeros((1, 5))], axis=0)
    h = cfg.smallness_fd_h
    E = h * np.eye(5)

    def c(Q):
        return np.stack(ac.coeff_arrays(Q), axis=-1)

    base = c(P)
    val = np.max(np.abs(base - c(np.zeros(5))), axis=0)
    d1, d2 = np.zeros(5), np.zeros(5)
    for i in range(5):
        fp, fm = c(P + E[i]), c(P - E[i])
        d1 = np.maximum(d1, np.max(np.abs(fp - fm), axis=0) / (2 * h))
        d2 = np.maximum(d2, np.max(np.abs(fp + fm - 2 * base), axis=0)
                        / h ** 2)
        for j in range(i + 1, 5):
            cross = (c(P + E[i] + E[j]) - c(P + E[i] - E[j])
                     - c(P - E[i] + E[j]) + c(P - E[i] - E[j])) / (4 * h ** 2)
            d2 = np.maximum(d2, np.max(np.abs(cross), axis=0))
    return val + d1 + d2


def _loop_epsilon(acs, r, n_samples=128):
    """Flatness surrogate of epsilon_estimate with one j_matrices
    evaluation per shifted sample set: its reference."""
    P = _sample_ball(np.random.default_rng(0), n_samples, 5, r)
    P = np.concatenate([P, np.zeros((1, 5))], axis=0)
    h = FD_H
    E = h * np.eye(5)

    def frob(M):
        return np.linalg.norm(M.reshape(M.shape[:-2] + (16,)), axis=-1)

    base = j_matrices(acs, P)
    val = frob(base - j_matrices(acs, np.zeros(5)))
    d1, d2 = np.zeros(len(P)), np.zeros(len(P))
    for i in range(5):
        a, b = j_matrices(acs, P + E[i]), j_matrices(acs, P - E[i])
        d1 = np.maximum(d1, frob((a - b) / (2 * h)))
        d2 = np.maximum(d2, frob((a + b - 2 * base) / h ** 2))
        for j in range(i + 1, 5):
            cross = (j_matrices(acs, P + E[i] + E[j])
                     - j_matrices(acs, P + E[i] - E[j])
                     - j_matrices(acs, P - E[i] + E[j])
                     + j_matrices(acs, P - E[i] - E[j])) / (4 * h ** 2)
            d2 = np.maximum(d2, frob(cross))
    return float(r * np.max(val + d1 + d2))


def test_smallness_report_matches_loop_evaluation():
    acs = sin_beta_field(0.3)
    ac = adapt_chart(np.array([0.1, 0.0, -0.1, 0.05, 0.0]),
                     np.array([1.0, 0.3, 0.0, 0.2]), acs)
    cfg = SolverConfig(n=33)
    rep = smallness_report(ac, 0.25, cfg)
    c2 = _loop_smallness_c2(ac, cfg)
    assert rep["beta_c2"] == c2[1]
    assert rep["A_c2"] == max(c2[0], c2[2], c2[4])
    # epsilon_estimate shares the shifted-sample construction
    for r in (1.0, 0.5):
        assert epsilon_estimate(acs, r) == _loop_epsilon(acs, r)


def test_contraction_error_on_rough_field():
    # far outside the smallness regime the iteration must either abort
    # or report non-contracting ratios instead of pretending success
    acs = sin_beta_field(20.0)
    cfg = SolverConfig(n=33, max_iter=30)
    try:
        sol = solve_disk(np.zeros(5), np.array([1.0, 0, 0, 0]), acs, cfg)
    except (ContractionError, ValueError):
        return
    assert (not sol.smallness["satisfied"]) or not sol.converged


def test_psi_identity_for_standard_field():
    P = np.array([0.0, 0.1, -0.2, 0.0, 0.3])
    X = PlaneChart(0.2 + 0.1j)
    val = psi(P, X, standard_field(), SolverConfig(n=33))
    assert np.max(np.abs(val.Q - P)) < 1e-10
    assert abs(val.Y.w - X.w) < 1e-10


def test_psi_requires_spine_point():
    with pytest.raises(ValueError):
        psi(np.array([0.5, 0, 0, 0, 0]), PlaneChart(0.0), standard_field())
    with pytest.raises(ValueError):
        psi_invert(np.array([0.0, 0, 0, 0.5, 0]), PlaneChart(0.0),
                   standard_field())


def test_psi_invert_needs_an_iteration():
    with pytest.raises(ValueError, match="psi_max_iter"):
        psi_invert(np.zeros(5), PlaneChart(0.0), standard_field(),
                   SolverConfig(n=33, psi_max_iter=0))


def test_psi_invert_roundtrip():
    acs = sin_beta_field(0.05)
    cfg = SolverConfig(n=33)
    Q = np.array([0.0, 0.05, -0.03, 0.0, 0.02])
    Y = PlaneChart(0.08 - 0.04j)
    inv = psi_invert(Q, Y, acs, cfg)
    assert inv.error <= cfg.psi_tol
    val = psi(inv.P, inv.X, acs, cfg)
    assert np.max(np.abs(val.Q - Q)) < 1e-6
    assert abs(val.Y.w - Y.w) < 1e-6


def test_choose_dilation():
    r, rep = choose_dilation(standard_field(), SolverConfig(n=33))
    assert r == 1.0
    assert rep["satisfied"]
    r2, rep2 = choose_dilation(sin_beta_field(2.0), SolverConfig(n=33))
    assert r2 < 1.0
    assert rep2["satisfied"]


def test_solver_respects_contact_dilation():
    cfg = SolverConfig(n=33, params=ContactParams(0.5))
    sol = solve_disk(np.zeros(5), np.array([1.0, 0, 0, 0]),
                     sin_beta_field(0.01), cfg)
    assert sol.converged
    from contactfive.lift import legendrian_residual
    assert legendrian_residual(sol.ambient_patch()) < 1e-10
