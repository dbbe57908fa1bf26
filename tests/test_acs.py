import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from contactfive.acs import (ACSField, ScalarField5, BUILTIN_FIELDS,
                             bilinear_beta_field, check_identities,
                             constant_field, corrupted_matrix_field,
                             dilate_field, epsilon_estimate, field_from_spec,
                             gamma_fallback, j_matrices, j_matrix,
                             j_matrix_from_coeffs, linear_sigma_field,
                             pullback_acs, pullback_consistency,
                             read_coeffs_from_matrix, sin_beta_field,
                             standard_field)
from contactfive.charts import GAMMA_SWAP, Chart5
from contactfive.contact import DALPHA_MATRIX

coeff = st.floats(-2.0, 2.0)
gamma_st = st.floats(0.2, 2.0) | st.floats(-2.0, -0.2)


@given(coeff, coeff, gamma_st, coeff)
def test_model_matrix_identities(s, b, g, d):
    M = j_matrix_from_coeffs(s, b, g, d)
    assert np.allclose(M @ M, -np.eye(4), atol=1e-9)
    # Lagrangian identity: dalpha(Jv, v) = 0 <=> M^T S antisymmetric
    K = M.T @ DALPHA_MATRIX
    assert np.max(np.abs(K + K.T)) < 1e-9
    # anti-compatibility: dalpha(Jv, Jw) = -dalpha(v, w)
    assert np.allclose(M.T @ DALPHA_MATRIX @ M, -DALPHA_MATRIX, atol=1e-9)


def test_model_matrix_columns():
    s, b, g, d = 0.1, -0.2, 1.3, 0.4
    e = (1 + s ** 2 + b * d) / g
    M = j_matrix_from_coeffs(s, b, g, d)
    assert np.allclose(M[:, 0], [s, 0, b, g])
    assert np.allclose(M[:, 1], [0, s, e, d])
    assert np.allclose(M[:, 2], [d, -g, -s, 0])
    assert np.allclose(M[:, 3], [-e, b, 0, -s])


def test_eta_constraint():
    # consistent eta is accepted, inconsistent rejected
    j_matrix_from_coeffs(0.0, 1.0, 2.0, 0.0, eta=0.5)
    with pytest.raises(ValueError):
        j_matrix_from_coeffs(0.0, 1.0, 2.0, 0.0, eta=1.0)


def test_read_coeffs_roundtrip(rng):
    s, b, g, d = 0.3, -0.1, 0.8, 0.5
    M = j_matrix_from_coeffs(s, b, g, d)
    out = read_coeffs_from_matrix(M)
    assert np.allclose(out, [s, b, g, d])
    M2 = M.copy()
    M2[1, 0] += 1e-3
    with pytest.raises(ValueError):
        read_coeffs_from_matrix(M2)


def test_scalar_field_expression_derivatives():
    f = ScalarField5.from_expression("x1^2 * y2 + sin(t)")
    p = np.array([1.5, 0.0, 0.0, -0.7, 2.0])
    assert f(p) == pytest.approx(1.5 ** 2 * (-0.7) + np.sin(2.0))
    g = f.grad(p)
    assert g == pytest.approx([2 * 1.5 * (-0.7), 0, 0, 1.5 ** 2,
                               np.cos(2.0)])
    H = f.hess(p)
    assert H[0, 0] == pytest.approx(2 * (-0.7))
    assert H[0, 3] == pytest.approx(2 * 1.5)
    assert H[4, 4] == pytest.approx(-np.sin(2.0))


def test_scalar_field_difference_fallback():
    # without derivative callables, grad and hess are central differences
    f = ScalarField5.from_callable(lambda x1, y1, x2, y2, t:
                                   x1 ** 2 * y2 + np.sin(t) + 0 * y1 * x2)
    p = np.array([[1.5, 0.0, 0.0, -0.7, 2.0], [0.2, 0.1, 0.3, 0.4, 0.5]])
    exact = ScalarField5.from_expression("x1^2 * y2 + sin(t)")
    assert np.allclose(f.grad(p), exact.grad(p), atol=1e-8)
    assert np.allclose(f.hess(p), exact.hess(p), atol=1e-4)
    assert f.hess(p[0]).shape == (5, 5)


def test_scalar_field_rescaled():
    f = ScalarField5.from_expression("x1^2")
    fr = f.rescaled(0.5)
    p = np.array([2.0, 0.0, 0.0, 0.0, 0.0])
    assert fr(p) == pytest.approx(1.0)                 # (0.5 * 2)^2
    assert fr.grad(p)[0] == pytest.approx(2 * 1.0 * 0.5)
    assert fr.hess(p)[0, 0] == pytest.approx(2 * 0.25)


def test_check_identities_builtins():
    for name in BUILTIN_FIELDS:
        rep = check_identities(BUILTIN_FIELDS[name](), n_samples=200)
        assert rep.passed, (name, rep.failed_hypotheses())


def test_check_identities_catches_corruption():
    bad = corrupted_matrix_field(standard_field(), amount=1e-3)
    rep = check_identities(bad, n_samples=200)
    assert not rep.passed
    assert "dalpha(Jv, v) = 0" in rep.failed_hypotheses()


def test_j_matrices_domain_and_gamma_guard():
    acs = constant_field()
    with pytest.raises(ValueError):
        j_matrices(acs, np.array([10.0, 0, 0, 0, 0]))
    tiny = constant_field(gamma0=1e-6)
    with pytest.raises(ValueError):
        j_matrices(tiny, np.zeros(5))
    # JMatrix wrapper validates the square
    j_matrix(acs, np.zeros(5))


def test_pullback_stays_in_model(rng):
    acs = sin_beta_field(0.1)
    chart = Chart5(np.array([0.1, -0.2, 0.3, 0.0, 0.5]), GAMMA_SWAP)
    assert pullback_consistency(acs, chart) < 1e-9
    pulled = pullback_acs(acs, chart)
    rep = check_identities(pulled, n_samples=100, radius=0.5)
    assert rep.passed
    # pulled coefficients agree with direct conjugation at a point
    P = np.array([0.05, 0.1, -0.05, 0.02, 0.1])
    amb = chart.to_ambient(P)
    M = np.linalg.inv(GAMMA_SWAP) @ j_matrices(acs, amb) @ GAMMA_SWAP
    assert pulled.sigma(P) == pytest.approx(M[0, 0], abs=1e-12)
    assert pulled.gamma(P) == pytest.approx(M[3, 0], abs=1e-12)


def test_gamma_fallback_identity_when_clear():
    acs = standard_field()
    out, chart = gamma_fallback(acs)
    assert out is acs
    assert np.allclose(chart.rot, np.eye(4))


def test_gamma_fallback_swaps_degenerate_gamma():
    # gamma = 0 requires eta explicitly; constraint forces beta*delta = -1
    acs = ACSField(sigma=ScalarField5.constant(0.0),
                   beta=ScalarField5.constant(1.0),
                   gamma=ScalarField5.constant(0.0),
                   delta=ScalarField5.constant(-1.0),
                   eta=ScalarField5.constant(0.0))
    swapped, chart = gamma_fallback(acs)
    assert np.allclose(chart.rot, GAMMA_SWAP)
    # gamma' = beta = 1 clears the threshold and the identities hold
    assert swapped.gamma(np.zeros(5)) == pytest.approx(1.0)
    rep = check_identities(swapped, n_samples=100)
    assert rep.passed, rep.failed_hypotheses()


def test_gamma_fallback_rejects_double_degeneracy():
    acs = ACSField(sigma=ScalarField5.constant(0.0),
                   beta=ScalarField5.constant(0.0),
                   gamma=ScalarField5.constant(0.0),
                   delta=ScalarField5.constant(0.0),
                   eta=ScalarField5.constant(1.0))
    with pytest.raises(ValueError):
        gamma_fallback(acs)


def test_dilate_field_flattens():
    acs = sin_beta_field(0.1)
    half = dilate_field(acs, 0.5)
    p = np.array([0.4, 0.0, 0.0, 0.6, 0.0])
    assert half.beta(p) == pytest.approx(acs.beta(0.5 * p), abs=1e-12)
    e1 = epsilon_estimate(acs, 1.0)
    e2 = epsilon_estimate(half, 1.0)
    assert e2 < e1
    with pytest.raises(ValueError):
        dilate_field(acs, 2.0)
    with pytest.raises(ValueError):
        epsilon_estimate(acs, 0.0)


def test_field_from_spec():
    f = field_from_spec({"builtin": "sin-beta", "params": {"eps": 0.02}})
    assert f.beta(np.array([1.0, 0, 0, 1.0, 0])) == pytest.approx(
        0.02 * np.sin(1.0) ** 2)
    g = field_from_spec({"coeffs": {"sigma": "0", "beta": "0.1 * x1",
                                    "gamma": "1", "delta": "0"}})
    assert g.beta(np.array([0.5, 0, 0, 0, 0])) == pytest.approx(0.05)
    with pytest.raises(ValueError):
        field_from_spec({"builtin": "nope"})
    with pytest.raises(ValueError):
        field_from_spec({"coeffs": {"sigma": "0"}})
    for bad in ({"builtin": "sin-beta", "params": {"foo": 1}},
                {"builtin": "sin-beta", "params": [1]},
                {"builtin": "sin-beta", "params": {"eps": "0.1"}},
                {"builtin": "standard", "params": {"eps": 0.1}}, [1]):
        with pytest.raises(ValueError):
            field_from_spec(bad)


def test_fixture_fields_flatness():
    # the flatness surrogate scales linearly in eps for these families
    for family in (sin_beta_field, bilinear_beta_field, linear_sigma_field):
        lo = epsilon_estimate(family(0.01), 1.0)
        hi = epsilon_estimate(family(0.05), 1.0)
        assert hi == pytest.approx(5.0 * lo, rel=0.05)
