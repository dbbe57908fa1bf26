import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from contactfive.forms import (ALG_TOL, DALPHA_FORM, CheckReport, Form2H,
                               JMatrix, comass, comass_bruteforce, inner,
                               j_from_form, omega_from_J, rotation_j,
                               sd_split, star, verify_semicalibration,
                               wedge_coeff)

coeff = st.floats(-3.0, 3.0)
form_st = st.builds(Form2H, coeff, coeff, coeff, coeff, coeff, coeff)


def wedge_oracle(u: Form2H, v: Form2H) -> float:
    """u ^ v evaluated on (e1, e2, e3, e4) by explicit pairing."""
    U, V = u.matrix(), v.matrix()
    return (U[0, 1] * V[2, 3] - U[0, 2] * V[1, 3] + U[0, 3] * V[1, 2]
            + U[2, 3] * V[0, 1] - U[1, 3] * V[0, 2] + U[1, 2] * V[0, 3])


@given(form_st)
def test_matrix_roundtrip(w):
    back = Form2H.from_matrix(w.matrix())
    assert np.allclose(back.coeffs(), w.coeffs(), atol=1e-14)


def test_from_matrix_rejects_non_skew():
    with pytest.raises(ValueError):
        Form2H.from_matrix(np.eye(4))


@given(form_st)
def test_star_involution_exact(w):
    assert star(star(w)) == w
    wp, wm = sd_split(w)
    assert star(wp) == wp
    assert np.allclose(star(wm).coeffs(), -np.array(wm.coeffs()), atol=0)
    assert np.allclose((wp + wm).coeffs(), w.coeffs(), atol=0)
    # the split is orthogonal
    assert inner(wp, wm) == 0.0


@given(form_st, form_st)
def test_wedge_against_pairing_oracle(u, v):
    assert wedge_coeff(u, v) == pytest.approx(wedge_oracle(u, v), abs=1e-10)


def test_dalpha_constants():
    # paper normalization: ||dalpha|| = sqrt(2), comass(dalpha) = 1,
    # (dalpha)^2 = 2 e1234
    assert DALPHA_FORM.norm() == pytest.approx(np.sqrt(2.0), abs=1e-15)
    assert comass(DALPHA_FORM) == pytest.approx(1.0, abs=1e-15)
    assert wedge_coeff(DALPHA_FORM, DALPHA_FORM) == pytest.approx(2.0)


def test_comass_simple_forms():
    # decomposable basis forms have comass 1
    e12 = Form2H(p=0.5, A=0.5)
    e13 = Form2H(a=0.5, B=0.5)
    for w in (e12, e13):
        assert comass(w) == pytest.approx(1.0, abs=1e-14)
    # the comass is attained on the calibrated plane
    assert e12(np.eye(4)[0], np.eye(4)[1]) == pytest.approx(1.0)
    assert e13(np.eye(4)[0], np.eye(4)[2]) == pytest.approx(1.0)


def test_comass_matches_bruteforce(rng):
    for _ in range(100):
        w = Form2H(*rng.normal(size=6))
        assert comass(w) == pytest.approx(comass_bruteforce(w, rng=rng),
                                          abs=1e-6)


@given(form_st)
def test_comass_bounded_by_norm(w):
    assert comass(w) <= w.norm() + 1e-12


def test_rotation_j_family():
    for theta in np.linspace(-np.pi, np.pi, 9):
        J = rotation_j(theta)
        assert np.allclose(J.m @ J.m, -np.eye(4), atol=1e-14)
        e1 = np.eye(4)[0]
        expect = np.cos(theta) * np.eye(4)[2] + np.sin(theta) * np.eye(4)[3]
        assert np.allclose(J(e1), expect, atol=1e-14)


def test_jmatrix_validates():
    with pytest.raises(ValueError):
        JMatrix(np.eye(4))
    with pytest.raises(ValueError):
        JMatrix(np.zeros((3, 3)))


def test_j_from_form_recovers_angle():
    for theta in np.linspace(-3.0, 3.0, 13):
        w = Form2H(a=np.cos(theta), b=np.sin(theta))
        th, J = j_from_form(w)
        assert th == pytest.approx(theta, abs=1e-12)
        assert np.allclose(J.m, rotation_j(theta).m, atol=1e-12)


def test_j_from_form_rejections():
    with pytest.raises(ValueError):
        j_from_form(Form2H(p=1.0, a=1.0))
    with pytest.raises(ValueError):
        j_from_form(Form2H(a=0.1, A=0.5))


def test_omega_from_J_inverts_j_from_form():
    for theta in np.linspace(-3.0, 3.0, 7):
        w = omega_from_J(rotation_j(theta))
        assert w.coeffs()[0] == pytest.approx(0.0, abs=1e-14)
        assert np.allclose(w.coeffs()[3:], 0.0, atol=1e-14)
        th, _ = j_from_form(w)
        assert th == pytest.approx(theta, abs=1e-12)


def test_omega_from_J_rejects_non_lagrangian():
    # the standard I itself is compatible, not anti-compatible
    from contactfive.contact import standard_I_matrix
    with pytest.raises(ValueError):
        omega_from_J(JMatrix(standard_I_matrix()))


def test_verify_semicalibration_accepts_theta_family():
    for theta in np.linspace(0.0, 2 * np.pi, 17):
        rep = verify_semicalibration(Form2H(a=np.cos(theta),
                                            b=np.sin(theta)))
        assert rep.passed
        assert rep.J is not None


def test_verify_semicalibration_rejects():
    # wrong comass
    assert not verify_semicalibration(Form2H(a=2.0)).passed
    # not orthogonal to dalpha
    rep = verify_semicalibration(Form2H(p=0.1, a=1.0))
    assert "w ^ dalpha = 0" in rep.failed_hypotheses()
    # anti-self-dual contamination
    rep = verify_semicalibration(Form2H(a=1.0, A=0.01))
    assert not rep.passed


def test_check_report_json():
    rep = CheckReport()
    rep.add("zero", 0.0, 1e-10)
    rep.add("fails", 1.0, 1e-10)
    assert not rep.passed
    assert rep.failed_hypotheses() == ["fails"]
    assert "\"pass\": false" in rep.to_json()
