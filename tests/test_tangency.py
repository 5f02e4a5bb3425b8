import numpy as np
import pytest

from lyapcert.cones import PolyhedralCone
from lyapcert.poly import Polynomial, parse_polynomial
from lyapcert.tangency import (SemialgebraicSet, TangencyError,
                               eta_projection, face_eta_polynomial, nnls)
from reference import evaluate_float_terms

WEDGE = PolyhedralCone([[-0.25, 1.0], [1.0, -0.25]])
WEDGE_FIELD = [parse_polynomial("-1*x1 - 2*x2", 2),
               parse_polynomial("-1*x1 - 1*x2", 2)]


def cusp_set():
    return SemialgebraicSet(
        [parse_polynomial("x1 - x2^2", 2), parse_polynomial("1 - x1", 2)],
        [(-0.5, 1.5), (-1.5, 1.5)])


def test_set_must_contain_origin():
    with pytest.raises(TangencyError):
        SemialgebraicSet([parse_polynomial("x1 - 1", 2)], [(-1, 2), (-1, 1)])


# -- nnls --------------------------------------------------------------------------

def test_nnls_matches_unconstrained_when_interior():
    rng = np.random.default_rng(21)
    A = rng.standard_normal((6, 3))
    x_true = np.abs(rng.standard_normal(3)) + 0.1
    b = A @ x_true
    x = nnls(A, b)
    assert np.allclose(x, x_true, atol=1e-9)


def test_nnls_clamps_negative_solution():
    A = np.array([[1.0, 0.0], [0.0, 1.0]])
    b = np.array([-2.0, 3.0])
    x = nnls(A, b)
    assert np.allclose(x, [0.0, 3.0])


def test_nnls_kkt_on_random_instances():
    rng = np.random.default_rng(22)
    for _ in range(50):
        A = rng.standard_normal((5, 4))
        b = rng.standard_normal(5)
        x = nnls(A, b)
        grad = A.T @ (A @ x - b)
        assert x.min() >= 0.0
        assert grad.min() >= -1e-8          # dual feasibility
        assert abs(x @ grad) <= 1e-8        # complementarity


# -- eta projection -----------------------------------------------------------------

def test_eta_zero_when_no_active_constraints():
    assert np.allclose(eta_projection(np.array([3.0, -1.0]), []), 0.0)


def test_single_face_projection_formula():
    c = np.array([-0.25, 1.0])
    f = np.array([-6.0, -5.0])
    eta = eta_projection(f, [c])
    lam = max(0.0, -(c @ f)) / (c @ c)
    assert np.allclose(eta, lam * c)
    assert np.allclose(eta, [-0.8235294117647058, 3.2941176470588234])
    assert abs(c @ (f + eta)) <= 1e-12


def test_eta_zero_when_already_tangent():
    eta = eta_projection(np.array([1.0, 1.0]), [np.array([1.0, 0.0])])
    assert np.allclose(eta, 0.0)


def test_tangency_invariant_multi_constraint():
    rng = np.random.default_rng(23)
    grads = [np.array([1.0, 0.0, 0.2]), np.array([0.0, 1.0, -0.1]),
             np.array([0.3, 0.3, 1.0])]
    for _ in range(100):
        f = rng.standard_normal(3) * 3
        eta = eta_projection(f, grads)
        for g in grads:
            assert g @ (f + eta) >= -1e-9


def test_projection_minimality_by_sampling():
    rng = np.random.default_rng(24)
    grads = [np.array([1.0, 0.0]), np.array([0.5, 1.0])]
    f = np.array([-2.0, -3.0])
    eta = eta_projection(f, grads)
    G = np.column_stack([-g for g in grads])
    for _ in range(1000):
        lam = rng.uniform(0, 5.0, size=2)
        cand = -G @ lam
        if all(g @ (f + cand) >= -1e-9 for g in grads):
            assert np.linalg.norm(eta) <= np.linalg.norm(cand) + 1e-9


def test_projection_idempotent():
    c = np.array([-0.25, 1.0])
    f = np.array([-6.0, -5.0])
    eta = eta_projection(f, [c])
    again = eta_projection(f + eta, [c])
    assert np.abs(again).max() <= 1e-9


@pytest.mark.parametrize("normals", [
    [[-0.25, 1.0, 0.3]],
    [[1.0, 0.0, 0.5], [0.0, 1.0, 0.5]],
], ids=["one-normal", "two-normals"])
def test_batched_projection_matches_row_by_row(normals):
    rng = np.random.default_rng(26)
    F = rng.standard_normal((40, 3)) * 2
    batched = eta_projection(F, normals)
    assert batched.shape == F.shape
    for f, eta in zip(F, batched):
        assert np.allclose(eta, eta_projection(f, normals), rtol=0, atol=1e-15)


def test_batched_projection_keeps_the_posterior_check(monkeypatch):
    from lyapcert import tangency
    monkeypatch.setattr(tangency, "nnls",
                        lambda A, b: np.full(A.shape[1], 10.0))
    with pytest.raises(TangencyError, match="complementarity"):
        eta_projection(np.ones((3, 2)), [[1.0, 0.0], [0.0, 1.0]])


def test_zero_gradient_rejected():
    with pytest.raises(TangencyError):
        eta_projection(np.array([1.0]), [np.array([0.0])])


# -- face branches ------------------------------------------------------------------

def branch_b(br, x):
    """Branch B of eta at x: -(w(x) / |c|^2) c, from its scaled polynomials."""
    return np.array([evaluate_float_terms(p, x) for p in br.eta_b_scaled]) / \
        float(br.c_norm_sq)


def test_branches_coincide_when_field_tangent():
    f = [parse_polynomial("-1*x1", 2), parse_polynomial("-1*x2", 2)]
    br = face_eta_polynomial(PolyhedralCone(np.eye(2)), 1, f)
    # face x1 = 0: w(x) = -x1 vanishes on the face, eta = 0 either way
    assert float(evaluate_float_terms(br.w, (0.0, 1.0))) == 0.0
    assert np.allclose(branch_b(br, (0.0, 1.0)), 0.0)


def test_branch_selection_at_ray_point():
    br = face_eta_polynomial(WEDGE, 1, WEDGE_FIELD)
    assert abs(evaluate_float_terms(br.w, (0.8, 0.2)) - (-0.7)) <= 1e-12
    eta = branch_b(br, (0.8, 0.2))  # w < 0 selects branch B
    assert eta @ np.array([-0.25, 1.0]) > 0  # pushes back into the cone


def test_branch_matches_projection_along_face():
    rng = np.random.default_rng(25)
    br = face_eta_polynomial(WEDGE, 1, WEDGE_FIELD)
    c = WEDGE.C[0]
    worst = 0.0
    for _ in range(100):
        x = rng.uniform(0.05, 5.0) * np.array([0.8, 0.2])
        fx = np.array([evaluate_float_terms(p, x) for p in WEDGE_FIELD])
        a = branch_b(br, x)  # w < 0 along this ray
        b = eta_projection(fx, [c])
        worst = max(worst, float(np.abs(a - b).max()))
    assert worst <= 1e-10


def test_branch_consistency_on_switching_surface():
    # field chosen so w(x) = <c, f(x)> = x2 - x1 changes sign on the face x1 = 0
    f = [parse_polynomial("x2 - x1", 2), Polynomial.zero(2)]
    br = face_eta_polynomial(PolyhedralCone(np.eye(2)), 1, f)
    x = (0.0, 0.0)
    assert evaluate_float_terms(br.w, x) == 0.0
    branch_b = np.array([evaluate_float_terms(p, x) / float(br.c_norm_sq)
                         for p in br.eta_b_scaled])
    assert np.allclose(branch_b, 0.0)


def test_face_index_validation():
    with pytest.raises(TangencyError):
        face_eta_polynomial(WEDGE, 0, WEDGE_FIELD)
    with pytest.raises(TangencyError):
        face_eta_polynomial(WEDGE, 3, WEDGE_FIELD)
