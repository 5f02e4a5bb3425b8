import itertools
from fractions import Fraction

import numpy as np
import pytest

from lyapcert import cop_lp, linprog
from lyapcert.cones import PolyhedralCone, bisect_longest_edge
from lyapcert.cop_lp import (ConicSystem, RationalLyapunovCandidate,
                             SectionState, assemble_lp,
                             decrease_polynomials, face_polynomials,
                             initial_sections, run_hierarchy)
from lyapcert.errors import InputError
from lyapcert.poly import (MonomialTable, Polynomial, SymmetricTensor,
                           monomials_of_degree, norm_squared, parse_polynomial)
from lyapcert.tangency import eta_projection
from reference import (candidate_gradient, decrease_by_products,
                       eval_many_broadcast, evaluate_float_terms)

WEDGE = PolyhedralCone([[-0.25, 1.0], [1.0, -0.25]])
WEDGE_FIELD = [parse_polynomial("-1*x1 - 2*x2", 2),
               parse_polynomial("-1*x1 - 1*x2", 2)]
PRINTED_H = parse_polynomial("2.9*x1^2 + 1*x1*x2 + 1*x2^2", 2)

MINUS_X = [parse_polynomial("-1*x1", 2), parse_polynomial("-1*x2", 2)]
PLUS_X = [parse_polynomial("x1", 2), parse_polynomial("x2", 2)]


def wedge_system():
    return ConicSystem(WEDGE_FIELD, WEDGE)


def orthant_system(field):
    return ConicSystem(field, PolyhedralCone(np.eye(2)))


# -- system validation ------------------------------------------------------------

def test_field_degree_detected():
    assert wedge_system().field_degree == 1


def test_field_degree_is_not_an_argument():
    # it is always the field's degree, so one given was silently dropped
    with pytest.raises(TypeError):
        ConicSystem(WEDGE_FIELD, WEDGE, field_degree=5)


def test_inhomogeneous_field_rejected():
    with pytest.raises(InputError, match="component 1 is not homogeneous"):
        ConicSystem([parse_polynomial("x1^2 + x1", 2), Polynomial.zero(2)],
                    PolyhedralCone(np.eye(2)))


def test_constant_component_rejected():
    with pytest.raises(InputError, match="component 1 has a constant term"):
        ConicSystem([parse_polynomial("1", 2), Polynomial.zero(2)],
                    PolyhedralCone(np.eye(2)))


# -- s0 assembly -------------------------------------------------------------------

def monomial_polys(basis):
    return [Polynomial.monomial(m) for m in basis]


def independent_s0(h, r, f):
    """Textbook formula built with plain polynomial calls, term by term."""
    n = h.dimension
    nrm = norm_squared(n)
    acc = Polynomial.zero(n)
    for i in range(n):
        acc = acc + h.gradient()[i] * f[i]
    second = Polynomial.zero(n)
    for i in range(n):
        second = second + Polynomial.variable(n, i) * f[i]
    return -(nrm * acc) + (2 * r) * (h * second)


def test_s0_for_minus_x_is_two_norm_fourth():
    basis = monomials_of_degree(2, 2)
    parts = decrease_polynomials(monomial_polys(basis), 0, MINUS_X)
    h = parse_polynomial("x1^2 + x2^2", 2)
    s0 = Polynomial.zero(2)
    for mono, part in zip(basis, parts):
        s0 = s0 + part.scale(h.coefficient(mono))
    expected = 2 * norm_squared(2) * norm_squared(2)
    assert s0 == expected
    assert s0.evaluate((1, 0)) == 2


def test_s0_with_r_matches_symbolic_oracle():
    basis = monomials_of_degree(2, 2)
    parts = decrease_polynomials(monomial_polys(basis), 1, MINUS_X)
    h = parse_polynomial("x1^2 + x2^2", 2)
    built = Polynomial.zero(2)
    for mono, part in zip(basis, parts):
        built = built + part.scale(h.coefficient(mono))
    assert built == independent_s0(h, 1, MINUS_X)
    # V = h / |x|^2 is constant for this h, so the decrease vanishes
    assert built.is_zero()


def test_s0_degree_arithmetic():
    rng = np.random.default_rng(51)
    for _ in range(20):
        d = int(rng.integers(1, 5))
        df = int(rng.integers(1, 4))
        r = int(rng.integers(0, 3))
        f = [Polynomial.monomial((df, 0)), Polynomial.monomial((0, df))]
        parts = decrease_polynomials(
            monomial_polys(monomials_of_degree(2, d)), r, f)
        for part in parts:
            if not part.is_zero():
                assert part.is_homogeneous() == d + df + 1


SQUARE_CONE = PolyhedralCone([[1, 0, 0.5], [-1, 0, 0.5], [0, 1, 0.5],
                              [0, -1, 0.5]])
DECREASE_FIELDS = {
    "cone2d": (WEDGE, ["-1*x1 - 2*x2", "-1*x1 - 1*x2"]),
    "sq3d": (SQUARE_CONE, ["-1*x1 + 2*x2 - 0.2*x3", "-2*x1 - 1*x2 + 0.1*x3",
                           "0.3*x1 - 0.5*x3"]),
    "refine1": (SQUARE_CONE, ["-1.5*x1 + 2.5*x2",
                              "-1.5*x1 - 1.2*x2 - 0.8*x3", "0.2*x1 - 0.3*x2"]),
    "quadratic": (PolyhedralCone(np.eye(2)), ["-1*x1^2 - 1*x1*x2",
                                              "-1*x2^2"]),
}


@pytest.mark.parametrize("r", [0, 1, 2])
@pytest.mark.parametrize("name", DECREASE_FIELDS)
def test_decrease_polynomials_match_the_product_formula(name, r):
    # s0 along f and every face's projection-branch velocity, for monomial and
    # general h, exactly equal to the full polynomial products
    cone, texts = DECREASE_FIELDS[name]
    n = cone.dimension
    f = [parse_polynomial(t, n) for t in texts]
    rng = np.random.default_rng(17)
    for degree in (1, 2, 3):
        basis = monomials_of_degree(n, degree)
        general = Polynomial(n, {m: Fraction(int(rng.integers(-9, 10)),
                                             int(rng.integers(1, 8)))
                                 for m in basis})
        hs = monomial_polys(basis) + [general]
        assert decrease_polynomials(hs, r, f) == decrease_by_products(hs, r, f)
        for i in range(cone.num_rows):
            _, velocity = face_polynomials(cone, i, f)
            assert decrease_polynomials(hs, r, velocity) == \
                decrease_by_products(hs, r, velocity)


@pytest.mark.parametrize("name", DECREASE_FIELDS)
def test_face_polynomials_are_exact(name):
    # w = <c_i, f> and the branch velocity |c_i|^2 f - w c_i, in Fractions:
    # the velocity is tangent to the face, <c_i, v> = 0, exactly
    cone, texts = DECREASE_FIELDS[name]
    n = cone.dimension
    f = [parse_polynomial(t, n) for t in texts]
    for i, row in enumerate(cone.rows):
        c = [Fraction(v) for v in row]
        w, velocity = face_polynomials(cone, i, f)
        dot = lambda u: sum((p.scale(ck) for ck, p in zip(c, u)),
                            Polynomial.zero(n))
        assert w == dot(f)
        assert dot(velocity).is_zero()
        norm = sum(ck * ck for ck in c)
        assert velocity == [fk.scale(norm) + w.scale(-ck)
                            for ck, fk in zip(c, f)]


# -- face assembly ------------------------------------------------------------------

def test_branch_b_positive_at_ray_with_printed_candidate():
    basis = monomials_of_degree(2, 2)
    parts = decrease_polynomials(monomial_polys(basis), 0,
                                 face_polynomials(WEDGE, 0, WEDGE_FIELD)[1])
    x = np.array([0.8, 0.2])
    value = sum(float(PRINTED_H.coefficient(m)) * evaluate_float_terms(p, x)
                for m, p in zip(basis, parts))
    assert value > 0
    # numeric cross-check through the projection (clears the |c|^2 factor)
    fx = np.array([evaluate_float_terms(p, x) for p in WEDGE_FIELD])
    eta = eta_projection(fx, [WEDGE.C[0]])
    gh = np.array([evaluate_float_terms(g, x) for g in PRINTED_H.gradient()])
    direct = -float(x @ x) * float(gh @ (fx + eta))
    c2 = float(WEDGE.C[0] @ WEDGE.C[0])
    assert abs(value - c2 * direct) <= 1e-10


def test_face_rows_linear_in_coefficients():
    rng = np.random.default_rng(52)
    basis = monomials_of_degree(2, 2)
    parts = decrease_polynomials(monomial_polys(basis), 1,
                                 face_polynomials(WEDGE, 1, WEDGE_FIELD)[1])
    x = rng.uniform(0.2, 2.0, size=2)
    a = rng.uniform(-1, 1, size=3)
    b = rng.uniform(-1, 1, size=3)
    val = lambda coeffs: sum(c * evaluate_float_terms(p, x)
                             for c, p in zip(coeffs, parts))
    assert abs(val(a + b) - (val(a) + val(b))) <= 1e-9


# -- LP assembly ---------------------------------------------------------------------

def test_tuple_counts_for_single_cell():
    system = orthant_system(MINUS_X)
    sections = initial_sections(system)
    lp, owner = assemble_lp(system, 2, 0, sections)
    assert [s.rows for s in sections] == [(), (0,), (1,)]
    # the cone cell owns 3 h rows (multisets of 2 from 2 vertices), then 5
    # s0 rows (multisets of 4); each face is a ray whose one cell needs
    # branch "a" only (w = -x_i is 0 there), 1 row
    assert owner.tolist() == [[0, 0]] * (3 + 5) + [[1, 0], [2, 0]]
    # the h rows of the monomial basis at the vertices e1, e2 are the
    # polar-form values 1, 1/2 and 1, one per row and column
    assert sorted(lp.A[:3, :-1].ravel()) == [0.0] * 6 + [0.5, 1.0, 1.0]
    assert sorted(lp.A[3:8, :-1].ravel())[-1] > 1.0


def test_unrefined_lp_certifies_minus_x():
    system = orthant_system(MINUS_X)
    lp, prov = assemble_lp(system, 2, 0, initial_sections(system))
    result = linprog.solve(lp)
    assert result.status == "optimal"
    assert result.value > 0.0


def test_zero_candidate_has_zero_margin():
    system = orthant_system(MINUS_X)
    lp, prov = assemble_lp(system, 2, 0, initial_sections(system))
    zero_with_best_t = np.zeros(lp.A.shape[1])
    rows = lp.A[:, :-1] @ zero_with_best_t[:-1]
    assert rows.min() == 0.0  # so the accepted margin threshold excludes h = 0


SQ3D = ConicSystem(
    [parse_polynomial("-1*x1 + 2*x2 - 0.2*x3", 3),
     parse_polynomial("-2*x1 - 1*x2 + 0.1*x3", 3),
     parse_polynomial("0.3*x1 - 0.5*x3", 3)],
    PolyhedralCone([[1, 0, 0.5], [-1, 0, 0.5], [0, 1, 0.5], [0, -1, 0.5]]))


def polar_form_lp(system, degree, r, sections, tol=1e-12):
    """Reference rows, and the (section, cell) pair of each row, from each
    row polynomial's tensor."""
    basis = monomials_of_degree(system.dimension, degree)
    order = degree + system.field_degree + 1

    def tensors(polys):
        return [None if p.is_zero() else p.to_tensor() for p in polys]

    h = tensors([Polynomial.monomial(m) for m in basis])
    s0 = tensors(decrease_polynomials(monomial_polys(basis), r, system.f))
    rows, owner = [], []
    for sec, state in enumerate(sections):
        for ci, cell in enumerate(state.partition.cells):
            verts = [np.array(v) for v in cell.vertices]

            def multisets(k):
                return itertools.combinations_with_replacement(
                    range(len(verts)), k)

            def add(ts, k):
                for combo in multisets(k):
                    pts = [verts[i] for i in combo]
                    rows.append([0.0 if T is None else float(T.eval(pts))
                                 for T in ts] + [-1.0])
                    owner.append([sec, ci])

            if not state.rows:
                add(h, degree)
                add(s0, order)
                continue
            W, velocity = face_polynomials(system.cone, state.rows[0],
                                           system.f)
            w = [float(W.to_tensor().eval([verts[i] for i in combo]))
                 for combo in multisets(system.field_degree)]
            if min(w) >= -tol or max(w) > tol:
                add(s0, order)
            if min(w) < -tol:
                add(tensors(decrease_polynomials(monomial_polys(basis), r,
                                                 velocity)), order)
    return np.array(rows), owner


@pytest.mark.parametrize("degree, r, sweeps, nrows", [
    (2, 0, 0, 228), (2, 0, 1, 436), (2, 0, 2, 852), (4, 1, 0, 428)])
def test_assembled_lp_matches_polar_form_reference(degree, r, sweeps, nrows,
                                                   monkeypatch):
    sections = initial_sections(SQ3D)
    for _ in range(sweeps):
        sections = [SectionState(s.rows, s.orthant, s.partition.refine_all())
                    for s in sections]
    A_ref, owner_ref = polar_form_lp(SQ3D, degree, r, sections)

    def no_tensor_eval(self, points):
        raise AssertionError("LP assembly evaluated a symmetric tensor")

    monkeypatch.setattr(SymmetricTensor, "eval", no_tensor_eval)
    lp, owner = assemble_lp(SQ3D, degree, r, sections)
    assert lp.A.shape == A_ref.shape == (nrows, A_ref.shape[1])
    assert owner.shape == (len(lp.b), 2)
    assert owner.tolist() == owner_ref
    assert np.abs(lp.A - A_ref).max() <= 1e-12


def test_empty_sections_rejected():
    system = orthant_system(MINUS_X)
    with pytest.raises(InputError, match="empty partition"):
        assemble_lp(system, 2, 0, [])


# -- hierarchy -----------------------------------------------------------------------

def test_hierarchy_certifies_wedge_system():
    outcome = run_hierarchy(wedge_system(), [(2, 0, 6)])
    assert outcome.found
    cert = outcome.certificate
    assert cert.margin >= 1e-6
    assert not cert.candidate.h.is_zero()
    # grid verification of the recovered candidate
    from lyapcert.oracle import verify_conic
    report = verify_conic(cert.candidate, wedge_system(), grid_density=10_000)
    assert report.passed


def test_hierarchy_coarsest_level_for_minus_x():
    outcome = run_hierarchy(orthant_system(MINUS_X), [(2, 0, 1)])
    assert outcome.found
    assert outcome.certificate.sweeps_used == 0


def test_hierarchy_exhausts_for_plus_x():
    outcome = run_hierarchy(orthant_system(PLUS_X), [(2, 0, 4)])
    assert not outcome.found
    assert len(outcome.levels) == 1
    level = outcome.levels[0]
    assert level.sweeps_done == 4
    assert level.best_margin <= 1e-6


def test_hierarchy_on_three_dimensional_cone():
    cone = PolyhedralCone([[-1, 0, 1], [1, 0, 1], [0, -1, 1], [0, 1, 1]])
    f = [parse_polynomial("-1*x1", 3), parse_polynomial("-1*x2", 3),
         parse_polynomial("-1*x3", 3)]
    outcome = run_hierarchy(ConicSystem(f, cone), [(2, 0, 2)])
    assert outcome.found
    from lyapcert.oracle import verify_conic
    report = verify_conic(outcome.certificate.candidate,
                          ConicSystem(f, cone), grid_density=2000)
    assert report.passed


def test_certificate_rows_reevaluate_above_margin():
    outcome = run_hierarchy(wedge_system(), [(2, 0, 6)])
    cert = outcome.certificate
    system = wedge_system()
    lp, prov = assemble_lp(system, cert.degree, cert.r, cert.sections)
    basis = monomials_of_degree(2, cert.degree)
    coeffs = np.array([float(cert.candidate.h.coefficient(m)) for m in basis])
    rows = lp.A[:, :-1] @ coeffs
    assert rows.min() >= cert.margin - 1e-8


# -- vertex-multiset soundness property ----------------------------------------------

def all_ones_tensor(order, dimension):
    """Tensor of (x_1 + ... + x_n)^order; tuple values are 1 on the
    l1-normalized positive orthant."""
    p = Polynomial(dimension,
                   {tuple(1 if k == i else 0 for k in range(dimension)): 1
                    for i in range(dimension)})
    return (p ** order).to_tensor()


def random_nonneg_tuple_tensor(rng, order, dimension, vertices):
    entries = {}
    for idx in itertools.combinations_with_replacement(range(dimension), order):
        entries[idx] = Fraction(rng.uniform(-2, 2)).limit_denominator(499)
    H0 = SymmetricTensor(order, dimension, entries)
    tuples = list(itertools.combinations_with_replacement(range(len(vertices)),
                                                          order))
    worst = min(float(H0.eval([vertices[i] for i in combo]))
                for combo in tuples)
    E = all_ones_tensor(order, dimension)
    shift = max(0.0, -worst)
    merged = dict(H0.entries)
    for idx, val in E.entries.items():
        merged[idx] = merged.get(idx, Fraction(0)) + Fraction(shift) * val
    return SymmetricTensor(order, dimension, merged)


def test_vertex_multiset_nonnegativity_implies_cell_nonnegativity():
    rng = np.random.default_rng(53)
    for _ in range(30):
        n = int(rng.integers(2, 4))
        d = int(rng.integers(2, 5))
        k = int(rng.integers(2, n + 1))
        vertices = [rng.dirichlet([1.0] * n) for _ in range(k)]
        H = random_nonneg_tuple_tensor(rng, d, n, vertices)
        tuples = itertools.combinations_with_replacement(range(k), d)
        assert all(float(H.eval([vertices[i] for i in combo])) >= -1e-12
                   for combo in tuples)
        diag = H.diagonal_polynomial()
        V = np.array(vertices)
        lams = rng.dirichlet([1.0] * k, size=1000)
        values = eval_many_broadcast(diag, lams @ V)
        assert values.min() >= -1e-10


# -- monotonicity and homogeneity -----------------------------------------------------

def test_refinement_never_decreases_margin():
    system = wedge_system()
    sections = initial_sections(system)
    lp1, _ = assemble_lp(system, 2, 0, sections)
    t1 = linprog.solve(lp1).value
    refined = [type(s)(s.rows, s.orthant, s.partition.refine_all())
               for s in sections]
    lp2, _ = assemble_lp(system, 2, 0, refined)
    t2 = linprog.solve(lp2).value
    assert t2 >= t1 - 1e-8


def test_refine_falls_back_to_every_refinable_cell():
    """When every active cell is a 1-vertex face ray, which cannot be
    bisected, every cell that can be is bisected once instead."""
    sections = [SectionState(s.rows, s.orthant, s.partition.refine_all())
                for s in initial_sections(wedge_system())]
    faces = [k for k, s in enumerate(sections) if s.rows]
    assert faces and all(c.num_vertices == 1 for k in faces
                         for c in sections[k].partition.cells)
    refined = cop_lp._refine(sections, np.array([[k, 0] for k in faces]))
    for before, after in zip(sections, refined):
        if before.rows:
            assert after is before
            continue
        assert len(before.partition.cells) == 2
        assert after.partition.cells == [
            half for cell in before.partition.cells
            for half in bisect_longest_edge(cell)]


def test_assembly_builds_its_tables_once_per_level(monkeypatch):
    """One table each for h, s0 and every face's b-branch and w, however
    many cells the partition has."""
    built = []

    class CountingTable(MonomialTable):
        __slots__ = ()

        def __init__(self, polys):
            built.append(len(polys))
            super().__init__(polys)

    monkeypatch.setattr(cop_lp, "MonomialTable", CountingTable)
    sections = initial_sections(SQ3D)
    seen = []
    for _ in range(3):
        built.clear()
        lp, _ = assemble_lp(SQ3D, 2, 0, sections)
        seen.append((len(built), lp.A.shape[0]))
        sections = [SectionState(s.rows, s.orthant, s.partition.refine_all())
                    for s in sections]
    assert seen[0][1] < seen[1][1] < seen[2][1]
    assert [tables for tables, _ in seen] == [2 + 2 * SQ3D.cone.num_rows] * 3


def test_certified_decrease_transfers_across_radii():
    outcome = run_hierarchy(wedge_system(), [(2, 0, 6)])
    cand = outcome.certificate.candidate
    s0, = decrease_polynomials([cand.h], cand.r, WEDGE_FIELD)
    rng = np.random.default_rng(54)
    rays = np.array([[0.8, 0.2], [0.2, 0.8]])
    for radius in (0.1, 1.0, 10.0):
        lams = rng.uniform(0.0, 1.0, size=1000)
        pts = radius * (np.outer(lams, rays[0]) + np.outer(1 - lams, rays[1]))
        assert eval_many_broadcast(cand.h, pts).min() > 0
        assert eval_many_broadcast(s0, pts).min() > 0


def test_candidate_gradient_closed_form():
    cand = RationalLyapunovCandidate(parse_polynomial("x1^4 + x2^4", 2), 1)
    x = np.array([0.7, -1.2])
    step = 1e-6
    grad = candidate_gradient(cand, x)
    for i in range(2):
        e = np.zeros(2)
        e[i] = step
        fd = (cand.value(x + e) - cand.value(x - e)) / (2 * step)
        assert abs(fd - grad[i]) <= 1e-6 * max(1.0, abs(grad[i]))


def test_candidate_value_at_the_origin():
    """The limit 0 when deg h > 2r; no value (InputError) when deg h <= 2r."""
    quartic = parse_polynomial("x1^4 + x2^4", 2)
    assert RationalLyapunovCandidate(quartic, 1).value([0.0, 0.0]) == 0.0
    assert RationalLyapunovCandidate(quartic, 0).value([0.0, 0.0]) == 0.0
    for r in (2, 3):
        with pytest.raises(InputError, match="has no value at the origin"):
            RationalLyapunovCandidate(quartic, r).value([0.0, 0.0])


def test_candidate_value_is_batched():
    cand = RationalLyapunovCandidate(parse_polynomial("x1^4 + 2*x1*x2^3", 2), 1)
    pts = np.array([[1.0, 2.0], [0.0, 0.0], [-0.5, 0.25], [3.0, -1.0]])
    values = cand.value(pts)
    assert values.shape == (4,)
    assert values[1] == 0.0
    assert [cand.value(x) for x in pts] == values.tolist()
    for x, v in zip(pts[[0, 2, 3]], values[[0, 2, 3]]):
        plain = evaluate_float_terms(cand.h, x) / float(x @ x)
        assert abs(v - plain) <= 1e-15 * abs(plain)
    with pytest.raises(InputError, match="has no value at the origin"):
        RationalLyapunovCandidate(parse_polynomial("x1^2 + x2^2", 2), 1).value(pts)
