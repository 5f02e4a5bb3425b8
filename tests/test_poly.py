import importlib.util
import itertools
import re
from fractions import Fraction
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lyapcert import cli
from lyapcert.cli import main

from lyapcert.poly import (MonomialTable, Polynomial, PolynomialParseError,
                           SymmetricTensor, bernstein_coefficients,
                           float_kernel, format_polynomial,
                           monomials_of_degree, monomials_up_to_degree,
                           parse_polynomial)
from reference import (evaluate_float_terms, layout_by_parents,
                       parse_polynomial_by_fractions, values_per_call)

X1 = Polynomial.variable(2, 0)
X2 = Polynomial.variable(2, 1)


def rand_poly(rng, dimension=2, max_degree=4, terms=5, lo=-10, hi=10):
    basis = monomials_up_to_degree(dimension, max_degree)
    chosen = rng.choice(len(basis), size=min(terms, len(basis)), replace=False)
    return Polynomial(dimension, {
        basis[i]: Fraction(rng.uniform(lo, hi)).limit_denominator(997)
        for i in chosen})


# -- ring operations ------------------------------------------------------------

def test_difference_of_squares():
    assert (X1 + X2) * (X1 - X2) == X1 ** 2 - X2 ** 2


def test_additive_identity():
    p = X1 ** 2 + 3 * X2
    assert p + Polynomial.zero(2) == p


def test_product_against_term_expansion():
    # brute-force expansion oracle: multiply term by term with raw dicts
    p = X1 * X2
    q = p * p
    raw = {}
    for ma, ca in p.terms.items():
        for mb, cb in p.terms.items():
            mono = tuple(a + b for a, b in zip(ma, mb))
            raw[mono] = raw.get(mono, Fraction(0)) + ca * cb
    assert q.terms == raw
    assert q == Polynomial.monomial((2, 2))


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        X1 + Polynomial.variable(3, 0)


def test_no_zero_terms_stored():
    p = X1 - X1 + X2
    assert list(p.terms) == [(0, 1)]


@st.composite
def polynomial_pairs(draw):
    """Two polynomials in 1-3 variables, built through the validating
    constructor (their coefficients may be 0 or cancel), and a rational."""
    n = draw(st.integers(1, 3))
    monos = st.tuples(*[st.integers(0, 3)] * n)
    coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=6)
    p, q = (Polynomial(n, draw(st.dictionaries(monos, coeffs, max_size=6)))
            for _ in range(2))
    return p, q, draw(coeffs)


@settings(max_examples=200, deadline=None)
@given(polynomial_pairs())
def test_ring_results_keep_the_constructor_invariants(drawn):
    # +, -, negation, scale, * and gradient skip the validating constructor
    p, q, k = drawn
    n = p.dimension
    results = [p + q, p - q, -p, p - p, p.scale(k), p.scale(0), k * q,
               p * q, p * (-p), *p.gradient(), *(p * q).gradient()]
    for r in results:
        assert Polynomial(r.dimension, dict(r.terms)) == r
        for mono, coeff in r.terms.items():
            assert type(coeff) is Fraction and coeff != 0
            assert type(mono) is tuple and len(mono) == n
            assert all(type(e) is int and e >= 0 for e in mono)


# -- gradient ---------------------------------------------------------------------

def test_gradient_basic():
    p = X1 ** 2 * X2
    gx, gy = p.gradient()
    assert gx == 2 * X1 * X2
    assert gy == X1 ** 2


def test_gradient_of_constant():
    g = Polynomial.constant(2, 5).gradient()
    assert all(c.is_zero() for c in g)


def test_gradient_finite_differences():
    rng = np.random.default_rng(3)
    step = 1e-5
    for _ in range(20):
        p = rand_poly(rng, max_degree=6)
        x = rng.uniform(-2, 2, size=2)
        grad = [evaluate_float_terms(g, x) for g in p.gradient()]
        for i in range(2):
            e = np.zeros(2)
            e[i] = step
            fd = (evaluate_float_terms(p, x + e)
                  - evaluate_float_terms(p, x - e)) / (2 * step)
            scale = max(abs(grad[i]), 1.0)
            assert abs(fd - grad[i]) / scale <= 1e-6


# -- float evaluation ---------------------------------------------------------------

def test_monomial_table_is_bit_identical_to_the_per_call_reference():
    """A table built once gives the same floats as the layout rebuilt on
    each call, on random polynomial lists and points with zero
    coordinates."""
    rng = np.random.default_rng(2026)
    lists = [[Polynomial.zero(3)], [Polynomial.constant(2, Fraction(7, 3))]]
    for _ in range(200):
        n, degree = int(rng.integers(1, 5)), int(rng.integers(0, 9))
        basis = monomials_up_to_degree(n, degree)
        polys = []
        for _ in range(int(rng.integers(1, 4))):
            chosen = rng.choice(len(basis),
                                size=int(rng.integers(1, len(basis) + 1)),
                                replace=False)
            polys.append(Polynomial(n, {basis[i]: float(rng.normal())
                                        for i in chosen}))
        lists.append(polys)
    for polys in lists:
        n = polys[0].dimension
        table = MonomialTable(polys)
        pts = rng.normal(size=(int(rng.integers(1, 300)), n)) \
            * rng.uniform(0.1, 3.0)
        pts[::7, 0] = 0.0
        for points in (pts, pts[-1], np.zeros((0, n))):
            got = table(points)
            want = values_per_call(polys, points)
            assert got.shape == want.shape
            assert np.array_equal(got, want)


def _random_polynomial(rng, n, monos):
    chosen = rng.choice(len(monos), size=rng.integers(1, min(12, len(monos))
                                                      + 1), replace=False)
    return Polynomial(n, {monos[i]: Fraction(int(rng.integers(-40, 41)),
                                             int(rng.integers(1, 13)))
                          for i in chosen})


def _assert_values_within_rounding(polys, points):
    """Every value within gamma_k * sum_t |c_t x^t| of the exact one, with
    k = degree + terms + 1 roundings: the coefficient, the monomial's
    products, the term's product and the sum (gamma_k = k u / (1 - k u),
    u = 2^-53)."""
    points = np.asarray(points, dtype=float)
    got = MonomialTable(polys)(points)
    assert got.shape == (len(points), len(polys))
    for x, row in zip(points, got):
        exact_x = [Fraction(v) for v in x]
        for p, value in zip(polys, row):
            exact = p.evaluate(exact_x)
            scale = Polynomial(p.dimension, {m: abs(c) for m, c
                                             in p.terms.items()}).evaluate(
                [abs(v) for v in exact_x])
            k = p.degree() + len(p.terms) + 1 if p.terms else 0
            gamma = Fraction(k, 2**53 - k)
            assert abs(Fraction(value) - exact) <= gamma * scale


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_values_match_exact_evaluation(n):
    rng = np.random.default_rng(40 + n)
    for degree in range(0, 9):
        monos = monomials_up_to_degree(n, degree)
        polys = [_random_polynomial(rng, n, monos) for _ in range(3)]
        # polynomials that share monomials, and the zero polynomial
        polys += [polys[0] * 2 + polys[1], polys[0] - polys[0]]
        points = rng.uniform(-1.5, 1.5, size=(6, n))
        points[rng.random(points.shape) < 0.2] = 0.0
        _assert_values_within_rounding(polys, points)


def test_values_edge_cases():
    p = parse_polynomial("3*x1^2*x2 - 1/3*x2 + 7", 2)
    constant = Polynomial.constant(2, Fraction(1, 3))
    zero = Polynomial.zero(2)
    _assert_values_within_rounding([p, constant, zero],
                                   [[0.0, 0.0], [0.0, -2.5], [1e-3, 0.0]])
    one = MonomialTable([p, constant, zero])(np.array([0.5, 2.0]))
    assert one.shape == (1, 3)
    assert one[0, 2] == 0.0 and one[0, 1] == float(Fraction(1, 3))
    assert MonomialTable([p, zero])(np.zeros((0, 2))).shape == (0, 2)
    assert np.array_equal(MonomialTable([constant])(np.zeros((4, 2))),
                          np.full((4, 1), float(Fraction(1, 3))))
    assert MonomialTable([])(np.zeros((3, 2))).shape == (3, 0)
    with pytest.raises(ValueError):
        MonomialTable([p, Polynomial.zero(3)])


# -- homogeneity --------------------------------------------------------------------

def kernel_cases(rng):
    """(polynomials of one dimension, points) cases for the float kernels."""
    cases = []
    for dimension, many in ((1, 80), (2, 12), (3, 8)):
        polys = [rand_poly(rng, dimension, max_degree=d, terms=t)
                 for d, t in ((0, 1), (2, 3), (4, 8), (6, 20))]
        polys += [Polynomial.zero(dimension),
                  Polynomial.constant(dimension, Fraction(-7, 3)),
                  # high exponents and negative coefficients only
                  Polynomial(dimension, {(11,) + (0,) * (dimension - 1): -2,
                                         (0,) * (dimension - 1) + (9,):
                                         Fraction(-1, 3)}),
                  # more terms than one generated statement holds
                  Polynomial(dimension, {
                      m: Fraction(rng.uniform(-10, 10)).limit_denominator(997)
                      for m in monomials_up_to_degree(dimension, many)})]
        points = rng.uniform(-1.5, 1.5, size=(30, dimension))
        cases.append((polys, points))
    return cases


def test_float_kernel_is_bit_identical_to_the_term_loop():
    rng = np.random.default_rng(91)
    for polys, points in kernel_cases(rng):
        kernel = float_kernel(polys)
        assert len(polys[-1].terms) > 64
        for x in points:
            for point in (tuple(x.tolist()), x):
                want = [evaluate_float_terms(p, point).hex() for p in polys]
                assert [float(v).hex() for v in kernel(point)] == want
    assert float_kernel([])((0.5, 0.5)) == ()
    with pytest.raises(ValueError, match="dimension mismatch"):
        float_kernel([X1, Polynomial.variable(3, 0)])


def test_is_homogeneous():
    assert (X1 ** 2 + X1 * X2).is_homogeneous() == 2
    assert (X1 ** 2 + X1).is_homogeneous() is None
    assert Polynomial.zero(2).is_homogeneous() == 0


def test_homogeneous_scaling_oracle():
    rng = np.random.default_rng(4)
    p = X1 ** 3 + 2 * X1 * X2 ** 2
    d = p.is_homogeneous()
    assert d == 3
    for lam in (2.0, 3.5):
        for _ in range(100):
            x = rng.uniform(-1, 1, size=2)
            lhs = evaluate_float_terms(p, lam * x)
            rhs = lam ** d * evaluate_float_terms(p, x)
            assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))


# -- tensors -----------------------------------------------------------------------

def test_to_tensor_bilinear_form():
    H = (X1 * X2).to_tensor()
    assert H.entries == {(0, 1): Fraction(1, 2)}
    # bilinear form [[0, .5], [.5, 0]]
    assert H.eval([(1, 0), (0, 1)]) == Fraction(1, 2)
    assert H.eval([(1, 0), (1, 0)]) == 0


def test_to_tensor_multinomial_count():
    H = (X1 ** 2 * X2).to_tensor()
    assert H.entries == {(0, 0, 1): Fraction(1, 3)}


def test_to_tensor_printed_candidate():
    h = parse_polynomial("2.9*x1^2 + 1*x1*x2 + 1*x2^2", 2)
    H = h.to_tensor()
    assert H.value((0, 1)) == Fraction(1, 2)
    assert H.value((1, 0)) == Fraction(1, 2)


def test_to_tensor_rejects_inhomogeneous():
    with pytest.raises(ValueError):
        (X1 ** 2 + X1).to_tensor()


def test_tensor_eval_diagonal():
    H = (X1 ** 2 + X2 ** 2).to_tensor()
    assert H.eval([(1, 0), (1, 0)]) == 1


def test_tensor_eval_scaling():
    rng = np.random.default_rng(5)
    H = (X1 ** 2 + 3 * X1 * X2).to_tensor()
    for _ in range(10):
        u, v = rng.uniform(-1, 1, size=(2, 2))
        assert abs(H.eval([2 * u, v]) - 2 * H.eval([u, v])) < 1e-12


def naive_tensor_eval(H: SymmetricTensor, points) -> float:
    total = 0.0
    for full in itertools.product(range(H.dimension), repeat=H.order):
        entry = float(H.value(tuple(full)))
        if entry == 0.0:
            continue
        term = entry
        for k, i in enumerate(full):
            term *= points[k][i]
        total += term
    return total


def test_tensor_eval_against_naive_loop():
    rng = np.random.default_rng(6)
    for trial in range(50):
        n = int(rng.integers(2, 4))
        d = int(rng.integers(2, 5))
        entries = {}
        for idx in itertools.combinations_with_replacement(range(n), d):
            entries[idx] = Fraction(rng.uniform(-3, 3)).limit_denominator(499)
        H = SymmetricTensor(d, n, entries)
        pts = rng.uniform(-1, 1, size=(d, n))
        fast = float(H.eval(pts))
        slow = naive_tensor_eval(H, pts)
        assert abs(fast - slow) <= 1e-10 * max(1.0, abs(slow))


def test_tensor_roundtrip_diagonal_polynomial():
    p = 3 * X1 ** 4 + X1 ** 2 * X2 ** 2 - 2 * X2 ** 4
    assert p.to_tensor().diagonal_polynomial() == p


# -- Bernstein coefficients ------------------------------------------------------------

def polar_form_rows(polys, vertices, order):
    """Reference: each polynomial's tensor at every vertex multiset."""
    combos = list(itertools.combinations_with_replacement(range(len(vertices)),
                                                          order))
    out = np.zeros((len(combos), len(polys)))
    for col, p in enumerate(polys):
        if p.is_zero():
            continue
        T = p.to_tensor()
        for row, combo in enumerate(combos):
            out[row, col] = float(T.eval([vertices[i] for i in combo]))
    return out


def test_bernstein_coefficients_match_tensor_eval():
    rng = np.random.default_rng(7)
    basis = [Polynomial.monomial(m) for m in monomials_of_degree(2, 2)]
    printed = parse_polynomial("2.9*x1^2 + 1*x1*x2 + 1*x2^2", 2)
    # (polys, vertices, order, rows known in closed form or None)
    cases = [
        (basis, [(1, 0), (0, 1)], 2, {1: [0.0, 0.5, 0.0]}),
        (basis, [(1, 0), (1, 0)], 2, {1: [1.0, 0.0, 0.0]}),
    ]
    cases += [([printed], rng.uniform(-2, 2, size=(2, 2)), 2, None)
              for _ in range(5)]
    for n in (2, 3, 4):
        for k in range(1, n + 1):
            for order in range(1, 7):
                p = Polynomial(n, {
                    m: Fraction(rng.uniform(-2, 2)).limit_denominator(499)
                    for m in monomials_of_degree(n, order)})
                mono = Polynomial.monomial(monomials_of_degree(n, order)[-1])
                vertices = rng.uniform(-2, 2, size=(k, n))
                cases.append(([p, Polynomial.zero(n), mono], vertices, order,
                              None))
    for polys, vertices, order, known in cases:
        got = bernstein_coefficients(MonomialTable(polys), vertices, order)
        ref = polar_form_rows(polys, vertices, order)
        assert got.shape == ref.shape
        assert np.abs(got - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())
        for row, values in (known or {}).items():
            assert np.abs(got[row] - values).max() <= 1e-12


def test_bernstein_coefficients_reject_wrong_degree():
    with pytest.raises(ValueError):
        bernstein_coefficients(MonomialTable([X1 ** 2 + X2]),
                               [(1, 0), (0, 1)], 2)
    with pytest.raises(ValueError):
        bernstein_coefficients(MonomialTable([X1 ** 3]), [(1, 0), (0, 1)], 2)


# -- invariants -----------------------------------------------------------------------

def test_diagonal_identity_exact_rational():
    rng = np.random.default_rng(8)
    for _ in range(20):
        p = rand_poly(rng, max_degree=4)
        d = p.degree()
        hom = Polynomial(2, {m: c for m, c in p.terms.items() if sum(m) == d})
        if hom.is_zero():
            continue
        H = hom.to_tensor()
        x = (Fraction(rng.integers(-5, 6), 7), Fraction(rng.integers(-5, 6), 9))
        assert H.eval([x] * d) == hom.evaluate(x)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(-8, 8), min_size=3, max_size=3),
       st.permutations(range(3)))
def test_permutation_invariance(coeff_seed, perm):
    p = Polynomial(2, {(3, 0): coeff_seed[0], (2, 1): coeff_seed[1],
                       (0, 3): coeff_seed[2]})
    if p.is_zero():
        return
    H = p.to_tensor()
    pts = [(1.0, 0.5), (-0.25, 2.0), (0.75, -1.5)]
    base = H.eval(pts)
    assert abs(H.eval([pts[i] for i in perm]) - base) < 1e-12


def test_multilinearity_in_each_slot():
    rng = np.random.default_rng(9)
    H = (X1 ** 3 + X1 * X2 ** 2).to_tensor()
    for slot in range(3):
        u, v, a, b = rng.uniform(-1, 1, size=(4, 2)), rng.uniform(-1, 1, size=(4, 2)), 0.7, -1.3
        pts = list(rng.uniform(-1, 1, size=(3, 2)))
        pa, pb = list(pts), list(pts)
        pmix = list(pts)
        ua, va = rng.uniform(-1, 1, size=2), rng.uniform(-1, 1, size=2)
        pa[slot], pb[slot], pmix[slot] = ua, va, a * ua + b * va
        lhs = H.eval(pmix)
        rhs = a * H.eval(pa) + b * H.eval(pb)
        assert abs(lhs - rhs) < 1e-12


# -- text grammar -----------------------------------------------------------------------

def test_parse_format_roundtrip():
    text = "29/10*x1^2 + 1*x1*x2 + 1*x2^2"
    p = parse_polynomial(text, 2)
    assert format_polynomial(p) == text
    assert p.coefficient((2, 0)) == Fraction(29, 10)


def test_parse_decimal_and_rational():
    p = parse_polynomial("2.9*x1^2 - 3/4*x2 + 0.5", 2)
    assert p.coefficient((2, 0)) == Fraction(29, 10)
    assert p.coefficient((0, 1)) == Fraction(-3, 4)
    assert p.coefficient((0, 0)) == Fraction(1, 2)


def test_parse_bare_and_signed_terms():
    p = parse_polynomial("-x1 - 2*x2", 2)
    assert p == -X1 - 2 * X2


def test_parse_zero():
    assert parse_polynomial("0", 3).is_zero()


def test_parse_errors_carry_column():
    with pytest.raises(PolynomialParseError) as err:
        parse_polynomial("x1 + x7", 2)
    assert "x7" in str(err.value) and "column" in str(err.value)
    with pytest.raises(PolynomialParseError):
        parse_polynomial("x1 +", 2)
    with pytest.raises(PolynomialParseError):
        parse_polynomial("x1^y", 2)
    with pytest.raises(PolynomialParseError,
                       match=r"zero denominator \(column 6\)"):
        parse_polynomial("x1 + 3/0*x2", 2)


def test_long_input_parses_like_the_term_by_term_sum():
    """400 signed terms with repeated monomials, against the sum of the
    terms parsed one at a time."""
    rng = np.random.default_rng(92)
    basis = monomials_up_to_degree(3, 5)
    parts, reference = [], Polynomial.zero(3)
    for k in range(400):
        mono = basis[int(rng.integers(len(basis)))]
        coeff = (f"{int(rng.integers(1, 50))}/{int(rng.integers(1, 50))}"
                 if k % 2 else f"{rng.uniform(0.01, 9):.4f}")
        body = "*".join([coeff] + [f"x{j + 1}^{e}" for j, e in enumerate(mono)
                                   if e])
        sign = "-" if rng.integers(2) else "+"
        parts.append(f"{sign} {body}")
        term = parse_polynomial(body, 3)
        reference = reference + (-term if sign == "-" else term)
    text = " ".join(parts)
    assert len(reference.terms) >= 40
    assert parse_polynomial(text, 3) == reference
    assert parse_polynomial(text.removeprefix("+ "), 3) == reference


def test_format_float_coefficients_roundtrip():
    value = 0.1234567891234567
    p = Polynomial(2, {(1, 0): Fraction(value)})
    again = parse_polynomial(format_polynomial(p), 2)
    assert float(again.coefficient((1, 0))) == value


def test_grlex_order_is_degree_then_descending():
    basis = monomials_of_degree(2, 2)
    assert basis == [(2, 0), (1, 1), (0, 2)]
    mixed = monomials_up_to_degree(2, 2)
    assert mixed == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]


# -- the one-pass layout and the integer reader, against what they replaced --

SPECS = Path(__file__).resolve().parents[1] / "specs"
WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name
    sys.modules.setdefault(spec.name, module)
    spec.loader.exec_module(sys.modules[spec.name])
    return sys.modules[spec.name]


@pytest.fixture(scope="module")
def cli_inputs(tmp_path_factory):
    """Every polynomial list a MonomialTable is built from and every text
    the CLI parses, over find and verify on the bundled specs and on the
    sos-sdp benchmark's systems, and verify of the candidates its negative
    controls scale from each certificate."""
    workloads = _workloads()
    root = tmp_path_factory.mktemp("cli-inputs")
    tables, texts = [], []
    init, parse = MonomialTable.__init__, cli.parse_polynomial

    def recording_init(self, polys):
        tables.append(list(polys))
        init(self, polys)

    def recording_parse(text, dimension):
        texts.append((text, dimension))
        return parse(text, dimension)

    specs = sorted(SPECS.glob("*.spec"))
    for d in (2, 4, 6):
        path = root / f"cusp{d}.spec"
        path.write_text(workloads.set_spec(workloads.CUSP_F, workloads.CUSP_G,
                                           workloads.CUSP_BOX))
        specs.append(path)
    for d in (4, 6):
        path = root / f"ball{d}.spec"
        path.write_text(workloads.set_spec(workloads.BALL_F, workloads.BALL_G,
                                           workloads.BALL_BOX))
        specs.append(path)
    rng = np.random.default_rng(32)
    MonomialTable.__init__, cli.parse_polynomial = recording_init, \
        recording_parse
    try:
        for spec in specs:
            out = root / spec.stem
            conic = "cone1:" in spec.read_text()
            find = "find-lyap-cone" if conic else "find-lyap-sos"
            samples = [] if conic else ["--samples", "500"]
            degree = spec.stem[-1]
            degree = ["--deg", degree] if degree.isdigit() else []
            assert main([find, str(spec), "--out", str(out)] + degree
                        + samples) == 0
            cert = out / "certificate.txt"
            main(["verify", str(spec), "--out", str(out / "v"),
                  "--certificate", str(cert)] + samples)
            lines = dict(ln.split(": ", 1) for ln in
                         cert.read_text().splitlines())
            r = ["--r", lines["r"]] if conic else []
            factor = -Fraction(int(rng.integers(50, 200)), 100)
            candidate = workloads.scaled(lines["h" if conic else "V"], factor)
            main(["verify", str(spec), "--out", str(out / "n"),
                  "--candidate=" + candidate] + r + samples)
    finally:
        MonomialTable.__init__, cli.parse_polynomial = init, parse
    return tables, texts


def _outcome(reader, text, dimension):
    """The terms in insertion order, or the error's message and column."""
    try:
        return list(reader(text, dimension).terms.items())
    except PolynomialParseError as exc:
        return str(exc), exc.column


def test_layout_matches_the_parent_walk_on_the_cli_tables(cli_inputs):
    tables, _ = cli_inputs
    assert len(tables) > 50
    for polys in tables:
        table = MonomialTable(polys)
        _, steps, coefs, degrees = layout_by_parents(
            polys, polys[0].dimension if polys else 0)
        assert table._steps == steps
        assert np.array_equal(table._coefs, coefs)
        assert table.degrees == degrees


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_layout_matches_the_parent_walk_on_seeded_supports(n):
    rng = np.random.default_rng(320 + n)
    for _ in range(60):
        degree = int(rng.integers(0, 9 - n))
        monos = monomials_up_to_degree(n, degree)
        polys = []
        for _ in range(int(rng.integers(0, 5))):
            size = int(rng.integers(0, min(len(monos), 15) + 1))
            chosen = rng.choice(len(monos), size=size, replace=False)
            polys.append(Polynomial(n, {
                monos[i]: Fraction(int(rng.integers(-99, 100)),
                                   int(rng.integers(1, 50)))
                for i in chosen}))
        table = MonomialTable(polys)
        _, steps, coefs, degrees = layout_by_parents(polys, n if polys else 0)
        assert table._steps == steps
        assert np.array_equal(table._coefs, coefs)
        assert table.degrees == degrees


def test_reader_matches_the_fraction_reader_on_the_cli_texts(cli_inputs):
    _, texts = cli_inputs
    assert len(texts) > 50
    assert any("/" in text and "." in text for text, _ in texts)
    for text, dimension in texts:
        got = _outcome(parse_polynomial, text, dimension)
        assert isinstance(got, list)
        assert got == _outcome(parse_polynomial_by_fractions, text,
                               dimension)


READER_CASES = [
    "2.9*x1^2 + 1*x1*x2 + 1*x2^2", ".5*x1", "5.*x2", "5.", ".5", "0", "-0",
    "0.0", "00", "1e3*x1", "2.5E-2*x2^3", "1e+0", "007.50e-02*x2", "1e400",
    "1e-400*x1", "-1e308*x1 - 1e308*x1", "3/4*x1 - 3/4*x1",
    "x1 + x1 + 2*x1", "-13/10*3.927116238461552*x1^2 + 13/10*1.3e-14*x1*x2",
    "2*3*x1*x2*x1", "2x1", "x1 x2", "x1^0", "x1^02", "x1**x2", "x1 ^ 2",
    "", "   ", "x1 $", "x1  $x2", "*x1", "x1^", "x1^-2", "x1^2.5", "x1^1e2",
    "x1^x2", "2^3", "^2", "x1 +", "-", " - ", "+ + x1", "x1 - - x2", "3/0",
    "3/0*x1 + x7", "x0", "x3", "x12", "1/", "1e", "x", "e5", "1.2.3",
    "-x1 - 2*x2", "+x1", "9" * 330 + "*x1", "1e9999", "1e-9999*x1",
    "2.5e-09999*x1", "0." + "0" * 4298 + "1*x1",
]


@pytest.mark.parametrize("dimension", [1, 2, 3])
def test_reader_matches_the_fraction_reader_on_fixed_cases(dimension):
    for text in READER_CASES:
        assert _outcome(parse_polynomial, text, dimension) == \
            _outcome(parse_polynomial_by_fractions, text, dimension), text


def _seeded_text(rng, n):
    """A polynomial text with repeated monomials and every coefficient
    form: integers, decimals with and without digits on either side of
    the point, exponents, p/q and products of these."""
    forms = [lambda: str(int(rng.integers(0, 1000))),
             lambda: f"{rng.uniform(0, 99):.{int(rng.integers(0, 6))}f}",
             lambda: f".{int(rng.integers(0, 10**4))}",
             lambda: f"{int(rng.integers(0, 99))}.",
             lambda: repr(abs(rng.normal())
                          * 10.0 ** int(rng.integers(-20, 20))),
             lambda: f"{int(rng.integers(1, 99))}"
                     f"{'eE'[int(rng.integers(2))]}"
                     f"{['', '+', '-'][int(rng.integers(3))]}"
                     f"{int(rng.integers(0, 30))}",
             lambda: f"{int(rng.integers(0, 99))}/{int(rng.integers(1, 99))}"]
    monos = monomials_up_to_degree(n, 4)
    parts = []
    for _ in range(int(rng.integers(1, 12))):
        factors = [forms[int(i)]() for i in
                   rng.integers(len(forms), size=int(rng.integers(0, 3)))]
        mono = monos[int(rng.integers(len(monos)))]
        factors += [f"x{j + 1}" if e == 1 else f"x{j + 1}^{e}"
                    for j, e in enumerate(mono) if e]
        parts.append("*".join(factors) or "1")
        parts.append(" + " if rng.integers(2) else " - ")
    return ("-" if rng.integers(2) else "") + "".join(parts[:-1])


def test_reader_matches_the_fraction_reader_on_seeded_and_broken_texts():
    """Seeded texts, and each with up to three random characters inserted,
    replaced or deleted, so that every error path is reached."""
    rng = np.random.default_rng(3232)
    alphabet = " +-*^/.eEx0123456789$"
    errors = set()
    for _ in range(1500):
        n = int(rng.integers(1, 4))
        text = _seeded_text(rng, n)
        assert isinstance(_outcome(parse_polynomial, text, n), list)
        broken = list(text)
        for _ in range(int(rng.integers(1, 4))):
            at = int(rng.integers(len(broken) + 1))
            edit = int(rng.integers(3))
            char = alphabet[int(rng.integers(len(alphabet)))]
            if edit == 0 or not broken:
                broken.insert(at, char)
            elif edit == 1:
                broken[min(at, len(broken) - 1)] = char
            else:
                del broken[min(at, len(broken) - 1)]
        broken = "".join(broken)
        if re.search(r"[eE][+-]?\d{5}", broken):
            # a decimal exponent of 10^5 or more: the Fraction reader forms
            # 10^e, and this one refuses an exponent beyond +-9999
            continue
        for case in (text, broken):
            got = _outcome(parse_polynomial, case, n)
            assert got == _outcome(parse_polynomial_by_fractions, case, n), \
                case
            if not isinstance(got, list):
                errors.add(got[0].rsplit(" (column", 1)[0].split(" ")[0])
    assert len(errors) >= 8
