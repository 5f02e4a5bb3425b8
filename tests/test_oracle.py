import bisect
import importlib.util
import itertools
import sys
from fractions import Fraction
from math import comb
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import nnls

from lyapcert.cli import parse_spec
from lyapcert.cones import PolyhedralCone
from lyapcert.cop_lp import ConicSystem, RationalLyapunovCandidate
from lyapcert import cop_lp, oracle
from lyapcert.oracle import (BAND_WIDTH, PASS_TOL, _band_points,
                             _rejection_sample, _resolution, _row_patterns,
                             barycentric_grid, verify_conic, verify_sos)
from lyapcert.cones import Simplex, section_table
from lyapcert.cop_lp import decrease_polynomials, run_hierarchy
from lyapcert.errors import InputError
from lyapcert.poly import Polynomial, parse_polynomial
from lyapcert.sos_cert import SemialgebraicSystem
from lyapcert.tangency import SemialgebraicSet, eta_projection
from reference import (band_points_per_point, barycentric_grid_by_steps,
                       candidate_gradient, eval_many_broadcast,
                       evaluate_float_terms, fd_gradient_check, field_at,
                       rejection_sample_per_row, resolution_by_steps,
                       verify_conic_by_s0)

WEDGE = PolyhedralCone([[-0.25, 1.0], [1.0, -0.25]])
WEDGE_FIELD = [parse_polynomial("-1*x1 - 2*x2", 2),
               parse_polynomial("-1*x1 - 1*x2", 2)]
PRINTED_V = parse_polynomial("2.9*x1^2 + 1*x1*x2 + 1*x2^2", 2)


def wedge_system():
    return ConicSystem(WEDGE_FIELD, WEDGE)


def cusp_system():
    S = SemialgebraicSet(
        [parse_polynomial("x1 - x2^2", 2), parse_polynomial("1 - x1", 2)],
        [(-0.5, 1.5), (-1.5, 1.5)])
    return SemialgebraicSystem(
        [parse_polynomial("-1*x1^2", 2), Polynomial.zero(2)], S)


def ball_set():
    return SemialgebraicSet([parse_polynomial("1 - x1^2 - x2^2 - x3^2", 3)],
                            [(-1.0, 1.0)] * 3)


# -- conic verification ----------------------------------------------------------

def test_printed_candidate_passes():
    candidate = RationalLyapunovCandidate(PRINTED_V, 0)
    report = verify_conic(candidate, wedge_system())
    assert report.passed
    assert all(c.min_value > 0 for c in report.checks)


def test_spot_value_at_outer_ray():
    x = np.array([4.0, 1.0])
    fx = np.array([evaluate_float_terms(p, x) for p in WEDGE_FIELD])
    eta = eta_projection(fx, [WEDGE.C[0]])
    grad = np.array([evaluate_float_terms(g, x) for g in PRINTED_V.gradient()])
    assert np.allclose(grad, [24.2, 6.0])
    assert np.allclose(fx + eta, [-6.8235294117647065, -1.7058823529411766])
    assert abs(grad @ (fx + eta) - (-175.36470588235292)) <= 1e-9


def test_negative_pattern_fails_with_witness():
    system = ConicSystem([parse_polynomial("-1*x1", 2),
                          parse_polynomial("-1*x2", 2)],
                         PolyhedralCone(np.eye(2)))
    candidate = RationalLyapunovCandidate(parse_polynomial("-1*x1^2", 2), 0)
    report = verify_conic(candidate, system)
    assert not report.passed
    worst = report.worst()
    assert worst.min_value < 0
    # witness re-evaluates to the claimed violation
    h_check = next(c for c in report.checks if c.name == "h-on-sections")
    value = evaluate_float_terms(candidate.h, np.array(h_check.witness))
    assert abs(value - h_check.min_value) <= 1e-12


def test_grid_min_respects_lp_margin():
    from lyapcert.cop_lp import run_hierarchy
    outcome = run_hierarchy(wedge_system(), [(2, 0, 6)])
    cert = outcome.certificate
    report = verify_conic(cert.candidate, wedge_system())
    h_min = next(c for c in report.checks if c.name == "h-on-sections")
    assert h_min.min_value >= cert.margin - 1e-6


def face_decrease_reference(x, system, h, r, activation_tol=1e-8):
    """The face check one point at a time: field, active rows, NNLS eta."""
    fx = field_at(system, x)
    rows = system.cone.C
    scaled = np.abs(rows @ x) / np.linalg.norm(rows, axis=1)
    active = rows[scaled <= activation_tol]
    eta = np.zeros_like(fx)
    if len(active):
        lam, _ = nnls(active.T, -fx)
        eta = lam @ active
    gh = np.array([evaluate_float_terms(g, x) for g in h.gradient()])
    lhs = float(x @ x) * gh - 2.0 * r * evaluate_float_terms(h, x) * x
    return float(-(lhs @ (fx + eta))), len(active)


SQ3D_SPEC = Path(__file__).resolve().parents[1] / "specs" / "sq3d.spec"
CUSP_BOX_SPEC = SQ3D_SPEC.with_name("cusp_box.spec")


@pytest.mark.parametrize("case", ["wedge", "sq3d"])
def test_face_samples_match_the_per_point_reference(case):
    if case == "wedge":
        system, h, r = wedge_system(), PRINTED_V, 0
    else:
        system = parse_spec(str(SQ3D_SPEC)).system
        h = parse_polynomial(
            "3*x1^4 + 2*x2^4 + 1*x3^4 + 1*x1*x2*x3^2 - 0.5*x1^3*x3", 3)
        r = 1
    report = verify_conic(RationalLyapunovCandidate(h, r), system,
                          grid_density=2000, collect_samples=True)
    rows = [(x, v) for x, name, v in report.sample_rows
            if name.startswith("face")]
    assert rows
    corners = 0
    for x, value in rows:
        ref, active = face_decrease_reference(np.array(x), system, h, r)
        assert active >= 1
        corners += active >= 2
        assert abs(value - ref) <= 1e-12 * max(1.0, abs(ref))
    # the square cone's face grids reach its edges, where two rows are active
    assert corners > 0 if case == "sq3d" else corners == 0


@pytest.mark.parametrize("seed", range(3))
def test_row_patterns_group_like_the_row_sort(seed):
    rng = np.random.default_rng(seed)
    # 70 columns: past the width of the integer codes, rows sorted whole
    for k in (1, 2, 4, 7, 70):
        mask = rng.random((500, k)) < rng.uniform(0.05, 0.6)
        patterns, which = _row_patterns(mask)
        want_patterns, want_which = np.unique(mask, axis=0,
                                              return_inverse=True)
        want_which = want_which.ravel()
        assert len(patterns) == len(want_patterns)
        assert np.array_equal(patterns[which], mask)
        # the same partition of the rows, whatever the order of the groups
        groups = {tuple(np.flatnonzero(which == g))
                  for g in range(len(patterns))}
        want = {tuple(np.flatnonzero(want_which == g))
                for g in range(len(want_patterns))}
        assert groups == want


REFINE1_FIELD = ["-1.5*x1 + 2.5*x2", "-1.5*x1 - 1.2*x2 - 0.8*x3",
                 "0.2*x1 - 0.3*x2"]


def test_conic_sample_counts_on_refine1():
    """The refine1 field of the benchmark on the square cone certifies at
    d=2, r=0 after one sweep; its check covers every grid point."""
    cone = parse_spec(str(SQ3D_SPEC)).system.cone
    system = ConicSystem([parse_polynomial(t, 3) for t in REFINE1_FIELD],
                         cone)
    cert = run_hierarchy(system, [(2, 0, 4)]).certificate
    assert cert.sweeps_used == 1
    report = verify_conic(cert.candidate, system)
    assert report.passed
    assert {c.name: c.samples for c in report.checks} == {
        "h-on-sections": 78_960, "s0-on-sections": 78_960,
        "face-decrease": 8_000}


def test_barycentric_grid_density_and_membership():
    simplex = Simplex.from_rows(np.eye(3))
    pts = barycentric_grid(simplex, 10_000)
    assert 5_000 <= len(pts) <= 10_000
    assert np.allclose(pts.sum(axis=1), 1.0)
    assert pts.min() >= 0.0


@pytest.mark.parametrize("k, density", [(3, 1000), (4, 1000), (5, 300)])
def test_barycentric_grid_points_in_lexicographic_order(k, density):
    """The weights c/resolution over the compositions c of the largest
    resolution that fits the density, in lexicographic order, for every
    simplex of k vertices (the lattice is built once and shared)."""
    resolution = max(t for t in range(1, density)
                     if comb(t + k - 1, k - 1) <= density)
    compositions = sorted(c for c in itertools.product(range(resolution + 1),
                                                       repeat=k)
                          if sum(c) == resolution)
    weights = np.array(compositions, dtype=float) / resolution
    rng = np.random.default_rng(k)
    for _ in range(2):
        simplex = Simplex.from_rows(rng.standard_normal((k, k)))
        assert np.array_equal(barycentric_grid(simplex, density),
                              weights @ simplex.vertex_array())


@pytest.mark.parametrize("k", [2, 3, 4])
def test_resolution_search_matches_the_step_by_step_one(k):
    """The resolution is the step-by-step search's for every density from
    1 to 10^6.  That search gives 1 plus the number of t >= 2 whose
    lattice, comb(t + k - 1, k - 1) points, fits the density, which is
    read off the sorted counts; the search itself is run on every density
    up to 300 and on 30 more drawn up to 10^6 (2 * 10^4 for k = 2, where
    it takes one step per point)."""
    counts = []
    t = 2
    while comb(t + k - 1, k - 1) <= 10**6:
        counts.append(comb(t + k - 1, k - 1))
        t += 1
    rng = np.random.default_rng(k)
    for density in [*range(1, 301),
                    *rng.integers(301, 10**6 if k > 2 else 20_000, 30)]:
        assert resolution_by_steps(k, int(density)) == \
            1 + bisect.bisect_right(counts, density)
    got = [_resolution(k, density) for density in range(1, 10**6 + 1)]
    want = np.searchsorted(counts, np.arange(1, 10**6 + 1), side="right") + 1
    assert got == want.tolist()


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_barycentric_grid_matches_the_step_by_step_one(k):
    rng = np.random.default_rng(30 + k)
    simplex = Simplex.from_rows(rng.standard_normal((k, max(k, 2))))
    for density in (1, 2, 3, 10, 99, 100, 1000, 10_000, 123_457):
        assert np.array_equal(barycentric_grid(simplex, density),
                              barycentric_grid_by_steps(simplex, density))


def test_resolution_search_makes_few_comb_calls(monkeypatch):
    calls = []
    monkeypatch.setattr(oracle, "comb",
                        lambda *args: calls.append(args) or comb(*args))
    for k in (2, 3, 4, 5):
        for density in (1, 100, 10_000, 10**6):
            calls.clear()
            _resolution(k, density)
            assert len(calls) <= k + 1


# -- the cone oracle against the one that evaluated s0 -------------------------

BENCHMARK_WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" \
    / "workloads.py"


def _benchmark_cone_specs():
    """(name, spec text, (deg, r, sweeps), negative-control factor) of each
    cone session of the benchmark at seeds 1-3."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  BENCHMARK_WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    # dataclasses look up the module of a class while they build it
    sys.modules[spec.name] = workloads
    try:
        spec.loader.exec_module(workloads)
    finally:
        del sys.modules[spec.name]
    out = []
    for seed in (1, 2, 3):
        for name in ("cone-refine", "lp-solve"):
            for session in workloads.build(name, seed):
                if "C" not in session.system:
                    continue
                argv = session.commands[0].argv
                level = tuple(int(argv[argv.index(flag) + 1])
                              for flag in ("--deg", "--r", "--sweeps"))
                factors = [Fraction(c.factor) for c in session.commands
                           if c.factor is not None]
                out.append((f"{session.name}-seed{seed}", session.spec_text,
                            level, factors[0] if factors else Fraction(-1)))
    return out


ROTATION = "dim: 2\nf1: 1*x2\nf2: -1*x1\n"
SQUARE_CONE_ROWS = "cone1: 1*x1 + 0.5*x3\ncone2: -1*x1 + 0.5*x3\n" \
    "cone3: 1*x2 + 0.5*x3\ncone4: -1*x2 + 0.5*x3\n"
# the cone specs of the tests: (name, text, level); a level of None has no
# certificate, and |x|^2 stands in for one
TEST_CONE_SPECS = [
    ("refine1", "dim: 3\n" + "".join(
        f"f{i}: {t}\n" for i, t in enumerate(REFINE1_FIELD, start=1))
     + SQUARE_CONE_ROWS, (2, 0, 4)),
    ("square", "dim: 3\nf1: -1*x1 + 2*x2\nf2: -2*x1 - 1*x2\n"
     "f3: -0.5*x3\n" + SQUARE_CONE_ROWS, (2, 0, 4)),
    ("rotation-plane", ROTATION + "cone:\n", None),
    ("rotation-quadrant", ROTATION + "cone1: 1*x1\ncone2: 1*x2\n", None),
    ("orthant-line", "dim: 3\nf1: -1*x1\nf2: -1*x2\nf3: 0\n"
     "cone1: 1*x1\ncone2: 1*x2\ncone3: 1*x3\n", None),
    ("source-quadrant", "dim: 2\nf1: x1\nf2: x2\ncone1: 1*x1\n"
     "cone2: 1*x2\n", None),
]


def _conic_cases(tmp_dir):
    """(name, system, candidate) for every cone spec: the bundled ones,
    the tests', the benchmark's at seeds 1-3, each with its certificate
    and a negative control (the certificate's h times a negative factor)."""
    specs = [(p.stem, p.read_text(), None) for p in sorted(
        SQ3D_SPEC.parent.glob("*.spec"))
        if isinstance(parse_spec(p).system, ConicSystem)]
    specs += [(name, text, level) for name, text, level in TEST_CONE_SPECS]
    factors = {}
    for name, text, level, factor in _benchmark_cone_specs():
        specs.append((name, text, level))
        factors[name] = factor
    found = {}
    cases = []
    for name, text, level in specs:
        path = tmp_dir / f"{name}.spec"
        path.write_text(text)
        parsed = parse_spec(path)
        system = parsed.system
        levels = [level] if level else parsed.options.get("schedule")
        if levels is None:
            n = len(system.f)
            candidate = RationalLyapunovCandidate(
                Polynomial(n, {tuple(2 * (j == i) for j in range(n)): 1
                               for i in range(n)}), 0)
        else:
            key = (text, tuple(levels))
            if key not in found:
                found[key] = run_hierarchy(system, levels).certificate
            candidate = found[key].candidate
        factor = factors.get(name, Fraction(-3, 4))
        cases.append((name, system, candidate))
        cases.append((f"{name}-negative", system, RationalLyapunovCandidate(
            candidate.h.scale(factor), candidate.r)))
    return cases


@pytest.fixture(scope="module")
def conic_cases(tmp_path_factory):
    return _conic_cases(tmp_path_factory.mktemp("cone-specs"))


def test_conic_oracle_agrees_with_the_s0_oracle(conic_cases):
    """Names, sample counts and verdicts are equal, and so are the h and
    face-decrease minima and witnesses.  The section decrease is summed
    point by point, where the s0 oracle sums the terms of s0, so its
    minimum agrees within 1e-13 relative, and within the rounding bound
    where s0 is the zero polynomial (a rotation).  Where its witness
    differs, the minimum is a tie: the s0 oracle's value at the new
    witness is its minimum within the same bound."""
    assert len(conic_cases) == 2 * (2 + len(TEST_CONE_SPECS) + 12)
    verdicts = set()
    for name, system, candidate in conic_cases:
        got = verify_conic(candidate, system)
        want = verify_conic_by_s0(candidate, system)
        assert got.passed == want.passed, name
        assert [(c.name, c.samples, c.strict) for c in got.checks] \
            == [(c.name, c.samples, c.strict) for c in want.checks], name
        for g, w in zip(got.checks, want.checks):
            assert g.passes(PASS_TOL) == w.passes(PASS_TOL), (name, g.name)
            if g.name != "s0-on-sections":
                assert (g.min_value, g.witness) == (w.min_value, w.witness)
                continue
            h, r = candidate.h, candidate.r
            tol = 1e-13 * abs(w.min_value) + float(_decrease_rounding_bound(
                h, r, system.f, [Fraction(v) for v in g.witness]))
            assert abs(g.min_value - w.min_value) <= tol, name
            if g.witness != w.witness:
                s0, = decrease_polynomials([h], r, system.f)
                value = s0.evaluate([Fraction(v) for v in g.witness])
                assert abs(float(value) - w.min_value) <= tol, name
        assert got.notes == want.notes
        verdicts.add(got.passed)
    assert verdicts == {True, False}


def test_conic_oracle_runs_without_the_lp_decrease(conic_cases, monkeypatch):
    def unavailable(*args, **kwargs):
        raise AssertionError("the oracle called cop_lp.decrease_polynomials")
    monkeypatch.setattr(cop_lp, "decrease_polynomials", unavailable)
    assert not hasattr(oracle, "decrease_polynomials")
    for name, system, candidate in conic_cases[:4]:
        assert verify_conic(candidate, system, grid_density=500).checks


def test_conic_oracle_takes_one_grid_per_section(monkeypatch):
    """barycentric_grid is called through the module once for each cone
    section and each face section (the benchmark's tracer counts its
    points), and the table once per cone section and once for all
    faces."""
    system = parse_spec(str(SQ3D_SPEC)).system
    grids, tables = [], []
    grid = oracle.barycentric_grid
    monkeypatch.setattr(oracle, "barycentric_grid", lambda *args: grids.append(
        args) or grid(*args))
    table = oracle.MonomialTable.__call__
    monkeypatch.setattr(oracle.MonomialTable, "__call__",
                        lambda self, pts: tables.append(len(pts))
                        or table(self, pts))
    h = parse_polynomial("x1^2 + x2^2 + x3^2", 3)
    report = verify_conic(RationalLyapunovCandidate(h, 0), system)
    cells = [len(cells) for cells in section_table(system.cone).values()]
    assert len(grids) == sum(cells)
    assert len(tables) == cells[0] + 1
    assert sum(c.samples for c in report.checks) == 2 * sum(tables[:-1]) \
        + tables[-1]


@pytest.mark.parametrize("values", [
    [3.0, 1.0, 2.0, 1.0, 5.0, 1.0],
    [3.0, 1.0, 2.0, np.nan, 0.5, np.nan],
    [np.nan, 1.0, 2.0, 0.5, 0.0, -0.0],
    [np.inf] * 6,
], ids=["ties", "later-nan", "first-nan", "inf"])
def test_grids_added_in_turn_give_one_argmin_over_all(values):
    # the merge of per-section minima passed over a NaN after a number
    values = np.array(values)
    points = np.arange(12.0).reshape(6, 2)
    whole = oracle._min_with_witness("c", values, points, strict=True)
    first = int(np.argmin(values))
    assert whole.witness == tuple(points[first])
    for cuts in ([2, 4], [1, 3, 5], [5]):
        check = oracle.CheckResult("c", np.inf, None, 0, strict=True)
        for part, grid in zip(np.split(values, cuts), np.split(points, cuts)):
            assert check.add_grid(part, grid) is check
        assert (repr(check.min_value), check.witness, check.samples) == \
            (repr(float(values[first])), whole.witness, 6)


def _decrease_rounding_bound(h, r, f, x) -> Fraction:
    """gamma_K times the decrease formula evaluated with the absolute
    values of every coefficient and coordinate: K counts the roundings of
    the longest table value (degree + terms + 1, as in test_poly) and of
    the formula (n each for |x|^2 and the two inner products, and four
    products and a difference)."""
    def absolute(p):
        return Polynomial(p.dimension, {m: abs(c) for m, c in p.terms.items()})
    ax = [abs(v) for v in x]
    n = len(x)
    polys = [*f, *h.gradient(), h]
    k = max(p.degree() + len(p.terms) + 1 for p in polys if p.terms)
    k += 3 * n + 5
    nrm2 = sum(v * v for v in ax)
    fv = [absolute(p).evaluate(ax) for p in f]
    gv = [absolute(p).evaluate(ax) for p in h.gradient()]
    scale = nrm2 * sum(a * b for a, b in zip(gv, fv)) \
        + 2 * r * absolute(h).evaluate(ax) * sum(a * b for a, b in zip(ax, fv))
    return Fraction(k, 2**53 - k) * scale


@pytest.mark.parametrize("case", ["refine1", "sq3d"])
def test_section_decrease_matches_exact_s0(case):
    """The pointwise decrease at sampled grid points is within a rounding
    bound of the exact rational value of cop_lp's s0 there."""
    if case == "refine1":
        cone = parse_spec(str(SQ3D_SPEC)).system.cone
        system = ConicSystem([parse_polynomial(t, 3) for t in REFINE1_FIELD],
                             cone)
        level = (2, 0, 4)
    else:
        system = parse_spec(str(SQ3D_SPEC)).system
        level = (4, 1, 0)
    candidate = run_hierarchy(system, [level]).certificate.candidate
    h, r = candidate.h, candidate.r
    s0, = decrease_polynomials([h], r, system.f)
    report = verify_conic(candidate, system, grid_density=2000,
                          collect_samples=True)
    rows = [(x, v) for x, name, v in report.sample_rows
            if name.startswith("s0:")]
    rng = np.random.default_rng(7)
    for k in rng.choice(len(rows), 150, replace=False):
        x, value = rows[k]
        exact_x = [Fraction(v) for v in x]
        exact = s0.evaluate(exact_x)
        assert abs(Fraction(value) - exact) <= \
            _decrease_rounding_bound(h, r, system.f, exact_x), x


def test_rotation_decrease_is_exactly_zero(tmp_path):
    """<grad h, f> cancels exactly for |x|^2 along a rotation, and the
    value is 0.0, not -0.0."""
    spec = tmp_path / "rotation.spec"
    spec.write_text(ROTATION + "cone:\n")
    system = parse_spec(spec).system
    report = verify_conic(RationalLyapunovCandidate(
        parse_polynomial("x1^2 + x2^2", 2), 0), system, collect_samples=True)
    values = [v for _, name, v in report.sample_rows if name.startswith("s0")]
    assert values and all(v == 0.0 for v in values)
    assert all(np.copysign(1.0, v) == 1.0 for v in values)


# -- sos verification -------------------------------------------------------------

def test_cusp_candidate_passes():
    report = verify_sos(parse_polynomial("x1^2 + x2^2", 2), cusp_system())
    assert report.passed
    names = {c.name for c in report.checks}
    assert "decrease-strict" in names
    assert "alignment-g1" in names and "alignment-g2" in names


def test_sos_report_says_the_strict_decrease_is_sampled():
    # a passing decrease-strict check saw no sample with -<grad V, f> <= 0;
    # a zero set of measure zero is never sampled, so it proves nothing
    text = verify_sos(parse_polynomial("x1^2 + x2^2", 2), cusp_system(),
                      samples=200).to_text()
    assert "note: decrease-strict is checked on samples only; a sampled " \
        "check is not a proof of strict decrease\n" in text


def test_sos_oracle_differentiates_only_the_candidate(monkeypatch):
    """The generators' gradients come from the set, built once."""
    system = cusp_system()
    calls = []
    gradient = Polynomial.gradient
    monkeypatch.setattr(Polynomial, "gradient",
                        lambda self: calls.append(self) or gradient(self))
    verify_sos(parse_polynomial("x1^2 + x2^2", 2), system, samples=200)
    assert len(calls) == 1


def test_sos_oracle_lays_out_grad_v_once(monkeypatch):
    """One table holds grad V, f and every generator's gradient; the
    decrease and each alignment check read their blocks of it."""
    built = []

    class Recorded(oracle.MonomialTable):
        def __init__(self, polys):
            built.append(list(polys))
            super().__init__(polys)
    monkeypatch.setattr(oracle, "MonomialTable", Recorded)
    system = cusp_system()
    V = parse_polynomial("x1^2 + x2^2", 2)
    report = verify_sos(V, system, samples=500)
    grad_v = [g.terms for g in V.gradient()]
    with_grad_v = [polys for polys in built
                   if [p.terms for p in polys[:2]] == grad_v]
    assert len(with_grad_v) == 1
    assert [p.terms for p in with_grad_v[0][2:]] == [
        p.terms for p in [*system.f, *system.S.gradients[0],
                          *system.S.gradients[1]]]
    assert [c.name for c in report.checks] == [
        "V-positivity-shells", "decrease-strict", "alignment-g1",
        "alignment-g2"]


def test_alignment_identity_on_parabola_band():
    # on the band of g1, -<grad V, grad g1> = 2 x2^2 at x1 = x2^2 exactly
    report = verify_sos(parse_polynomial("x1^2 + x2^2", 2), cusp_system())
    g1 = next(c for c in report.checks if c.name == "alignment-g1")
    assert g1.min_value >= -1e-9


def test_negative_v_fails_positivity():
    report = verify_sos(parse_polynomial("-1*x1^2 - 1*x2^2", 2), cusp_system())
    assert not report.passed
    shell = next(c for c in report.checks if "positivity" in c.name.lower()
                 or c.name.startswith("V-"))
    assert shell.min_value < 0


def test_x1_squared_fails():
    report = verify_sos(parse_polynomial("x1^2", 2), cusp_system())
    assert not report.passed
    failing = [c for c in report.checks if not c.passes(PASS_TOL)]
    assert failing
    # the binding failure is the boundary alignment on the parabola face
    assert any(c.name == "alignment-g1" for c in failing)


def test_empty_sample_is_an_error():
    # the box misses the feasible half-line entirely
    S = SemialgebraicSet([parse_polynomial("x1", 1)], [(-5.0, -0.1)])
    system = SemialgebraicSystem([parse_polynomial("-1*x1", 1)], S)
    with pytest.raises(InputError, match="empty sample"):
        verify_sos(parse_polynomial("x1^2", 1), system, samples=100)


def test_reports_deterministic_for_fixed_seed():
    a = verify_sos(parse_polynomial("x1^2 + x2^2", 2), cusp_system(),
                   samples=2000, seed=7, collect_samples=True)
    b = verify_sos(parse_polynomial("x1^2 + x2^2", 2), cusp_system(),
                   samples=2000, seed=7, collect_samples=True)
    assert a.to_text() == b.to_text()
    assert a.sample_rows
    assert a.to_csv() == b.to_csv()


@pytest.mark.parametrize("make_set", [lambda: cusp_system().S, ball_set],
                         ids=["cusp_box", "ball"])
def test_band_points_match_the_per_point_reference(make_set):
    S = make_set()
    n = S.dimension
    rng = np.random.default_rng(91)
    lo, hi = np.array(S.box).T
    pts = rng.uniform(lo, hi, size=(3000, n))
    pts = pts[np.all([eval_many_broadcast(g, pts) >= 0
                      for g in S.generators], axis=0)]
    # on the ball: the origin (grad g = 0, dropped), a point that needs 53
    # Newton passes (dropped at the cap of 50) and one that needs 47 (kept)
    e1 = np.eye(n)[0]
    pts = np.vstack([np.zeros(n), 1e-15 * e1, 1e-13 * e1, pts])
    for index in range(len(S.generators)):
        got = _band_points(index, S, pts)
        want = band_points_per_point(index, S, pts, BAND_WIDTH)
        assert got.shape == want.shape
        assert len(got) > 0
        assert np.abs(got - want).max() <= 1e-12


@pytest.mark.parametrize("make_set, samples", [
    (lambda: cusp_system().S, 2000), (ball_set, 5000),
    # a disc of area 0.0126 in a box of area 4: 200 * samples draws find
    # about 0.63 * samples points, so the draw budget ends the loop
    (lambda: SemialgebraicSet([parse_polynomial("0.004 - x1^2 - x2^2", 2)],
                              [(-1.0, 1.0)] * 2), 300),
], ids=["cusp_box", "ball", "budget"])
def test_rejection_sample_matches_the_per_row_loop(make_set, samples):
    S = make_set()
    rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
    got = _rejection_sample(S, samples, rng)
    want = rejection_sample_per_row(S, samples, ref_rng)
    assert 0 < len(want) <= samples
    assert np.array_equal(got, want)
    # the same draws were spent, so the shells that follow see the same rng
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_sos_sample_counts_on_cusp_box():
    system = parse_spec(str(CUSP_BOX_SPEC)).system
    report = verify_sos(parse_polynomial("x1^2 + x2^2", 2), system,
                        samples=5000, collect_samples=True)
    assert {c.name: c.samples for c in report.checks} == {
        "V-positivity-shells": 3119, "decrease-strict": 5000,
        "alignment-g1": 5000, "alignment-g2": 5000}
    shells = {}
    for _, name, _ in report.sample_rows:
        shells[name] = shells.get(name, 0) + 1
    assert {k: v for k, v in shells.items() if k.startswith("V-shell")} == {
        "V-shell-0.01": 1263, "V-shell-0.1": 1153, "V-shell-1.0": 703}


def test_outer_shell_of_the_ball_keeps_every_direction():
    # a radius-1 shell is the unit ball's boundary, where g = 1 - |x|^2 is
    # zero up to rounding and about half the directions were dropped; the
    # outer shell now lies inside the set, so every shell keeps all
    # 4 * (5000 // 8) directions
    system = SemialgebraicSystem(
        [parse_polynomial(t, 3) for t in
         ("-1*x1 + 1*x2", "-1*x1 - 1*x2", "-1*x3")], ball_set())
    report = verify_sos(parse_polynomial("x1^2 + x2^2 + x3^2", 3), system,
                        samples=5000, collect_samples=True)
    shells = {}
    for _, name, _ in report.sample_rows:
        if name.startswith("V-shell"):
            shells[name] = shells.get(name, 0) + 1
    radii = sorted(float(name.removeprefix("V-shell-")) for name in shells)
    assert radii[:2] == [0.01, 0.1] and 0.85 < radii[2] < 0.9
    assert sorted(shells.values()) == [2500, 2500, 2500]


def test_band_points_drop_vanishing_gradients_and_slow_samples():
    S = ball_set()
    e1 = np.eye(3)[0]
    pts = np.array([np.zeros(3), 1e-15 * e1, 1e-13 * e1, 0.5 * e1])
    got = _band_points(0, S, pts)
    assert np.allclose(got, [e1, e1], atol=1e-6)


def test_verify_sos_evaluates_no_point_alone(monkeypatch):
    def per_point(self, point):
        raise AssertionError("per-point evaluation inside the sampling oracle")

    system = cusp_system()
    monkeypatch.setattr(Polynomial, "evaluate", per_point)
    report = verify_sos(parse_polynomial("x1^2 + x2^2", 2), system,
                        samples=2000)
    names = [c.name for c in report.checks]
    assert "alignment-g1" in names and "alignment-g2" in names
    assert all(c.samples > 0 for c in report.checks)


# -- gradient checks ----------------------------------------------------------------

def test_fd_gradient_exact_for_plain_quadratic():
    candidate = RationalLyapunovCandidate(parse_polynomial("x1^2 + x2^2", 2), 0)
    pts = np.array([[1.0, 0.5], [-0.7, 1.1], [2.0, -2.0]])
    assert fd_gradient_check(candidate, pts) <= 1e-9


def test_fd_gradient_rational_candidate():
    rng = np.random.default_rng(81)
    candidate = RationalLyapunovCandidate(parse_polynomial("x1^4 + x2^4", 2), 1)
    pts = rng.uniform(0.3, 3.0, size=(100, 2))
    assert fd_gradient_check(candidate, pts) <= 1e-6


def test_r_zero_matches_plain_gradient():
    h = parse_polynomial("2.9*x1^2 + 1*x1*x2 + 1*x2^2", 2)
    candidate = RationalLyapunovCandidate(h, 0)
    x = np.array([1.3, -0.4])
    plain = np.array([evaluate_float_terms(g, x) for g in h.gradient()])
    assert np.allclose(candidate_gradient(candidate, x), plain, atol=1e-14)


def test_fd_points_too_close_to_origin_rejected():
    candidate = RationalLyapunovCandidate(parse_polynomial("x1^2 + x2^2", 2), 1)
    with pytest.raises(ValueError):
        fd_gradient_check(candidate, np.array([[1e-5, 0.0]]))
