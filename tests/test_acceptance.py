"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
"""

import itertools
import time
from fractions import Fraction
from itertools import combinations
from math import factorial

import numpy as np

from lyapcert import linprog
from lyapcert.cli import main
from lyapcert.cones import PolyhedralCone
from lyapcert.cop_lp import (ConicSystem, RationalLyapunovCandidate,
                             run_hierarchy)
from lyapcert.flow import simulate
from lyapcert.oracle import barycentric_grid, verify_conic
from lyapcert.poly import (Polynomial, SymmetricTensor, monomials_of_degree,
                           parse_polynomial)
from lyapcert.sdpsolve import SemidefiniteProgram, solve_sdp
from lyapcert.sos_cert import (SemialgebraicSystem, assemble_condition_ii,
                               assemble_condition_iii, solve_certificate)
from lyapcert.tangency import SemialgebraicSet
from lyapcert.cones import Simplex
from reference import (equality_residual, eval_many_broadcast,
                       fd_gradient_check, gram_from_sos_terms, set_contains,
                       set_values, worst_gram_eigenvalue, worst_residual)

CONE_SPEC = """\
dim: 2
f1: -1*x1 - 2*x2
f2: -1*x1 - 1*x2
cone1: -0.25*x1 + 1*x2
cone2: 1*x1 - 0.25*x2
"""

CUSP_SPEC = """\
dim: 2
f1: -1*x1^2
f2: 0
g1: x1 - x2^2
g2: 1 - x1
box1: -0.5 1.5
box2: -1.5 1.5
"""

WEDGE = PolyhedralCone([[-0.25, 1.0], [1.0, -0.25]])
WEDGE_FIELD = [parse_polynomial("-1*x1 - 2*x2", 2),
               parse_polynomial("-1*x1 - 1*x2", 2)]
PRINTED_V = parse_polynomial("2.9*x1^2 + 1*x1*x2 + 1*x2^2", 2)
V_UNIT = {(2, 0): 1.0, (0, 2): 1.0, (1, 0): 0.0, (0, 1): 0.0, (1, 1): 0.0}


def wedge_system():
    return ConicSystem(WEDGE_FIELD, WEDGE)


def cusp_system():
    S = SemialgebraicSet(
        [parse_polynomial("x1 - x2^2", 2), parse_polynomial("1 - x1", 2)],
        [(-0.5, 1.5), (-1.5, 1.5)])
    return SemialgebraicSystem(
        [parse_polynomial("-1*x1^2", 2), Polynomial.zero(2)], S)


def verdict(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")


# -- criterion 1: wedge-cone system, LP hierarchy ----------------------------------

def test_criterion_1_cone_reproduction(tmp_path):
    spec = tmp_path / "cone.spec"
    spec.write_text(CONE_SPEC)
    out = tmp_path / "out"
    start = time.monotonic()
    code = main(["find-lyap-cone", str(spec), "--deg", "2", "--r", "0",
                 "--sweeps", "6", "--out", str(out)])
    elapsed = time.monotonic() - start

    cert_text = (out / "certificate.txt").read_text()
    h_line = next(l for l in cert_text.splitlines() if l.startswith("h: "))
    found_h = parse_polynomial(h_line.split(": ", 1)[1], 2)
    report = verify_conic(RationalLyapunovCandidate(found_h, 0),
                          wedge_system(), grid_density=10_000)
    grid_min = min(c.min_value for c in report.checks)

    printed_code = main(["verify", str(spec),
                         "--candidate", "2.9*x1^2 + 1*x1*x2 + 1*x2^2",
                         "--r", "0", "--out", str(tmp_path / "v")])

    # interior decrease polynomial of the printed candidate on the section
    decrease = parse_polynomial("-6.8*x1^2 - 15.6*x1*x2 - 4*x2^2", 2)
    rebuilt = Polynomial.zero(2)
    for g, f in zip(PRINTED_V.gradient(), WEDGE_FIELD):
        rebuilt = rebuilt + g * f
    section = Simplex.from_rows([[0.8, 0.2], [0.2, 0.8]])
    grid = barycentric_grid(section, 10_000)
    decrease_max = float(eval_many_broadcast(decrease, grid).max())

    ok = (code == 0 and elapsed < 10.0 and grid_min >= -1e-9
          and printed_code == 0 and decrease == rebuilt and decrease_max < 0)
    verdict(1, ok, f"exit={code} in {elapsed:.2f}s, grid min {grid_min:.2e}, "
                   f"printed-candidate exit={printed_code}, "
                   f"interior decrease max {decrease_max:.3f}")
    assert ok


# -- criterion 2: cusp system, SOS certificate -------------------------------------

def test_criterion_2_sos_reproduction(tmp_path):
    spec = tmp_path / "cusp.spec"
    spec.write_text(CUSP_SPEC)
    out = tmp_path / "out"
    start = time.monotonic()
    code = main(["find-lyap-sos", str(spec), "--deg", "2", "--tier", "sdp",
                 "--out", str(out)])
    elapsed = time.monotonic() - start

    outcome = solve_certificate(cusp_system(), 2, tier="sdp")
    cert = outcome.certificate
    residual_ok = cert is not None and worst_residual(cert) <= 1e-6
    eig_ok = cert is not None and worst_gram_eigenvalue(cert) >= -1e-7

    # explicit hand decompositions as a feasible point of the assembled rows
    system = cusp_system()
    eq2 = assemble_condition_ii(system, 2)
    r2 = equality_residual(eq2, {
        "chi_0": gram_from_sos_terms(eq2.blocks["chi_0"], [(2.0, (1, 1))]),
        "chi_1": gram_from_sos_terms(eq2.blocks["chi_1"], [(2.0, (1, 0))]),
        "chi_2": np.zeros((eq2.blocks["chi_2"].size,) * 2)},
        {"V": V_UNIT})
    eq31 = assemble_condition_iii(system, 2, 1)
    r31 = equality_residual(eq31, {
        "chi_1_0": gram_from_sos_terms(eq31.blocks["chi_1_0"], [(2.0, (0, 1))]),
        "chi_1_2": np.zeros((eq31.blocks["chi_1_2"].size,) * 2)},
        {"V": V_UNIT, "phi_1": {(0, 0): -2.0}})
    eq32 = assemble_condition_iii(system, 2, 2)
    r32 = equality_residual(eq32, {
        "chi_2_0": gram_from_sos_terms(eq32.blocks["chi_2_0"], [(2.0, (0, 1))]),
        "chi_2_1": gram_from_sos_terms(eq32.blocks["chi_2_1"], [(2.0, (0, 0))])},
        {"V": V_UNIT, "phi_2": {(0, 0): 0.0}})
    hand = max(r2, r31, r32)

    ok = (code == 0 and elapsed < 30.0 and residual_ok and eig_ok
          and hand <= 1e-10)
    verdict(2, ok, f"exit={code} in {elapsed:.2f}s, residual "
                   f"{worst_residual(cert):.2e}, gram eig "
                   f"{worst_gram_eigenvalue(cert):.2e}, hand residual "
                   f"{hand:.2e}")
    assert ok


# -- criterion 3: vertex-multiset soundness suite -----------------------------------

def _perm_count(idx):
    counts = {}
    for i in idx:
        counts[i] = counts.get(i, 0) + 1
    total = factorial(len(idx))
    for c in counts.values():
        total //= factorial(c)
    return total


def _all_ones_tensor(order, dim):
    p = Polynomial(dim, {tuple(1 if k == i else 0 for k in range(dim)): 1
                         for i in range(dim)})
    return (p ** order).to_tensor()


def _dual_injection_tensor(vertices, tuple_idx, order, dim):
    """Tensor whose vertex-multiset evaluations are the indicator of one
    multiset: built from the dual basis of the (independent) vertices."""
    V = np.array(vertices)
    W = np.linalg.solve(V @ V.T, V)
    entries = {}
    for J in itertools.combinations_with_replacement(range(dim), order):
        total = 0.0
        for sigma in itertools.permutations(range(order)):
            term = 1.0
            for k in range(order):
                term *= W[tuple_idx[sigma[k]], J[k]]
            total += term
        val = total / factorial(order) * _perm_count(tuple_idx)
        if abs(val) > 1e-15:
            entries[J] = Fraction(val)
    return SymmetricTensor(order, dim, entries)


def _random_nonneg_case(rng):
    n = int(rng.integers(2, 4))
    d = int(rng.integers(2, 5))
    k = int(rng.integers(2, n + 1))
    vertices = [rng.dirichlet([1.0] * n) for _ in range(k)]
    entries = {}
    for idx in itertools.combinations_with_replacement(range(n), d):
        entries[idx] = Fraction(rng.uniform(-2, 2)).limit_denominator(499)
    H0 = SymmetricTensor(d, n, entries)
    tuples = list(itertools.combinations_with_replacement(range(k), d))
    worst = min(float(H0.eval([vertices[i] for i in c])) for c in tuples)
    E = _all_ones_tensor(d, n)
    merged = dict(H0.entries)
    shift = max(0.0, -worst)
    for idx, v in E.entries.items():
        merged[idx] = merged.get(idx, Fraction(0)) + Fraction(shift) * v
    return SymmetricTensor(d, n, merged), vertices, tuples, n, d, k


def test_criterion_3_vertex_multiset_suite():
    rng = np.random.default_rng(2024)
    sound = 0
    for _ in range(100):
        H, vertices, tuples, n, d, k = _random_nonneg_case(rng)
        assert min(float(H.eval([vertices[i] for i in c]))
                   for c in tuples) >= -1e-9
        diag = H.diagonal_polynomial()
        V = np.array(vertices)
        lams = rng.dirichlet([1.0] * k, size=1000)
        if eval_many_broadcast(diag, lams @ V).min() >= -1e-10:
            sound += 1

    adversarial_hits = 0
    for _ in range(100):
        H, vertices, tuples, n, d, k = _random_nonneg_case(rng)
        vals = {c: float(H.eval([vertices[i] for i in c])) for c in tuples}
        target = tuples[int(rng.integers(len(tuples)))]
        mults = np.bincount(target, minlength=k).astype(float)
        lam_star_pow = float(np.prod((mults / d) ** mults))
        bound = sum(_perm_count(tuple(sorted(c))) * abs(v)
                    for c, v in vals.items())
        beta = (2.0 + 2.0 * bound) / (_perm_count(target) * lam_star_pow)
        D = _dual_injection_tensor(vertices, target, d, n)
        merged = dict(H.entries)
        for idx, v in D.entries.items():
            merged[idx] = merged.get(idx, Fraction(0)) - Fraction(beta) * v
        Hbad = SymmetricTensor(d, n, merged)
        assert float(Hbad.eval([vertices[i] for i in target])) < 0
        diag = Hbad.diagonal_polynomial()
        V = np.array(vertices)
        lams = rng.dirichlet([1.0] * k, size=1000)
        if eval_many_broadcast(diag, lams @ V).min() < 0:
            adversarial_hits += 1

    ok = sound == 100 and adversarial_hits >= 95
    verdict(3, ok, f"soundness {sound}/100, adversarial negative found "
                   f"{adversarial_hits}/100")
    assert ok


# -- criterion 4: solver oracles ------------------------------------------------------

def _vertex_enumeration_best(A, b, c):
    rows = np.vstack([A, -np.eye(A.shape[1])])
    rhs = np.concatenate([b, np.zeros(A.shape[1])])
    best = -np.inf
    for combo in combinations(range(len(rhs)), A.shape[1]):
        sub = rows[list(combo)]
        if abs(np.linalg.det(sub)) < 1e-10:
            continue
        v = np.linalg.solve(sub, rhs[list(combo)])
        if (rows @ v <= rhs + 1e-9).all():
            best = max(best, float(c @ v))
    return best


def _sym_unit(n, i, j):
    E = np.zeros((n, n))
    if i == j:
        E[i, i] = 1.0
    else:
        E[i, j] = E[j, i] = 0.5
    return E


def test_criterion_4_solver_oracles():
    rng = np.random.default_rng(4)
    lp_worst = 0.0
    for _ in range(200):
        A = rng.uniform(0.1, 1.0, size=(5, 8))
        b = rng.uniform(1.0, 2.0, size=5)
        c = rng.uniform(-1.0, 1.0, size=8)
        lp = linprog.LinearProgram(objective=c, A=A, relations=[linprog.LE] * 5,
                                   b=b, bounds=[(0, None)] * 8)
        result = linprog.solve(lp)
        assert result.status == "optimal"
        lp_worst = max(lp_worst,
                       abs(result.value - _vertex_enumeration_best(A, b, c)))

    sdp_worst = 0.0
    gap_worst = 0.0
    for _ in range(100):
        Q = rng.standard_normal((6, 6))
        A = 0.5 * (Q + Q.T)
        pairs = [(i, j) for i in range(6) for j in range(i, 6)]
        sdp = SemidefiniteProgram(
            A=[np.array([_sym_unit(6, i, j) for i, j in pairs])],
            D=np.array([[1.0 if i == j else 0.0] for i, j in pairs]),
            b=np.array([A[i, j] for i, j in pairs]),
            objective_blocks=[np.zeros((6, 6))],
            free_objective=np.array([-1.0]))
        result = solve_sdp(sdp)
        assert result.status == "solution"
        sdp_worst = max(sdp_worst,
                        abs(result.free[0] - np.linalg.eigvalsh(A).min()))
        gap_worst = max(gap_worst, result.gap)

    ok = lp_worst <= 1e-7 and sdp_worst <= 1e-7 and gap_worst <= 1e-7
    verdict(4, ok, f"lp max err {lp_worst:.2e} (200 instances), sdp max err "
                   f"{sdp_worst:.2e}, max gap {gap_worst:.2e} (100 instances)")
    assert ok


# -- criterion 5: gradient checks ------------------------------------------------------

def test_criterion_5_gradient_checks():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(100):
        d = int(rng.choice([2, 4, 6]))
        r = int(rng.choice([0, 1, 2]))
        basis = monomials_of_degree(2, d)
        h = Polynomial(2, {m: Fraction(rng.uniform(-10, 10)).limit_denominator(997)
                           for m in basis})
        if h.is_zero():
            continue
        candidate = RationalLyapunovCandidate(h, r)
        directions = rng.standard_normal((5, 2))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        radii = rng.uniform(0.1, 10.0, size=5)
        pts = directions * radii[:, None]
        worst = max(worst, fd_gradient_check(candidate, pts))
    ok = worst <= 1e-6
    verdict(5, ok, f"max relative gradient error {worst:.2e} over 100 candidates")
    assert ok


# -- criterion 6: simulator invariance and decrease -------------------------------------

def _fit_and_check_decrease(trajs, dt):
    slack_c = 0.0
    for traj in trajs:
        dv = np.diff(traj.v_values)
        if dv.size:
            slack_c = max(slack_c, float((dv.max() - 1e-9) / dt ** 2))
    slack_c = max(slack_c, 0.0)
    for traj in trajs:
        dv = np.diff(traj.v_values)
        assert (dv <= 1e-9 + slack_c * dt ** 2 + 1e-15).all()
    return slack_c


def test_criterion_6_simulator():
    rng = np.random.default_rng(6)
    dt = 1e-3

    cone = wedge_system()
    cone_cert = run_hierarchy(cone, [(2, 0, 6)]).certificate
    rays = np.array([[0.8, 0.2], [0.2, 0.8]])
    cone_trajs = []
    cone_viol = 0.0
    reached = True
    for _ in range(20):
        lam = rng.uniform(0.0, 1.0)
        radius = rng.uniform(0.5, 2.0)
        x0 = radius * (lam * rays[0] + (1 - lam) * rays[1])
        traj = simulate(x0, T=20.0, dt=dt, system=cone,
                        V=cone_cert.candidate.value)
        cone_trajs.append(traj)
        cone_viol = max(cone_viol, max(
            float(-(WEDGE.C @ s).min()) for s in traj.states))
        reached &= bool(np.linalg.norm(traj.final_state()) <= 1e-3)
    c_cone = _fit_and_check_decrease(cone_trajs, dt)

    cusp = cusp_system()
    cusp_cert = solve_certificate(cusp, 2, tier="sdp").certificate
    cusp_trajs = []
    cusp_viol = 0.0
    count = 0
    while count < 20:
        x = rng.uniform([0.0, -1.0], [1.0, 1.0])
        if not set_contains(cusp.S, x, tol=0.0):
            continue
        count += 1
        traj = simulate(x, T=5.0, dt=dt, system=cusp, V=cusp_cert.V)
        cusp_trajs.append(traj)
        cusp_viol = max(cusp_viol, max(
            float(-min(set_values(cusp.S, s))) for s in traj.states))
    c_cusp = _fit_and_check_decrease(cusp_trajs, dt)

    free = ConicSystem(WEDGE_FIELD,
                       PolyhedralCone(np.zeros((0, 2)), dimension=2))
    grow = simulate([1.0, 0.0], T=20.0, dt=dt, system=free)
    growing = bool(np.linalg.norm(grow.final_state()) > 1.0)

    ok = (cone_viol <= 1e-8 and cusp_viol <= 1e-8 and reached and growing
          and c_cone <= 1e3 and c_cusp <= 1e3)
    verdict(6, ok, f"cone violation {cone_viol:.1e}, cusp violation "
                   f"{cusp_viol:.1e}, all reached 1e-3: {reached}, "
                   f"unconstrained grows: {growing}, slack constants "
                   f"({c_cone:.1e}, {c_cusp:.1e})")
    assert ok


# -- criterion 7: negative controls ------------------------------------------------------

def test_criterion_7_negative_controls():
    start = time.monotonic()
    plus_x = [parse_polynomial("x1", 2), parse_polynomial("x2", 2)]
    conic = ConicSystem(plus_x, PolyhedralCone(np.eye(2)))
    outcome = run_hierarchy(conic, [(2, 0, 4)])
    conic_exhausted = not outcome.found

    box = SemialgebraicSet(
        [parse_polynomial("1 - x1", 2), parse_polynomial("1 + x1", 2),
         parse_polynomial("1 - x2", 2), parse_polynomial("1 + x2", 2)],
        [(-1.05, 1.05), (-1.05, 1.05)])
    sos_system = SemialgebraicSystem(plus_x, box)
    sos_status = [solve_certificate(sos_system, deg, tier="sdp").status
                  for deg in (2, 4)]
    elapsed = time.monotonic() - start

    ok = (conic_exhausted and sos_status == ["infeasible", "infeasible"]
          and elapsed < 60.0)
    verdict(7, ok, f"conic exhausted: {conic_exhausted}, sos statuses "
                   f"{sos_status}, in {elapsed:.2f}s")
    assert ok
