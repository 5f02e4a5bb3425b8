import hashlib
import tracemalloc
from fractions import Fraction
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import nnls

from lyapcert import cop_lp, flow, poly, sos_cert, tangency
from lyapcert.cli import parse_spec
from lyapcert.cones import PolyhedralCone
from lyapcert.cop_lp import ConicSystem, RationalLyapunovCandidate
from lyapcert.errors import InputError, NumericalError
from lyapcert.flow import project_cone, project_set, simulate
from lyapcert.poly import MonomialTable, Polynomial, parse_polynomial
from lyapcert.sos_cert import SemialgebraicSystem
from lyapcert.tangency import (SemialgebraicSet, eta_projection,
                               face_eta_polynomial)
from reference import (cone_contains, euler_kernel_by_terms, euler_step_floats,
                       evaluate_float_terms, field_at, set_contains,
                       set_values, simulate_by_steps, simulate_cone_numpy,
                       slsqp_projection, trajectory_csv,
                       trajectory_csv_by_cells)

WEDGE = PolyhedralCone([[-0.25, 1.0], [1.0, -0.25]])
SQUARE = PolyhedralCone([[1, 0, 0.5], [-1, 0, 0.5], [0, 1, 0.5], [0, -1, 0.5]])
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


def sample_wedge_starts(rng, count):
    rays = np.array([[0.8, 0.2], [0.2, 0.8]])
    lam = rng.uniform(0.0, 1.0, size=count)
    radius = rng.uniform(0.5, 3.0, size=count)
    return radius[:, None] * (np.outer(lam, rays[0]) + np.outer(1 - lam, rays[1]))


# -- projections -------------------------------------------------------------------

def test_orthant_projection_clamps():
    K = PolyhedralCone(np.eye(2))
    assert np.allclose(project_cone(np.array([-0.1, 0.5]), K), [0.0, 0.5])


def test_cone_projection_optimality():
    rng = np.random.default_rng(71)
    for _ in range(200):
        z = rng.uniform(-2, 2, size=2)
        p = project_cone(z, WEDGE)
        assert cone_contains(WEDGE, p, tol=1e-9)
        # projection inequality against random feasible points
        for _ in range(20):
            lam = rng.uniform(0, 1)
            rad = rng.uniform(0, 3)
            y = rad * (lam * np.array([0.8, 0.2]) + (1 - lam) * np.array([0.2, 0.8]))
            assert np.linalg.norm(z - p) <= np.linalg.norm(z - y) + 1e-9


@pytest.mark.parametrize("cone", [WEDGE, SQUARE], ids=["wedge", "square"])
def test_cone_projection_is_the_moreau_form_of_eta(cone):
    """z + eta_projection(z, [c]) when c is the one violated row and that
    point is in the cone, else z + eta_projection(z, C)."""
    rng = np.random.default_rng(73)
    branches = {"one row": 0, "all rows": 0}
    for _ in range(200):
        z = rng.uniform(-2, 2, size=cone.dimension)
        if cone_contains(cone, z, tol=flow.FEAS_TOL):
            continue
        expected, branch = z + eta_projection(z, cone.C), "all rows"
        violated = cone.C @ z < -flow.FEAS_TOL
        if violated.sum() == 1:
            p = z + eta_projection(z, cone.C[violated])
            if cone_contains(cone, p, tol=flow.FEAS_TOL):
                expected, branch = p, "one row"
        branches[branch] += 1
        assert np.array_equal(project_cone(z, cone), expected)
    assert min(branches.values()) >= 20, branches


def test_one_row_projection_is_the_closed_form_of_eta():
    """On a violated half-space c.x >= 0, project_cone's float form
    z + max(0, -c.z/|c|^2) c agrees with z + eta_projection(z, [c])."""
    rng = np.random.default_rng(77)
    tested = 0
    while tested < 300:
        n = int(rng.integers(2, 4))
        c = rng.normal(size=n) * 10.0 ** rng.uniform(-2, 2)
        c[rng.random(n) < 0.2] = 0.0
        z = rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3)
        if not c.any() or c @ z >= -flow.FEAS_TOL:
            continue
        tested += 1
        p = project_cone(z, PolyhedralCone([c]))
        assert isinstance(p, tuple) and all(type(v) is float for v in p)
        want = z + eta_projection(z, [c])
        assert np.abs(np.array(p) - want).max() <= \
            1e-15 * (1.0 + np.linalg.norm(z)), (c, z)


def test_one_row_projection_outside_the_cone_takes_nnls(monkeypatch):
    """One violated row whose half-space point leaves the cone is projected
    with all rows of C, by NNLS (near the polar cone of the narrow wedge)."""
    cone = WEDGE
    calls = []
    tangency_nnls = tangency.nnls
    monkeypatch.setattr(tangency, "nnls", lambda A, b: calls.append(1)
                        or tangency_nnls(A, b))
    rng = np.random.default_rng(78)
    tested = 0
    while tested < 20:
        z = rng.uniform(-2, 2, size=cone.dimension)
        violated = cone.C @ z < -flow.FEAS_TOL
        if violated.sum() != 1 or cone_contains(
                cone, z + eta_projection(z, cone.C[violated]),
                tol=flow.FEAS_TOL):
            continue
        tested += 1
        before = len(calls)
        p = project_cone(z, cone)
        assert len(calls) == before + 1
        assert np.array_equal(p, z + eta_projection(z, cone.C))


def test_set_projection_feasible_and_close():
    S = cusp_system().S
    rng = np.random.default_rng(72)
    for _ in range(50):
        z = rng.uniform([-0.4, -1.2], [1.4, 1.2])
        p = project_set(z, S)
        assert set_contains(S, p, tol=1e-9)
        for _ in range(20):
            y = rng.uniform([0, -1], [1, 1])
            if set_contains(S, y, tol=0.0):
                assert np.linalg.norm(z - p) <= np.linalg.norm(z - y) + 1e-6


def test_set_projection_reuses_the_generator_gradients(monkeypatch):
    S = cusp_system().S
    hessians = S.hessians
    monkeypatch.setattr(Polynomial, "gradient",
                        lambda self: pytest.fail("gradient rebuilt"))
    monkeypatch.setattr(Polynomial, "__init__",
                        lambda self, *args: pytest.fail("polynomial built"))
    # the first point meets only the linear g2; the second needs the
    # Hessian term of g1 = x1 - x2^2
    for z in ([1.3, 0.2], [-0.3, 0.8]):
        p = project_set(np.array(z), S)
        assert set_contains(S, p, tol=1e-9)
    assert S.hessians is hessians


def normal_cone_residual(p, z, S, active_tol=1e-9):
    """|p - z - sum lam_i grad g_i(p)| for the best lam >= 0 over the
    generators active at p; 0 when z - p lies in N_S(p)."""
    active = [i for i, g in enumerate(S.generators)
              if evaluate_float_terms(g, p) <= active_tol]
    G = np.array([[evaluate_float_terms(d, p) for d in S.gradients[i]]
                  for i in active]).reshape(-1, len(p))
    _, residual = nnls(G.T, np.asarray(p) - np.asarray(z))
    return residual, active


def test_set_projection_matches_slsqp_and_is_normal():
    S = cusp_system().S
    rng = np.random.default_rng(75)
    far, corners = [], []
    while len(far) < 40:
        z = rng.uniform([-1.0, -2.0], [2.0, 2.0])
        if set_contains(S, z, tol=0.0):
            continue
        ref = slsqp_projection(z, S)
        if 0.15 <= np.linalg.norm(z - ref) <= 0.5:
            far.append((z, ref))
    for _ in range(10):
        z = rng.uniform([1.0, 1.0], [1.5, 1.5]) * [1, rng.choice([-1, 1])]
        corners.append((z, slsqp_projection(z, S)))
    for z, ref in far + corners:
        p = np.array(project_set(z, S))
        assert np.linalg.norm(p - ref) <= 1e-7, (z, p, ref)
        residual, active = normal_cone_residual(p, z, S)
        assert residual <= 1e-9 * np.linalg.norm(p - z), (z, p)
        assert set_contains(S, p, tol=1e-10)
    for z, _ in corners:  # both generators bind at (1, +-1)
        p = project_set(z, S)
        assert normal_cone_residual(p, z, S)[1] == [0, 1]
        assert np.allclose(p, [1.0, np.sign(z[1])], atol=1e-12)


BALL = SemialgebraicSet([parse_polynomial("1 - x1^2 - x2^2 - x3^2", 3)],
                        [(-1.0, 1.0)] * 3)


def assert_warm_matches_cold(z, S, record):
    """project_set from the record agrees with the cold projection within
    KKT_TOL (1 + |z|), is normal, and leaves the final multipliers in the
    record."""
    cold = np.array(project_set(z, S))
    warm = np.array(project_set(z, S, record))
    assert np.abs(warm - cold).max() <= \
        flow.KKT_TOL * (1.0 + np.abs(z).max()), (z, warm, cold)
    residual, active = normal_cone_residual(warm, z, S)
    assert residual <= 1e-9 * np.linalg.norm(warm - z), (z, warm)
    assert set_contains(S, warm, tol=1e-10)
    assert sorted(record) == active
    assert min(record.values()) > 0.0


@pytest.mark.parametrize("S, lo, hi", [
    (cusp_system().S, [-1.0, -2.0], [2.0, 2.0]),
    (BALL, [-1.5] * 3, [1.5] * 3),
    (cusp_system().S, [1.0, 1.0], [1.5, 1.5]),  # both generators bind
], ids=["cusp", "ball", "cusp-corner"])
def test_warm_started_set_projection_matches_the_cold_one(S, lo, hi):
    rng = np.random.default_rng(76)
    tested = 0
    while tested < 40:
        z = rng.uniform(lo, hi)
        if set_contains(S, z, tol=0.0):
            continue
        tested += 1
        record = {}  # the multipliers of a nearby projection
        project_set(z + rng.normal(scale=0.01, size=len(z)), S, record)
        assert record
        assert_warm_matches_cold(z, S, record)


@pytest.mark.parametrize("z, record", [
    ([0.2, 0.8], {0: 0.3, 1: 0.2}),   # g2 is recorded, z violates g1 only
    ([0.2, 0.8], {1: 0.5}),           # the violated g1 is not recorded
    ([1.3, 0.2], {0: 0.4}),           # recorded g1, z violates g2 only
    ([0.9, 1.45], {1: 0.1}),          # g1 violated, the projection joins g2
    ([1.4, 1.4], {0: 2.0, 1: 3.0}),   # far-off multipliers at the corner
], ids=["extra", "missing", "other", "joining", "far-off"])
def test_warm_record_with_another_active_set(z, record):
    S = cusp_system().S
    assert_warm_matches_cold(np.array(z), S, record)


def test_set_projection_that_does_not_converge_raises(monkeypatch):
    S = cusp_system().S
    assert project_set([0.5, 0.1], S) == (0.5, 0.1)  # inside: unchanged
    monkeypatch.setattr(flow, "MAX_PROJECTION_ITER", 2)
    with pytest.raises(NumericalError, match="did not converge"):
        project_set([-0.3, 0.8], S)


# -- single steps --------------------------------------------------------------------

# 2-D and 3-D cones with zero, negative and inexact coefficients (and a
# -0.0), a cone without rows, and the cusp and ball sets
KERNEL_SYSTEMS = {
    "cone-2d": ConicSystem(
        WEDGE_FIELD, PolyhedralCone([[-0.3, 1.7], [1.1, 0.0], [-0.0, 2.3]])),
    "cone-3d": ConicSystem(
        [parse_polynomial(t, 3) for t in ("-1*x1^3 + 0.7*x2*x3^2",
                                          "-0.3*x1^2*x2 - 1*x2^3",
                                          "0.1*x1*x2*x3 - 2.9*x3^3")],
        PolyhedralCone(SQUARE.rows + ((0.3, -1.7, 0.9),))),
    "no-rows": ConicSystem(
        WEDGE_FIELD, PolyhedralCone(np.zeros((0, 2)), dimension=2)),
    "cusp": cusp_system(),
    "ball": SemialgebraicSystem(
        [parse_polynomial(t, 3) for t in ("-1*x1 + 1*x2", "-1*x1 - 1*x2",
                                          "-1*x3")], BALL),
}


def hexes(parts):
    return [[v.hex() for v in part] for part in parts]


@pytest.mark.parametrize("name", list(KERNEL_SYSTEMS))
def test_euler_kernel_is_bit_identical_to_the_float_kernel_step(name):
    """One step of the loop keeps z exactly when euler_step_floats gives
    values all >= -FEAS_TOL.  Otherwise it hands project the same bits of
    (x, z, f(x), values), or, for a set whose z violates one generator
    only, slides: its state is the projection of z and its eta is
    (y - x)/dt - f(x) from the same bits of f(x).  Either way it appends
    t + dt and the state."""
    system = KERNEL_SYSTEMS[name]
    rng = np.random.default_rng(79)
    kinds = set()
    for x in rng.uniform(-2, 2, size=(200, system.dimension)):
        x = tuple(x.tolist())
        for dt in (1e-3, 0.37):
            z, fx, values = euler_step_floats(system, x, dt)
            handed, times, states, etas = [], [0.5], [x], {}
            system.euler_kernel(times, states, dt, 1, lambda *args:
                                handed.append(args) or args[1], {}, etas)
            assert times == [0.5, 0.5 + dt]
            if min(values, default=0.0) >= -flow.FEAS_TOL:
                kinds.add("kept")
                assert not handed and hexes(states[1:]) == hexes([z])
            elif handed:
                kinds.add("projected")
                assert hexes(handed[0]) == hexes((x, z, fx, values))
                assert states[1] is handed[0][1]
            else:
                kinds.add("slid")
                y = states[1]
                assert hexes([etas[0]]) == hexes([[
                    (a - b) / dt - c for a, b, c in zip(y, x, fx)]])
                gap = np.subtract(y, project_set(z, system.S))
                assert np.abs(gap).max() <= \
                    flow.KKT_TOL * (1.0 + max(map(abs, z))), (x, dt)
    assert kinds == {"no-rows": {"kept"},
                     "cusp": {"kept", "projected", "slid"},
                     "ball": {"kept", "slid"}}.get(name, {"kept", "projected"})


def test_euler_kernel_is_built_once_per_system(monkeypatch):
    built = []
    for module in (cop_lp, sos_cert):
        make = module.euler_kernel
        monkeypatch.setattr(module, "euler_kernel",
                            lambda *args, make=make: built.append(1)
                            or make(*args))
    for system, x0 in ((wedge_system(), [2.0, 0.5]),
                       (cusp_system(), [0.49, 0.7])):
        before = len(built)
        for _ in range(2):
            simulate(x0, T=0.05, dt=1e-3, system=system)
        assert len(built) == before + 1


@pytest.mark.parametrize("system, x", [(wedge_system(), (1.0, 1.0)),
                                       (cusp_system(), (0.5, 0.1))],
                         ids=["cone", "set"])
def test_free_step_is_one_kernel_call_and_no_numpy(system, x, monkeypatch):
    """simulate makes one call of the generated loop; a free step in it is
    plain Euler on Python floats, with no projection and eta exactly 0."""
    z = euler_step_floats(system, x, 1e-3)[0]
    times, states = [0.0], [x]
    system.euler_kernel(times, states, 1e-3, 1,
                        lambda *args: pytest.fail("projected"), {}, {})
    assert states[1] == z and all(type(v) is float for v in states[1])
    calls = []
    kernel = system.euler_kernel
    monkeypatch.setitem(system.__dict__, "euler_kernel",
                        lambda *args: calls.append(1) or kernel(*args))
    monkeypatch.setattr(flow, "step",
                        lambda *args: pytest.fail("flow.step called"))
    traj = simulate(x, T=1e-3, dt=1e-3, system=system)
    assert calls == [1]
    assert traj.states[1].tolist() == list(z)
    assert traj.eta_log.tolist() == [[0.0, 0.0]] * 2


# z1 = 1 + 1e10 * 1e300 is inf, where float * gives inf without raising
STIFF_FIELD = [parse_polynomial("1e300*x1", 2), parse_polynomial("-1*x2", 2)]


@pytest.mark.parametrize("system", [
    ConicSystem(STIFF_FIELD, PolyhedralCone(np.zeros((0, 2)), dimension=2)),
    ConicSystem(STIFF_FIELD, PolyhedralCone(np.eye(2))),  # 0 * inf is NaN
    SemialgebraicSystem(STIFF_FIELD, SemialgebraicSet(
        [parse_polynomial("1 - x2", 2)], [(-1.0, 1.0)] * 2)),  # g1 finite
], ids=["no-rows", "cone", "set"])
def test_step_past_the_float_range_raises(system):
    with pytest.raises(NumericalError, match=r"^state overflowed the float "
                       r"range at t = 10000000000\.0$"):
        simulate((1.0, 1.0), 1e10, 1e10, system)


def test_interior_step_is_plain_euler():
    system = wedge_system()
    x = np.array([1.0, 1.0])  # interior of the wedge
    traj = simulate(x, 1e-3, 1e-3, system)
    assert not traj.eta_log.any()
    assert np.allclose(traj.states[1], x + 1e-3 * field_at(system, x))


def eta_at(branches, x):
    """eta(x) on a cone face by branch selection on the sign of w(x)."""
    if evaluate_float_terms(branches.w, x) >= 0.0:
        return np.zeros(len(x))
    return np.array([evaluate_float_terms(p, x)
                     for p in branches.eta_b_scaled]) / float(branches.c_norm_sq)


def test_boundary_step_eta_aligns_with_branch():
    system = wedge_system()
    branches = face_eta_polynomial(WEDGE, 1, WEDGE_FIELD)
    x = np.array([0.8, 0.2]) * 2.0  # on face 1
    dt = 1e-5
    eta_used = simulate(x, dt, dt, system).eta_log[0]
    eta_exact = eta_at(branches, x)
    angle = np.arccos(np.clip(
        eta_used @ eta_exact /
        (np.linalg.norm(eta_used) * np.linalg.norm(eta_exact)), -1, 1))
    assert angle <= 1e-3


# the unit disc, turned at unit speed with the radial speed (x2 + 0.2) |x|:
# the trajectory slides along the circle where x2 > -0.2, leaves it into
# the disc below that and comes back
DISC = SemialgebraicSystem(
    [parse_polynomial("-1*x2 + 1*x1*x2 + 0.2*x1", 2),
     parse_polynomial("1*x1 + 1*x2^2 + 0.2*x2", 2)],
    SemialgebraicSet([parse_polynomial("1 - x1^2 - x2^2", 2)],
                     [(-1.0, 1.0)] * 2))


def test_free_step_records_exactly_zero_eta(monkeypatch):
    """A free step keeps its plain Euler point and records eta exactly 0.
    Every projected step on the disc violates its one generator, so the
    loop slides each one and never calls flow.step; the first step of
    each run of projected steps slides cold, as the first step of a new
    loop does, whatever the multipliers record holds."""
    monkeypatch.setattr(flow, "step",
                        lambda *args: pytest.fail("flow.step called"))
    traj = simulate([0.0, 1.0], T=10.0, dt=1e-2, system=DISC)
    assert step_kinds(traj)[:3] == [True, False, True]
    projected = (traj.eta_log[:-1] != 0).any(axis=1).tolist()
    run_starts = [k for k, (a, before) in enumerate(
        zip(projected, [False] + projected)) if a and not before]
    assert len(run_starts) >= 2
    for k in run_starts:
        x = tuple(traj.states[k].tolist())
        times, states, record, etas = [0.0], [x], {0: 7.5}, {}
        DISC.euler_kernel(times, states, 1e-2, 1, None, record, etas)
        assert hexes(states[1:]) == hexes([traj.states[k + 1].tolist()])
        assert hexes([etas[0]]) == hexes([traj.eta_log[k].tolist()])
        assert list(record) == [0] and record[0] != 7.5
    for k in np.flatnonzero(~np.array(projected)):
        x = tuple(traj.states[k].tolist())
        assert traj.states[k + 1].tolist() == \
            list(euler_step_floats(DISC, x, 1e-2)[0])
        assert traj.eta_log[k].tolist() == [0.0, 0.0]


def counted_kkt_solves(monkeypatch):
    """Wrap flow._kkt_step; the returned list gets one entry per KKT
    system it solves (a call that finds the residual small solves none)."""
    solves = []
    kkt_step = flow._kkt_step

    def counted(*args):
        result = kkt_step(*args)
        if result is not True:
            solves.append(1)
        return result
    monkeypatch.setattr(flow, "_kkt_step", counted)
    return solves


def test_projected_cusp_boundary_step_makes_one_solve(monkeypatch):
    """Each boundary step, the first a cold start, is one sliding step in
    the loop that takes at most two Newton steps in the generator's
    kernel: with the loop built for three iterations (two Newton steps and
    the residual check after them) no step is handed to flow.step, and no
    KKT system is solved (_kkt_step)."""
    monkeypatch.setattr(poly, "MAX_PROJECTION_ITER", 3)
    system = cusp_system()  # a new system, so its loop is built here
    monkeypatch.setattr(flow, "step",
                        lambda *args: pytest.fail("flow.step called"))
    solves = counted_kkt_solves(monkeypatch)
    traj = simulate([0.49, 0.7], T=0.5, dt=1e-3, system=system)
    assert (traj.eta_log[:-1] != 0).any(axis=1).all()  # every step projects
    assert len(traj) == 501 and solves == []


def dense_concave_set():
    """{1 - ((1 + x1 + x2 + x3)/2)^6 >= 0}: 84 terms, more than one
    statement of a generated sum holds."""
    x = [Polynomial.variable(3, j) for j in range(3)]
    g = 1 - ((1 + x[0] + x[1] + x[2]).scale(Fraction(1, 2))) ** 6
    return SemialgebraicSet([g], [(-3.0, 1.0)] * 3)


def sliding_system(S):
    """S with the zero field: a step's z is its start state, so one step
    of the loop projects the start state."""
    n = S.dimension
    return SemialgebraicSystem([Polynomial.zero(n)] * n, S)


@pytest.mark.parametrize("S, i, lo, hi", [
    (cusp_system().S, 0, [-1.0, -2.0], [2.0, 2.0]),
    (cusp_system().S, 1, [-1.0, -2.0], [2.0, 2.0]),  # linear: zero Hessian
    (BALL, 0, [-1.5] * 3, [1.5] * 3),
    (dense_concave_set(), 0, [-1.0] * 3, [0.5] * 3),
], ids=["cusp-g1", "cusp-g2", "ball", "84-terms"])
def test_newton_kernel_step_matches_the_elimination(S, i, lo, hi):
    """A step that violates g_i only slides cold, by Newton steps in the
    generator's kernel inside the loop, to the projection that
    project_set's elimination gives, within KKT_TOL (1 + |z|), and the
    elimination's residual check passes at the slid state with the
    multiplier that the slide leaves in the record.  A step whose
    projection leaves the cusp's other generator behind is handed off,
    with the record empty."""
    system = sliding_system(S)
    values_at = S.values_kernel
    rng = np.random.default_rng(80)
    slid = handed = 0
    while slid < 100:
        z = tuple(rng.uniform(lo, hi).tolist())
        violated = [k for k, v in enumerate(values_at(z))
                    if v < -flow.FEAS_TOL]
        if violated != [i]:
            continue
        times, states, record, etas = [0.0], [z], {}, {}

        def project(x, z, fx, values):
            assert record == {}
            return z
        system.euler_kernel(times, states, 1.0, 1, project, record, etas)
        if not etas:
            handed += 1
            continue
        slid += 1
        y = states[1]
        tol = flow.KKT_TOL * (1.0 + max(map(abs, z)))
        assert np.abs(np.subtract(y, project_set(z, S))).max() <= tol, z
        (k, lam), = record.items()
        assert k == i and lam > 0.0
        assert flow._kkt_step(y, z, S, [i], [lam], values_at(y), tol) is True
    assert handed < slid


def test_dense_generator_sum_takes_more_than_one_statement():
    assert len(dense_concave_set().generators[0].terms) > poly._KERNEL_CHUNK


def test_newton_kernel_reports_convergence_as_the_elimination_does():
    """Where project_set converges with one active generator g_i and z
    violates g_i only, the loop's Newton slide from z converges too: it
    keeps the step at project_set's y and multiplier, within
    KKT_TOL (1 + |z|), and the elimination's residual check passes there."""
    S = cusp_system().S
    system = sliding_system(S)
    rng = np.random.default_rng(81)
    checked = 0
    for _ in range(50):
        z = rng.uniform([-0.4, -1.2], [0.9, 1.2])
        record = {}
        y = project_set(z, S, record)
        z = tuple(z.tolist())
        violated = [k for k, v in enumerate(S.values_kernel(z))
                    if v < -flow.FEAS_TOL]
        if len(record) != 1 or violated != list(record):
            continue
        (i, lam), = record.items()
        tol = flow.KKT_TOL * (1.0 + max(map(abs, z)))
        times, states, slid, etas = [0.0], [z], {}, {}
        system.euler_kernel(times, states, 1.0, 1,
                            lambda *args: pytest.fail("handed off"), slid,
                            etas)
        assert list(slid) == [i] and abs(slid[i] - lam) <= tol * (1.0 + lam)
        assert np.abs(np.subtract(states[1], y)).max() <= tol, z
        assert flow._kkt_step(states[1], z, S, [i], [slid[i]],
                              S.values_kernel(states[1]), tol) is True
        checked += 1
    assert checked >= 20


def test_kernel_with_a_negative_pivot_falls_back_to_the_elimination(
        monkeypatch):
    # g = 1 + x1^2 - x2: H = I - lam hess g has the pivot 1 - 2 lam; the
    # first Newton step from z = (0.3, 3.0) takes lam to 1.4, so the
    # sliding step meets a negative pivot and hands the step off, with the
    # record cleared, to project_set, which solves the KKT systems
    S = SemialgebraicSet([parse_polynomial("1 + x1^2 - x2", 2)],
                         [(-2.0, 2.0)] * 2)
    z = (0.3, 3.0)
    solves = counted_kkt_solves(monkeypatch)
    handed, record = [], {0: 1.0}

    def project(x, z, fx, values):
        handed.append(dict(record))
        return project_set(z, S, record, values)
    times, states = [0.0], [z]
    sliding_system(S).euler_kernel(times, states, 1.0, 1, project, record,
                                   {})
    assert handed == [{}] and solves
    got = states[1]
    assert got == project_set(z, S)
    assert set_contains(S, got, tol=1e-10)
    residual, active = normal_cone_residual(got, z, S)
    assert active == [0] and residual <= 1e-9


def test_singular_kkt_system_raises():
    # grad g vanishes at the centre of the disc, so the (n + 1) system
    # has a zero row
    S = DISC.S
    y = (0.0, 0.0)
    with pytest.raises(NumericalError, match="^singular KKT system"):
        flow._kkt_step(y, (2.0, 0.0), S, [0], [0.0], S.values_kernel(y),
                       0.0)


def test_tracer_hooks_see_every_projection(monkeypatch):
    """The benchmark's tracer wraps these module attributes; simulate and
    step must call them through the module globals, for every step that
    the loop hands off."""
    for name in ("step", "project_set", "project_cone", "nnls"):
        assert callable(getattr(flow, name))
    calls = []
    project_set = flow.project_set
    monkeypatch.setattr(flow, "project_set", lambda *args: calls.append(1)
                        or project_set(*args))
    steps = []
    flow_step = flow.step
    monkeypatch.setattr(flow, "step", lambda *args: steps.append(1)
                        or flow_step(*args))
    # driven from the parabola into the corner (1, 1) of the cusp, where
    # both generators bind: the loop slides along the parabola and hands
    # off every step at the corner
    traj = simulate([0.25, 0.5], T=2.0, dt=1e-3, system=CUSP_CORNER)
    assert step_kinds(traj) == [True]
    assert 100 <= len(calls) == len(steps) < len(traj) - 1


def test_step_rejects_infeasible_start():
    with pytest.raises(InputError,
                       match="initial state is outside the constraint set"):
        simulate([-1.0, -1.0], 1.0, 1e-2, wedge_system())


# -- trajectories ---------------------------------------------------------------------

SQ3D = parse_spec(str(Path(__file__).resolve().parents[1] / "specs"
                      / "sq3d.spec")).system


# pushed into the edge x1 = x2 = x3/2 of the square cone, where two rows bind
SQUARE_EDGE = ConicSystem([parse_polynomial(t, 3) for t in
                           ("1*x3 - 1*x1", "1*x3 - 1*x2", "-1*x3")], SQUARE)


@pytest.mark.parametrize("system, starts, T, dt, min_projected, corners", [
    (wedge_system(), [[2.0, 0.5], [0.3, 1.1], [1.6, 0.4]], 3.0, 1e-3, 100,
     False),
    (SQ3D, [[0.1, 0.2, 0.9], [-0.3, 0.35, 0.8], [0.4, -0.1, 0.85]],
     20.0, 1e-2, 20, False),
    (SQUARE_EDGE, [[0.0, 0.0, 1.0], [0.1, -0.05, 0.9]], 5.0, 1e-2, 100,
     True),
], ids=["wedge", "sq3d", "square-edge"])
def test_cone_trajectories_match_the_numpy_step_loop(system, starts, T, dt,
                                                     min_projected, corners,
                                                     monkeypatch):
    several_rows = []
    tangency_nnls = tangency.nnls
    monkeypatch.setattr(tangency, "nnls", lambda A, b: several_rows.append(1)
                        or tangency_nnls(A, b))
    projected = 0
    for x0 in starts:
        traj = simulate(x0, T, dt, system)
        states, eta = simulate_cone_numpy(x0, T, dt, system)
        assert np.asarray(traj.states).tobytes() == states.tobytes()
        assert np.asarray(traj.eta_log).tobytes() == eta.tobytes()
        projected += int((eta != 0).any(axis=1).sum())
    assert projected >= min_projected  # free steps record eta exactly 0
    if corners:  # steps where two rows bind take NNLS
        assert several_rows

def test_wedge_trajectory_reaches_origin():
    traj = simulate([2.0, 0.5], T=20.0, dt=1e-3, system=wedge_system(),
                    V=PRINTED_V)
    assert np.linalg.norm(traj.final_state()) <= 1e-3
    dv = np.diff(traj.v_values)
    assert dv.max() <= 1e-9
    assert len(traj) == 20001


def test_linear_decay_matches_exponential():
    system = ConicSystem([parse_polynomial("-1*x1", 2),
                          parse_polynomial("-1*x2", 2)],
                         PolyhedralCone(np.eye(2)))
    traj = simulate([1.0, 1.0], T=2.0, dt=1e-4, system=system)
    expected = np.exp(-2.0) * np.sqrt(2.0)
    got = np.linalg.norm(traj.final_state())
    assert abs(got - expected) / expected <= 0.02


def test_unconstrained_same_matrix_grows():
    free = ConicSystem(WEDGE_FIELD, PolyhedralCone(np.zeros((0, 2)),
                                                   dimension=2))
    traj = simulate([1.0, 0.0], T=20.0, dt=1e-3, system=free)
    assert np.linalg.norm(traj.final_state()) > 10.0


def test_feasibility_along_trajectories():
    rng = np.random.default_rng(73)
    system = wedge_system()
    for x0 in sample_wedge_starts(rng, 5):
        traj = simulate(x0, T=2.0, dt=1e-3, system=system)
        worst = min(float((WEDGE.C @ s).min()) for s in traj.states)
        assert worst >= -1e-8


def test_eta_normal_cone_membership():
    rng = np.random.default_rng(74)
    system = wedge_system()
    traj = simulate([1.6, 0.4], T=1.0, dt=1e-3, system=system)
    boundary = [(s, e) for s, e in zip(traj.states, traj.eta_log)
                if np.linalg.norm(e) > 1e-6]
    assert boundary, "trajectory should slide along the face"
    for x, eta_used in boundary[::50]:
        normal = -eta_used  # eta in -N_S(x), so -eta lies in the normal cone
        for _ in range(100):
            lam = rng.uniform(0, 1)
            rad = rng.uniform(0, 3)
            y = rad * (lam * np.array([0.8, 0.2]) + (1 - lam) * np.array([0.2, 0.8]))
            assert normal @ (y - x) <= 1e-6 * max(1.0, np.linalg.norm(normal)
                                                  * np.linalg.norm(y - x))


def test_cusp_trajectory_v_decrease():
    system = cusp_system()
    V = parse_polynomial("x1^2 + x2^2", 2)
    traj = simulate([1.0, 0.9], T=5.0, dt=1e-3, system=system, V=V)
    assert np.diff(traj.v_values).max() <= 1e-9
    worst = min(min(float(v) for v in set_values(system.S, s)) for s in traj.states)
    assert worst >= -1e-8


# sha256 of the CSV of simulate(x0, T=5, dt=1e-3): both runs project at every
# one of their 5,000 steps, the cusp along x1 = x2^2 and the ball (outward
# field) on its sphere, where the Newton step factors a 3x3 matrix
OUTWARD_BALL = SemialgebraicSystem(
    [parse_polynomial(t, 3) for t in ("x1 + x2", "-1*x1 + x2", "0.5*x3")],
    BALL)
TRAJECTORY_PINS = {
    "cusp": (cusp_system(), [0.49, 0.7], "c483e8353d54436be40951563fd45f51"
             "2654a7d93508a279c3eb9d090efb1c56"),
    "outward-ball": (OUTWARD_BALL, [0.6, 0.0, 0.8],
                     "fbd4783f2e6d39d1fd25bda478de3d88"
                     "62a15d6f9904b0cd32d756d89848f2e2"),
}


@pytest.mark.parametrize("name", list(TRAJECTORY_PINS))
def test_set_trajectory_is_pinned(name):
    system, x0, digest = TRAJECTORY_PINS[name]
    traj = simulate(x0, T=5.0, dt=1e-3, system=system)
    assert (traj.eta_log[:-1] != 0).any(axis=1).all()  # every step projects
    assert hashlib.sha256(trajectory_csv(traj).encode()).hexdigest() == digest


# the benchmark's refine1 field on the square cone
REFINE1 = ConicSystem([parse_polynomial(t, 3) for t in (
    "-1.5*x1 + 2.5*x2", "-1.5*x1 - 1.2*x2 - 0.8*x3", "0.2*x1 - 0.3*x2")],
    SQUARE)
REFINE1_V = RationalLyapunovCandidate(
    parse_polynomial("x1^2 + x2^2 + x3^2", 3), 0).value


def step_kinds(traj):
    """The runs of free (False) and projected (True) steps, in order."""
    runs = []
    for projected in (traj.eta_log[:-1] != 0).any(axis=1).tolist():
        if runs and runs[-1][0] == projected:
            runs[-1][1] += 1
        else:
            runs.append([projected, 1])
    return [kind for kind, _ in runs]


# sha256 of the CSV of simulate(x0, T, dt, V) for trajectories with free
# steps
FREE_STEP_PINS = {
    "refine1": (REFINE1, [0.1, 0.2, 0.9], 200.0, 1e-2, REFINE1_V, [False],
                "abbdbb78ca589bbeaab09872ead87cf76e47e0901487641d5bd827c3"
                "08801a1b"),
    "cusp-free-then-boundary": (
        cusp_system(), [0.3, 0.5], 1.0, 1e-3, None, [False, True],
        "78c8ce9f6c92ca1184c02860e7e164e8392e5f1143c0836df0466030bc5c9e05"),
    "sq3d-free-projected-free": (
        SQ3D, [-0.3, 0.35, 0.8], 20.0, 1e-2, None, [False, True, False],
        "adf322e2a1fb33f035c60cda0d6e2f5ff20cd72de0af568bd37ef397de8aad22"),
}


@pytest.mark.parametrize("name", list(FREE_STEP_PINS))
def test_trajectory_with_free_steps_is_pinned(name):
    system, x0, T, dt, V, kinds, digest = FREE_STEP_PINS[name]
    traj = simulate(x0, T, dt, system, V=V)
    assert len(traj) == round(T / dt) + 1
    assert step_kinds(traj) == kinds
    assert hashlib.sha256(trajectory_csv(traj).encode()).hexdigest() == digest


@pytest.mark.parametrize("name", ["cusp-boundary"] + list(FREE_STEP_PINS))
def test_each_step_makes_one_euler_kernel_evaluation(name, monkeypatch):
    """simulate makes one call of the generated loop, which takes every
    step.  It calls flow.step once for each projected step of a cone, and
    never on these set runs, which violate one generator at a time: the
    loop slides every such step, and no KKT system is solved."""
    if name == "cusp-boundary":
        system, x0, T, dt, V = cusp_system(), [0.49, 0.7], 0.5, 1e-3, None
    else:
        system, x0, T, dt, V = FREE_STEP_PINS[name][:5]
    loops = []
    kernel = system.euler_kernel

    def counted(times, states, *args):
        before = len(states)
        try:
            return kernel(times, states, *args)
        finally:
            loops.append(len(states) - before)
    monkeypatch.setitem(system.__dict__, "euler_kernel", counted)
    calls = []
    flow_step = flow.step
    monkeypatch.setattr(flow, "step",
                        lambda *args: calls.append(1) or flow_step(*args))
    solves = counted_kkt_solves(monkeypatch)
    traj = simulate(x0, T, dt, system, V=V)
    steps = len(traj) - 1
    assert loops == [steps]
    if isinstance(system, ConicSystem):
        assert len(calls) == \
            int((traj.eta_log[:-1] != 0).any(axis=1).sum())
    else:
        assert calls == solves == [] and True in step_kinds(traj)
    if name == "cusp-boundary":
        assert step_kinds(traj) == [True]


# DISC's field with three times the radial speed: at dt = 0.2 the Newton
# steps of 11 warm sliding steps overshoot and their multiplier turns
# negative, so the loop retries each cold, and keeps it; below x2 = -0.2
# the field turns inward and the trajectory leaves the circle
PUSHED_DISC = SemialgebraicSystem(
    [parse_polynomial("-1*x2 + 3*x1*x2 + 0.6*x1", 2),
     parse_polynomial("1*x1 + 3*x2^2 + 0.6*x2", 2)], DISC.S)
# driven out along the parabola into the corners (1, +-1) of cusp_box,
# where both generators bind
CUSP_CORNER = SemialgebraicSystem(
    [parse_polynomial("1*x1", 2), parse_polynomial("1*x2", 2)],
    cusp_system().S)


def boundary_starts(system, rng, count):
    """count seeded points on the boundary: on the parabola x1 = x2^2 of
    a cusp set, on the unit sphere of a ball or disc."""
    if system.S is DISC.S or system.S is BALL:
        x = rng.normal(size=(count, system.dimension))
        return x / np.linalg.norm(x, axis=1)[:, None]
    x2 = rng.uniform(0.3, 0.95, size=count) * rng.choice([-1, 1], count)
    return np.column_stack([x2 * x2, x2])


@pytest.mark.parametrize("system, T, dt", [
    (cusp_system(), 2.0, 1e-3),
    (OUTWARD_BALL, 2.0, 1e-3),
    (PUSHED_DISC, 10.0, 0.2),
    (CUSP_CORNER, 2.0, 1e-3),
], ids=["cusp", "outward-ball", "disc-leaves", "cusp-corner"])
def test_sliding_matches_the_route_through_step(system, T, dt, monkeypatch):
    """simulate agrees within 1e-12 relative, in states and eta, with
    simulate_by_steps, where flow.step projects every step that is not
    kept, and every slid state passes the posterior check of a
    projection: it is in the set within STATE_TOL and z - y lies in the
    normal cone N_S(y).  The loop hands off no step but at the corners
    of CUSP_CORNER, where z violates two generators; a warm slide that
    fails on PUSHED_DISC is retried cold and kept."""
    handed = []
    flow_step = flow.step

    def recorded(x, z, fx, values, *args):
        violated = [i for i, v in enumerate(values) if v < -flow.FEAS_TOL]
        handed.append((x, len(violated), dict(args[-1])))
        return flow_step(x, z, fx, values, *args)
    rng = np.random.default_rng(83)
    hands_off = system is CUSP_CORNER
    total = 0
    for x0 in boundary_starts(system, rng, 3):
        handed.clear()
        monkeypatch.setattr(flow, "step", recorded)
        traj = simulate(x0, T, dt, system)
        monkeypatch.setattr(flow, "step", flow_step)
        want = simulate_by_steps(x0, T, dt, system)
        for got, ref in ((traj.states, want.states),
                         (traj.eta_log, want.eta_log)):
            assert np.abs(got - ref).max() <= \
                1e-12 * max(1.0, np.abs(ref).max())
        assert all(r == {} for _, count, r in handed if count == 1)
        handed_from = {x for x, _, _ in handed}
        for k in np.flatnonzero((traj.eta_log[:-1] != 0).any(axis=1)):
            x = tuple(traj.states[k].tolist())
            if x in handed_from:
                continue
            z = np.array(euler_step_floats(system, x, dt)[0])
            y = traj.states[k + 1]
            assert set_contains(system.S, y, tol=flow.STATE_TOL)
            residual, active = normal_cone_residual(y, z, system.S)
            assert active and residual <= 1e-9 * np.linalg.norm(y - z), k
        kinds = step_kinds(traj)
        if system is PUSHED_DISC:  # it leaves the circle
            assert [True, False] in [kinds[k:k + 2] for k in range(len(kinds))]
        elif not hands_off:
            assert kinds == [True]
        total += len(handed)
    assert (total >= 1) == hands_off


# sha256 of the CSV of simulate(x0, T, dt) for two set trajectories that
# a warm slide alone does not keep, with the number of hand-offs to
# flow.step: none on PUSHED_DISC, whose 11 failed warm slides the loop
# retries cold and keeps, and the steps at CUSP_CORNER's corner, where two
# generators bind
HANDED_OFF_PINS = {
    "disc-leaves": (PUSHED_DISC, [0.0, 1.0], 10.0, 0.2, 0,
                    "0db770c7c83b1475edf27df477b7de77"
                    "22f7073d6547988be015ba2f27586315"),
    "cusp-corner": (CUSP_CORNER, [0.25, 0.5], 2.0, 1e-3, 960,
                    "77dd2c3d46816296ec4d5121e5b0ba0b"
                    "7cb0c9a45f491a3c6577ef2c35315032"),
}


@pytest.mark.parametrize("name", list(HANDED_OFF_PINS))
def test_handed_off_set_trajectory_is_pinned(name, monkeypatch):
    system, x0, T, dt, count, digest = HANDED_OFF_PINS[name]
    records = []
    flow_step = flow.step
    monkeypatch.setattr(flow, "step", lambda *args: records.append(
        dict(args[-1])) or flow_step(*args))
    traj = simulate(x0, T, dt, system)
    assert len(records) == count
    if system is PUSHED_DISC:
        assert records == [{}] * count
    assert hashlib.sha256(trajectory_csv(traj).encode()).hexdigest() == digest


@pytest.mark.parametrize("lam", [0.0, np.inf, np.nan],
                         ids=["zero", "inf", "nan"])
def test_sliding_step_hands_off_what_it_cannot_keep(lam):
    """From the corner (1, 1) of the cusp, where both generators bind, the
    loop hands the first step off; the stand-in projection returns
    (0.25, 0.5) on the parabola, where the next steps violate g1 only,
    and leaves the record {0: lam}.  A multiplier of 0 or NaN starts no
    warm slide: the steps slide cold, as after an empty record.  An
    infinite one puts the warm start past the float range, where no
    Newton step converges: the loop retries the step cold, so the steps
    are again those after an empty record, and the loop hands off only
    the corner step."""
    def run(left):
        handed, record, etas = [], {}, {}

        def project(x, z, fx, values):
            handed.append(dict(record))
            record.clear()
            record.update(left)
            return (0.25, 0.5)
        times, states = [0.0], [(1.0, 1.0)]
        CUSP_CORNER.euler_kernel(times, states, 1e-2, 3, project, record,
                                 etas)
        return handed, states, etas
    handed, states, etas = run({0: lam})
    assert len(handed) == 1 and sorted(etas) == [1, 2]
    _, cold_states, cold_etas = run({})
    assert hexes(states) == hexes(cold_states) and etas == cold_etas


PARABOLA_CUBIC = SemialgebraicSystem(
    [Polynomial.zero(2), parse_polynomial("1*x2^3", 2)],
    SemialgebraicSet([parse_polynomial("x1 - x2^2", 2)], [(-2.0, 2.0)] * 2))


def test_failed_warm_slide_is_retried_cold(monkeypatch):
    """On {x1 - x2^2 >= 0} with f = (0, x2^3) from (1, 1), most warm
    slides fail (the multiplier turns negative after about five Newton
    steps; handed to flow.step, they were 1,607 of 2,500 steps).  The loop
    retries each cold and keeps it: no step is handed off, and the
    trajectory is the one that flow.step projects step by step within
    1e-12 relative."""
    calls = []
    flow_step = flow.step
    monkeypatch.setattr(flow, "step",
                        lambda *args: calls.append(1) or flow_step(*args))
    traj = simulate([1.0, 1.0], 25.0, 1e-2, PARABOLA_CUBIC)
    assert calls == [] and step_kinds(traj) == [True]
    monkeypatch.setattr(flow, "step", flow_step)
    want = simulate_by_steps([1.0, 1.0], 25.0, 1e-2, PARABOLA_CUBIC)
    for got, ref in ((traj.states, want.states),
                     (traj.eta_log, want.eta_log)):
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("g, f, x0, message, handed", [
    # x1' = x1^2 blows up at t = 1 while x2' = x2 pushes out through x2 = 1
    ("1 - x2^2", ("1*x1^2", "1*x2"), [1.0, 1.0],
     r"state overflowed the float range at t = 1\.0169999999999988", 0),
    # at this scale g rounds below -STATE_TOL at a converged projection:
    # the loop does not keep it and hands the step off
    ("1e9 - 1e9*x2^2", ("1*x2", "1*x2 - 1*x1"), [-0.5, 1.0],
     r"state left the set at t = 0\.5020000000000003", 1),
], ids=["overflow", "left-the-set"])
def test_failure_while_sliding_raises_at_its_step(g, f, x0, message, handed,
                                                  monkeypatch):
    """A set trajectory that fails on the boundary after sliding ends with
    the message recorded when flow.step projected every step."""
    system = SemialgebraicSystem(
        [parse_polynomial(c, 2) for c in f],
        SemialgebraicSet([parse_polynomial(g, 2)], [(-1.0, 1.0)] * 2))
    calls = []
    flow_step = flow.step
    monkeypatch.setattr(flow, "step",
                        lambda *args: calls.append(1) or flow_step(*args))
    with pytest.raises(NumericalError, match=f"^{message}$"):
        simulate(x0, T=2.0, dt=1e-3, system=system)
    assert len(calls) == handed


def test_overflow_in_the_loop_raises_at_its_step(monkeypatch):
    # x' = x^2 from x = 1 blows up at t = 1: float ** raises OverflowError
    # inside the loop, which simulate turns into the NumericalError of its
    # step
    system = ConicSystem([parse_polynomial("1*x1^2", 2),
                          parse_polynomial("1*x2^2", 2)],
                         PolyhedralCone(np.eye(2)))
    monkeypatch.setattr(flow, "step",
                        lambda *args: pytest.fail("flow.step called"))
    with pytest.raises(NumericalError, match=r"^state overflowed the float "
                       r"range at t = 1\.0169999999999988$"):
        simulate([1.0, 1.0], T=2.0, dt=1e-3, system=system)


# -- the generated loop against the generator by terms ----------------------------

def kernel_run(kernel, system, x0, dt, count):
    """Everything one call of an Euler kernel leaves, with flow.step as
    its projection (as simulate passes it): the times, the states with the
    multipliers record after each step, eta by row, the arguments and
    record of each handed-off step and the exception that ends the loop.  The values of a handed-off step are left out where z
    is not finite: a cone row's zero columns then give NaN in the
    generator by terms, and flow.step raises before it reads them."""
    record, etas, handed, records = {}, {}, [], []

    class States(list):
        def append(self, x):
            super().append(x)
            records.append(dict(record))
    times, states = [0.0], States([tuple(x0)])

    def project(x, z, fx, values):
        finite = all(map(np.isfinite, z))
        handed.append((len(states) - 1, x, z, fx, values if finite else None,
                       dict(record)))
        x_next, etas[len(states) - 1] = flow.step(x, z, fx, values, dt,
                                                  system, record)
        return x_next
    try:
        kernel(times, states, dt, count, project, record, etas)
        error = None
    except (OverflowError, NumericalError) as exc:
        error = f"{type(exc).__name__}: {exc}"
    return times, list(states), records, etas, handed, error


def seeded_field(rng, n, degree, homogeneous):
    """n polynomials of up to four terms each, of degree 1 to degree (or
    degree alone), with coefficients +-1, +-0.5, 2 or -3; the last
    component is zero half the time."""
    monomials = [m for m in product(range(degree + 1), repeat=n)
                 if sum(m) == degree or 1 <= sum(m) < degree
                 and not homogeneous]
    field = []
    for i in range(n):
        count = 0 if i == n - 1 and rng.integers(2) else \
            rng.integers(1, min(4, len(monomials)) + 1)
        picked = rng.choice(len(monomials), count, replace=False)
        field.append(Polynomial(n, {
            monomials[k]: Fraction(rng.choice([1, -1, 1, -1, 0.5, -0.5, 2,
                                               -3]))
            for k in picked}))
    return field


def signed_zeros(rng, x):
    """x as Python floats (as simulate passes them), a few of them
    replaced by 0.0 or -0.0."""
    x = list(map(float, x))
    for j in rng.choice(len(x), rng.integers(0, len(x) + 1), replace=False):
        x[j] = float(rng.choice([0.0, -0.0]))
    return x


# x1 >= x2 >= 0, its rows of 0.0, -0.0 and +-1.0
OCTANT = PolyhedralCone([[1.0, 0.0], [-0.0, 1.0], [1.0, -1.0]])
OVERFLOWING = {
    # 1e308 x1 is inf past x1 = 1.8 (a product, no OverflowError)
    "inf-field": [parse_polynomial("1e308*x1 + x2", 2),
                  parse_polynomial("-1*x2", 2)],
    # inf - inf past x1 = x2 = 1.8
    "nan-field": [parse_polynomial("1e308*x1 - 1e308*x2", 2),
                  parse_polynomial("x1", 2)],
    # x1^3 overflows in float **, which raises OverflowError
    "pow-field": [parse_polynomial("x1^3", 2), parse_polynomial("-1*x2^3", 2)],
}


def kernel_cases():
    """(name, system, derivatives, starts, dt, count) of the loops that
    the two generators must run the same: seeded fields on cones whose
    rows hold 0.0, -0.0 and +-1.0 and on the cusp, the disc and the ball;
    the fields of OVERFLOWING; CUSP_CORNER, whose corners are handed off,
    PUSHED_DISC, whose warm slides fail and are retried cold; and two
    half-planes with a gradient entry that is NaN at the slide's y.
    derivatives is None where they are the set's own."""
    rng = np.random.default_rng(97)
    cases = []
    for k in range(6):
        for name, cone in (("wedge", WEDGE), ("octant", OCTANT),
                           ("square", SQUARE)):
            n = cone.dimension
            system = ConicSystem(seeded_field(rng, n, 1 + k % 3, True), cone)
            starts = [signed_zeros(rng, rng.uniform(-1, 1, n))
                      for _ in range(3)]
            cases.append((f"{name}-{k}", system, None, starts, 0.05, 60))
        for name, S in (("cusp", cusp_system().S), ("disc", DISC.S),
                        ("ball", BALL)):
            system = SemialgebraicSystem(
                seeded_field(rng, S.dimension, 1 + k % 3, False), S)
            starts = [signed_zeros(rng, x)
                      for x in boundary_starts(system, rng, 2)]
            cases.append((f"{name}-{k}", system, None, starts, 0.02, 80))
    for name, field in OVERFLOWING.items():
        for label, system in (("cone", ConicSystem(field, OCTANT)),
                              ("cusp", SemialgebraicSystem(
                                  field, cusp_system().S))):
            cases.append((f"{name}-{label}", system, None,
                          [[1.0, 0.9], [0.81, -0.9]], 0.05, 400))
    for name, system, x0, dt in (("corner", CUSP_CORNER, [0.25, 0.5], 1e-3),
                                 ("pushed-disc", PUSHED_DISC, [0.0, 1.0], 0.2),
                                 ("parabola", PARABOLA_CUBIC, [1.0, 1.0],
                                  1e-2)):
        cases.append((name, system, None, [x0], dt, 2000))
    # on x_j >= -1 pushed down x_j, a sliding step goes from z (z_j =
    # -1 - dt) to y (y_j = -1) and moves the other coordinate x_k by lam
    # times the gradient entry given to the loop, c x_k + c x_j x_k with
    # c = 2^1023, which is finite at z but inf - inf = NaN at y.  When it
    # is the second entry, the KKT test passes over it (max keeps the
    # first of its arguments) and keeps y; when it is the first, the test
    # fails and the step is handed off.
    c = Fraction(2**1023)
    for j, k in ((0, 1), (1, 0)):
        field = [Polynomial.zero(2)] * 2
        field[j] = Polynomial(2, {(2 - 2 * j, 2 * j): -1})
        half_plane = SemialgebraicSystem(field, SemialgebraicSet(
            [Polynomial(2, {(0, 0): 1, (1 - j, j): 1})], [(-2.0, 2.0)] * 2))
        gradient = [Polynomial.constant(2, 1)] * 2
        gradient[k] = Polynomial(2, {(j, 1 - j): c, (1, 1): c})
        starts = [[-1.0, 1.5], [-1.0, -1.2]]
        cases.append((f"nan-gradient-{k + 1}", half_plane,
                      [(gradient, [Polynomial.zero(2)] * 3)],
                      [x if j == 0 else x[::-1] for x in starts], 1e-3, 20))
    return cases


KERNEL_CASES = kernel_cases()


def case_kernels(case):
    """The constraints and derivatives of a case's loop, and the loops of
    the two generators."""
    _, system, derivatives, *_ = case
    if isinstance(system, ConicSystem):
        constraints, own = system.cone.rows, ()
    else:
        constraints, own = system.S.generators, system.S.derivatives
    derivatives = own if derivatives is None else derivatives
    return (poly.euler_kernel(system.f, constraints, derivatives),
            euler_kernel_by_terms(system.f, constraints, derivatives))


@pytest.mark.parametrize("case", KERNEL_CASES,
                         ids=[case[0] for case in KERNEL_CASES])
def test_euler_kernel_matches_the_generator_by_terms(case):
    """The loop without the arithmetic that changes no bit and without
    abs and max calls leaves what the generator by terms leaves: the same
    times, states, eta, multipliers records, hand-offs and exception
    message, bit for bit."""
    _, system, _, starts, dt, count = case
    new, old = case_kernels(case)
    for x0 in starts:
        assert repr(kernel_run(new, system, x0, dt, count)) == \
            repr(kernel_run(old, system, x0, dt, count)), x0


def test_kernel_cases_reach_every_branch():
    """KERNEL_CASES slide, hand off steps where two generators are
    violated, keep the slide past the NaN gradient, and end in
    OverflowError and in NumericalError."""
    seen = set()
    for case in KERNEL_CASES:
        name, system, _, starts, dt, count = case
        kernel, _ = case_kernels(case)
        for x0 in starts:
            _, states, _, etas, handed, error = kernel_run(
                kernel, system, x0, dt, count)
            rows = {row for row, *_ in handed}
            if set(etas) - rows:
                seen.add("slid")
            if isinstance(system, SemialgebraicSystem) and any(
                    values and sum(v < -flow.FEAS_TOL for v in values) > 1
                    for *_, values, _ in handed):
                seen.add("corner")
            if name == "nan-gradient-2" and any(
                    abs(states[row + 1][1]) > 1e300
                    for row in set(etas) - rows):
                seen.add("past-nan")
            if error:
                seen.add(error.split(":")[0])
    assert seen == {"slid", "corner", "past-nan", "OverflowError",
                    "NumericalError"}


def test_cusp_kernel_source_has_no_no_op_factor_or_builtin_call(
        monkeypatch):
    sources = []
    compile_lines = poly._compile
    monkeypatch.setattr(poly, "_compile", lambda lines, values: sources.append(
        "\n".join(lines)) or compile_lines(lines, values))
    cusp_system().euler_kernel
    source, = sources
    assert "slide = 0" in source
    for text in ("1.0*", "abs(", "max("):
        assert text not in source


def test_free_trajectory_never_calls_step(monkeypatch):
    monkeypatch.setattr(flow, "step",
                        lambda *args: pytest.fail("flow.step called"))
    system, x0, T, dt, V = FREE_STEP_PINS["refine1"][:5]
    traj = simulate(x0, T, dt, system, V=V)
    assert len(traj) == 20001 and not traj.eta_log.any()


def test_set_kernels_are_built_on_first_use():
    """A cusp run that slides and hands nothing off builds only the values
    kernel of the set; a run that hands off corners builds the gradient
    and Hessian kernels too, each once."""
    built = []
    make = tangency.float_kernel
    for f, x0, handed in ((cusp_system().f, [0.49, 0.7], False),
                          (CUSP_CORNER.f, [0.25, 0.5], True)):
        S = cusp_system().S
        built.clear()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(tangency, "float_kernel", lambda polys: built.append(
                len(polys)) or make(polys))
            simulate(x0, 2.0, 1e-3, SemialgebraicSystem(f, S))
        assert built == ([2, 2, 2, 3, 3] if handed else [2])
        assert ("gradient_kernels" in vars(S)) == handed


@pytest.mark.parametrize("T, dt", [(np.inf, 1e-3), (np.nan, 1e-3),
                                   (1.0, np.nan), (1.0, np.inf),
                                   (1e300, 1e-300)],
                         ids=["T-inf", "T-nan", "dt-nan", "dt-inf",
                              "T-over-dt-inf"])
def test_non_finite_times_are_input_errors(T, dt):
    with pytest.raises(InputError, match="finite and positive"):
        simulate([2.0, 0.5], T, dt, wedge_system())


def test_v_is_evaluated_once_on_all_states():
    calls = []

    def first_coordinate(states):
        calls.append(states.shape)
        return states[:, 0]

    traj = simulate([0.8, 0.2], T=0.01, dt=1e-3, system=wedge_system(),
                    V=first_coordinate)
    assert calls == [(len(traj), 2)]
    assert traj.v_values.tolist() == [float(s[0]) for s in traj.states]
    poly = simulate([0.8, 0.2], T=0.01, dt=1e-3, system=wedge_system(),
                    V=PRINTED_V)
    table = MonomialTable([PRINTED_V])
    assert poly.v_values.dtype == np.float64
    assert poly.v_values.tobytes() == table(poly.states)[:, 0].tobytes()


def test_csv_layout():
    system = wedge_system()
    traj = simulate([0.8, 0.2], T=0.01, dt=1e-3, system=system, V=PRINTED_V)
    lines = trajectory_csv(traj).splitlines()
    assert lines[0] == "t,x1,x2,eta1,eta2,V"
    assert len(lines) == len(traj) + 1
    assert all(len(line.split(",")) == 6 for line in lines[1:])


def test_csv_reads_back_with_loadtxt(tmp_path):
    traj = simulate([0.8, 0.2], T=0.01, dt=1e-3, system=wedge_system(),
                    V=PRINTED_V)
    path = tmp_path / "trajectory.csv"
    path.write_text(trajectory_csv(traj))
    table = np.loadtxt(path, delimiter=",", skiprows=1)
    assert table.shape == (len(traj), 6)
    assert np.array_equal(table[:, 0], traj.times)
    assert np.array_equal(table[:, 1:3], np.array(traj.states))


# each bound of the writer's orjson ranges and its two neighbours, of both
# signs (the literal bounds, so that a moved flow.ORJSON_* does not move
# them)
ORJSON_EDGES = [s * v for b in (1e-9, 1e-5, 1e-4, 1e16)
                for v in (np.nextafter(b, 0.0), b, np.nextafter(b, np.inf))
                for s in (1.0, -1.0)]


def log_uniform(rng, low, high, shape):
    """Floats of random sign with log10 |v| uniform in [low, high)."""
    return rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(low, high,
                                                                 shape)


def orjson_bounds_table(rng, n):
    """A (2 CSV_CHUNK + 24, 2n + 2) table of t, x, eta and V cells: one
    chunk where every cell is outside orjson's repr range (write_csv
    makes all of them holes, from both sub-bands of 1e-9 <= |v| < 1e-4,
    from |v| >= 1e16 and non-finite, so every path of the writer runs in
    it), one where every cell is inside it (no holes: zeros, tiny and
    ordinary values), then a row of each of ORJSON_EDGES in every
    column."""
    chunk, width = flow.CSV_CHUNK, 2 * n + 2
    band = rng.integers(0, 3, (chunk, width))
    outside = np.choose(band, [log_uniform(rng, -8.99, -5.01, band.shape),
                               log_uniform(rng, -4.99, -4.01, band.shape),
                               log_uniform(rng, 16.01, 307.9, band.shape)])
    outside.flat[::101], outside.flat[1::101] = np.inf, -np.inf
    outside.flat[2::101] = np.nan
    inside = np.where(rng.random((chunk, width)) < 0.8,
                      log_uniform(rng, -3.99, 15.99, (chunk, width)),
                      log_uniform(rng, -323.0, -9.01, (chunk, width)))
    inside.flat[::7] = 0.0
    inside.flat[3::7] = -0.0
    edges = np.repeat(np.array(ORJSON_EDGES)[:, None], width, axis=1)
    return np.vstack([outside, inside, edges])


def csv_rows(rng, n, layout):
    """times, states, eta_log and V values of a made-up trajectory whose
    eta rows mix the cases the writer once told apart: free (+0.0 in
    every coordinate, as a projection may also record it), projected,
    zeros with one -0.0 cell, and one zero among nonzero cells.  layout
    is the row count as an offset from CSV_CHUNK, or "free-then-projected":
    one all-free chunk, then one all-projected chunk, or "orjson-bounds":
    the cells of orjson_bounds_table."""
    chunk = flow.CSV_CHUNK
    if layout == "orjson-bounds":
        table = orjson_bounds_table(rng, n)
        return table[:, 0], table[:, 1:1 + n], table[:, 1 + n:-1], \
            table[:, -1]
    m = 2 * chunk if layout == "free-then-projected" else chunk + layout
    times = np.arange(m) * 1e-3
    states = rng.normal(size=(m, n))
    states[::97] = [-0.0, 0.0, 1e300, 5e-324][:n]
    kinds = rng.choice(["free", "projected", "negative-zero", "one-zero"],
                       m)
    if layout == "free-then-projected":
        kinds[:chunk], kinds[chunk:] = "free", "projected"
    eta = rng.normal(size=(m, n))
    eta[np.isin(kinds, ["free", "negative-zero"])] = 0.0
    eta[kinds == "negative-zero", 0] = -0.0
    eta[kinds == "one-zero", 1] = 0.0
    return times, states, eta, rng.normal(size=m)


@pytest.mark.parametrize("n, v, layout", list(product(
    [2, 3], [None, "finite", "inf-nan"],
    [-1, 0, 1, "free-then-projected", "orjson-bounds"])))
def test_csv_writer_matches_the_cell_by_cell_reference(n, v, layout):
    rng = np.random.default_rng(91)
    times, states, eta, v_values = csv_rows(rng, n, layout)
    if v is None:
        v_values = None
    elif v == "inf-nan":
        v_values[::5], v_values[1::5] = np.inf, np.nan
    traj = flow.Trajectory(times, states, eta, v_values)
    want = trajectory_csv_by_cells(traj)
    assert "-0.0" in want and ",0.0," in want
    got = trajectory_csv(traj)
    assert len(got) == len(want)
    # the first line that differs, not a diff of two whole CSVs
    assert next(((k, a, b) for k, (a, b) in enumerate(
        zip(got.splitlines(), want.splitlines())) if a != b), None) is None


@pytest.mark.parametrize("rows", [1, 7, 1024, 4096])
def test_csv_bytes_do_not_depend_on_the_chunk_size(rows, monkeypatch):
    # holes at the first and last cell of a chunk, and chunks of one row
    n = 3
    table = orjson_bounds_table(np.random.default_rng(92), n)
    traj = flow.Trajectory(table[:, 0], table[:, 1:1 + n],
                           table[:, 1 + n:-1], table[:, -1])
    want = trajectory_csv_by_cells(traj)
    monkeypatch.setattr(flow, "CSV_CHUNK", rows)
    assert trajectory_csv(traj) == want


class Discard:
    """A stream that keeps nothing of what is written to it."""

    def write(self, text: str) -> None:
        pass


def test_csv_writer_peak_memory_is_no_higher_than_before():
    # 20,001 rows of t, 3 states, 3 eta and V; two in seven of the x, eta
    # and V cells (a quarter of all cells) in 1e-9 <= |v| < 1e-4, as on a
    # trajectory that decays towards the origin
    rng = np.random.default_rng(20001)
    m, n = 20_001, 3
    cells = rng.normal(size=(m, 2 * n + 1))
    band = rng.random(cells.shape) < 2 / 7
    cells[band] = log_uniform(rng, -9.0, -4.0, band.sum())
    traj = flow.Trajectory(np.arange(m) * 1e-3, cells[:, :n],
                           cells[:, n:2 * n], cells[:, -1])
    traj.write_csv(Discard())            # orjson's import is not counted
    tracemalloc.start()
    try:
        traj.write_csv(Discard())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 2,470,914 bytes: this test's reading of the writer that took every
    # hole through repr, in 4,096-row chunks
    assert peak <= 2_470_914, peak


def test_orjson_float_text_is_repr_exactly_in_the_writers_range():
    # write_csv trusts orjson's text wherever its range tests hold; an
    # orjson whose float text moves must fail here, not change the CSV
    import orjson
    rng = np.random.default_rng(37)
    bits = rng.integers(0, 2 ** 64, 200_000, dtype=np.uint64)
    # random mantissas with exponents from 2^-40 to 2^60, around the bounds
    near = np.ldexp(log_uniform(rng, 0.0, np.log10(2.0), 100_000),
                    rng.integers(-40, 60, 100_000))
    subnormal = rng.integers(1, 2 ** 52, 1_000, dtype=np.uint64)
    values = np.concatenate([
        bits.view(float), near, subnormal.view(float),
        log_uniform(rng, -9.0, -4.0, 50_000),
        ORJSON_EDGES, [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                       1.7976931348623157e308, -1.7976931348623157e308]])
    values = values[np.isfinite(values)]
    texts = orjson.dumps(values, option=orjson.OPT_SERIALIZE_NUMPY)
    texts = texts[1:-1].decode().split(",")
    size = np.abs(values)
    exact = (size < flow.ORJSON_TINY) \
        | ((size >= flow.ORJSON_LOW) & (size < flow.ORJSON_HIGH))
    sci = (size >= flow.ORJSON_TINY) & (size < flow.ORJSON_SCI)
    positional = (size >= flow.ORJSON_SCI) & (size < flow.ORJSON_LOW)
    assert 10_000 < exact.sum() < len(values) - 10_000
    assert sci.sum() > 10_000 and positional.sum() > 10_000
    for v, text, same, e_notation, fixed in zip(
            values.tolist(), texts, exact.tolist(), sci.tolist(),
            positional.tolist()):
        # outside the range the text still reads back as v, but differs
        # from repr, so the range is as wide as it can be
        assert (text == repr(v)) == same and float(text) == v, (v, text)
        # below ORJSON_SCI repr's exponent has one more digit (e-06 for
        # e-6); from it on orjson writes 0.0000..., so the bound is exact
        if not same:
            assert (text.replace("e-", "e-0") == repr(v)) == e_notation, \
                (v, text)
        assert text.lstrip("-").startswith("0.0000") == fixed, (v, text)


@pytest.mark.parametrize("system, x0, T, dt", [
    (REFINE1, [0.1, 0.2, 0.9], 2.0, 1e-2),
    (cusp_system(), [0.49, 0.7], 0.5, 1e-3),
    (cusp_system(), [0.49, 0.7], 4e-4, 1e-3),
], ids=["free-cone", "projected-cusp", "no-step"])
def test_states_are_the_loop_tuples_as_float64(system, x0, T, dt,
                                               monkeypatch):
    rows = []
    kernel = system.euler_kernel

    def kept(times, states, *args):
        rows.append(states)
        return kernel(times, states, *args)
    monkeypatch.setitem(system.__dict__, "euler_kernel", kept)
    traj = simulate(x0, T, dt, system)
    (states,) = rows
    assert traj.states.dtype == np.float64
    assert traj.states.shape == (round(T / dt) + 1, len(x0))
    assert traj.states.tobytes() == np.array(states).tobytes()
