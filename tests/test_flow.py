import hashlib
from fractions import Fraction
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
from reference import (cone_contains, euler_step_floats,
                       evaluate_float_terms, field_at, set_contains,
                       set_values, simulate_by_steps, simulate_cone_numpy,
                       slsqp_projection, trajectory_csv)

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
    values all >= -FEAS_TOL, and otherwise hands project the same bits of
    (x, z, f(x), values); either way it appends t + dt and the state."""
    system = KERNEL_SYSTEMS[name]
    rng = np.random.default_rng(79)
    kinds = set()
    for x in rng.uniform(-2, 2, size=(200, system.dimension)):
        x = tuple(x.tolist())
        for dt in (1e-3, 0.37):
            z, fx, values = euler_step_floats(system, x, dt)
            handed, times, states = [], [0.5], [x]
            system.euler_kernel(times, states, dt, 1, lambda *args:
                                handed.append(args) or args[1], {}, {})
            assert times == [0.5, 0.5 + dt]
            if min(values, default=0.0) >= -flow.FEAS_TOL:
                kinds.add("kept")
                assert not handed and hexes(states[1:]) == hexes([z])
            else:
                kinds.add("projected")
                assert hexes(handed[0]) == hexes((x, z, fx, values))
                assert states[1] is handed[0][1]
    assert kinds == ({"kept"} if name == "no-rows"
                     else {"kept", "projected"})


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
    """A free step keeps its plain Euler point and records eta exactly 0,
    and a projection after free steps starts from an empty multipliers
    record: it is the step of each run of projected steps that the loop
    hands to flow.step, and the loop slides the others (a hand-off after
    a projection, with that one's record, is in
    test_sliding_matches_the_route_through_step)."""
    records = []
    flow_step = flow.step

    def recorded(*args):
        records.append(dict(args[-1]))
        return flow_step(*args)
    monkeypatch.setattr(flow, "step", recorded)
    traj = simulate([0.0, 1.0], T=10.0, dt=1e-2, system=DISC)
    assert step_kinds(traj)[:3] == [True, False, True]
    projected = (traj.eta_log[:-1] != 0).any(axis=1).tolist()
    run_starts = [not before for a, before
                  in zip(projected, [False] + projected) if a]
    assert records == [{}] * sum(run_starts)
    assert sum(run_starts) >= 2
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
    """The first boundary step, a cold projection, is the only one handed
    to flow.step, and takes at most two Newton steps in the generator's
    kernel; every later one slides in the loop.  No KKT system is solved
    (_kkt_step)."""
    system = cusp_system()
    kernel_steps, per_step = [], []
    flow_step = flow.step
    solves = counted_kkt_solves(monkeypatch)

    def counted(kernel):
        def newton(*args):
            result = kernel(*args)
            if result is not True and result is not None:
                kernel_steps.append(1)
            return result
        return newton
    monkeypatch.setitem(system.S.__dict__, "newton_kernels",
                        [counted(k) for k in system.S.newton_kernels])

    def counted_step(*args):
        before = len(solves), len(kernel_steps)
        result = flow_step(*args)
        per_step.append((len(solves) - before[0],
                         len(kernel_steps) - before[1]))
        return result
    monkeypatch.setattr(flow, "step", counted_step)
    traj = simulate([0.49, 0.7], T=0.5, dt=1e-3, system=system)
    assert (traj.eta_log[:-1] != 0).any(axis=1).all()  # every step projects
    assert len(per_step) == 1 and sum(per_step[0]) <= 2
    assert solves == []


def dense_concave_set():
    """{1 - ((1 + x1 + x2 + x3)/2)^6 >= 0}: 84 terms, more than one
    statement of a generated sum holds."""
    x = [Polynomial.variable(3, j) for j in range(3)]
    g = 1 - ((1 + x[0] + x[1] + x[2]).scale(Fraction(1, 2))) ** 6
    return SemialgebraicSet([g], [(-3.0, 1.0)] * 3)


@pytest.mark.parametrize("S, i, lo, hi", [
    (cusp_system().S, 0, [-1.0, -2.0], [2.0, 2.0]),
    (cusp_system().S, 1, [-1.0, -2.0], [2.0, 2.0]),  # linear: zero Hessian
    (BALL, 0, [-1.5] * 3, [1.5] * 3),
    (dense_concave_set(), 0, [-1.0] * 3, [0.5] * 3),
], ids=["cusp-g1", "cusp-g2", "ball", "84-terms"])
def test_newton_kernel_step_matches_the_elimination(S, i, lo, hi):
    values_at = S.float_kernels[0]
    rng = np.random.default_rng(80)
    for _ in range(200):
        y = tuple(rng.uniform(lo, hi).tolist())
        z = tuple(rng.uniform(lo, hi).tolist())
        lam = float(rng.uniform(0.0, 2.0))
        got = S.newton_kernels[i](y, z, lam, 0.0)
        want = flow._kkt_step(y, z, S, [i], [lam], values_at(y), 0.0)
        got, want = (np.array(a + tuple(b)) for a, b in (got, want))
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(), \
            (y, z, lam)


def test_dense_generator_sum_takes_more_than_one_statement():
    assert len(dense_concave_set().generators[0].terms) > poly._KERNEL_CHUNK


def test_newton_kernel_reports_convergence_as_the_elimination_does():
    S = cusp_system().S
    rng = np.random.default_rng(81)
    for _ in range(50):
        z = rng.uniform([-0.4, -1.2], [0.9, 1.2])
        record = {}
        y = project_set(z, S, record)
        if len(record) != 1:
            continue
        (i, lam), = record.items()
        tol = flow.KKT_TOL * (1.0 + np.abs(z).max())
        z = tuple(z.tolist())
        assert S.newton_kernels[i](y, z, lam, tol) is True
        assert flow._kkt_step(y, z, S, [i], [lam],
                              S.float_kernels[0](y), tol) is True


def test_kernel_with_a_negative_pivot_falls_back_to_the_elimination(
        monkeypatch):
    # g = 1 + x1^2 - x2: H = I - lam hess g has the pivot 1 - 2 lam < 0
    # at lam = 1, so the kernel takes no step there
    S = SemialgebraicSet([parse_polynomial("1 + x1^2 - x2", 2)],
                         [(-2.0, 2.0)] * 2)
    rng = np.random.default_rng(82)
    for _ in range(20):
        y, z = (tuple(rng.uniform(-2.0, 2.0, size=2).tolist())
                for _ in range(2))
        assert S.newton_kernels[0](y, z, 1.0, 0.0) is None
    solves = counted_kkt_solves(monkeypatch)
    z = (0.3, 1.5)
    got = project_set(z, S, {0: 1.0})
    assert solves  # the warm start at lam = 1 took the elimination
    monkeypatch.setitem(S.__dict__, "newton_kernels",
                        [lambda *args: None])  # every step eliminates
    want = project_set(z, S, {0: 1.0})
    assert np.abs(np.subtract(got, want)).max() <= \
        flow.KKT_TOL * (1.0 + max(z))
    assert set_contains(S, got, tol=1e-10)
    residual, active = normal_cone_residual(got, z, S)
    assert active == [0] and residual <= 1e-9


def test_singular_kkt_system_raises():
    # grad g vanishes at the centre of the disc, so the (n + 1) system
    # has a zero row
    S = DISC.S
    y = (0.0, 0.0)
    with pytest.raises(NumericalError, match="^singular KKT system"):
        flow._kkt_step(y, (2.0, 0.0), S, [0], [0.0], S.float_kernels[0](y),
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
    # interior at first, on the boundary x1 = x2^2 from t = 0.67: the
    # first boundary step is handed off, and the loop slides the others
    traj = simulate([0.3, 0.5], T=1.0, dt=1e-3, system=cusp_system())
    projected = int((traj.eta_log != 0).any(axis=1).sum())
    assert 100 <= projected <= 900
    assert len(calls) == len(steps) == 1


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
    of a set only for the first step of each run of projected steps: the
    loop slides the others."""
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
    traj = simulate(x0, T, dt, system, V=V)
    steps = len(traj) - 1
    assert loops == [steps]
    if isinstance(system, ConicSystem):
        assert len(calls) == \
            int((traj.eta_log[:-1] != 0).any(axis=1).sum())
    else:
        assert len(calls) == step_kinds(traj).count(True) == 1
    if name == "cusp-boundary":
        assert step_kinds(traj) == [True]


# DISC's field with three times the radial speed: at dt = 0.2 the Newton
# step from the warm start overshoots and its multiplier turns negative, so
# the loop hands the step off; below x2 = -0.2 the field turns inward and
# the trajectory leaves the circle
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
    """simulate's CSV is byte-identical to simulate_by_steps, where
    flow.step projects every step that is not kept.  On the cusp and the
    ball the loop hands off only the first step of each run of projected
    steps; on the other two it also hands off steps that it began to
    slide (a record of one positive multiplier, with z violating only
    that generator), and those keep the record of the step before."""
    handed = []
    flow_step = flow.step

    def recorded(x, z, fx, values, *args):
        record = dict(args[-1])
        violated = [i for i, v in enumerate(values) if v < -flow.FEAS_TOL]
        handed.append(len(record) == 1 and list(record) == violated
                      and min(record.values()) > 0.0)
        return flow_step(x, z, fx, values, *args)
    rng = np.random.default_rng(83)
    hands_off = system is PUSHED_DISC or system is CUSP_CORNER
    slid = 0
    for x0 in boundary_starts(system, rng, 3):
        handed.clear()
        monkeypatch.setattr(flow, "step", recorded)
        traj = simulate(x0, T, dt, system)
        monkeypatch.setattr(flow, "step", flow_step)
        got, want = (trajectory_csv(t).splitlines()
                     for t in (traj, simulate_by_steps(x0, T, dt, system)))
        assert len(got) == len(want)
        # the first line that differs, not a diff of two whole CSVs
        assert next(((k, a, b) for k, (a, b) in enumerate(zip(got, want))
                     if a != b), None) is None
        kinds = step_kinds(traj)
        if system is PUSHED_DISC:  # it leaves the circle
            assert [True, False] in [kinds[k:k + 2] for k in range(len(kinds))]
        if hands_off:
            slid += sum(handed)
        else:
            assert kinds == [True] and handed == [False]
    if hands_off:
        assert slid >= 1


@pytest.mark.parametrize("lam", [0.0, np.inf, np.nan],
                         ids=["zero", "inf", "nan"])
def test_sliding_step_hands_off_what_it_cannot_keep(lam):
    """A record of one multiplier that is 0 or NaN does not start a
    sliding step, and an infinite one puts the warm start past the float
    range, where no Newton step converges: the loop hands every step to
    project and records no eta of its own."""
    handed, record, etas = [], {}, {}

    def project(x, z, fx, values):
        handed.append(z)
        record.clear()
        record[0] = lam
        return (0.0, 1.0)
    times, states = [0.0], [(0.0, 1.0)]
    DISC.euler_kernel(times, states, 1e-2, 3, project, record, etas)
    assert len(handed) == 3 and etas == {}
    assert states == [(0.0, 1.0)] * 4


@pytest.mark.parametrize("g, f, x0, message, handed", [
    # x1' = x1^2 blows up at t = 1 while x2' = x2 pushes out through x2 = 1
    ("1 - x2^2", ("1*x1^2", "1*x2"), [1.0, 1.0],
     r"state overflowed the float range at t = 1\.0169999999999988", 1),
    # at this scale g rounds below -STATE_TOL at a converged projection:
    # the loop does not keep it and hands the step off
    ("1e9 - 1e9*x2^2", ("1*x2", "1*x2 - 1*x1"), [-0.5, 1.0],
     r"state left the set at t = 0\.5020000000000003", 2),
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


def test_free_trajectory_never_calls_step(monkeypatch):
    monkeypatch.setattr(flow, "step",
                        lambda *args: pytest.fail("flow.step called"))
    system, x0, T, dt, V = FREE_STEP_PINS["refine1"][:5]
    traj = simulate(x0, T, dt, system, V=V)
    assert len(traj) == 20001 and not traj.eta_log.any()


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
    assert traj.v_values == [float(s[0]) for s in traj.states]
    poly = simulate([0.8, 0.2], T=0.01, dt=1e-3, system=wedge_system(),
                    V=PRINTED_V)
    table = MonomialTable([PRINTED_V])
    assert poly.v_values == table(np.array(poly.states))[:, 0].tolist()


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
