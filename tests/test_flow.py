from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import nnls

from lyapcert import flow, tangency
from lyapcert.cli import parse_spec
from lyapcert.cones import PolyhedralCone
from lyapcert.cop_lp import ConicSystem
from lyapcert.flow import FlowError, project_cone, project_set, simulate, step
from lyapcert.poly import Polynomial, parse_polynomial
from lyapcert.sos_cert import SemialgebraicSystem
from lyapcert.tangency import (SemialgebraicSet, eta_projection,
                               face_eta_polynomial)
from reference import simulate_cone_numpy, slsqp_projection

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
        assert WEDGE.contains(p, tol=1e-9)
        # projection inequality against random feasible points
        for _ in range(20):
            lam = rng.uniform(0, 1)
            rad = rng.uniform(0, 3)
            y = rad * (lam * np.array([0.8, 0.2]) + (1 - lam) * np.array([0.2, 0.8]))
            assert np.linalg.norm(z - p) <= np.linalg.norm(z - y) + 1e-9


@pytest.mark.parametrize("cone", [WEDGE, SQUARE], ids=["wedge", "square"])
def test_cone_projection_is_the_moreau_form_of_eta(cone):
    rng = np.random.default_rng(73)
    outside = 0
    for _ in range(200):
        z = rng.uniform(-2, 2, size=cone.dimension)
        if cone.contains(z):
            continue
        outside += 1
        assert np.array_equal(project_cone(z, cone),
                              z + eta_projection(z, cone.C))
    assert outside >= 50


def test_set_projection_feasible_and_close():
    S = cusp_system().S
    rng = np.random.default_rng(72)
    for _ in range(50):
        z = rng.uniform([-0.4, -1.2], [1.4, 1.2])
        p = project_set(z, S)
        assert S.contains(p, tol=1e-9)
        for _ in range(20):
            y = rng.uniform([0, -1], [1, 1])
            if S.contains(y, tol=0.0):
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
        assert S.contains(p, tol=1e-9)
    assert S.hessians is hessians


def normal_cone_residual(p, z, S, active_tol=1e-9):
    """|p - z - sum lam_i grad g_i(p)| for the best lam >= 0 over the
    generators active at p; 0 when z - p lies in N_S(p)."""
    active = [i for i, g in enumerate(S.generators)
              if g.evaluate_float(p) <= active_tol]
    G = np.array([[d.evaluate_float(p) for d in S.gradients[i]]
                  for i in active]).reshape(-1, len(p))
    _, residual = nnls(G.T, np.asarray(p) - np.asarray(z))
    return residual, active


def test_set_projection_matches_slsqp_and_is_normal():
    S = cusp_system().S
    rng = np.random.default_rng(75)
    far, corners = [], []
    while len(far) < 40:
        z = rng.uniform([-1.0, -2.0], [2.0, 2.0])
        if S.contains(z, tol=0.0):
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
        assert S.contains(p, tol=1e-10)
    for z, _ in corners:  # both generators bind at (1, +-1)
        p = project_set(z, S)
        assert normal_cone_residual(p, z, S)[1] == [0, 1]
        assert np.allclose(p, [1.0, np.sign(z[1])], atol=1e-12)


def test_set_projection_that_does_not_converge_raises(monkeypatch):
    S = cusp_system().S
    assert project_set([0.5, 0.1], S) == (0.5, 0.1)  # inside: unchanged
    monkeypatch.setattr(flow, "MAX_PROJECTION_ITER", 2)
    with pytest.raises(FlowError, match="did not converge"):
        project_set([-0.3, 0.8], S)


# -- single steps --------------------------------------------------------------------

def test_interior_step_is_plain_euler():
    system = wedge_system()
    x = np.array([1.0, 1.0])  # interior of the wedge
    x_next, eta = step(x, 1e-3, system)
    assert np.allclose(eta, 0.0, atol=1e-12)
    assert np.allclose(x_next, x + 1e-3 * system.field_at(x))


def eta_at(branches, x):
    """eta(x) on a cone face by branch selection on the sign of w(x)."""
    if branches.w.evaluate_float(x) >= 0.0:
        return np.zeros(len(x))
    return np.array([p.evaluate_float(x) for p in branches.eta_b_scaled]) / \
        float(branches.c_norm_sq)


def test_boundary_step_eta_aligns_with_branch():
    system = wedge_system()
    branches = face_eta_polynomial(WEDGE, 1, WEDGE_FIELD)
    x = np.array([0.8, 0.2]) * 2.0  # on face 1
    dt = 1e-5
    _, eta_used = step(x, dt, system)
    eta_exact = eta_at(branches, x)
    angle = np.arccos(np.clip(
        eta_used @ eta_exact /
        (np.linalg.norm(eta_used) * np.linalg.norm(eta_exact)), -1, 1))
    assert angle <= 1e-3


def test_step_rejects_infeasible_start():
    with pytest.raises(FlowError):
        simulate([-1.0, -1.0], 1.0, 1e-2, wedge_system())


# -- trajectories ---------------------------------------------------------------------

SQ3D = parse_spec(str(Path(__file__).resolve().parents[1] / "specs"
                      / "sq3d.spec")).system


@pytest.mark.parametrize("system, starts, T, dt", [
    (wedge_system(), [[2.0, 0.5], [0.3, 1.1], [1.6, 0.4]], 3.0, 1e-3),
    (SQ3D, [[0.1, 0.2, 0.9], [-0.3, 0.35, 0.8], [0.4, -0.1, 0.85]],
     20.0, 1e-2),
], ids=["wedge", "sq3d"])
def test_cone_trajectories_match_the_numpy_step_loop(system, starts, T, dt,
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
    assert projected >= 100
    if system.dimension == 3:  # corner steps, where two rows bind
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
    worst = min(min(float(v) for v in system.S.values(s)) for s in traj.states)
    assert worst >= -1e-8


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
    assert poly.v_values == PRINTED_V.eval_many(np.array(poly.states)).tolist()


def test_csv_layout():
    system = wedge_system()
    traj = simulate([0.8, 0.2], T=0.01, dt=1e-3, system=system, V=PRINTED_V)
    lines = traj.to_csv().splitlines()
    assert lines[0] == "t,x1,x2,eta1,eta2,V"
    assert len(lines) == len(traj) + 1
    assert all(len(line.split(",")) == 6 for line in lines[1:])


def test_csv_reads_back_with_loadtxt(tmp_path):
    traj = simulate([0.8, 0.2], T=0.01, dt=1e-3, system=wedge_system(),
                    V=PRINTED_V)
    path = tmp_path / "trajectory.csv"
    path.write_text(traj.to_csv())
    table = np.loadtxt(path, delimiter=",", skiprows=1)
    assert table.shape == (len(traj), 6)
    assert np.array_equal(table[:, 0], traj.times)
    assert np.array_equal(table[:, 1:3], np.array(traj.states))
